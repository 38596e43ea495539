import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsketch.dataset import Graph
from subsketch.sampler import build_sketched_graph, sample_subgraphs

from _reference import degrees, entries_of, entry_overlap, sample_entries
from _synth import random_graph


def graph_from_edges(num_nodes, edges, index=0):
    return Graph(
        index=index,
        label=0,
        edges=tuple(sorted(edges)),
        node_labels=(0,) * num_nodes,
        features=np.ones((num_nodes, 1)),
    )


def bfs_oracle(edges, root, limit):
    """Ring-by-ring reference BFS with the same tie rules (ascending ids)."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    seen = {root}
    order = [root]
    ring = [root]
    while ring and len(order) < limit:
        nxt = []
        for parent in ring:
            for w in sorted(adj.get(parent, ())):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        order.extend(nxt)
        ring = nxt
    return order[:limit]


def test_star_hub_and_lowest_leaves():
    star = graph_from_edges(6, [(0, i) for i in range(1, 6)])
    ss = sample_subgraphs(star, n=1, s=4)
    assert ss.nodes.dtype == np.intp
    np.testing.assert_array_equal(ss.nodes, [[0, 1, 2, 3]])
    assert ss.mask.all()
    want = np.zeros((1, 4, 4))
    want[0, 0, 1:] = want[0, 1:, 0] = 1.0
    np.testing.assert_array_equal(ss.adjacency, want)


def test_adjacency_takes_one_byte_per_entry():
    path = graph_from_edges(5, [(i, i + 1) for i in range(4)])
    ss = sample_subgraphs(path, n=3, s=3)
    assert ss.adjacency.dtype == bool and ss.adjacency.shape == (3, 3, 3)


def test_path_center_one_ring():
    path = graph_from_edges(5, [(i, i + 1) for i in range(4)])
    ss = sample_subgraphs(path, n=3, s=3)
    # Degree ranking: 1, 2, 3 (degree 2, ascending id), so root 2 is second.
    np.testing.assert_array_equal(ss.nodes[1], [2, 1, 3])


def test_degree_ties_break_by_id():
    triangle = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    ss = sample_subgraphs(triangle, n=3, s=2)
    assert ss.nodes[:, 0].tolist() == [0, 1, 2]


def test_wraparound_when_graph_is_small():
    triangle = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    ss = sample_subgraphs(triangle, n=5, s=3)
    assert ss.nodes[:, 0].tolist() == [0, 1, 2, 0, 1]
    np.testing.assert_array_equal(ss.nodes[0], ss.nodes[3])


def test_small_component_is_padded():
    g = graph_from_edges(3, [(0, 1)])  # node 2 isolated
    ss = sample_subgraphs(g, n=3, s=4)
    np.testing.assert_array_equal(ss.nodes[0], [0, 1, 0, 0])  # pads hold 0
    np.testing.assert_array_equal(ss.mask[0], [True, True, False, False])
    pair = ss.adjacency[0]
    assert pair[2:, :].sum() == 0
    assert pair[:, 2:].sum() == 0
    np.testing.assert_array_equal(pair, pair.T)
    np.testing.assert_array_equal(ss.nodes[2], [2, 0, 0, 0])
    np.testing.assert_array_equal(ss.mask[2], [True, False, False, False])
    assert ss.adjacency[2].sum() == 0


def test_empty_graph_rejected():
    empty = Graph(
        index=9, label=0, edges=(), node_labels=(), features=np.zeros((0, 1))
    )
    with pytest.raises(ValueError, match="empty graph 9"):
        sample_subgraphs(empty, n=1, s=1)


@pytest.mark.parametrize("seed", range(6))
def test_matches_independent_bfs_oracle(seed):
    g = random_graph(np.random.default_rng(seed), num_nodes=20, edge_prob=0.15)
    ss = sample_subgraphs(g, n=6, s=5)
    degree = degrees(g)
    ranking = sorted(range(20), key=lambda v: (-degree[v], v))
    for i, entry in enumerate(entries_of(ss)):
        assert entry.central_node == ranking[i]
        assert entry.node_ids == tuple(bfs_oracle(g.edges.tolist(), ranking[i], 5))


@pytest.mark.parametrize("seed", range(4))
def test_subgraphs_are_connected(seed):
    g = random_graph(np.random.default_rng(100 + seed), num_nodes=15, edge_prob=0.2)
    for entry in entries_of(sample_subgraphs(g, n=5, s=6)):
        inside = set(entry.node_ids)
        reached = {entry.central_node}
        frontier = [entry.central_node]
        while frontier:
            u = frontier.pop()
            for v in inside - reached:
                if [min(u, v), max(u, v)] in g.edges.tolist():
                    reached.add(v)
                    frontier.append(v)
        assert reached == inside


def test_sampling_deterministic():
    g = random_graph(np.random.default_rng(5), num_nodes=12, edge_prob=0.3)
    a = sample_subgraphs(g, n=4, s=5)
    b = sample_subgraphs(g, n=4, s=5)
    for field in ("nodes", "mask", "adjacency", "overlap"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("seed", range(4))
def test_coverage_never_shrinks_with_s(seed):
    g = random_graph(np.random.default_rng(200 + seed), num_nodes=18, edge_prob=0.15)
    for s in range(1, 6):
        small = sample_subgraphs(g, n=4, s=s)
        large = sample_subgraphs(g, n=4, s=s + 1)
        covered_small = set(small.nodes[small.mask].tolist())
        covered_large = set(large.nodes[large.mask].tolist())
        assert covered_small <= covered_large


def test_sketch_disjoint_subgraphs_stay_unconnected():
    g = graph_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    ss = sample_subgraphs(g, n=2, s=3)  # roots 1 and 4, one per component
    sk = build_sketched_graph(ss, idx=[0, 1], b_com=0)
    assert sk.edges == ()


def test_sketch_single_shared_node_connects():
    path = graph_from_edges(5, [(i, i + 1) for i in range(4)])
    ss = sample_subgraphs(path, n=3, s=3)
    # Roots 1, 2, 3 with s=3 give overlapping windows along the path.
    sk = build_sketched_graph(ss, idx=[0, 1, 2], b_com=0)
    assert (0, 1) in sk.edges and (1, 2) in sk.edges


def test_sketch_threshold_is_strict():
    path = graph_from_edges(5, [(i, i + 1) for i in range(4)])
    ss = sample_subgraphs(path, n=3, s=3)
    entries = entries_of(ss)
    shared = {
        (i, j): len(set(entries[i].node_ids) & set(entries[j].node_ids))
        for i in range(3)
        for j in range(i + 1, 3)
    }
    for b_com in (0, 1, 2):
        sk = build_sketched_graph(ss, idx=[0, 1, 2], b_com=b_com)
        assert set(sk.edges) == {p for p, c in shared.items() if c > b_com}


@pytest.mark.parametrize("seed", range(5))
def test_sketch_matches_intersection_oracle(seed):
    g = random_graph(np.random.default_rng(300 + seed), num_nodes=16, edge_prob=0.2)
    ss = sample_subgraphs(g, n=5, s=5)
    idx = [0, 1, 2, 3, 4]
    sk = build_sketched_graph(ss, idx, b_com=1)
    entries = entries_of(ss)
    want = set()
    for i in range(5):
        for j in range(i + 1, 5):
            common = set(entries[i].node_ids) & set(entries[j].node_ids)
            if len(common) > 1:
                want.add((i, j))
    assert set(sk.edges) == want
    adj = sk.adjacency
    np.testing.assert_array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0)


@pytest.mark.parametrize("seed", range(3))
def test_overlap_counts_match_set_intersections(seed):
    g = random_graph(np.random.default_rng(320 + seed), num_nodes=14, edge_prob=0.25)
    ss = sample_subgraphs(g, n=6, s=4)
    np.testing.assert_array_equal(ss.overlap, entry_overlap(entries_of(ss)))


@pytest.mark.parametrize("seed", range(8))
def test_arrays_match_per_subgraph_sampler(seed):
    # Sizes below n wrap the root ranking; sparse graphs leave components
    # smaller than s, so rows carry pads.
    rng = np.random.default_rng(340 + seed)
    g = random_graph(rng, num_nodes=int(rng.integers(1, 14)), edge_prob=0.2)
    ss = sample_subgraphs(g, n=6, s=5)
    want = sample_entries(g, n=6, s=5)
    assert len(entries_of(ss)) == len(want)
    for got, ref in zip(entries_of(ss), want):
        assert got.central_node == ref.central_node
        assert got.node_ids == ref.node_ids
        assert got.local_adjacency.tobytes() == ref.local_adjacency.tobytes()
        assert got.mask.tobytes() == ref.mask.tobytes()
    assert not ss.nodes[~ss.mask].any()


@st.composite
def sampling_cases(draw, kind):
    """A hand-built graph with ``n`` and ``s`` for one named kind of case:
    isolated nodes, ``n`` past the node count (the ranking wraps), ``s = 1``,
    ``s`` past a component's size, or duplicate edges and self-loops listed
    in either direction."""
    num_nodes = draw(st.integers(1, 12))
    node = st.integers(0, num_nodes - 1)
    if kind == "isolated":
        linked = draw(st.integers(1, num_nodes))  # nodes from here on stay isolated
        node = st.integers(0, linked - 1)
    pair = st.tuples(node, node)
    if kind != "messy":
        pair = pair.filter(lambda e: e[0] < e[1])
    edges = draw(st.lists(pair, max_size=3 * num_nodes))
    if kind == "messy":
        loop = draw(node)
        edges += [(loop, loop)] + draw(st.lists(st.sampled_from(edges + [(loop, loop)]), max_size=4))
    else:
        edges = sorted(set(edges))
    n = draw(st.integers(num_nodes + 1, num_nodes + 8) if kind == "wrap" else st.integers(1, 10))
    s = 1 if kind == "s1" else draw(st.integers(num_nodes, num_nodes + 4) if kind == "big_s" else st.integers(1, 8))
    graph = Graph(index=0, label=0, edges=tuple(edges), node_labels=(0,) * num_nodes)
    return graph, n, s


@pytest.mark.parametrize("kind", ["isolated", "wrap", "s1", "big_s", "messy"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sampler_matches_deque_bfs_oracle(kind, data):
    graph, n, s = data.draw(sampling_cases(kind))
    ss = sample_subgraphs(graph, n, s)
    want = sample_entries(graph, n, s)
    assert ss.nodes.shape == ss.mask.shape == (n, s)
    for got, ref in zip(entries_of(ss), want):
        assert got.central_node == ref.central_node
        assert got.node_ids == ref.node_ids
        assert got.local_adjacency.tobytes() == ref.local_adjacency.tobytes()
        assert got.mask.tobytes() == ref.mask.tobytes()
    assert ss.overlap.tobytes() == entry_overlap(want).tobytes()
    assert not ss.nodes[~ss.mask].any()


def test_sketch_edges_in_row_major_order():
    path = graph_from_edges(6, [(i, i + 1) for i in range(5)])
    ss = sample_subgraphs(path, n=4, s=4)
    sk = build_sketched_graph(ss, idx=[3, 2, 1, 0], b_com=0)
    assert all(i < j for i, j in sk.edges)
    assert list(sk.edges) == sorted(sk.edges)
    adj = sk.adjacency
    assert {(i, j) for i, j in zip(*np.nonzero(adj)) if i < j} == set(sk.edges)


def test_sketch_requires_supernodes():
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    ss = sample_subgraphs(path, n=2, s=2)
    with pytest.raises(ValueError, match="no supernodes"):
        build_sketched_graph(ss, idx=[], b_com=0)
