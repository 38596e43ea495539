import numpy as np
import pytest

from subsketch.dataset import Graph
from subsketch.sampler import build_sketched_graph, sample_subgraphs

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
    entry = ss.subgraphs[0]
    assert entry.central_node == 0
    assert entry.node_ids == (0, 1, 2, 3)
    assert entry.mask.all()
    want = np.zeros((4, 4))
    want[0, 1:] = want[1:, 0] = 1.0
    np.testing.assert_array_equal(entry.local_adjacency, want)


def test_path_center_one_ring():
    path = graph_from_edges(5, [(i, i + 1) for i in range(4)])
    ss = sample_subgraphs(path, n=3, s=3)
    # Degree ranking: 1, 2, 3 (degree 2, ascending id), so root 2 is second.
    entry = ss.subgraphs[1]
    assert entry.central_node == 2
    assert entry.node_ids == (2, 1, 3)


def test_degree_ties_break_by_id():
    triangle = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    ss = sample_subgraphs(triangle, n=3, s=2)
    assert [e.central_node for e in ss.subgraphs] == [0, 1, 2]


def test_wraparound_when_graph_is_small():
    triangle = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    ss = sample_subgraphs(triangle, n=5, s=3)
    assert [e.central_node for e in ss.subgraphs] == [0, 1, 2, 0, 1]
    assert ss.subgraphs[0].node_ids == ss.subgraphs[3].node_ids


def test_small_component_is_padded():
    g = graph_from_edges(3, [(0, 1)])  # node 2 isolated
    ss = sample_subgraphs(g, n=3, s=4)
    pair, _, lone = ss.subgraphs
    assert pair.node_ids == (0, 1)
    np.testing.assert_array_equal(pair.mask, [True, True, False, False])
    assert pair.local_adjacency[2:, :].sum() == 0
    assert pair.local_adjacency[:, 2:].sum() == 0
    np.testing.assert_array_equal(pair.local_adjacency, pair.local_adjacency.T)
    assert lone.central_node == 2
    assert lone.node_ids == (2,)
    assert lone.local_adjacency.sum() == 0


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
    degree = g.degrees()
    ranking = sorted(range(20), key=lambda v: (-degree[v], v))
    for i, entry in enumerate(ss.subgraphs):
        assert entry.central_node == ranking[i]
        assert entry.node_ids == tuple(bfs_oracle(g.edges, ranking[i], 5))


@pytest.mark.parametrize("seed", range(4))
def test_subgraphs_are_connected(seed):
    g = random_graph(np.random.default_rng(100 + seed), num_nodes=15, edge_prob=0.2)
    for entry in sample_subgraphs(g, n=5, s=6).subgraphs:
        inside = set(entry.node_ids)
        reached = {entry.central_node}
        frontier = [entry.central_node]
        while frontier:
            u = frontier.pop()
            for v in inside - reached:
                if (min(u, v), max(u, v)) in set(g.edges):
                    reached.add(v)
                    frontier.append(v)
        assert reached == inside


def test_sampling_deterministic():
    g = random_graph(np.random.default_rng(5), num_nodes=12, edge_prob=0.3)
    a = sample_subgraphs(g, n=4, s=5)
    b = sample_subgraphs(g, n=4, s=5)
    for x, y in zip(a.subgraphs, b.subgraphs):
        assert x.node_ids == y.node_ids
        np.testing.assert_array_equal(x.local_adjacency, y.local_adjacency)
        np.testing.assert_array_equal(x.mask, y.mask)


@pytest.mark.parametrize("seed", range(4))
def test_coverage_never_shrinks_with_s(seed):
    g = random_graph(np.random.default_rng(200 + seed), num_nodes=18, edge_prob=0.15)
    for s in range(1, 6):
        small = sample_subgraphs(g, n=4, s=s)
        large = sample_subgraphs(g, n=4, s=s + 1)
        covered_small = {v for e in small.subgraphs for v in e.node_ids}
        covered_large = {v for e in large.subgraphs for v in e.node_ids}
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
    shared = {
        (i, j): len(set(ss.subgraphs[i].node_ids) & set(ss.subgraphs[j].node_ids))
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
    want = set()
    for i in range(5):
        for j in range(i + 1, 5):
            common = set(ss.subgraphs[i].node_ids) & set(ss.subgraphs[j].node_ids)
            if len(common) > 1:
                want.add((i, j))
    assert set(sk.edges) == want
    adj = sk.adjacency_matrix()
    np.testing.assert_array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0)


@pytest.mark.parametrize("seed", range(3))
def test_overlap_counts_match_set_intersections(seed):
    g = random_graph(np.random.default_rng(320 + seed), num_nodes=14, edge_prob=0.25)
    ss = sample_subgraphs(g, n=6, s=4)
    want = np.array(
        [
            [len(set(a.node_ids) & set(b.node_ids)) for b in ss.subgraphs]
            for a in ss.subgraphs
        ]
    )
    np.testing.assert_array_equal(ss.overlap, want)


@pytest.mark.parametrize("seed", range(3))
def test_sketch_from_entries_matches_sketch_from_set(seed):
    g = random_graph(np.random.default_rng(330 + seed), num_nodes=12, edge_prob=0.3)
    ss = sample_subgraphs(g, n=6, s=4)
    idx = [5, 0, 3, 2]
    for b_com in (0, 1, 2):
        from_set = build_sketched_graph(ss, idx, b_com)
        from_list = build_sketched_graph(list(ss.subgraphs), idx, b_com)
        assert from_set == from_list
        np.testing.assert_array_equal(
            from_set.adjacency_matrix(), from_list.adjacency_matrix()
        )


def test_sketch_edges_in_row_major_order():
    path = graph_from_edges(6, [(i, i + 1) for i in range(5)])
    ss = sample_subgraphs(path, n=4, s=4)
    sk = build_sketched_graph(ss, idx=[3, 2, 1, 0], b_com=0)
    assert all(i < j for i, j in sk.edges)
    assert list(sk.edges) == sorted(sk.edges)
    adj = sk.adjacency_matrix()
    assert {(i, j) for i, j in zip(*np.nonzero(adj)) if i < j} == set(sk.edges)


def test_sketch_requires_supernodes():
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    ss = sample_subgraphs(path, n=2, s=2)
    with pytest.raises(ValueError, match="no supernodes"):
        build_sketched_graph(ss, idx=[], b_com=0)
