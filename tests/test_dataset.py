import os
import pickle
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subsketch.dataset as dataset
from _reference import degrees, neighbors, parse_tu_lines, write_tu_lines
from subsketch.dataset import (
    Graph,
    batches,
    dataset_stats,
    make_folds,
    parse_tu_dataset,
    write_tu_dataset,
)
from subsketch.errors import ConfigError, DatasetFormatError


def write_lines(path, lines):
    path.write_text("".join(f"{line}\n" for line in lines))


def write_fixture(tmp_path, name="TOY", node_labels=True):
    """Triangle (nodes 1-3) plus a 4-node path, with junk the parser must absorb:
    both edge directions, a duplicate line, and a self-loop."""
    write_lines(
        tmp_path / f"{name}_A.txt",
        [
            "1, 2", "2, 1", "2, 3", "3, 2", "1, 3", "3, 1",
            "2, 2",  # self-loop, dropped
            "1, 2",  # duplicate
            "4, 5", "5, 4", "5, 6", "6, 5", "6, 7", "7, 6",
        ],
    )
    write_lines(tmp_path / f"{name}_graph_indicator.txt", [1, 1, 1, 2, 2, 2, 2])
    write_lines(tmp_path / f"{name}_graph_labels.txt", [-1, 1])
    if node_labels:
        write_lines(tmp_path / f"{name}_node_labels.txt", [7, 7, 8, 8, 9, 9, 7])


def test_parse_fixture(tmp_path):
    write_fixture(tmp_path)
    graphs = parse_tu_dataset(str(tmp_path), "TOY")
    assert len(graphs) == 2

    tri, path = graphs
    assert (tri.index, tri.label) == (0, 0)  # raw -1 -> class 0
    assert tri.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert tri.node_labels == (0, 0, 1)  # raw 7,7,8 under {7:0, 8:1, 9:2}
    assert tri.features is None  # categories only, no dense rows

    assert (path.index, path.label) == (1, 1)
    assert path.edges.tolist() == [[0, 1], [1, 2], [2, 3]]
    assert path.node_labels == (1, 2, 2, 0)
    assert dataset_stats(graphs).feature_dim == 3
    assert neighbors(path) == [[1], [0, 2], [1, 3], [2]]
    assert degrees(path) == [1, 2, 2, 1]


def test_parsed_edges_are_read_only_intp_pairs(tmp_path):
    write_fixture(tmp_path)
    # A third graph of one node and no edges.
    write_lines(tmp_path / "TOY_graph_indicator.txt", [1, 1, 1, 2, 2, 2, 2, 3])
    write_lines(tmp_path / "TOY_graph_labels.txt", [-1, 1, 1])
    write_lines(tmp_path / "TOY_node_labels.txt", [7, 7, 8, 8, 9, 9, 7, 7])
    tri, path, lone = parse_tu_dataset(str(tmp_path), "TOY")
    for graph, want in ((tri, [[0, 1], [0, 2], [1, 2]]), (path, [[0, 1], [1, 2], [2, 3]])):
        assert graph.edges.dtype == np.intp
        assert graph.edges.shape == (3, 2)
        assert not graph.edges.flags.writeable
        assert graph.edges.tolist() == want
    assert lone.edges.shape == (0, 2) and lone.edges.dtype == np.intp


def test_tuple_and_array_edges_agree():
    pairs = ((0, 1), (0, 2), (1, 2))
    given_array = np.array(pairs)
    from_tuple = Graph(index=0, label=0, edges=pairs, node_labels=(0, 0, 0))
    from_array = Graph(index=0, label=0, edges=given_array, node_labels=(0, 0, 0))
    for graph in (from_tuple, from_array):
        assert graph.edges.dtype == np.intp and not graph.edges.flags.writeable
    assert np.array_equal(from_tuple.edges, from_array.edges)
    assert given_array.flags.writeable  # the caller's array is left as it was
    empty = Graph(index=0, label=0, edges=(), node_labels=(0,))
    assert empty.edges.shape == (0, 2)


def test_pickled_graph_keeps_read_only_edges():
    graph = Graph(index=2, label=1, edges=((0, 1), (1, 2)), node_labels=(0, 1, 0))
    copy = pickle.loads(pickle.dumps(graph))
    assert not copy.edges.flags.writeable
    assert copy.edges.tolist() == [[0, 1], [1, 2]]
    assert (copy.index, copy.label, copy.node_labels) == (2, 1, (0, 1, 0))


@pytest.mark.parametrize(
    "edges, node_labels, message",
    [
        (((0, -1), (1, 2)), (0, 1, 0), r"graph 3: edges must be \(u, v\) pairs of ids in 0\.\.2"),
        (((0, 5),), (0, 1), r"graph 3: edges must be \(u, v\) pairs of ids in 0\.\.1"),
        (((1, 2),), (0, 1), r"graph 3: edges must be \(u, v\) pairs of ids in 0\.\.1"),
        (((0, 1, 2),), (0, 1, 0), r"graph 3: edges must be \(u, v\) pairs of ids in 0\.\.2"),
    ],
)
def test_bad_edges_rejected_naming_the_graph(edges, node_labels, message):
    with pytest.raises(ValueError, match=message):
        Graph(index=3, label=0, edges=edges, node_labels=node_labels)


def test_degree_fallback_without_node_labels(tmp_path):
    write_fixture(tmp_path, node_labels=False)
    tri, path = parse_tu_dataset(str(tmp_path), "TOY")
    # Distinct degrees are {1, 2}; triangle nodes all have degree 2.
    assert tri.node_labels == (1, 1, 1)
    assert path.node_labels == (0, 1, 1, 0)
    assert dataset_stats([tri, path]).feature_dim == 2


def test_missing_file_names_the_file(tmp_path):
    write_fixture(tmp_path)
    (tmp_path / "TOY_graph_labels.txt").unlink()
    with pytest.raises(FileNotFoundError, match="TOY_graph_labels.txt"):
        parse_tu_dataset(str(tmp_path), "TOY")


def test_unparseable_line_reports_position(tmp_path):
    write_fixture(tmp_path)
    write_lines(tmp_path / "TOY_node_labels.txt", [7, 7, "oops", 8, 9, 9, 7])
    with pytest.raises(DatasetFormatError, match=r"TOY_node_labels\.txt:3"):
        parse_tu_dataset(str(tmp_path), "TOY")


def test_edge_out_of_range(tmp_path):
    write_fixture(tmp_path)
    write_lines(tmp_path / "TOY_A.txt", ["1, 2", "2, 99"])
    with pytest.raises(DatasetFormatError, match=r"TOY_A\.txt:2.*range"):
        parse_tu_dataset(str(tmp_path), "TOY")


def test_edge_crossing_graphs(tmp_path):
    write_fixture(tmp_path)
    write_lines(tmp_path / "TOY_A.txt", ["1, 2", "3, 4"])
    with pytest.raises(DatasetFormatError, match=r"TOY_A\.txt:2"):
        parse_tu_dataset(str(tmp_path), "TOY")


def test_label_count_mismatch(tmp_path):
    write_fixture(tmp_path)
    write_lines(tmp_path / "TOY_graph_labels.txt", [-1, 1, 1])
    with pytest.raises(DatasetFormatError, match="3 labels for 2 graphs"):
        parse_tu_dataset(str(tmp_path), "TOY")


def test_stats(tmp_path):
    write_fixture(tmp_path)
    stats = dataset_stats(parse_tu_dataset(str(tmp_path), "TOY"))
    assert stats.num_classes == 2
    assert stats.feature_dim == 3


def test_round_trip_fixture(tmp_path):
    write_fixture(tmp_path)
    first = parse_tu_dataset(str(tmp_path), "TOY")
    out = tmp_path / "again"
    write_tu_dataset(first, str(out), "TOY")
    second = parse_tu_dataset(str(out), "TOY")
    assert_same_graphs(first, second)


def tu_bytes(dir_path, name):
    return {
        suffix: (dir_path / f"{name}_{suffix}.txt").read_bytes()
        for suffix in ("A", "graph_indicator", "graph_labels", "node_labels")
    }


def test_writer_matches_line_writer_on_fixture(tmp_path):
    write_fixture(tmp_path)
    graphs = parse_tu_dataset(str(tmp_path), "TOY")
    write_tu_dataset(graphs, str(tmp_path / "bulk"), "TOY")
    write_tu_lines(graphs, str(tmp_path / "lines"), "TOY")
    assert tu_bytes(tmp_path / "bulk", "TOY") == tu_bytes(tmp_path / "lines", "TOY")


@st.composite
def hand_built_graphs(draw):
    """Graphs as a caller may build them: edges in either direction, with
    duplicates and self-loops, and isolated nodes."""
    graphs = []
    for index in range(draw(st.integers(1, 5))):
        size = draw(st.integers(1, 8))
        node = st.integers(0, size - 1)
        graphs.append(
            Graph(
                index=index,
                label=draw(st.integers(0, 3)),
                edges=tuple(draw(st.lists(st.tuples(node, node), max_size=12))),
                node_labels=tuple(draw(st.lists(st.integers(0, 120), min_size=size, max_size=size))),
            )
        )
    return graphs


@settings(max_examples=60, deadline=None)
@given(hand_built_graphs())
def test_writer_matches_line_writer(tmp_path_factory, graphs):
    root = tmp_path_factory.mktemp("write")
    write_tu_dataset(graphs, str(root / "bulk"), "H")
    write_tu_lines(graphs, str(root / "lines"), "H")
    assert tu_bytes(root / "bulk", "H") == tu_bytes(root / "lines", "H")


def test_writer_matches_line_writer_past_one_block(tmp_path):
    """Over 65,536 edge rows, so the writer formats more than one block."""
    ring = tuple((i, (i + 1) % 40000) for i in range(40000))
    graphs = [Graph(index=0, label=1, edges=ring, node_labels=(0,) * 40000)]
    write_tu_dataset(graphs, str(tmp_path / "bulk"), "B")
    write_tu_lines(graphs, str(tmp_path / "lines"), "B")
    assert tu_bytes(tmp_path / "bulk", "B") == tu_bytes(tmp_path / "lines", "B")


def assert_same_graphs(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.index == y.index
        assert x.label == y.label
        assert np.array_equal(x.edges, y.edges)
        assert x.node_labels == y.node_labels


@st.composite
def raw_datasets(draw):
    """Raw TU file rows for a random multi-graph dataset."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    edge_rows, indicator, node_rows, label_rows = [], [], [], []
    offset = 0
    for gid, n in enumerate(sizes, start=1):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        chosen = [p for p in pairs if draw(st.booleans())]
        for a, b in chosen:
            edge_rows.append(f"{offset + a + 1}, {offset + b + 1}")
            edge_rows.append(f"{offset + b + 1}, {offset + a + 1}")
        indicator.extend([gid] * n)
        node_rows.extend(draw(st.integers(-3, 3)) for _ in range(n))
        label_rows.append(draw(st.sampled_from([-1, 1, 3])))
        offset += n
    return edge_rows, indicator, node_rows, label_rows


@settings(max_examples=25, deadline=None)
@given(raw_datasets())
def test_round_trip_random(tmp_path_factory, raw):
    tmp_path = tmp_path_factory.mktemp("tu")
    edge_rows, indicator, node_rows, label_rows = raw
    write_lines(tmp_path / "R_A.txt", edge_rows)
    write_lines(tmp_path / "R_graph_indicator.txt", indicator)
    write_lines(tmp_path / "R_graph_labels.txt", label_rows)
    write_lines(tmp_path / "R_node_labels.txt", node_rows)
    first = parse_tu_dataset(str(tmp_path), "R")
    out = tmp_path / "copy"
    write_tu_dataset(first, str(out), "R")
    assert_same_graphs(first, parse_tu_dataset(str(out), "R"))


def test_ungrouped_indicator_keeps_each_nodes_label(tmp_path):
    write_lines(tmp_path / "U_A.txt", ["1, 3", "3, 1", "4, 2"])
    write_lines(tmp_path / "U_graph_indicator.txt", [1, 2, 1, 2])
    write_lines(tmp_path / "U_graph_labels.txt", [0, 1])
    write_lines(tmp_path / "U_node_labels.txt", [10, 20, 30, 40])
    first, second = parse_tu_dataset(str(tmp_path), "U")
    # Graph 1 holds file nodes 1 and 3, graph 2 holds nodes 2 and 4.
    assert first.node_labels == (0, 2) and first.edges.tolist() == [[0, 1]]
    assert second.node_labels == (1, 3) and second.edges.tolist() == [[0, 1]]


def test_clean_files_skip_the_line_reader(tmp_path, monkeypatch):
    write_fixture(tmp_path)

    def unused(path):
        raise AssertionError(f"line reader called on {path}")

    monkeypatch.setattr(dataset, "_read_rows", unused)
    assert len(parse_tu_dataset(str(tmp_path), "TOY")) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        (b"1\n1\n1\xe9\n", r"TOY_graph_indicator\.txt:3: non-ASCII byte 0xe9"),
        (b"1\n99999999999999999999\n", r"TOY_graph_indicator\.txt:2: .*64-bit integer range"),
    ],
)
def test_malformed_bytes_name_file_and_line(tmp_path, text, message):
    write_fixture(tmp_path)
    (tmp_path / "TOY_graph_indicator.txt").write_bytes(text)
    with pytest.raises(DatasetFormatError, match=message):
        parse_tu_dataset(str(tmp_path), "TOY")


@pytest.mark.parametrize(
    "row, message",
    [
        # Past the int32 range: the bulk read rejects the file, and the line
        # reader names the row.
        ("3000000000, 1", r"TOY_A\.txt:3: node id out of range 1\.\.7"),
        ("0, 1", r"TOY_A\.txt:3: node id out of range 1\.\.7"),
        ("1, 8", r"TOY_A\.txt:3: node id out of range 1\.\.7"),
        ("3, 4", r"TOY_A\.txt:3: edge joins graph 1 and graph 2"),
    ],
)
def test_bad_edge_row_names_file_and_line(tmp_path, row, message):
    write_fixture(tmp_path)
    write_lines(tmp_path / "TOY_A.txt", ["1, 2", "2, 1", row, "4, 5"])
    with pytest.raises(DatasetFormatError, match=message):
        parse_tu_dataset(str(tmp_path), "TOY")


@pytest.mark.parametrize("node_labels", [True, False], ids=["labels", "degree"])
def test_empty_edge_file_gives_edgeless_graphs(tmp_path, node_labels):
    write_fixture(tmp_path, node_labels=node_labels)
    (tmp_path / "TOY_A.txt").write_text("")
    tri, path = parse_tu_dataset(str(tmp_path), "TOY")
    for graph in (tri, path):
        assert graph.edges.shape == (0, 2) and graph.edges.dtype == np.intp
    if node_labels:
        assert (tri.node_labels, path.node_labels) == ((0, 0, 1), (1, 2, 2, 0))
    else:  # every degree is 0: one category
        assert set(tri.node_labels + path.node_labels) == {0}


# --- the bulk parser against the line-by-line oracle ---------------------

SEPARATORS = (", ", ",", " , ", " ", "\t", " ,\t")


@st.composite
def tu_files(draw, messy=st.booleans()):
    """Text of a valid TU dataset: ungrouped graph ids, self-loops,
    duplicate edges, optional node labels (else the degree fallback), and
    per file either clean comma rows or messy ones with blank lines,
    spaces, tabs and ``+`` signs."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    owner = draw(st.permutations([g for g, n in enumerate(sizes) for _ in range(n)]))
    edges = []
    for g in range(len(sizes)):
        nodes = [i + 1 for i, o in enumerate(owner) if o == g]
        pair = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
        edges += draw(st.lists(pair, max_size=6))
    tables = {
        "A": draw(st.permutations(edges)),
        "graph_indicator": [(o + 1,) for o in owner],
        "graph_labels": [
            (draw(st.sampled_from([-1, 0, 1, 7])),) for _ in sizes
        ],
    }
    if draw(st.booleans()):
        tables["node_labels"] = [(draw(st.integers(-3, 3)),) for _ in owner]
    files = {}
    for suffix, rows in tables.items():
        if not draw(messy):
            lines = [", ".join(map(str, row)) for row in rows]
        else:
            lines = []
            for row in rows:
                if draw(st.booleans()):
                    lines.append(draw(st.sampled_from(["", "  ", "\t"])))
                sep = draw(st.sampled_from(SEPARATORS))
                sign = draw(st.sampled_from(["", "+"]))
                tokens = [str(v) if v < 0 else sign + str(v) for v in row]
                pad = draw(st.sampled_from(["", " ", "\t"]))
                lines.append(pad + sep.join(tokens) + pad)
        files[suffix] = lines
    return files


def junk_rows(num_nodes):
    """Lines a TU file should not hold, or holds only in other files: ragged
    rows, non-integer tokens, ``#``, non-ASCII bytes, values outside int64,
    control characters, and ids just around the valid range."""
    node_id = st.integers(-1, num_nodes + 2)
    return st.one_of(
        st.sampled_from([
            "1, 2, 3", "1 2 3", "x", "1.5", "#", "# 1", "1, 2 # edge", "0x1", "1_0",
            "99999999999999999999", "-99999999999999999999", "9223372036854775807",
            "-9223372036854775808", "-1", "0", "1,", ",", "++1", "1\x002", "\x0c",
            "\x1c", "1\x1c2", "1\x0b2", "1\r2", "   ", "1, 1",
        ]),
        # Latin-1 would read \xa0 as a space; the files must be ASCII.
        st.sampled_from(["\xe9", "1\xe9", "\xa01", "1,\xa02"]),
        node_id.map(str),
        st.tuples(node_id, node_id).map(lambda p: f"{p[0]}, {p[1]}"),
    )


def _outcome(parse, files):
    """The parsed graphs' fields, or the DatasetFormatError message."""
    with tempfile.TemporaryDirectory() as root:
        for suffix, lines in files.items():
            with open(os.path.join(root, f"R_{suffix}.txt"), "wb") as fh:
                fh.write("".join(f"{line}\n" for line in lines).encode("latin-1"))
        try:
            graphs = parse(root, "R")
        except DatasetFormatError as exc:
            return str(exc)
    assert all(g.features is None for g in graphs)
    return [(g.index, g.label, g.edges.tolist(), g.node_labels) for g in graphs]


@settings(max_examples=150, deadline=None)
@given(tu_files())
def test_parser_matches_line_oracle(files):
    want = _outcome(parse_tu_lines, files)
    assert not isinstance(want, str), want
    assert _outcome(parse_tu_dataset, files) == want


@pytest.mark.parametrize(
    "messy", [st.just(False), st.booleans()], ids=["clean", "mixed"]
)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_junk_rows_fail_like_the_line_oracle(messy, data):
    """Clean files send the junk line through the bulk reader; mixed ones
    also cover the order of checks across bulk and line-read files."""
    files = data.draw(tu_files(messy))
    suffix = data.draw(st.sampled_from(sorted(files)))
    lines = files[suffix]
    at = data.draw(st.integers(0, len(lines)))
    junk = data.draw(junk_rows(len(files["graph_indicator"])))
    if data.draw(st.booleans()) and at < len(lines):
        lines[at] = junk
    else:
        lines.insert(at, junk)
    assert _outcome(parse_tu_dataset, files) == _outcome(parse_tu_lines, files)


@settings(max_examples=100, deadline=None)
@given(tu_files(messy=st.just(False)), st.data())
def test_clean_edge_rows_near_the_id_range_fail_like_the_line_oracle(files, data):
    """Every example puts an edge row with ids around 1..num_nodes into a
    clean edge file, so the bulk range and same-graph checks decide."""
    node_id = st.integers(-1, len(files["graph_indicator"]) + 2)
    u, v = data.draw(node_id), data.draw(node_id)
    files["A"].insert(data.draw(st.integers(0, len(files["A"]))), f"{u}, {v}")
    assert _outcome(parse_tu_dataset, files) == _outcome(parse_tu_lines, files)


@settings(max_examples=100, deadline=None)
@given(tu_files(messy=st.just(False)))
def test_clean_files_parse_in_bulk(files):
    """Clean rows never reach the line reader, so the oracle above checks
    the bulk path; only an empty edge file (numpy warns) is read by lines."""
    read_rows = dataset._read_rows

    def empty_only(path):
        assert os.path.getsize(path) == 0, f"line reader called on {path}"
        return read_rows(path)

    with mock.patch.object(dataset, "_read_rows", empty_only):
        got = _outcome(parse_tu_dataset, files)
    assert got == _outcome(parse_tu_lines, files)


def test_parse_peak_memory_per_edge_row(tmp_path):
    """The parser holds one narrow copy of the edge rows at a time: its
    traced peak, output included, is about 21 bytes per edge-file row here.
    An int64 read with full-size temporaries took 59, and one ``np.take``
    over all rows, which copies them as intp indices, 27."""
    size, count = 300, 60
    ids = np.arange(size)
    edges = np.concatenate([np.stack([ids[:-k], ids[k:]], axis=1) for k in (1, 2, 5)])
    edges = edges[np.lexsort(edges.T[::-1])]  # parsed order
    labels = np.random.default_rng(0).integers(0, 5, size=(count, size))
    graphs = [
        Graph(index=g, label=g % 2, edges=edges, node_labels=tuple(labels[g].tolist()))
        for g in range(count)
    ]
    write_tu_dataset(graphs, str(tmp_path), "BIG")
    rows = 2 * len(edges) * count
    assert rows >= 100_000
    tracemalloc.start()
    try:
        parsed = parse_tu_dataset(str(tmp_path), "BIG")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_graphs(graphs, parsed)
    assert peak / rows < 25, f"{peak / rows:.1f} bytes per row"


def tiny_graph(index, label):
    return Graph(
        index=index,
        label=label,
        edges=((0, 1),),
        node_labels=(0, 0),
        features=np.ones((2, 1)),
    )


def test_folds_are_stratified():
    graphs = [tiny_graph(i, 0 if i < 23 else 1) for i in range(40)]
    plan = make_folds(graphs, seed=3, fold_count=5)
    assert len(plan.assignments) == 40
    for fold in range(5):
        train, test = plan.split(fold)
        assert sorted(train + test) == list(range(40))
        per_class = [0, 0]
        for i in test:
            per_class[graphs[i].label] += 1
        # 23 class-0 graphs over 5 folds -> 4 or 5 per fold; 17 class-1 -> 3 or 4.
        assert per_class[0] in (4, 5)
        assert per_class[1] in (3, 4)


def test_folds_deterministic_and_seed_sensitive():
    graphs = [tiny_graph(i, i % 2) for i in range(30)]
    a = make_folds(graphs, seed=1)
    b = make_folds(graphs, seed=1)
    c = make_folds(graphs, seed=2)
    assert a.assignments == b.assignments
    assert a.assignments != c.assignments


def test_folds_reject_small_class():
    graphs = [tiny_graph(i, 0) for i in range(20)] + [tiny_graph(20, 1)]
    with pytest.raises(ConfigError, match="class 1 has 1 graphs"):
        make_folds(graphs, seed=0)


def test_fold_split_range_check():
    plan = make_folds([tiny_graph(i, 0) for i in range(10)], seed=0, fold_count=5)
    with pytest.raises(ConfigError, match="fold 5"):
        plan.split(5)


def test_batches_cover_ids_once():
    ids = list(range(10))
    got = batches(ids, batch_size=4, seed=0, epoch=0)
    assert [len(b) for b in got] == [4, 4, 2]
    assert sorted(i for b in got for i in b) == ids


def test_batches_merge_lone_remainder():
    got = batches(list(range(9)), batch_size=4, seed=0, epoch=0)
    assert [len(b) for b in got] == [4, 5]


def test_batches_single_short_batch_kept():
    assert batches([5], batch_size=4, seed=0, epoch=0) == [[5]]


def test_batches_deterministic_per_epoch():
    ids = list(range(12))
    assert batches(ids, 4, seed=7, epoch=3) == batches(ids, 4, seed=7, epoch=3)
    assert batches(ids, 4, seed=7, epoch=3) != batches(ids, 4, seed=7, epoch=4)
    assert batches(ids, 4, seed=7, epoch=3) != batches(ids, 4, seed=8, epoch=3)


def test_batches_reject_bad_size():
    with pytest.raises(ConfigError):
        batches([1, 2, 3], batch_size=0, seed=0, epoch=0)
