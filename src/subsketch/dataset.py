"""Load graph classification datasets stored in the TU text format.

A dataset ``NAME`` in directory ``root`` consists of::

    root/NAME_A.txt                edge list, one "u, v" pair per line (1-based)
    root/NAME_graph_indicator.txt  graph id (1-based) for node i on line i
    root/NAME_graph_labels.txt     class label for graph g on line g
    root/NAME_node_labels.txt      optional: categorical label for node i

Edges are undirected; the files conventionally list both directions, which
this parser collapses into deduplicated ``(u, v)`` pairs with ``u < v``,
sorted: each graph's (E, 2) rows are a slice of one array.
Self-loop lines are dropped (the encoder adds its own self connections).
Nodes take local ids in file order within their graph, so the indicator
need not group a graph's nodes together.  Class and node labels are
remapped to contiguous 0-based categories by sorting the distinct raw
values.  When ``NAME_node_labels.txt`` is absent, node categories fall back
to node degree, with one category per distinct degree value observed
across the dataset.  Parsed graphs carry categories only, slices of one
read-only intp array, no dense feature rows: the model's input width is
the category count (:attr:`DatasetStats.feature_dim`).

Each file is read in bulk with numpy.  A file the bulk reader rejects, or
whose values fail a check, is read again line by line, which accepts a
little more (space-separated rows, for one) and reports a malformed line
as ``file:line``.

The edge file is by far the largest, and the parser holds one narrow copy
of it: rows are read as int32 while node ids fit, ids become positions in
place, each undirected edge becomes one int64 key, and one in-place sort of
the keys drops self-loops and duplicates.  Each large intermediate is freed
before the next is made; on a DD-sized file the traced peak is about 22
bytes per edge row, the parsed graphs included.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DatasetFormatError

_INT64 = np.iinfo(np.int64)
_BLOCK = 1 << 16  # rows per in-place gather of edge ids


@dataclass(frozen=True, eq=False)
class Graph:
    """One labelled graph: 0-based local node ids, undirected edge pairs.

    ``edges`` is a read-only (E, 2) intp array, one row per edge, made from
    any sequence of pairs of ids in ``0..num_nodes - 1``; parsed rows have
    ``u < v`` and come in ``(u, v)`` order.

    ``node_labels`` is a read-only (num_nodes,) intp array of first-layer
    row indices, made from any sequence of non-negative integers; parsed
    graphs' labels are slices of one array.  ``label``, a class index, must
    be a non-negative integer.  ``features`` is ``None`` when parsed; a
    hand-built graph may carry any array there, which training never reads.
    """

    index: int
    label: int
    edges: np.ndarray
    node_labels: np.ndarray
    features: np.ndarray | None = None  # optional per-node rows, never read in training

    def __post_init__(self):
        try:
            labels = np.asarray(self.node_labels)
        except ValueError:  # ragged rows, turned away below as a 2-d array
            labels = np.empty((0, 0))
        if labels.dtype.kind in "iu" or labels.size == 0:  # a uint64 that wraps reads negative
            labels = labels.astype(np.intp, copy=False)
        if labels.ndim != 1 or labels.dtype != np.intp or labels.size and labels.min() < 0:
            raise ValueError(
                f"graph {self.index}: node_labels must be non-negative integers, one per node"
            )
        edges = np.asarray(self.edges, dtype=np.intp)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2 or edges.size and not (
            0 <= edges.min() and edges.max() < self.num_nodes
        ):
            raise ValueError(
                f"graph {self.index}: edges must be (u, v) pairs of ids in 0..{self.num_nodes - 1}"
            )
        if np.asarray(self.label).dtype.kind not in "iu" or self.label < 0:
            raise ValueError(f"graph {self.index}: label must be a non-negative integer")
        for name, array in (("node_labels", labels), ("edges", edges)):
            array = array.view()  # keeps a caller's array writable
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __reduce__(self):  # unpickle through __init__, so the arrays come back read-only
        return Graph, (self.index, self.label, self.edges, self.node_labels, self.features)

    @property
    def num_nodes(self) -> int:
        return len(self.node_labels)

    @cached_property
    def num_categories(self) -> int:
        """One more than the largest node label.  Cached: training reads it
        for every graph on every ``train_fold`` call."""
        return 1 + int(self.node_labels.max(initial=-1))


@dataclass(frozen=True)
class DatasetStats:
    num_classes: int
    feature_dim: int  # node category count: 1 + the largest node label


def _read_rows(path: str) -> list[tuple[int, tuple[int, ...]]]:
    """Read a TU file as (line_number, ints) rows, skipping blank lines."""
    rows = []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{os.path.basename(path)}:{lineno}"
            if not line.isascii():
                # surrogateescape maps each undecodable byte b to U+DC00 + b
                byte = next(ord(c) & 0xFF for c in line if not c.isascii())
                raise DatasetFormatError(f"{where}: non-ASCII byte 0x{byte:02x}")
            text = line.strip()
            if not text:
                continue
            try:
                values = tuple(int(tok) for tok in text.replace(",", " ").split())
            except ValueError:
                raise DatasetFormatError(
                    f"{where}: cannot parse {text!r} as integers"
                ) from None
            if not all(_INT64.min <= v <= _INT64.max for v in values):
                raise DatasetFormatError(
                    f"{where}: {text!r} holds a value outside the 64-bit integer range"
                )
            rows.append((lineno, values))
    return rows


def _load_ints(path: str, width: int, dtype=np.int64) -> np.ndarray | None:
    """All rows of ``path`` as a (rows, width) array of ``dtype``, or None
    where the bulk reader rejects the file.

    It takes comma-separated decimal integers and skips empty lines: a subset
    of what :func:`_read_rows` parses, giving the same rows and values.  An
    empty file (numpy warns), or a value that overflows ``dtype``, is left to
    the line reader too.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(
                path, dtype=dtype, delimiter=",", ndmin=2, comments=None,
                encoding="ascii",
            )
    except (ValueError, Warning):
        return None
    return rows if rows.shape[1] == width else None


def _column(path: str, what: str) -> np.ndarray:
    rows = _load_ints(path, 1)
    if rows is not None:
        return rows[:, 0]
    column = []
    for lineno, values in _read_rows(path):
        if len(values) != 1:
            raise DatasetFormatError(
                f"{os.path.basename(path)}:{lineno}: expected a single {what}, got {len(values)} values"
            )
        column.append(values[0])
    return np.array(column, dtype=np.int64)


def _graph_ids(path: str) -> np.ndarray:
    """0-based graph id of every node, in file order; ids must be positive."""
    ids = _column(path, "graph id")
    if ids.min(initial=1) < 1:  # every row holds one id: read them again to name the first
        lineno, (gid,) = next((n, v) for n, v in _read_rows(path) if v[0] < 1)
        raise DatasetFormatError(f"{os.path.basename(path)}:{lineno}: graph id {gid} is not positive")
    return ids - 1


def _edge_pairs(path: str, graph_of_node: np.ndarray) -> np.ndarray:
    """0-based (u, v) rows of the edge file, each inside one graph.  The bulk
    read gives int32 rows when every node id fits, the line reader int64."""
    num_nodes = len(graph_of_node)
    dtype = np.int32 if num_nodes <= np.iinfo(np.int32).max else np.int64
    rows = _load_ints(path, 2, dtype)
    if rows is not None and rows.min() >= 1 and rows.max() <= num_nodes:
        rows -= 1
        graph = graph_of_node.astype(dtype)
        if np.array_equal(graph[rows[:, 0]], graph[rows[:, 1]]):
            return rows
    pairs = []
    for lineno, values in _read_rows(path):
        where = f"{os.path.basename(path)}:{lineno}"
        if len(values) != 2:
            raise DatasetFormatError(
                f"{where}: expected an edge pair, got {len(values)} values"
            )
        u, v = values
        if not (1 <= u <= num_nodes and 1 <= v <= num_nodes):
            raise DatasetFormatError(f"{where}: node id out of range 1..{num_nodes}")
        gu, gv = graph_of_node[u - 1], graph_of_node[v - 1]
        if gu != gv:
            raise DatasetFormatError(
                f"{where}: edge joins graph {gu + 1} and graph {gv + 1}"
            )
        pairs.append((u - 1, v - 1))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _take_in_place(table: np.ndarray, rows: np.ndarray) -> None:
    """``rows[...] = table[rows]``, a block of rows at a time: ``np.take``
    copies its indices as intp.  The indices must be in range; mode "clip"
    spares the copy of ``out`` that "raise" makes."""
    for at in range(0, len(rows), _BLOCK):
        block = rows[at : at + _BLOCK]
        np.take(table, block, out=block, mode="clip")


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values, by an in-place sort of ``values`` and a
    neighbour compare.  With numpy 2.4 this took 0.02 s on 1.4M int64 edge
    keys, ``np.unique`` 1.5 s."""
    values.sort()
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _categories(values: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values: contiguous 0-based ids."""
    return np.searchsorted(_distinct(values.copy()), values)


def _require(dir_path: str, filename: str) -> str:
    path = os.path.join(dir_path, filename)
    if not os.path.isfile(path):
        raise FileNotFoundError(f"missing dataset file: {path}")
    return path


def parse_tu_dataset(dir_path: str, name: str) -> list[Graph]:
    """Parse the four TU files for ``name`` under ``dir_path`` into Graphs,
    in file order: ``graphs[i].index == i``."""
    a_path = _require(dir_path, f"{name}_A.txt")
    ind_path = _require(dir_path, f"{name}_graph_indicator.txt")
    lab_path = _require(dir_path, f"{name}_graph_labels.txt")
    node_lab_path = os.path.join(dir_path, f"{name}_node_labels.txt")

    graph_of_node = _graph_ids(ind_path)
    num_nodes = len(graph_of_node)
    if num_nodes == 0:
        raise DatasetFormatError(f"{os.path.basename(ind_path)}: dataset has no nodes")
    num_graphs = int(graph_of_node.max()) + 1

    raw_labels = _column(lab_path, "graph label")
    if len(raw_labels) != num_graphs:
        raise DatasetFormatError(
            f"{os.path.basename(lab_path)}: {len(raw_labels)} labels for {num_graphs} graphs"
        )
    labels = _categories(raw_labels).tolist()

    counts = np.bincount(graph_of_node, minlength=num_graphs)
    if counts.min() == 0:
        raise DatasetFormatError(
            f"{os.path.basename(ind_path)}: graph {int(np.argmin(counts)) + 1} has no nodes"
        )
    # Nodes keep file order within their graph.  ``order`` lists the nodes
    # graph by graph; a node's position in it is its graph's start plus its
    # local id, and positions rise with local ids inside a graph.
    order = np.argsort(graph_of_node, kind="stable")
    node_ends = np.cumsum(counts)
    starts = node_ends - counts

    # From here on the edge rows exist once, in place, and each large
    # intermediate is freed before the next is made.
    rows = _edge_pairs(a_path, graph_of_node)
    position = np.empty(num_nodes, dtype=rows.dtype)
    position[order] = np.arange(num_nodes)
    _take_in_place(position, rows)
    del position
    # One key per undirected edge, ordered by (graph, lo, hi) since
    # positions are grouped by graph; duplicates become neighbours, and
    # self-loops are keyed -1 and dropped (the encoder adds its own).
    u, v = rows.T
    loops = u == v
    keys = np.minimum(u, v, out=np.empty(len(rows), dtype=np.int64))
    keys *= num_nodes
    keys += np.maximum(u, v, out=u)
    keys[loops] = -1
    del rows, u, v, loops
    keys = _distinct(keys)
    if len(keys) and keys[0] == -1:
        keys = keys[1:]
    # Keys rise by graph, so each graph's edges are one run of sorted rows.
    edge_ends = np.searchsorted(keys, node_ends * num_nodes)
    edges = np.empty((len(keys), 2), dtype=np.intp)
    np.divmod(keys, num_nodes, out=(edges[:, 0], edges[:, 1]))
    del keys

    if os.path.isfile(node_lab_path):
        node_values = _column(node_lab_path, "node label")
        if len(node_values) != num_nodes:
            raise DatasetFormatError(
                f"{os.path.basename(node_lab_path)}: {len(node_values)} labels for {num_nodes} nodes"
            )
        node_values = node_values[order]
    else:
        # Degree fallback: one category per distinct degree value.
        node_values = np.bincount(edges.ravel(), minlength=num_nodes)
    cats = _categories(node_values)

    edges -= np.repeat(starts, np.diff(edge_ends, prepend=0))[:, None]
    pieces = zip(np.split(edges, edge_ends[:-1]), np.split(cats, node_ends[:-1]))
    return [
        Graph(index=g, label=labels[g], edges=e, node_labels=c)
        for g, (e, c) in enumerate(pieces)
    ]


def _write_rows(path: str, row_format: str, rows: np.ndarray) -> None:
    """Write each row of the int array ``rows`` through ``row_format``, one
    formatted write per 65,536 rows to bound the Python ints alive."""
    with open(path, "w", encoding="ascii") as fh:
        for start in range(0, len(rows), 1 << 16):
            block = rows[start : start + (1 << 16)]
            fh.write(row_format * len(block) % tuple(block.ravel().tolist()))


def write_tu_dataset(graphs: list[Graph], dir_path: str, name: str) -> None:
    """Serialize graphs back to TU files (inverse of :func:`parse_tu_dataset`).

    Labels are written as the parsed 0-based categories, so parsing the
    result reproduces the input graphs exactly.  The edge file lists both
    directions of every edge, sorted.
    """
    os.makedirs(dir_path, exist_ok=True)
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.intp)
    first_ids = (np.cumsum(sizes) - sizes + 1).tolist()  # 1-based
    shifted = [g.edges + first for g, first in zip(graphs, first_ids)]
    edges = np.vstack([np.empty((0, 2), np.intp)] + shifted)
    # Graphs hold consecutive id ranges, so one sort of all (u, v) rows
    # sorts each graph's rows in graph order.
    directed = np.concatenate([edges, edges[:, ::-1]])
    directed = directed[np.lexsort((directed[:, 1], directed[:, 0]))]
    path = os.path.join(dir_path, name)
    _write_rows(f"{path}_A.txt", "%d, %d\n", directed)
    _write_rows(
        f"{path}_graph_indicator.txt", "%d\n", np.repeat(np.arange(1, len(graphs) + 1), sizes)
    )
    _write_rows(f"{path}_graph_labels.txt", "%d\n", np.array([g.label for g in graphs]))
    categories = np.concatenate([np.empty(0, np.intp)] + [g.node_labels for g in graphs])
    _write_rows(f"{path}_node_labels.txt", "%d\n", categories)


def dataset_stats(graphs: list[Graph]) -> DatasetStats:
    return DatasetStats(
        num_classes=max(g.label for g in graphs) + 1,
        feature_dim=max(g.num_categories for g in graphs),
    )


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignment: ``assignments[graph.index]`` is its fold."""

    fold_count: int
    assignments: tuple[int, ...]

    def split(self, fold: int) -> tuple[list[int], list[int]]:
        """Return (train_ids, test_ids) for one held-out fold."""
        if not 0 <= fold < self.fold_count:
            raise ConfigError(f"fold {fold} out of range 0..{self.fold_count - 1}")
        train = [i for i, f in enumerate(self.assignments) if f != fold]
        test = [i for i, f in enumerate(self.assignments) if f == fold]
        return train, test


def make_folds(graphs: list[Graph], seed: int, fold_count: int = 10) -> FoldPlan:
    """Stratified fold split: each class is dealt round-robin after a shuffle.

    Per fold, each class contributes floor or ceil of ``count / fold_count``
    graphs; the deal start rotates between classes so remainders spread
    across folds rather than piling onto fold 0.
    """
    if fold_count < 2:
        raise ConfigError(f"fold_count must be at least 2, got {fold_count}")
    by_class: dict[int, list[int]] = {}
    for g in graphs:
        by_class.setdefault(g.label, []).append(g.index)
    for label, members in sorted(by_class.items()):
        if len(members) < fold_count:
            raise ConfigError(
                f"class {label} has {len(members)} graphs; "
                f"need at least {fold_count} for {fold_count}-fold splits"
            )
    rng = np.random.default_rng(seed)
    assignments = [0] * len(graphs)
    start = 0
    for label in sorted(by_class):
        members = np.array(by_class[label])
        rng.shuffle(members)
        for i, graph_id in enumerate(members):
            assignments[int(graph_id)] = (start + i) % fold_count
        start = (start + len(members)) % fold_count
    return FoldPlan(fold_count=fold_count, assignments=tuple(assignments))


def batches(
    graph_ids: list[int], batch_size: int, seed: int, epoch: int
) -> list[list[int]]:
    """Shuffle ids deterministically from (seed, epoch) and chunk them.

    A final chunk of one graph is merged into the previous batch so every
    batch has at least two graphs (needed for cross-graph corruption).
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    order = np.array(graph_ids)
    np.random.default_rng([seed, epoch]).shuffle(order)
    chunks = [
        [int(i) for i in order[pos : pos + batch_size]]
        for pos in range(0, len(order), batch_size)
    ]
    if len(chunks) > 1 and len(chunks[-1]) < 2:
        chunks[-2].extend(chunks.pop())
    return chunks
