"""Load graph classification datasets stored in the TU text format.

A dataset ``NAME`` in directory ``root`` consists of::

    root/NAME_A.txt                edge list, one "u, v" pair per line (1-based)
    root/NAME_graph_indicator.txt  graph id (1-based) for node i on line i
    root/NAME_graph_labels.txt     class label for graph g on line g
    root/NAME_node_labels.txt      optional: categorical label for node i

Edges are undirected; the files conventionally list both directions, which
this parser collapses into deduplicated ``(u, v)`` pairs with ``u < v``.
Self-loop lines are dropped (the encoder adds its own self connections).
Class and node labels are remapped to contiguous 0-based categories by
sorting the distinct raw values.  When ``NAME_node_labels.txt`` is absent,
node features fall back to a one-hot encoding of node degree, with one
bucket per distinct degree value observed across the dataset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DatasetFormatError


@dataclass(frozen=True, eq=False)
class Graph:
    """One labelled graph: 0-based local node ids, undirected edge pairs.

    ``features`` must be the one-hot rows of ``node_labels``: row i holds a
    single 1.0 in column ``node_labels[i]``.  The trainer encodes nodes by
    their category and rejects graphs that break this.
    :func:`parse_tu_dataset` guarantees it; graphs built by hand must follow it.
    """

    index: int
    label: int
    edges: tuple[tuple[int, int], ...]
    node_labels: tuple[int, ...]
    features: np.ndarray  # shape (num_nodes, feature_dim), one-hot rows

    @property
    def num_nodes(self) -> int:
        return len(self.node_labels)

    def neighbors(self) -> list[list[int]]:
        """Adjacency lists with each list sorted ascending."""
        adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.num_nodes
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass(frozen=True)
class DatasetStats:
    num_graphs: int
    num_classes: int
    feature_dim: int
    max_nodes: int
    avg_nodes: float
    class_counts: tuple[int, ...]

    @property
    def majority_rate(self) -> float:
        return max(self.class_counts) / self.num_graphs


def _read_rows(path: str) -> list[tuple[int, tuple[int, ...]]]:
    """Read a TU file as (line_number, ints) rows, skipping blank lines."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values = tuple(int(tok) for tok in text.replace(",", " ").split())
            except ValueError:
                raise DatasetFormatError(
                    f"{os.path.basename(path)}:{lineno}: cannot parse {text!r} as integers"
                ) from None
            rows.append((lineno, values))
    return rows


def _read_column(path: str, what: str) -> list[tuple[int, int]]:
    out = []
    for lineno, values in _read_rows(path):
        if len(values) != 1:
            raise DatasetFormatError(
                f"{os.path.basename(path)}:{lineno}: expected a single {what}, got {len(values)} values"
            )
        out.append((lineno, values[0]))
    return out


def _require(dir_path: str, filename: str) -> str:
    path = os.path.join(dir_path, filename)
    if not os.path.isfile(path):
        raise FileNotFoundError(f"missing dataset file: {path}")
    return path


def parse_tu_dataset(dir_path: str, name: str) -> list[Graph]:
    """Parse the four TU files for ``name`` under ``dir_path`` into Graphs."""
    a_path = _require(dir_path, f"{name}_A.txt")
    ind_path = _require(dir_path, f"{name}_graph_indicator.txt")
    lab_path = _require(dir_path, f"{name}_graph_labels.txt")
    node_lab_path = os.path.join(dir_path, f"{name}_node_labels.txt")

    indicator = _read_column(ind_path, "graph id")
    num_nodes = len(indicator)
    graph_of_node = np.empty(num_nodes, dtype=np.int64)  # 0-based graph ids
    for row, (lineno, gid) in enumerate(indicator):
        if gid < 1:
            raise DatasetFormatError(
                f"{os.path.basename(ind_path)}:{lineno}: graph id {gid} is not positive"
            )
        graph_of_node[row] = gid - 1
    if num_nodes == 0:
        raise DatasetFormatError(f"{os.path.basename(ind_path)}: dataset has no nodes")
    num_graphs = int(graph_of_node.max()) + 1

    raw_labels = _read_column(lab_path, "graph label")
    if len(raw_labels) != num_graphs:
        raise DatasetFormatError(
            f"{os.path.basename(lab_path)}: {len(raw_labels)} labels for {num_graphs} graphs"
        )
    label_map = {raw: i for i, raw in enumerate(sorted({v for _, v in raw_labels}))}
    labels = [label_map[v] for _, v in raw_labels]

    # Local node numbering: nodes keep file order within their graph.
    local_id = np.empty(num_nodes, dtype=np.int64)
    counts = [0] * num_graphs
    for node in range(num_nodes):
        g = graph_of_node[node]
        local_id[node] = counts[g]
        counts[g] += 1
    if min(counts) == 0:
        empty = counts.index(0) + 1
        raise DatasetFormatError(
            f"{os.path.basename(ind_path)}: graph {empty} has no nodes"
        )

    edge_sets: list[set[tuple[int, int]]] = [set() for _ in range(num_graphs)]
    for lineno, values in _read_rows(a_path):
        if len(values) != 2:
            raise DatasetFormatError(
                f"{name}_A.txt:{lineno}: expected an edge pair, got {len(values)} values"
            )
        u, v = values
        if not (1 <= u <= num_nodes and 1 <= v <= num_nodes):
            raise DatasetFormatError(
                f"{name}_A.txt:{lineno}: node id out of range 1..{num_nodes}"
            )
        gu, gv = graph_of_node[u - 1], graph_of_node[v - 1]
        if gu != gv:
            raise DatasetFormatError(
                f"{name}_A.txt:{lineno}: edge joins graph {gu + 1} and graph {gv + 1}"
            )
        if u == v:
            continue  # drop self-loops; the encoder adds its own
        a, b = int(local_id[u - 1]), int(local_id[v - 1])
        edge_sets[gu].add((min(a, b), max(a, b)))

    if os.path.isfile(node_lab_path):
        raw_node_labels = _read_column(node_lab_path, "node label")
        if len(raw_node_labels) != num_nodes:
            raise DatasetFormatError(
                f"{os.path.basename(node_lab_path)}: {len(raw_node_labels)} labels for {num_nodes} nodes"
            )
        node_values = [v for _, v in raw_node_labels]
    else:
        # Degree fallback: bucket per distinct degree value in the dataset.
        degree = [0] * num_nodes
        node_of = {}  # (graph, local) -> global row
        for node in range(num_nodes):
            node_of[(int(graph_of_node[node]), int(local_id[node]))] = node
        for g, edges in enumerate(edge_sets):
            for a, b in edges:
                degree[node_of[(g, a)]] += 1
                degree[node_of[(g, b)]] += 1
        node_values = degree

    category = {raw: i for i, raw in enumerate(sorted(set(node_values)))}
    feature_dim = len(category)

    graphs = []
    cursor = 0
    for g in range(num_graphs):
        n = counts[g]
        cats = tuple(category[node_values[cursor + i]] for i in range(n))
        features = np.zeros((n, feature_dim), dtype=np.float64)
        features[np.arange(n), cats] = 1.0
        graphs.append(
            Graph(
                index=g,
                label=labels[g],
                edges=tuple(sorted(edge_sets[g])),
                node_labels=cats,
                features=features,
            )
        )
        cursor += n
    return graphs


def write_tu_dataset(graphs: list[Graph], dir_path: str, name: str) -> None:
    """Serialize graphs back to TU files (inverse of :func:`parse_tu_dataset`).

    Labels are written as the parsed 0-based categories, so parsing the
    result reproduces the input graphs exactly.
    """
    os.makedirs(dir_path, exist_ok=True)
    offsets = []
    total = 0
    for graph in graphs:
        offsets.append(total)
        total += graph.num_nodes

    with open(os.path.join(dir_path, f"{name}_A.txt"), "w", encoding="ascii") as fh:
        for graph, offset in zip(graphs, offsets):
            directed = sorted(
                [(u, v) for u, v in graph.edges] + [(v, u) for u, v in graph.edges]
            )
            for u, v in directed:
                fh.write(f"{offset + u + 1}, {offset + v + 1}\n")
    with open(
        os.path.join(dir_path, f"{name}_graph_indicator.txt"), "w", encoding="ascii"
    ) as fh:
        for g, graph in enumerate(graphs, start=1):
            fh.write(f"{g}\n" * graph.num_nodes)
    with open(
        os.path.join(dir_path, f"{name}_graph_labels.txt"), "w", encoding="ascii"
    ) as fh:
        for graph in graphs:
            fh.write(f"{graph.label}\n")
    with open(
        os.path.join(dir_path, f"{name}_node_labels.txt"), "w", encoding="ascii"
    ) as fh:
        for graph in graphs:
            for cat in graph.node_labels:
                fh.write(f"{cat}\n")


def dataset_stats(graphs: list[Graph]) -> DatasetStats:
    num_classes = max(g.label for g in graphs) + 1
    counts = [0] * num_classes
    for g in graphs:
        counts[g.label] += 1
    sizes = [g.num_nodes for g in graphs]
    return DatasetStats(
        num_graphs=len(graphs),
        num_classes=num_classes,
        feature_dim=graphs[0].features.shape[1],
        max_nodes=max(sizes),
        avg_nodes=sum(sizes) / len(sizes),
        class_counts=tuple(counts),
    )


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignment: ``assignments[graph.index]`` is its fold."""

    fold_count: int
    assignments: tuple[int, ...]

    def split(self, fold: int) -> tuple[list[int], list[int]]:
        """Return (train_ids, test_ids) for one held-out fold."""
        if not 0 <= fold < self.fold_count:
            raise ConfigError(f"fold {fold} outside 0..{self.fold_count - 1}")
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
