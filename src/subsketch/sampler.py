"""Subgraph extraction and the sketched graph built over selected subgraphs.

Each graph contributes exactly ``n`` subgraphs of at most ``s`` nodes.  The
``n`` highest-degree nodes act as BFS roots (degree ties broken by ascending
node id; graphs with fewer than ``n`` nodes wrap around the ranking so
shapes stay fixed).  BFS visits neighbors in ascending id order and stops
after ``s`` nodes; smaller components are padded out and masked.

The sketched graph treats selected subgraphs as supernodes and connects two
of them when they share strictly more than ``b_com`` original nodes.  The
shared-node counts of every pair are computed once per graph, when it is
sampled, so building a sketch on each training step only indexes them.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .dataset import Graph


@dataclass(frozen=True, eq=False)
class SubgraphEntry:
    central_node: int
    node_ids: tuple[int, ...]  # real nodes only, node_ids[0] is the root
    local_adjacency: np.ndarray  # (s, s) symmetric, padded rows/cols zero
    mask: np.ndarray  # (s,) bool, True marks real rows


@dataclass(frozen=True, eq=False)
class SubgraphSet:
    graph_id: int
    subgraphs: tuple[SubgraphEntry, ...]
    overlap: np.ndarray  # (n, n) real nodes shared by subgraphs i and j

    @property
    def n(self) -> int:
        return len(self.subgraphs)

    @property
    def s(self) -> int:
        return self.subgraphs[0].mask.shape[0]


def _bfs_truncated(adj: list[list[int]], root: int, limit: int) -> list[int]:
    """Breadth-first order from root, ascending-id frontier, at most limit nodes."""
    seen = {root}
    order = [root]
    queue = deque([root])
    while queue and len(order) < limit:
        u = queue.popleft()
        for w in adj[u]:  # adjacency lists are sorted ascending
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
                if len(order) == limit:
                    break
    return order


def sample_subgraphs(graph: Graph, n: int, s: int) -> SubgraphSet:
    """Extract ``n`` degree-ranked BFS subgraphs of at most ``s`` nodes each."""
    if n < 1 or s < 1:
        raise ValueError(f"need n >= 1 and s >= 1, got n={n}, s={s}")
    if graph.num_nodes == 0:
        raise ValueError(f"cannot sample subgraphs from empty graph {graph.index}")
    adj = graph.neighbors()
    degree = graph.degrees()
    ranking = sorted(range(graph.num_nodes), key=lambda v: (-degree[v], v))

    entries = []
    for i in range(n):
        root = ranking[i % graph.num_nodes]
        nodes = _bfs_truncated(adj, root, s)
        position = {u: a for a, u in enumerate(nodes)}
        local = np.zeros((s, s), dtype=np.float64)
        for a, u in enumerate(nodes):
            for w in adj[u]:
                b = position.get(w)
                if b is not None and b != a:  # no self-loops
                    local[a, b] = 1.0
        mask = np.zeros(s, dtype=bool)
        mask[: len(nodes)] = True
        entries.append(
            SubgraphEntry(
                central_node=root,
                node_ids=tuple(nodes),
                local_adjacency=local,
                mask=mask,
            )
        )
    return SubgraphSet(
        graph_id=graph.index, subgraphs=tuple(entries), overlap=overlap_counts(entries)
    )


def overlap_counts(entries: Sequence[SubgraphEntry]) -> np.ndarray:
    """(n, n) matrix: how many real nodes subgraphs i and j share."""
    flat = [v for e in entries for v in e.node_ids]
    row = np.repeat(np.arange(len(entries)), [len(e.node_ids) for e in entries])
    member = np.zeros((len(entries), max(flat) + 1))
    member[row, flat] = 1.0
    # A count is at most s, far below 2**15 for any (s, s) adjacency that
    # fits in memory; the narrow type keeps one matrix per graph cheap.
    return (member @ member.T).astype(np.int16)


@dataclass(frozen=True)
class SketchedGraph:
    """Supernode graph over the selected subgraphs.

    ``supernodes`` holds the selected subgraph indices; ``edges`` are pairs
    of *positions* into that tuple, undirected with no self-loops.
    """

    supernodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    b_com: int
    # Dense read-only form of ``edges``; built from them when not given.
    adjacency: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.adjacency is None:
            m = len(self.supernodes)
            out = np.zeros((m, m), dtype=np.float64)
            for i, j in self.edges:
                out[i, j] = out[j, i] = 1.0
            object.__setattr__(self, "adjacency", out)
        self.adjacency.flags.writeable = False

    def adjacency_matrix(self) -> np.ndarray:
        return self.adjacency


def build_sketched_graph(
    subgraph_sets: SubgraphSet | list[SubgraphEntry],
    idx: list[int],
    b_com: int = 0,
) -> SketchedGraph:
    """Connect selected subgraphs that share more than ``b_com`` real nodes."""
    if not idx:
        raise ValueError("cannot build a sketched graph from no supernodes")
    overlap = (
        subgraph_sets.overlap
        if isinstance(subgraph_sets, SubgraphSet)
        else overlap_counts(subgraph_sets)
    )
    sel = np.asarray(idx, dtype=np.intp)
    linked = overlap[sel[:, None], sel] > b_com  # overlap[idx][:, idx]
    np.fill_diagonal(linked, False)
    rows, cols = np.nonzero(linked)  # row-major order
    return SketchedGraph(
        supernodes=tuple(idx),
        edges=tuple((i, j) for i, j in zip(rows.tolist(), cols.tolist()) if i < j),
        b_com=b_com,
        adjacency=linked.astype(np.float64),
    )
