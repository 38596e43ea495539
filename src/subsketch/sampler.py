"""Subgraph extraction and the sketched graph built over selected subgraphs.

Each graph contributes exactly ``n`` subgraphs of at most ``s`` nodes.  The
``n`` highest-degree nodes act as BFS roots (degree ties broken by ascending
node id; graphs with fewer than ``n`` nodes wrap around the ranking so
shapes stay fixed).  BFS visits neighbors in ascending id order and stops
after ``s`` nodes; smaller components are padded out and masked.  One
bincount of the edge ends gives the degrees that rank the roots and the CSR
row offsets; one sort of the directed edge keys ``u * (num_nodes + 1) + v``
gives the CSR neighbours the BFS walks and the table that induced adjacency
is looked up in.  One Python loop runs the BFS from every root.

A graph's subgraphs are one :class:`SubgraphSet` of fixed-shape arrays:
``nodes`` (n, s) holds the node ids in BFS order (column 0 is the root, pads
hold 0), ``mask`` (n, s) marks the real entries, ``adjacency`` (n, s, s) is
each subgraph's induced adjacency as bool, one byte per entry (pad rows and
columns False, no self-loops), and ``overlap`` (n, n) counts the real nodes
two subgraphs share.

The sketched graph treats selected subgraphs as supernodes and connects two
of them when they share strictly more than ``b_com`` original nodes.  The
shared-node counts are computed once per graph, when it is sampled, so
building a sketch on each training step only indexes them into a bool
adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Graph


@dataclass(frozen=True, eq=False)
class SubgraphSet:
    nodes: np.ndarray  # (n, s) intp node ids, BFS order; pads hold 0
    mask: np.ndarray  # (n, s) bool, True marks real entries
    adjacency: np.ndarray  # (n, s, s) bool induced adjacency, pads False
    overlap: np.ndarray  # (n, n) int16 real nodes shared by subgraphs i and j

    @property
    def n(self) -> int:
        return self.nodes.shape[0]


def _bfs_rows(
    indptr: list[int], dst: list[int], roots: list[int], limit: int, pad: int
) -> list[int]:
    """Breadth-first orders from each root, at most ``limit`` nodes each, over
    CSR rows ``dst[indptr[u]:indptr[u + 1]]`` (ascending), each padded to
    ``limit`` entries with ``pad`` and laid end to end."""
    rows = []
    for root in roots:
        order = [root]
        seen = {root}
        head = 0  # ``order`` is the queue
        while head < len(order) < limit:
            u = order[head]
            head += 1
            for w in dst[indptr[u] : indptr[u + 1]]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    if len(order) == limit:
                        break
        rows += order
        rows += [pad] * (limit - len(order))
    return rows


def sample_subgraphs(graph: Graph, n: int, s: int) -> SubgraphSet:
    """Extract ``n`` degree-ranked BFS subgraphs of at most ``s`` nodes each."""
    if n < 1 or s < 1:
        raise ValueError(f"need n >= 1 and s >= 1, got n={n}, s={s}")
    size = graph.num_nodes
    if size == 0:
        raise ValueError(f"cannot sample subgraphs from empty graph {graph.index}")
    # The graph's directed edge keys u * base + v, sorted, are its CSR form:
    # sources rise, and each source's neighbours rise within its run.  With
    # base = size + 1 no pair holding ``size``, the id pads look up as, is a
    # key, and the sentinel key base * base, larger than any pair, makes
    # every lookup position below valid.
    base = size + 1
    u, v = graph.edges.T
    keys = np.sort(np.concatenate([u * base + v, v * base + u, [base * base]]))
    degree = np.bincount(graph.edges.ravel(), minlength=size)
    indptr = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(degree, out=indptr[1:])
    ranking = np.argsort(-degree, kind="stable")  # degree, then id
    roots = ranking[np.arange(n) % size].tolist()

    rows = _bfs_rows(indptr.tolist(), (keys[:-1] % base).tolist(), roots, s, size)
    look = np.array(rows, dtype=np.intp).reshape(n, s)
    mask = look < size
    nodes = np.where(mask, look, 0)

    # Induced adjacency: look every (u, v) pair of a subgraph up in the keys;
    # a pair with a pad is never a key.
    pairs = look[:, :, None] * base + look[:, None, :]
    linked = keys[np.searchsorted(keys, pairs)] == pairs
    linked.reshape(n, s * s)[:, :: s + 1] = False  # no self-loops
    return SubgraphSet(
        nodes=nodes, mask=mask, adjacency=linked, overlap=overlap_counts(nodes, mask)
    )


def overlap_counts(nodes: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(n, n) matrix: how many real nodes subgraphs i and j share."""
    member = np.zeros((nodes.shape[0], nodes[mask].max() + 1))
    member[np.nonzero(mask)[0], nodes[mask]] = 1.0
    # A count is at most s, far below 2**15 for any (s, s) adjacency that
    # fits in memory; the narrow type keeps one matrix per graph cheap.
    return (member @ member.T).astype(np.int16)


@dataclass(frozen=True, eq=False)
class SketchedGraph:
    """Supernode graph over the selected subgraphs.

    ``supernodes`` holds the selected subgraph indices; ``adjacency`` is the
    read-only (m, m) bool matrix over *positions* into that tuple, symmetric
    with a False diagonal.
    """

    supernodes: tuple[int, ...]
    adjacency: np.ndarray

    def __post_init__(self):
        self.adjacency.flags.writeable = False

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Undirected edges as position pairs ``(i, j)``, ``i < j``, row-major."""
        rows, cols = np.nonzero(np.triu(self.adjacency, 1))
        return tuple(zip(rows.tolist(), cols.tolist()))


def build_sketched_graph(
    subgraph_set: SubgraphSet, idx: list[int], b_com: int = 0
) -> SketchedGraph:
    """Connect selected subgraphs that share more than ``b_com`` real nodes."""
    if not idx:
        raise ValueError("cannot build a sketched graph from no supernodes")
    sel = np.asarray(idx, dtype=np.intp)
    linked = subgraph_set.overlap.take(sel, axis=0).take(sel, axis=1) > b_com
    linked.flat[:: len(sel) + 1] = False
    return SketchedGraph(supernodes=tuple(idx), adjacency=linked)
