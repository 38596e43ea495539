"""Per-graph reference path for oracle tests: one subgraph, one sketch at a time.

The trainer runs every subgraph of a batch on one tape (block-diagonal
propagation, a category lookup for the first layer, stacked attention
blocks) from array constants built for all of a graph's subgraphs at once.
These functions compute the same model one subgraph at a time: sampling
and precompute with per-subgraph loops (:func:`precompute_reference`),
then encoding from dense feature rows with plain per-subgraph ops, so that
tests can check the batched path against an independent formulation.
Likewise :func:`parse_tu_lines` parses TU files one line at a time, the
oracle for the bulk numpy parser, and :func:`write_tu_lines` writes them one
line at a time, the oracle for the bulk writer.  They are the oracle, not the product:
nothing under ``src/`` calls them.
"""

import csv
import os
from collections import deque
from typing import NamedTuple

import numpy as np

from subsketch.dataset import Graph, _read_rows, _require
from subsketch.errors import DatasetFormatError
from subsketch.diffcore import MASK_OFF, Node, Tape
from subsketch.pooling import rank_topk
from subsketch.sampler import SketchedGraph, SubgraphSet, overlap_counts
from subsketch.sketch_mi import attention_mask, inter_attention_with_mask


class Encoder(NamedTuple):
    """Tape nodes of the node encoder: GCN layers plus the attention head."""

    layer_weights: tuple
    w_intra: Node
    a_intra: Node


def encoder_of(bound: dict[str, Node]) -> Encoder:
    """The encoder nodes of a ``bind_model`` mapping."""
    return Encoder(
        (bound["encoder.layer0"], bound["encoder.layer1"]),
        bound["encoder.w_intra"],
        bound["encoder.a_intra"],
    )


def heads_of(bound: dict[str, Node], heads: int) -> list[tuple[Node, Node]]:
    """Each sketch-attention head's ``(w, a)`` nodes of a ``bind_model`` mapping."""
    return [(bound[f"sketch.w_inter{m}"], bound[f"sketch.a_inter{m}"]) for m in range(heads)]


# ------------------------------------------------------ sampling, precompute


class SubgraphEntry(NamedTuple):
    """One sampled subgraph on its own."""

    central_node: int
    node_ids: tuple  # real nodes only, node_ids[0] is the root
    local_adjacency: np.ndarray  # (s, s) bool, symmetric, padded rows/cols False
    mask: np.ndarray  # (s,) bool, True marks real rows


def neighbors(graph: Graph) -> list[list[int]]:
    """Adjacency lists with each list sorted ascending (a duplicate edge
    lists its neighbour twice, a self-loop lists the node twice)."""
    adj: list[list[int]] = [[] for _ in range(graph.num_nodes)]
    for u, v in graph.edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()
    return adj


def degrees(graph: Graph) -> list[int]:
    """Edge ends per node: a self-loop counts twice, as do duplicates."""
    deg = [0] * graph.num_nodes
    for u, v in graph.edges.tolist():
        deg[u] += 1
        deg[v] += 1
    return deg


def bfs_order(adj: list[list[int]], root: int, limit: int) -> list[int]:
    """Breadth-first order from root over sorted adjacency lists, at most
    ``limit`` nodes."""
    seen = {root}
    order = [root]
    queue = deque([root])
    while queue and len(order) < limit:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
                if len(order) == limit:
                    break
    return order


def sample_entries(graph: Graph, n: int, s: int) -> list[SubgraphEntry]:
    """``sample_subgraphs`` one subgraph at a time, from adjacency lists and
    a deque BFS, with a dict lookup per neighbour for the induced adjacency."""
    adj = neighbors(graph)
    degree = degrees(graph)
    ranking = sorted(range(graph.num_nodes), key=lambda v: (-degree[v], v))
    entries = []
    for i in range(n):
        root = ranking[i % graph.num_nodes]
        nodes = bfs_order(adj, root, s)
        position = {u: a for a, u in enumerate(nodes)}
        local = np.zeros((s, s), dtype=bool)
        for a, u in enumerate(nodes):
            for w in adj[u]:
                b = position.get(w)
                if b is not None and b != a:
                    local[a, b] = True
        mask = np.zeros(s, dtype=bool)
        mask[: len(nodes)] = True
        entries.append(SubgraphEntry(root, tuple(nodes), local, mask))
    return entries


def dense_propagation(adjacency: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Float64 ``D^{-1/2} (A + I) D^{-1/2}`` of padded subgraphs, the oracle
    for ``np.take(encoder.propagation_values(s), codes)``.

    ``adjacency`` is (..., s, s), bool or 0/1 floats (both give the same
    bits), and ``mask`` (..., s) with any leading shape.  Self-loops are
    added on real rows only, so padded rows and columns of the result are
    zero.
    """
    a_tilde = adjacency + mask[..., None] * np.eye(mask.shape[-1])
    degree = a_tilde.sum(axis=-1)
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = degree[nonzero] ** -0.5
    return inv_sqrt[..., :, None] * a_tilde * inv_sqrt[..., None, :]


def entry_codes(entry: SubgraphEntry) -> np.ndarray:
    """``encoder.propagation_matrix``'s codes of one padded subgraph, entry by
    entry: 0 off the support of ``A + I``, else ``1 + (d_i - 1) s + (d_j - 1)``
    for the degrees d_i, d_j in ``A + I``, in the smallest unsigned dtype
    that holds s*s."""
    s = len(entry.mask)
    linked = [
        [bool(entry.local_adjacency[i][j]) or (i == j and bool(entry.mask[i])) for j in range(s)]
        for i in range(s)
    ]
    degree = [sum(row) for row in linked]
    codes = np.zeros((s, s), dtype=np.min_scalar_type(s * s))
    for i in range(s):
        for j in range(s):
            if linked[i][j]:
                codes[i, j] = 1 + (degree[i] - 1) * s + (degree[j] - 1)
    return codes


def entry_rows(entry: SubgraphEntry, graph_values: np.ndarray) -> np.ndarray:
    """Graph rows (or categories) of the real nodes, zero pads: ``s x ...``."""
    out = np.zeros((len(entry.mask),) + graph_values.shape[1:], dtype=graph_values.dtype)
    out[: len(entry.node_ids)] = graph_values[list(entry.node_ids)]
    return out


def entry_overlap(entries: list[SubgraphEntry]) -> np.ndarray:
    """(n, n) shared real-node counts by set intersection."""
    return np.array(
        [[len(set(a.node_ids) & set(b.node_ids)) for b in entries] for a in entries],
        dtype=np.int16,
    )


def precompute_reference(graph: Graph, n: int, s: int) -> dict[str, np.ndarray]:
    """``precompute_tensors``' arrays, built one subgraph at a time."""
    entries = sample_entries(graph, n, s)
    cats = np.asarray(graph.node_labels, dtype=np.intp)
    return {
        "prop_codes": np.stack([entry_codes(e) for e in entries]),
        "feats": np.concatenate([entry_rows(e, cats) for e in entries]),
        "mask": np.stack([e.mask for e in entries]),
        "overlap": entry_overlap(entries),
    }


def entries_of(subgraph_set: SubgraphSet) -> list[SubgraphEntry]:
    """Each subgraph of a set as an entry of its own."""
    return [
        SubgraphEntry(int(nodes[0]), tuple(nodes[mask].tolist()), adjacency, mask)
        for nodes, mask, adjacency in zip(
            subgraph_set.nodes, subgraph_set.mask, subgraph_set.adjacency
        )
    ]


def subgraph_set_of(entries: list[SubgraphEntry]) -> SubgraphSet:
    """Stack entries, padded to the widest, into a :class:`SubgraphSet`."""
    s = max(len(e.mask) for e in entries)
    nodes = np.zeros((len(entries), s), dtype=np.intp)
    mask = np.zeros((len(entries), s), dtype=bool)
    adjacency = np.zeros((len(entries), s, s), dtype=bool)
    for i, e in enumerate(entries):
        nodes[i, : len(e.node_ids)] = e.node_ids
        mask[i, : len(e.mask)] = e.mask
        adjacency[i, : len(e.mask), : len(e.mask)] = e.local_adjacency
    return SubgraphSet(nodes, mask, adjacency, overlap_counts(nodes, mask))


# --------------------------------------------------------------- encoder


def encode_nodes(
    entry: SubgraphEntry,
    graph_features: np.ndarray,
    enc: Encoder,
    tape: Tape,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Node:
    """Run the layered propagation for one subgraph from dense feature rows;
    returns ``s x d1``."""
    prop = tape.constant(dense_propagation(entry.local_adjacency, entry.mask))
    h = tape.constant(entry_rows(entry, graph_features))
    for layer, weight in enumerate(enc.layer_weights):
        if layer > 0 and dropout_rate > 0.0:
            h = tape.dropout(h, dropout_rate, rng)
        h = tape.tanh(tape.matmul(prop, tape.matmul(h, weight)))
    return h


def intra_attention_weights(h: Node, mask: np.ndarray, enc: Encoder, tape: Tape) -> Node:
    """Normalized node weights (``1 x s``): softmax over real nodes only."""
    if not mask.any():
        raise ValueError("intra-subgraph attention needs at least one real node")
    # a^T W h_j for every node j, via h @ (W^T a); yields s x 1.
    direction = tape.matmul(tape.transpose(enc.w_intra), enc.a_intra)
    logits = tape.tanh(tape.matmul(h, direction))
    off = np.where(mask, 0.0, MASK_OFF)[None, :]
    scores = tape.add(tape.transpose(logits), tape.constant(off))
    return tape.softmax_rows(scores)


def intra_attention(h: Node, mask: np.ndarray, enc: Encoder, tape: Tape) -> Node:
    """Pool node states to the subgraph embedding ``1 x d1``."""
    return tape.matmul(intra_attention_weights(h, mask, enc, tape), h)


def encoder_chain(
    tape: Tape,
    layer0: Node,
    layer1: Node,
    direction: Node,
    prop: np.ndarray,
    feats: np.ndarray,
    real: np.ndarray,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Node, Node]:
    """``encoder.encode_subgraphs`` as the 14 tape ops it fuses, in their
    order, after one constant node for the (m*s, s) propagation blocks:
    returns the (m, d1) embeddings and the (m, s) intra weights."""
    m, s, _ = prop.shape
    blocks = tape.constant(prop.reshape(m * s, s))
    h = tape.tanh(tape.block_diag_matmul(blocks, tape.take_rows(layer0, feats)))
    if dropout > 0.0:
        h = tape.dropout(h, dropout, rng)
    h = tape.tanh(tape.block_diag_matmul(blocks, tape.matmul(h, layer1)))
    scores = tape.tanh(tape.matmul(h, direction))
    grid = tape.add(tape.reshape(scores, m, s), tape.constant(np.where(real, 0.0, MASK_OFF)))
    weights = tape.softmax_rows(grid)
    return tape.rowblock_weighted_sum(weights, h), weights


# --------------------------------------------------------------- pooling


def projection_values(zs: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Scores ``z_i . p / ||p||`` for embeddings ``zs`` of shape (n, d1)."""
    direction = np.asarray(p, dtype=np.float64).reshape(-1)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        raise ValueError("projection vector has zero norm; re-initialize it")
    return np.asarray(zs, dtype=np.float64) @ direction / norm


def topk_select(zs: np.ndarray, p: np.ndarray, k: float) -> tuple[list[int], np.ndarray]:
    """Select subgraphs by projected score; returns (indices, sigmoid gates)."""
    if not 0.0 < k <= 1.0:
        raise ValueError(f"pooling ratio must lie in (0, 1], got {k}")
    values = projection_values(zs, p)
    idx = rank_topk(values, k)
    gates = 1.0 / (1.0 + np.exp(-values[idx]))
    return idx, gates


# --------------------------------------------------------- sketch and MI


def inter_attention_details(
    sk: SketchedGraph, zs: Node, heads: list[tuple[Node, Node]], tape: Tape
) -> tuple[Node, list[Node]]:
    """One graph's head-averaged attention output plus each head's coefficients."""
    m = len(sk.supernodes)
    if zs.shape[0] != m:
        raise ValueError(f"{zs.shape[0]} embeddings for {m} supernodes; shapes must agree")
    return inter_attention_with_mask(attention_mask(sk), zs, heads, tape)


def inter_attention(
    sk: SketchedGraph, zs: Node, heads: list[tuple[Node, Node]], tape: Tape
) -> Node:
    """Supernode update over the sketched graph: ``m x d2`` refined embeddings."""
    out, _ = inter_attention_details(sk, zs, heads, tape)
    return out


def readout(z_primes: Node, tape: Tape) -> Node:
    """Mean over supernodes -> ``1 x d2`` graph summary."""
    m = z_primes.shape[0]
    if m < 1:
        raise ValueError("readout needs at least one supernode")
    averager = tape.constant(np.full((1, m), 1.0 / m))
    return tape.matmul(averager, z_primes)


def bilinear_logits(z_primes: Node, r: Node, w_mi: Node, tape: Tape) -> Node:
    """Raw scores ``z'_i^T W_MI r`` for each row of z_primes -> ``m x 1``."""
    return tape.matmul(tape.matmul(z_primes, w_mi), tape.transpose(r))


# ------------------------------------------------------------ classifier


def classify_graph(z_primes: Node, weights: Node, bias: Node, tape: Tape) -> tuple[Node, Node]:
    """Subgraph voting: per-subgraph softmax, summed and renormalized.

    Because each per-subgraph distribution sums to one, the renormalized sum
    is exactly the arithmetic mean of the rows.
    """
    m = z_primes.shape[0]
    if m < 1:
        raise ValueError("classification needs at least one supernode")
    logits = tape.add(
        tape.matmul(z_primes, weights),
        tape.matmul(tape.constant(np.ones((m, 1))), bias),
    )
    sub_dists = tape.softmax_rows(logits)
    mean = tape.constant(np.full((1, m), 1.0 / m))
    return tape.matmul(mean, sub_dists), sub_dists


def vote_loss_chain(logits: Node, labels: list[int], m: int, tape: Tape) -> Node:
    """Vote cross-entropy in probability space, the oracle for ``Tape.vote_nll``.

    Per-row softmax, a (B, B*m) matmul that averages each graph's m rows,
    then a one-hot pick of the true class, ``log``, sum and scale by -1/B.
    ``log`` rejects a true-class vote that underflowed to 0.
    """
    b = len(labels)
    averager = tape.constant(np.repeat(np.eye(b), m, axis=1) / m)
    graph_dists = tape.matmul(averager, tape.softmax_rows(logits))
    classes = graph_dists.shape[1]
    onehot = np.zeros((b, classes))
    onehot[np.arange(b), labels] = 1.0
    picked = tape.matmul(
        tape.mul(graph_dists, tape.constant(onehot)),
        tape.constant(np.ones((classes, 1))),
    )
    return tape.scale(tape.sum(tape.log(picked)), -1.0 / b)


# --------------------------------------------------------------- dataset


def _read_column(path: str, what: str) -> list[tuple[int, int]]:
    """(line_number, value) of each row of a one-column TU file."""
    out = []
    for lineno, values in _read_rows(path):
        if len(values) != 1:
            raise DatasetFormatError(
                f"{os.path.basename(path)}:{lineno}: expected a single {what}, got {len(values)} values"
            )
        out.append((lineno, values[0]))
    return out


def parse_tu_lines(dir_path: str, name: str) -> list[Graph]:
    """Parse the TU files for ``name`` one line at a time, in the same order
    of checks (and so with the same errors) as ``parse_tu_dataset``."""
    a_path = _require(dir_path, f"{name}_A.txt")
    ind_path = _require(dir_path, f"{name}_graph_indicator.txt")
    lab_path = _require(dir_path, f"{name}_graph_labels.txt")
    node_lab_path = os.path.join(dir_path, f"{name}_node_labels.txt")

    graph_of_node = []  # 0-based graph ids
    for lineno, gid in _read_column(ind_path, "graph id"):
        if gid < 1:
            raise DatasetFormatError(
                f"{os.path.basename(ind_path)}:{lineno}: graph id {gid} is not positive"
            )
        graph_of_node.append(gid - 1)
    num_nodes = len(graph_of_node)
    if num_nodes == 0:
        raise DatasetFormatError(f"{os.path.basename(ind_path)}: dataset has no nodes")
    num_graphs = max(graph_of_node) + 1

    raw_labels = _read_column(lab_path, "graph label")
    if len(raw_labels) != num_graphs:
        raise DatasetFormatError(
            f"{os.path.basename(lab_path)}: {len(raw_labels)} labels for {num_graphs} graphs"
        )
    label_map = {raw: i for i, raw in enumerate(sorted({v for _, v in raw_labels}))}
    labels = [label_map[v] for _, v in raw_labels]

    # Local node numbering: nodes keep file order within their graph.
    members: list[list[int]] = [[] for _ in range(num_graphs)]
    local_id = []
    for node, g in enumerate(graph_of_node):
        local_id.append(len(members[g]))
        members[g].append(node)
    for g, nodes in enumerate(members):
        if not nodes:
            raise DatasetFormatError(
                f"{os.path.basename(ind_path)}: graph {g + 1} has no nodes"
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
            continue
        a, b = local_id[u - 1], local_id[v - 1]
        edge_sets[gu].add((min(a, b), max(a, b)))

    if os.path.isfile(node_lab_path):
        raw_node_labels = _read_column(node_lab_path, "node label")
        if len(raw_node_labels) != num_nodes:
            raise DatasetFormatError(
                f"{os.path.basename(node_lab_path)}: {len(raw_node_labels)} labels for {num_nodes} nodes"
            )
        node_values = [v for _, v in raw_node_labels]
    else:
        # Degree fallback: one category per distinct degree value.
        node_values = [0] * num_nodes
        for g, edges in enumerate(edge_sets):
            for a, b in edges:
                node_values[members[g][a]] += 1
                node_values[members[g][b]] += 1

    category = {raw: i for i, raw in enumerate(sorted(set(node_values)))}
    return [
        Graph(
            index=g,
            label=labels[g],
            edges=tuple(sorted(edge_sets[g])),
            node_labels=tuple(category[node_values[node]] for node in members[g]),
        )
        for g in range(num_graphs)
    ]


def write_tu_lines(graphs: list[Graph], dir_path: str, name: str) -> None:
    """Write the TU files for ``graphs`` one line at a time: the oracle for
    the bulk ``write_tu_dataset``."""
    os.makedirs(dir_path, exist_ok=True)
    offsets = []
    total = 0
    for graph in graphs:
        offsets.append(total)
        total += graph.num_nodes

    with open(os.path.join(dir_path, f"{name}_A.txt"), "w", encoding="ascii") as fh:
        for graph, offset in zip(graphs, offsets):
            edges = [tuple(e) for e in graph.edges.tolist()]
            directed = sorted(edges + [(v, u) for u, v in edges])
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


# ----------------------------------------------------------------- files


def read_trajectory(path: str) -> list[dict]:
    """Rows of a ``trajectory.csv`` with their fields typed back."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            {
                "fold": int(row["fold"]),
                "epoch": int(row["epoch"]),
                "loss": float(row["loss"]),
                "train_acc": float(row["train_acc"]),
                "k": float(row["k"]),
                "reward": None if row["reward"] == "" else float(row["reward"]),
                "terminated": bool(int(row["terminated"])),
            }
            for row in csv.DictReader(fh)
        ]
