"""Per-graph reference path for oracle tests: one subgraph, one sketch at a time.

The trainer runs every subgraph of a batch on one tape (block-diagonal
propagation, a category lookup for the first layer, stacked attention
blocks).  These functions compute the same model one graph at a time from
dense feature rows and plain per-subgraph ops, so that tests can check the
batched path against an independent formulation.  Likewise
:func:`parse_tu_lines` parses TU files one line at a time, the oracle for
the bulk numpy parser.  They are the oracle, not the product: nothing under
``src/`` calls them.
"""

import os
from typing import NamedTuple

import numpy as np

from subsketch.dataset import Graph, _read_column, _read_rows, _require
from subsketch.errors import DatasetFormatError
from subsketch.diffcore import MASK_OFF, Node, Tape
from subsketch.encoder import propagation_matrix, subgraph_features
from subsketch.pooling import rank_topk
from subsketch.sampler import SketchedGraph, SubgraphEntry
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


# --------------------------------------------------------------- encoder


def encode_nodes(
    entry: SubgraphEntry,
    graph_features: np.ndarray,
    enc: Encoder,
    tape: Tape,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Node:
    """Run the layered propagation for one subgraph; returns ``s x d1``."""
    prop = tape.constant(propagation_matrix(entry), name="prop")
    h = tape.constant(subgraph_features(entry, graph_features), name="h0")
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
    scores = tape.add(tape.transpose(logits), tape.constant(off, name="attn_mask"))
    return tape.softmax_rows(scores)


def intra_attention(h: Node, mask: np.ndarray, enc: Encoder, tape: Tape) -> Node:
    """Pool node states to the subgraph embedding ``1 x d1``."""
    return tape.matmul(intra_attention_weights(h, mask, enc, tape), h)


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
    averager = tape.constant(np.full((1, m), 1.0 / m), name="readout_mean")
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


# --------------------------------------------------------------- dataset


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
