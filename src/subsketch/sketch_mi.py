"""Attention over the sketched graph plus the mutual-information objective.

Selected subgraph embeddings become supernodes; each attends over its
sketched-graph neighborhood (always including itself) with multi-head
attention, heads averaged.  A mean readout summarizes the graph, and a
bilinear discriminator scores (supernode, readout) pairs.  The MI loss is
the negated Jensen-Shannon lower bound: binary cross-entropy that pushes
real pairs toward 1 and mismatched pairs toward 0, written with softplus on
the raw bilinear scores so extreme scores cannot overflow the log.

Negative pairs come either from another graph in the batch
(``alternative_graph``) or from re-encoding the same graph with row-shuffled
features (``corrupt_features``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Graph
from .diffcore import MASK_OFF, Node, Tape
from .encoder import glorot
from .errors import ConfigError
from .sampler import SketchedGraph

STRATEGIES = ("alternative_graph", "corrupt_features", "none")


@dataclass
class SketchParams:
    """Per-head projection and attention arrays plus the discriminator."""

    w_inter: tuple[np.ndarray, ...]  # M arrays of shape (d2, d1)
    a_inter: tuple[np.ndarray, ...]  # M arrays of shape (2*d2, 1)
    w_mi: np.ndarray  # (d2, d2)

    @property
    def heads(self) -> int:
        return len(self.w_inter)


@dataclass
class BoundSketch:
    w_inter: tuple[Node, ...]
    a_inter: tuple[Node, ...]
    w_mi: Node


@dataclass(frozen=True)
class MIBatchPlan:
    """How to draw negatives: strategy plus negatives-per-graph count."""

    strategy: str
    n_neg: int

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown MI strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if self.strategy != "none" and self.n_neg < 1:
            raise ConfigError(
                f"strategy {self.strategy!r} needs n_neg >= 1, got {self.n_neg}"
            )


def init_sketch_params(
    rng: np.random.Generator, d1: int = 16, d2: int = 96, heads: int = 2
) -> SketchParams:
    if heads < 1:
        raise ConfigError(f"head count must be at least 1, got {heads}")
    return SketchParams(
        w_inter=tuple(glorot(rng, d2, d1) for _ in range(heads)),
        a_inter=tuple(glorot(rng, 2 * d2, 1) for _ in range(heads)),
        w_mi=glorot(rng, d2, d2),
    )


def bind_sketch(params: SketchParams, tape: Tape) -> BoundSketch:
    return BoundSketch(
        w_inter=tuple(
            tape.param(w, name=f"sketch.w_inter{m}") for m, w in enumerate(params.w_inter)
        ),
        a_inter=tuple(
            tape.param(a, name=f"sketch.a_inter{m}") for m, a in enumerate(params.a_inter)
        ),
        w_mi=tape.param(params.w_mi, name="sketch.w_mi"),
    )


def attention_mask(sk: SketchedGraph) -> np.ndarray:
    """Additive mask: 0 on sketch edges and the diagonal, MASK_OFF elsewhere.

    The diagonal keeps attention well-defined for isolated supernodes.
    """
    allowed = sk.adjacency_matrix() + np.eye(len(sk.supernodes))
    return np.where(allowed > 0, 0.0, MASK_OFF)


def inter_attention_with_mask(
    additive_mask: np.ndarray, zs: Node, bound: BoundSketch, tape: Tape
) -> tuple[Node, list[Node]]:
    """Attention of B graphs of M supernodes each under an additive mask.

    ``zs`` stacks the graphs' supernode embeddings, graph b in rows
    [b*M, (b+1)*M).  ``additive_mask`` has shape (B*M, M): row b*M + i,
    column j masks supernode i of graph b attending to supernode j of the
    same graph (0 = allowed, MASK_OFF = not).  Supernodes never see another
    graph, so nothing is spent on cross-graph pairs.  A single graph's
    (m, m) mask is the B = 1 case.  Each head's coefficients come back in
    the mask's (B*M, M) layout.
    """
    rows, m = additive_mask.shape
    if rows != zs.shape[0] or m == 0 or rows % m:
        raise ValueError(
            f"mask shape {additive_mask.shape} does not fit {zs.shape[0]} embeddings"
        )
    graphs = rows // m
    mask = tape.constant(additive_mask, name="sketch_mask")
    ones_row = tape.constant(np.ones((1, m)), name="ones_row")
    graph_of_row = np.repeat(np.arange(graphs), m)
    head_outputs = []
    coefficients = []
    for w, a in zip(bound.w_inter, bound.a_inter):
        projected = tape.matmul(zs, tape.transpose(w))  # B*M x d2
        d2 = w.shape[0]
        src = tape.matmul(projected, _slice_rows(a, 0, d2, tape))
        dst = tape.matmul(projected, _slice_rows(a, d2, 2 * d2, tape))
        # e_ij = leaky_relu(src_i + dst_j), built by broadcasting both halves;
        # each graph's dst row is repeated for that graph's M rows.
        logits = tape.leaky_relu(
            tape.add(
                tape.matmul(src, ones_row),
                tape.take_rows(tape.reshape(dst, graphs, m), graph_of_row),
            )
        )
        alpha = tape.softmax_rows(tape.add(logits, mask))
        coefficients.append(alpha)
        head_outputs.append(tape.block_diag_matmul(alpha, projected))
    total = head_outputs[0]
    for extra in head_outputs[1:]:
        total = tape.add(total, extra)
    return tape.scale(total, 1.0 / len(head_outputs)), coefficients


def _slice_rows(a: Node, start: int, stop: int, tape: Tape) -> Node:
    return tape.take_rows(a, list(range(start, stop)))


def inter_attention_details(
    sk: SketchedGraph, zs: Node, bound: BoundSketch, tape: Tape
) -> tuple[Node, list[Node]]:
    """Head-averaged attention output plus each head's coefficient matrix."""
    m = len(sk.supernodes)
    if zs.shape[0] != m:
        raise ValueError(
            f"{zs.shape[0]} embeddings for {m} supernodes; shapes must agree"
        )
    return inter_attention_with_mask(attention_mask(sk), zs, bound, tape)


def inter_attention(
    sk: SketchedGraph, zs: Node, bound: BoundSketch, tape: Tape
) -> Node:
    """Supernode update over the sketched graph: ``m x d2`` refined embeddings."""
    out, _ = inter_attention_details(sk, zs, bound, tape)
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


def discriminate(z_prime: Node, r: Node, w_mi: Node, tape: Tape) -> Node:
    """Probability that (z', r) is a real pair: sigmoid of the bilinear score."""
    return tape.sigmoid(bilinear_logits(z_prime, r, w_mi, tape))


def mi_loss(pos_logits: Node, neg_logits: Node, tape: Tape) -> Node:
    """Binary cross-entropy over positive and negative pair scores (1 x 1).

    Uses log D = -softplus(-score) and log(1 - D) = -softplus(score), so the
    value equals the negated JS bound without ever forming the sigmoid.
    """
    count = pos_logits.shape[0] + neg_logits.shape[0]
    total = tape.add(
        tape.sum(tape.softplus(tape.neg(pos_logits))),
        tape.sum(tape.softplus(neg_logits)),
    )
    return tape.scale(total, 1.0 / count)


def corrupt(graph: Graph, rng: np.random.Generator) -> Graph:
    """Same nodes and adjacency, feature rows shuffled by one permutation."""
    perm = rng.permutation(graph.num_nodes)
    return Graph(
        index=graph.index,
        label=graph.label,
        edges=graph.edges,
        node_labels=tuple(graph.node_labels[p] for p in perm),
        features=graph.features[perm].copy(),
    )
