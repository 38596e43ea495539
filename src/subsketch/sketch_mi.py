"""Attention over the sketched graph plus the mutual-information objective.

Selected subgraph embeddings become supernodes; each attends over its
sketched-graph neighborhood (always including itself) with multi-head
attention, heads averaged.  The trainer summarizes each graph by the mean of
its supernodes and scores (supernode, summary) pairs with a bilinear
discriminator z W r, applied per graph: r W^T once per graph summary, then
a row dot with each paired supernode.  The MI loss is the negated
Jensen-Shannon lower bound:
binary cross-entropy that pushes real pairs toward 1 and mismatched pairs
toward 0, written with softplus on the raw bilinear scores so extreme scores
cannot overflow the log.

Negative pairs come either from another graph in the batch, the previous
one (``full`` and ``fixed_k``), or from re-encoding the same graph with its
node categories shuffled by :func:`corrupt` (``mi_corrupt``).
"""

from __future__ import annotations

import numpy as np

from .diffcore import MASK_OFF, Node, Tape
from .sampler import SketchedGraph


def attention_mask(sk: SketchedGraph) -> np.ndarray:
    """Additive mask: 0 on sketch edges and the diagonal, MASK_OFF elsewhere.

    The diagonal keeps attention well-defined for isolated supernodes.
    """
    mask = np.where(sk.adjacency > 0, 0.0, MASK_OFF)
    mask.flat[:: len(mask) + 1] = 0.0
    return mask


def inter_attention_with_mask(
    additive_mask: np.ndarray, zs: Node, heads: list[tuple[Node, Node]], tape: Tape
) -> tuple[Node, list[Node]]:
    """Attention of B graphs of M supernodes each under an additive mask.

    ``zs`` stacks the graphs' supernode embeddings, graph b in rows
    [b*M, (b+1)*M).  ``additive_mask`` has shape (B*M, M): row b*M + i,
    column j masks supernode i of graph b attending to supernode j of the
    same graph (0 = allowed, MASK_OFF = not).  Supernodes never see another
    graph, so nothing is spent on cross-graph pairs.  A single graph's
    (m, m) mask is the B = 1 case.  ``heads`` holds each head's projection
    ``w`` (d2, d1) and attention vector ``a`` (2*d2, 1); each head's
    coefficients come back in the mask's (B*M, M) layout.
    """
    rows, m = additive_mask.shape
    if rows != zs.shape[0] or m == 0 or rows % m:
        raise ValueError(
            f"mask shape {additive_mask.shape} does not fit {zs.shape[0]} embeddings"
        )
    graphs = rows // m
    mask = tape.constant(additive_mask)
    head_outputs = []
    coefficients = []
    for w, a in heads:
        projected = tape.matmul(zs, tape.transpose(w))  # B*M x d2
        d2 = w.shape[0]
        src = tape.matmul(projected, tape.take_rows(a, range(d2)))
        dst = tape.matmul(projected, tape.take_rows(a, range(d2, 2 * d2)))
        # e_ij = leaky_relu(src_i + dst_j): each graph's dst row is repeated
        # for that graph's M rows, and the src column across the M columns.
        logits = tape.leaky_relu(
            tape.add(tape.repeat_rows(tape.reshape(dst, graphs, m), m), src)
        )
        alpha = tape.softmax_rows(tape.add(logits, mask))
        coefficients.append(alpha)
        head_outputs.append(tape.block_diag_matmul(alpha, projected))
    total = head_outputs[0]
    for extra in head_outputs[1:]:
        total = tape.add(total, extra)
    return tape.scale(total, 1.0 / len(head_outputs)), coefficients


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


def corrupt(categories: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Node categories shuffled by one permutation over the graph's nodes.

    The edges stay put, so each node takes another node's category.
    """
    return categories[rng.permutation(len(categories))]
