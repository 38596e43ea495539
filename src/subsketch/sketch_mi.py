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

Sketch attention, all heads, is one tape node with a closed-form backward
(:func:`inter_attention_with_mask`); its softmax calls ``np.exp`` on the
live entries only, since a masked one comes out +0.0 anyway.  Its values
and gradients keep the bits of the tape-op chain it replaced, which
``tests/_reference.py`` keeps as the oracle.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .diffcore import MASK_OFF, Node, Tape
from .sampler import SketchedGraph

# exp of anything below this is +0.0 in float64, which underflows below
# about -745.1.
_EXP_ZERO = -1000.0
_SLOPE = 0.2  # of the leaky ReLU on attention scores, Tape.leaky_relu's default


def attention_mask(sk: SketchedGraph) -> np.ndarray:
    """Additive mask: 0 on sketch edges and the diagonal, MASK_OFF elsewhere.

    The diagonal keeps attention well-defined for isolated supernodes.
    """
    mask = np.where(sk.adjacency > 0, 0.0, MASK_OFF)
    mask.flat[:: len(mask) + 1] = 0.0
    return mask


def inter_attention_with_mask(
    additive_mask: np.ndarray, zs: Node, heads: list[tuple[Node, Node]], tape: Tape
) -> tuple[Node, list[np.ndarray]]:
    """Attention of B graphs of M supernodes each under an additive mask.

    ``zs`` stacks the graphs' supernode embeddings, graph b in rows
    [b*M, (b+1)*M).  ``additive_mask`` has shape (B*M, M): row b*M + i,
    column j masks supernode i of graph b attending to supernode j of the
    same graph (0 = allowed, MASK_OFF = not).  Supernodes never see another
    graph, so nothing is spent on cross-graph pairs.  A single graph's
    (m, m) mask is the B = 1 case.  ``heads`` holds each head's projection
    ``w`` (d2, d1) and attention vector ``a`` (2*d2, 1); each head's
    coefficients come back as a plain array in the mask's (B*M, M) layout.

    All heads are one tape node.  Per head: the projection, its scores
    against ``a``'s two halves (slices, no gathers), the leaky ReLU, the
    masked softmax, which exponentiates only the entries that exp does not
    take to +0.0, and the per-graph block product; then the mean over heads.
    The values and gradients have the bits of the 13 tape ops per head that
    this replaces (``tests/_reference.py``'s ``inter_attention_chain``).  A
    recording tape keeps, per head, ``w``'s transposed copy, the projection,
    the sign of the scores and the coefficients for backward; a forward-only
    tape keeps nothing.
    """
    rows, m = additive_mask.shape
    if rows != zs.shape[0] or m == 0 or rows % m:
        raise ValueError(
            f"mask shape {additive_mask.shape} does not fit {zs.shape[0]} embeddings"
        )
    graphs = rows // m
    total, coefficients, saved = None, [], []
    for w, a in heads:
        wt = np.ascontiguousarray(w.value.T)
        projected = zs.value @ wt  # B*M x d2
        d2 = wt.shape[1]
        # e_ij = leaky_relu(src_i + dst_j): each graph's dst row is repeated
        # for that graph's M rows, and the src column across the M columns.
        scores = np.repeat((projected @ a.value[d2:]).reshape(graphs, m), m, axis=0)
        scores += projected @ a.value[:d2]
        positive = scores > 0
        scores = np.where(positive, scores, _SLOPE * scores)
        scores += additive_mask
        alpha = _softmax_live(scores)
        out = np.matmul(alpha.reshape(graphs, m, m), projected.reshape(graphs, m, d2))
        out = out.reshape(rows, d2)
        total = out if total is None else total + out
        coefficients.append(alpha)
        if tape.record:
            saved.append((wt, a.value, projected, positive, alpha))
    scale = 1.0 / len(heads)
    if not tape.record:
        return tape._record(total * scale), coefficients
    parents = (zs, *(node for head in heads for node in head))
    rule = partial(_attention_backward, zs.value, saved, scale)
    return tape._record(total * scale, parents, rule), coefficients


def _softmax_live(x: np.ndarray) -> np.ndarray:
    """``Tape.softmax_rows``' values of a plain array, with ``np.exp`` run
    only where the shifted entry is not below ``_EXP_ZERO``: exp takes every
    entry below it to +0.0, masked entries lie about MASK_OFF below it, and
    numpy's exp is about 15x slower on inputs below -708 than on others."""
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted, out=np.zeros_like(shifted), where=~(shifted < _EXP_ZERO))
    return e / e.sum(axis=1, keepdims=True)


def _attention_backward(zs, saved, scale, g):
    """Gradients to ``zs`` and each head's ``w`` and ``a`` of
    :func:`inter_attention_with_mask`, given the output gradient ``g``.

    Each head runs its ops' rules in reverse, and each operand's gradients
    are added in the order a tape of those ops adds them: for the
    projection, the block product's, then the dst half's, then the src
    half's; for ``zs``, the last head's first.  ``a``'s gradient is the sum
    of the two halves' scatters into zeros, so a -0.0 in either becomes +0.0.
    """
    g = g * scale
    rows, d2 = g.shape
    g_zs, g_params = None, []
    for wt, a, projected, positive, alpha in reversed(saved):
        m = alpha.shape[1]
        graphs = rows // m
        gr = g.reshape(graphs, m, d2)
        g_alpha = np.matmul(gr, projected.reshape(graphs, m, d2).transpose(0, 2, 1))
        g_proj = np.matmul(alpha.reshape(graphs, m, m).transpose(0, 2, 1), gr)
        g_proj = g_proj.reshape(rows, d2)
        # The softmax, then the leaky ReLU.
        g_alpha = g_alpha.reshape(rows, m)
        g_scores = alpha * (g_alpha - (g_alpha * alpha).sum(axis=1, keepdims=True))
        g_scores *= np.where(positive, 1.0, _SLOPE)
        # The src column was repeated across the columns, and each graph's
        # dst row down its M rows.
        g_src = g_scores @ np.ones((m, 1))
        g_dst = g_scores.reshape(graphs, m, m).sum(axis=1).reshape(rows, 1)
        g_proj += g_dst * a[d2:].T
        g_proj += g_src * a[:d2].T
        g_a = np.concatenate((projected.T @ g_src, projected.T @ g_dst))
        g_a += 0.0
        # The projection zs @ w.T, with w.T as the contiguous copy ``wt``.
        g_x = g_proj * wt.T if d2 == 1 else g_proj @ wt.T
        g_zs = g_x if g_zs is None else g_zs + g_x
        g_params.append((np.ascontiguousarray((zs.T @ g_proj).T), g_a))
    return (g_zs, *(grad for head in reversed(g_params) for grad in head))


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
