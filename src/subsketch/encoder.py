"""Node encoding over a graph's subgraph arrays: the constants each graph
contributes, the fused subgraph-encoder tape op, and the Glorot initializer.

Message passing is symmetric-normalized graph convolution with self-loops:
``H' = tanh(D^{-1/2} (A + I) D^{-1/2} H W)`` applied per layer, restricted to
the real (unmasked) rows of the padded subgraph; padded rows stay exactly
zero.  A learned attention then scores each node, softmaxes over the real
nodes, and returns the weighted sum as the subgraph embedding.

A graph's :class:`~.sampler.SubgraphSet` contributes, for all n subgraphs at
once, the (n*s,) padded node categories and its propagation matrices as an
(n, s, s) array of codes, built from the set's one-byte bool adjacency.
Each entry of a matrix is 0 or ``d_i^{-1/2} d_j^{-1/2}`` for two degrees
in 1..s, so a code of one byte (two from s = 16) names it, and
``np.take(propagation_values(s), codes)`` gives the float64 matrices.
:func:`encode_subgraphs` runs both layers and the attention for every
subgraph of a batch as one tape node.  Its backward does per-row work only
for the subgraphs whose embedding gradient is not all zero, which are the
ones top-k pooling kept, and for any whose embedding is not finite.
"""

from __future__ import annotations

from functools import cache, partial

import numpy as np

from .diffcore import MASK_OFF, Node, Tape
from .sampler import SubgraphSet


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def propagation_matrix(adjacency: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Codes of the constant ``D^{-1/2} (A + I) D^{-1/2}`` of padded subgraphs.

    ``adjacency`` is (..., s, s) bool, as sampled, and ``mask`` (..., s) with
    any leading shape.  Self-loops are added on real rows only.  An entry
    off the support of ``A + I`` gets code 0, so padded rows and columns are
    0 and padded node states never mix in; an entry between nodes of
    degrees d_i and d_j in ``A + I`` gets ``1 + (d_i - 1) s + (d_j - 1)``,
    its index in :func:`propagation_values`.  The dtype is the smallest
    unsigned one that holds the top code s*s.
    """
    s = mask.shape[-1]
    linked = adjacency | (mask[..., None] & np.eye(s, dtype=bool))
    degree = linked.sum(axis=-1, dtype=np.min_scalar_type(s * s))
    # A padded row has degree 0, and its (degree - 1) wraps; it is linked
    # to nothing, so the product with ``linked`` is 0 all the same.
    return linked * ((degree[..., :, None] - 1) * s + degree[..., None, :])


@cache
def propagation_values(s: int) -> np.ndarray:
    """The read-only (s*s + 1,) float64 table that :func:`propagation_matrix`'s
    codes index: 0, then ``d_i^{-1/2} d_j^{-1/2}`` for d_i, d_j in 1..s, d_j
    fastest.  Each value has the bits that the dense product
    ``(inv_sqrt_i * a_ij) * inv_sqrt_j`` gives with ``a_ij = 1``."""
    # Powers over a float64 array, as a dense form takes them over its
    # degrees: Python's scalar ``**`` can differ in the last bit.
    inv_sqrt = np.arange(1, s + 1, dtype=np.float64) ** -0.5
    values = np.zeros(s * s + 1)
    values[1:] = (inv_sqrt[:, None] * inv_sqrt[None, :]).reshape(-1)
    values.setflags(write=False)
    return values


def subgraph_features(subgraph_set: SubgraphSet, categories: np.ndarray) -> np.ndarray:
    """(n*s,) node categories of the stacked padded subgraphs, subgraph i in
    rows [i*s, (i+1)*s); pad entries hold category 0.

    ``categories`` is the graph's (num_nodes,) category vector.
    """
    return np.where(subgraph_set.mask, categories[subgraph_set.nodes], 0).reshape(-1)


def encode_subgraphs(
    tape: Tape,
    layer0: Node,
    layer1: Node,
    direction: Node,
    prop: np.ndarray,
    feats: np.ndarray,
    real: np.ndarray,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Node, np.ndarray]:
    """Embeddings of m padded subgraphs as one tape node, and their (m, s)
    intra-attention weights as a plain array.

    ``prop`` holds the (m, s, s) propagation blocks, ``feats`` the (m*s,)
    node categories and ``real`` the (m, s) bool mask of real nodes.  Layer 0
    looks up ``layer0``'s row for each node's category, which is X W0 for
    one-hot X; pad rows read category 0, which is exact because the blocks'
    pad rows and columns are zero.  Inverted dropout sits between the layers
    on a training tape.  Node scores are ``tanh(h direction)``, softmaxed over
    each subgraph's real nodes.  Gradients flow to ``layer0``, ``layer1`` and
    ``direction``.

    A recording tape keeps for backward only the first layer's output, the
    dropout mask and their product, the second layer's output, the score
    column and the weights; a forward-only tape keeps none of them.
    """
    m, s, _ = prop.shape
    d = layer0.value.shape[1]
    h1 = np.matmul(prop, np.take(layer0.value, feats, axis=0).reshape(m, s, d))
    np.tanh(h1, out=h1)
    h1 = h1.reshape(m * s, d)
    mask = None
    if tape.training and dropout > 0.0:
        keep = 1.0 - dropout
        mask = (rng.random(h1.shape) < keep) / keep
    h1d = h1 if mask is None else h1 * mask
    h2 = np.matmul(prop, (h1d @ layer1.value).reshape(m, s, d))
    layer0_saved = (h1, mask, h1d) if tape.record else None
    del h1, mask, h1d  # a forward-only tape frees layer 1's input here
    np.tanh(h2, out=h2)
    scores = np.tanh(h2.reshape(m * s, d) @ direction.value)
    weights = scores.reshape(m, s) + np.where(real, 0.0, MASK_OFF)
    weights -= weights.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    embeddings = np.einsum("ms,msd->md", weights, h2)
    if not tape.record:
        return tape._record(embeddings), weights
    rule = partial(
        _encode_backward, *layer0_saved, h2, scores, weights, embeddings, prop,
        feats, layer0.value.shape, layer1.value, direction.value,
    )
    return tape._record(embeddings, (layer0, layer1, direction), rule), weights


def _encode_backward(
    h1, mask, h1d, h2, scores, weights, embeddings, prop, feats, w0_shape, w1,
    direction, g,
):
    """Gradients to ``layer0``, ``layer1`` and ``direction`` of
    :func:`encode_subgraphs`, given the (m, d) embedding gradient ``g``.

    A subgraph whose gradient row is all ±0 sends ±0 to every input, unless
    a non-finite value in its forward turns a zero into NaN, which always
    shows in its embedding.  So row and block work runs only on the live
    subgraphs, those with a nonzero gradient or a non-finite embedding; the
    bincount scatter adds from zero in index order, where a ±0 changes
    nothing.  The two reductions over all rows, for ``layer1`` and
    ``direction``, run on full-size operands with zero rows for the dead
    subgraphs: a gemm over fewer rows could group BLAS's partial sums
    differently.
    """
    m, s, d = h2.shape
    live = np.flatnonzero(g.any(axis=1) | ~np.isfinite(embeddings).all(axis=1))
    rows = slice(None) if live.size == m else live

    # Attention readout, then the softmax over each subgraph's nodes.
    g, w = g[rows], weights[rows]
    h2_live = h2[rows]
    g_w = np.einsum("md,msd->ms", g, h2_live)
    g_h2 = np.einsum("ms,md->msd", w, g)
    g_w -= (g_w * w).sum(axis=1, keepdims=True)
    g_w *= w
    # The score column: tanh, then the product with ``direction``.
    y = scores.reshape(m, s)[rows]
    g_scores = np.zeros((m, s))
    g_scores[rows] = g_live = (1.0 - y * y) * g_w
    g_dir = h2.reshape(m * s, d).T @ g_scores.reshape(m * s, 1)
    g_h2 += g_live[:, :, None] * direction[:, 0]
    # Layer 1: tanh, propagation, then the product with ``layer1``.
    g_a = h2_live * h2_live
    np.subtract(1.0, g_a, out=g_a)
    g_a *= g_h2
    g_x = np.zeros((m, s, d))
    g_x[rows] = np.matmul(prop[rows].transpose(0, 2, 1), g_a)
    g_x = g_x.reshape(m * s, d)
    g_w1 = h1d.T @ g_x
    g_h = (g_x @ w1.T).reshape(m, s, d)[rows]
    # Dropout, layer 0's tanh and propagation, then the scatter into ``layer0``.
    if mask is not None:
        g_h *= mask.reshape(m, s, d)[rows]
    h1_live = h1.reshape(m, s, d)[rows]
    g_a = h1_live * h1_live
    np.subtract(1.0, g_a, out=g_a)
    g_a *= g_h
    g_x = np.matmul(prop[rows].transpose(0, 2, 1), g_a)
    idx = feats.reshape(m, s)[rows].reshape(-1)
    flat = ((idx * d)[:, None] + np.arange(d)).ravel()
    g_w0 = np.bincount(flat, weights=g_x.ravel(), minlength=w0_shape[0] * d)
    return g_w0.reshape(w0_shape), g_w1, g_dir
