"""Node encoding inside one subgraph, then attention pooling to an embedding.

Message passing is symmetric-normalized graph convolution with self-loops:
``H' = tanh(D^{-1/2} (A + I) D^{-1/2} H W)`` applied per layer, restricted to
the real (unmasked) rows of the padded subgraph; padded rows stay exactly
zero.  A learned attention then scores each node, softmaxes over the real
nodes, and returns the weighted sum as the subgraph embedding.

Parameters are plain arrays (:class:`EncoderParams`); call :func:`bind_encoder`
to register them on a tape before running the differentiable ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import MASK_OFF, Node, Tape
from .sampler import SubgraphEntry


@dataclass
class EncoderParams:
    """Persistent arrays: per-layer GCN weights plus the attention head."""

    layer_weights: tuple[np.ndarray, ...]  # (d, d1) then (d1, d1), ...
    w_intra: np.ndarray  # (d1, d1)
    a_intra: np.ndarray  # (d1, 1)


@dataclass
class BoundEncoder:
    """Tape nodes for one forward pass over :class:`EncoderParams`."""

    layer_weights: tuple[Node, ...]
    w_intra: Node
    a_intra: Node


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def init_encoder_params(
    rng: np.random.Generator, feature_dim: int, hidden: int = 16, layers: int = 2
) -> EncoderParams:
    dims = [feature_dim] + [hidden] * layers
    weights = tuple(glorot(rng, dims[i], dims[i + 1]) for i in range(layers))
    return EncoderParams(
        layer_weights=weights,
        w_intra=glorot(rng, hidden, hidden),
        a_intra=glorot(rng, hidden, 1),
    )


def bind_encoder(params: EncoderParams, tape: Tape) -> BoundEncoder:
    return BoundEncoder(
        layer_weights=tuple(
            tape.param(w, name=f"encoder.layer{i}")
            for i, w in enumerate(params.layer_weights)
        ),
        w_intra=tape.param(params.w_intra, name="encoder.w_intra"),
        a_intra=tape.param(params.a_intra, name="encoder.a_intra"),
    )


def propagation_matrix(entry: SubgraphEntry) -> np.ndarray:
    """Constant ``D^{-1/2} (A + I) D^{-1/2}`` of the padded subgraph.

    Self-loops are added on real rows only, so padded rows and columns of
    the result are zero and padded node states never mix in.
    """
    a_tilde = entry.local_adjacency + np.diag(entry.mask.astype(np.float64))
    degree = a_tilde.sum(axis=1)
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = degree[nonzero] ** -0.5
    return inv_sqrt[:, None] * a_tilde * inv_sqrt[None, :]


def subgraph_features(entry: SubgraphEntry, graph_features: np.ndarray) -> np.ndarray:
    """Constant per-node block of the padded subgraph: graph rows for real
    nodes, zero pads.

    ``graph_features`` is either a ``num_nodes x d`` feature matrix, giving an
    ``s x d`` block, or a ``(num_nodes,)`` category vector, giving ``(s,)``
    categories; the output keeps the input's dtype.
    """
    s = entry.mask.shape[0]
    out = np.zeros((s,) + graph_features.shape[1:], dtype=graph_features.dtype)
    out[: len(entry.node_ids)] = graph_features[list(entry.node_ids)]
    return out


def encode_nodes(
    entry: SubgraphEntry,
    graph_features: np.ndarray,
    bound: BoundEncoder,
    tape: Tape,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Node:
    """Run the layered propagation for one subgraph; returns ``s x d1``."""
    prop = tape.constant(propagation_matrix(entry), name="prop")
    h = tape.constant(subgraph_features(entry, graph_features), name="h0")
    for layer, weight in enumerate(bound.layer_weights):
        if layer > 0 and dropout_rate > 0.0:
            h = tape.dropout(h, dropout_rate, rng)
        h = tape.tanh(tape.matmul(prop, tape.matmul(h, weight)))
    return h


def _attention_scores(h: Node, mask: np.ndarray, bound: BoundEncoder, tape: Tape) -> Node:
    """Masked per-node logits as a ``1 x s`` row (padded slots forced off)."""
    if not mask.any():
        raise ValueError("intra-subgraph attention needs at least one real node")
    # a^T W h_j for every node j, via h @ (W^T a); yields s x 1.
    direction = tape.matmul(tape.transpose(bound.w_intra), bound.a_intra)
    logits = tape.tanh(tape.matmul(h, direction))
    off = np.where(mask, 0.0, MASK_OFF)[None, :]
    return tape.add(tape.transpose(logits), tape.constant(off, name="attn_mask"))


def intra_attention_weights(
    h: Node, mask: np.ndarray, bound: BoundEncoder, tape: Tape
) -> Node:
    """Normalized node weights (``1 x s``): softmax over real nodes only."""
    return tape.softmax_rows(_attention_scores(h, mask, bound, tape))


def intra_attention(
    h: Node, mask: np.ndarray, bound: BoundEncoder, tape: Tape
) -> Node:
    """Pool node states to the subgraph embedding ``1 x d1``."""
    weights = intra_attention_weights(h, mask, bound, tape)
    return tape.matmul(weights, h)
