"""Per-subgraph constants for node encoding, plus the Glorot initializer.

Message passing is symmetric-normalized graph convolution with self-loops:
``H' = tanh(D^{-1/2} (A + I) D^{-1/2} H W)`` applied per layer, restricted to
the real (unmasked) rows of the padded subgraph; padded rows stay exactly
zero.  A learned attention then scores each node, softmaxes over the real
nodes, and returns the weighted sum as the subgraph embedding.

This module builds the constants each subgraph contributes (its propagation
matrix and its padded node categories); the trainer runs the layers and the
attention for every subgraph of a batch at once on the tape.
"""

from __future__ import annotations

import numpy as np

from .sampler import SubgraphEntry


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


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
