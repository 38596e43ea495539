"""Constants for node encoding over a graph's subgraph arrays, plus the
Glorot initializer.

Message passing is symmetric-normalized graph convolution with self-loops:
``H' = tanh(D^{-1/2} (A + I) D^{-1/2} H W)`` applied per layer, restricted to
the real (unmasked) rows of the padded subgraph; padded rows stay exactly
zero.  A learned attention then scores each node, softmaxes over the real
nodes, and returns the weighted sum as the subgraph embedding.

This module builds the constants a graph's :class:`~.sampler.SubgraphSet`
contributes, all n subgraphs at once: the (n, s, s) float64 propagation
matrices, from the set's one-byte bool adjacency, and the (n*s,) padded node
categories.  The trainer runs the layers and the attention for every
subgraph of a batch at once on the tape.
"""

from __future__ import annotations

import numpy as np

from .sampler import SubgraphSet


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def propagation_matrix(adjacency: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Constant ``D^{-1/2} (A + I) D^{-1/2}`` of padded subgraphs.

    ``adjacency`` is (..., s, s), bool as sampled or 0/1 floats (both give
    the same float64 bits), and ``mask`` (..., s) with any leading shape.
    Self-loops are added on real rows only, so padded rows and columns of
    the result are zero and padded node states never mix in.
    """
    a_tilde = adjacency + mask[..., None] * np.eye(mask.shape[-1])
    degree = a_tilde.sum(axis=-1)
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = degree[nonzero] ** -0.5
    return inv_sqrt[..., :, None] * a_tilde * inv_sqrt[..., None, :]


def subgraph_features(subgraph_set: SubgraphSet, categories: np.ndarray) -> np.ndarray:
    """(n*s,) node categories of the stacked padded subgraphs, subgraph i in
    rows [i*s, (i+1)*s); pad entries hold category 0.

    ``categories`` is the graph's (num_nodes,) category vector.
    """
    return np.where(subgraph_set.mask, categories[subgraph_set.nodes], 0).reshape(-1)
