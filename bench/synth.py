"""Seeded synthetic TU datasets at MUTAG-, PROTEINS- and DD-like scales.

Every graph is a local random tree over its nodes (each node hangs off one
of the few nodes before it) plus extra short-range edges up to a target
mean degree, so BFS neighbourhoods look like molecule or protein contact
graphs rather than expanders.  Node labels follow a skewed categorical
distribution.  Each graph carries a planted 5-node motif: a clique on the
rarest node label in class 1, a path on the second-rarest label in class 0.
The motif differs between the classes in both structure and labels, so the
classifier can learn it and the training loss has real signal (with the
default settings, training accuracy on the MUTAG-like set reaches 1.0
within 20 epochs).

Run as a script to write one dataset (and, for an evaluation workload, an
untrained model) into a directory; the benchmark does this in a child
process so that generation never counts toward its timings or peak memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (imported after pinning BLAS threads)


@dataclass(frozen=True)
class Scale:
    """Shape of one synthetic dataset."""

    name: str
    graphs: int
    mean_nodes: int
    node_labels: int
    mean_degree: float
    class1_share: float


SCALES = {
    "MUTAG": Scale("MUTAG", 188, 18, 7, 2.2, 0.34),
    "PROTEINS": Scale("PROTEINS", 1113, 39, 3, 3.7, 0.40),
    "DD": Scale("DD", 1178, 284, 89, 5.0, 0.41),
}

MOTIF_SIZE = 5


def _graph_edges(rng: np.random.Generator, nodes: int, mean_degree: float) -> set:
    edges = set()
    for v in range(1, nodes):
        u = int(rng.integers(max(0, v - 3), v))
        edges.add((u, v))
    extra = int(round((mean_degree / 2.0 - 1.0) * nodes))
    if extra > 0 and nodes > 2:
        us = rng.integers(0, nodes, size=extra)
        gaps = rng.integers(2, 7, size=extra)
        for u, gap in zip(us.tolist(), gaps.tolist()):
            v = u + gap
            if v < nodes:
                edges.add((u, v))
    return edges


def make_graphs(scale: Scale, seed: int) -> list:
    """The dataset's graphs as ``subsketch.dataset.Graph`` objects."""
    from subsketch.dataset import Graph

    rng = np.random.default_rng([seed, scale.graphs, scale.mean_nodes])
    weights = 1.0 / np.arange(1, scale.node_labels + 1) ** 0.8
    weights /= weights.sum()
    class1 = np.zeros(scale.graphs, dtype=bool)
    class1[rng.permutation(scale.graphs)[: round(scale.class1_share * scale.graphs)]] = True

    graphs = []
    for index in range(scale.graphs):
        spread = max(2, scale.mean_nodes // 3)
        nodes = int(rng.integers(scale.mean_nodes - spread, scale.mean_nodes + spread + 1))
        edges = _graph_edges(rng, nodes, scale.mean_degree)
        labels = rng.choice(scale.node_labels, size=nodes, p=weights)
        # Plant the motif on consecutive nodes: a clique on the rarest label
        # in class 1, a path on the second-rarest label in class 0.
        base = int(rng.integers(0, nodes - MOTIF_SIZE + 1))
        motif = list(range(base, base + MOTIF_SIZE))
        rarest = scale.node_labels - 1
        labels[motif] = rarest if class1[index] else rarest - 1
        if class1[index]:
            edges.update((a, b) for i, a in enumerate(motif) for b in motif[i + 1 :])
        else:
            edges.update(zip(motif, motif[1:]))
        graphs.append(
            Graph(
                index=index,
                label=int(class1[index]),
                edges=tuple(sorted(edges)),
                node_labels=tuple(int(x) for x in labels),
                # write_tu_dataset serialises labels, never features, so a
                # zero-width placeholder avoids a dense one-hot matrix here.
                features=np.empty((nodes, 0)),
            )
        )
    return graphs


def write_dataset(scale: Scale, seed: int, data_dir: str) -> list:
    """Write the seeded dataset as TU files under ``data_dir``."""
    from subsketch.dataset import write_tu_dataset

    graphs = make_graphs(scale, seed)
    write_tu_dataset(graphs, data_dir, scale.name)
    return graphs


def write_untrained_model(graphs: list, config, model_dir: str) -> None:
    """Save a freshly initialised model as ``subsketch train`` would save one;
    untrained, it keeps the starting pooling ratio ``k0``."""
    from subsketch.persist import save_model
    from subsketch.trainer import init_model

    feature_dim = len({label for g in graphs for label in g.node_labels})
    classes = len({g.label for g in graphs})
    model = init_model(np.random.default_rng(config.seed), feature_dim, classes, config)
    os.makedirs(model_dir, exist_ok=True)
    save_model(model_dir, model, config, final_k=config.k0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the subsketch package")
    parser.add_argument("--scale", required=True, choices=sorted(SCALES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--model-dir", help="also save an untrained model here")
    parser.add_argument("--config", help="TrainConfig fields as JSON, for --model-dir")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    graphs = write_dataset(SCALES[args.scale], args.seed, args.data_dir)
    if args.model_dir:
        from subsketch.trainer import TrainConfig

        config = TrainConfig(**json.loads(args.config))
        write_untrained_model(graphs, config, args.model_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
