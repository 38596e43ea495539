"""Per-graph inspection: which subgraphs the model selected and why.

``explain_graph`` scores one graph with :func:`~.trainer.score_batch`, the
forward-only pass that evaluation also runs (scores that are not finite
raise ``ScoresNotFinite`` there), and reads projection scores, gates,
attention weights, and per-subgraph class votes from its
:class:`~.trainer.ForwardResult`, turning each array into Python numbers
with one ``tolist``.  Its tensors come from
:func:`~.trainer.precompute_tensors`, which keeps them on the graph: a graph
that setup already precomputed at the config's ``(n, s)`` is not sampled
again.  The sketch edges are the live entries above the diagonal of the
forward's sketch-attention mask, row by row.  The result renders two ways:
a DOT file (selected subgraphs as clusters, node fill color by label
category, node size growing with intra-subgraph attention weight over a
small legibility floor, omitted nodes grey) and a JSON file with the raw
numbers.
"""

from __future__ import annotations

import numpy as np

from .dataset import Graph
from .persist import write_json
from .trainer import ModelParams, TrainConfig, precompute_tensors, score_batch

PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)


def explain_graph(
    model: ModelParams, config: TrainConfig, graph: Graph, k: float
) -> dict:
    tensors = precompute_tensors(graph, config.n, config.s)
    result = score_batch(model, [tensors], k, config)
    values = result.values.value[:, 0].tolist()
    gates = result.gates.value[:, 0].tolist()
    sub_dists = result.sub_dists.value.tolist()
    intra = result.intra_weights.tolist()
    selected = result.selected[0].tolist()
    kept = set(selected)
    # A subgraph's real entries come first in its row, so its members are
    # the row's first ids, and a zip with them drops its weights' pads.
    ss = tensors.subgraph_set
    members = [
        row[:size] for row, size in zip(ss.nodes.tolist(), ss.mask.sum(axis=1).tolist())
    ]

    subgraphs = [
        {
            "index": i,
            "central_node": nodes[0],
            "nodes": nodes,
            "val": values[i],
            "selected": i in kept,
        }
        for i, nodes in enumerate(members)
    ]
    selected_detail = [
        {
            "index": i,
            "val": values[i],
            "gate": gates[rank],
            "nodes": members[i],
            "intra_weights": {str(node): w for node, w in zip(members[i], intra[i])},
            "class_distribution": sub_dists[rank],
        }
        for rank, i in enumerate(selected)
    ]
    rows, cols = np.nonzero(np.triu(result.mask == 0.0, 1))
    graph_dist = result.graph_dists.value[0]
    return {
        "graph_id": graph.index,
        "true_label": graph.label,
        "k": k,
        "selection_count": len(selected),
        "predicted_label": int(np.argmax(graph_dist)),
        "graph_distribution": graph_dist.tolist(),
        "subgraphs": subgraphs,
        "selected_subgraphs": selected_detail,
        "sketch_edges": [
            [selected[i], selected[j]] for i, j in zip(rows.tolist(), cols.tolist())
        ],
    }


def write_graph_json(path: str, detail: dict) -> None:
    write_json(path, detail)


def write_dot(path: str, graph: Graph, detail: dict) -> None:
    """Render the explanation as an undirected Graphviz graph."""
    owner: dict[int, int] = {}  # node -> first selected subgraph that holds it
    weight: dict[int, float] = {}
    for sub in detail["selected_subgraphs"]:
        for node in sub["nodes"]:
            owner.setdefault(node, sub["index"])
            if node not in weight:
                weight[node] = sub["intra_weights"][str(node)]

    def node_line(node: int) -> str:
        label_color = PALETTE[graph.node_labels[node] % len(PALETTE)]
        if node in owner:
            size = 0.25 + 0.9 * weight[node]
            return (
                f'n{node} [label="{node}", fillcolor="{label_color}", '
                f"width={size:.3f}, height={size:.3f}, fixedsize=true];"
            )
        return (
            f'n{node} [label="{node}", fillcolor="grey", '
            f"width=0.25, height=0.25, fixedsize=true];"
        )

    lines = [f"graph explain_{detail['graph_id']} {{", "  node [style=filled];"]
    for sub in detail["selected_subgraphs"]:
        members = [n for n in sub["nodes"] if owner.get(n) == sub["index"]]
        if not members:
            continue
        lines.append(f"  subgraph cluster_{sub['index']} {{")
        lines.append(
            f'    label="subgraph {sub["index"]} (gate {sub["gate"]:.2f})";'
        )
        lines.extend("    " + node_line(n) for n in members)
        lines.append("  }")
    for node in range(graph.num_nodes):
        if node not in owner:
            lines.append("  " + node_line(node))
    for u, v in graph.edges.tolist():
        lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
