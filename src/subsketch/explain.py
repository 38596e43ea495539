"""Per-graph inspection: which subgraphs the model selected and why.

``explain_graph`` runs one graph through :func:`~.trainer.batch_forward`
in evaluation mode, on a forward-only tape that records nothing for
backward, and reads projection scores, gates, attention weights, and
per-subgraph class votes from its :class:`~.trainer.ForwardResult`.  A
class distribution that is not finite raises ``ScoresNotFinite``.  The sketch edges are the live entries above the diagonal of
the forward's sketch-attention mask, row by row.  The result renders two
ways: a DOT file (selected subgraphs as clusters, node fill color by label
category, node size growing with intra-subgraph attention weight over a
small legibility floor, omitted nodes grey) and a JSON file with the raw
numbers.
"""

from __future__ import annotations

import numpy as np

from .dataset import Graph
from .diffcore import Tape
from .persist import write_json
from .trainer import (
    ModelParams,
    TrainConfig,
    batch_forward,
    bind_model,
    check_scores,
    precompute_tensors,
)

PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)


def explain_graph(
    model: ModelParams, config: TrainConfig, graph: Graph, k: float
) -> dict:
    tensors = precompute_tensors(graph, config.n, config.s)
    tape = Tape(training=False, record=False)
    bound = bind_model(model, tape)
    with np.errstate(over="ignore", invalid="ignore"):
        result = batch_forward(
            bound, [tensors], [graph.label], k, config, tape, compute_loss=False
        )
    check_scores(result, [tensors])
    values = result.values.value[:, 0]
    gates = result.gates.value[:, 0]
    sub_dists = result.sub_dists.value
    intra = result.intra_weights
    selected = result.selected[0].tolist()
    ss = tensors.subgraph_set
    members = [row[real].tolist() for row, real in zip(ss.nodes, ss.mask)]

    subgraphs = []
    for i, nodes in enumerate(members):
        subgraphs.append(
            {
                "index": i,
                "central_node": nodes[0],
                "nodes": nodes,
                "val": float(values[i]),
                "selected": i in selected,
            }
        )
    selected_detail = []
    for rank, i in enumerate(selected):
        selected_detail.append(
            {
                "index": i,
                "val": float(values[i]),
                "gate": float(gates[rank]),
                "nodes": members[i],
                "intra_weights": {
                    str(node): float(w)
                    for node, w in zip(members[i], intra[i][ss.mask[i]])
                },
                "class_distribution": [float(x) for x in sub_dists[rank]],
            }
        )
    rows, cols = np.nonzero(np.triu(result.mask == 0.0, 1))
    return {
        "graph_id": graph.index,
        "true_label": graph.label,
        "k": k,
        "selection_count": len(selected),
        "predicted_label": int(np.argmax(result.graph_dists.value[0])),
        "graph_distribution": [float(x) for x in result.graph_dists.value[0]],
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
