"""The benchmark's traced run still works against the current ``src/``.

``bench/run.py --trace 1`` looks up the timing spans of named functions in
each layer, so a refactor that stops calling one of them during setup or
training breaks it with a ``KeyError`` that no unit test would notice.  Its
hooks also read per-graph arguments, so the kept ratio must stay a ratio.
"""

import json
import os
import subprocess
import sys

from test_trainer import STEP_TAPE_NODES

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [
            sys.executable, os.path.join(ROOT, "bench", "run.py"),
            "--workload", "mutag_train", "--seed", "1", "--seconds", "1", "--trace", "1",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [entry["name"] for entry in json.load(fh)["per_layer"]]
    assert sorted(result["metrics"]) == sorted(declared)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    # The workload trains the full variant at the default head count.
    assert metrics["diffcore.tape_nodes_per_step"] == STEP_TAPE_NODES["full"]
    # The tracer counts kept and scored subgraphs from each per-graph top-k
    # call; a batched (B, n) call would read as every subgraph kept.
    assert 0.0 < metrics["pooling.kept_ratio"] < 1.0


def test_saved_model_workload_runs_untraced():
    """``proteins_eval`` is the one workload that loads a saved model and
    scores and explains graphs with it."""
    proc = subprocess.run(
        [
            sys.executable, os.path.join(ROOT, "bench", "run.py"),
            "--workload", "proteins_eval", "--seed", "1", "--seconds", "1",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
