"""The benchmark's traced run still works against the current ``src/``.

``bench/run.py --trace 1`` looks up the timing spans of named functions in
each layer, so a refactor that stops calling one of them during setup or
training breaks it with a ``KeyError`` that no unit test would notice.
"""

import json
import os
import subprocess
import sys

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
