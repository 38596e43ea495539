"""``tools/ab_epochs.py`` runs both sides on the benchmark's data and refuses
two trees that train to different weights."""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCRIPT = os.path.join(ROOT, "tools", "ab_epochs.py")


def run_ab(change, out, rounds=2):
    return subprocess.run(
        [
            sys.executable, SCRIPT, "--parent", ROOT, "--change", change,
            "--workload", "mutag_train", "--seed", "1", "--rounds", str(rounds), "--out", out,
        ],
        capture_output=True, text=True, timeout=300,
    )


def test_two_rounds_of_one_tree_against_itself(tmp_path):
    out = tmp_path / "ab.json"
    proc = run_ab(ROOT, str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["workload"] == "mutag_train" and len(report["weights_sha256"]) == 64
    assert set(report["phases"]) == {"train", "evaluate", "explain"}
    for entry in report["phases"].values():
        assert entry["rounds"] == 2 and 0 <= entry["wins"] <= 2 and entry["ratio"] > 0
        for side in ("parent", "change"):
            assert len(entry["seconds"][side]) == 2 and min(entry["seconds"][side]) > 0
            assert len(entry["minflt"][side]) == 2 and min(entry["minflt"][side]) >= 0


def test_trees_that_train_to_different_weights_are_refused(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(ROOT, "src"), tree / "src")
    trainer = tree / "src" / "subsketch" / "trainer.py"
    text = trainer.read_text()
    assert text.count("theta -= lr * v") == 1
    trainer.write_text(text.replace("theta -= lr * v", "theta -= 2.0 * lr * v"))
    out = tmp_path / "ab.json"
    proc = run_ab(str(tree), str(out), rounds=1)
    assert proc.returncode == 1
    assert "trained weights or final loss differ" in proc.stderr
    assert not out.exists()
