"""``tools/bench_pairs.py``: its verdict per metric, the page faults it
records per run, its per-layer figures from several traced runs, and its
refusal of a run that is not correct or of two checkouts of different
benchmarks."""

import importlib.util
import json
import os
import resource
import subprocess
from types import SimpleNamespace

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py")
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_nine_wins_beyond_the_quartile_spread_is_a_gain():
    change = [p - 12.0 for p in PARENT]
    change[4] = PARENT[4] + 1.0  # one lost pair
    assert verdict(PARENT, change, "lower", 0.05) == "gain"
    assert verdict(PARENT, change, "higher", 0.05) == "worse"
    assert verdict(PARENT, change, "higher", 0.25) == "within bound"


def test_eight_wins_are_no_gain():
    change = [p - 12.0 for p in PARENT]
    change[3] = change[4] = 200.0
    assert bench_pairs.count_wins(PARENT, change, "lower") == 8
    assert verdict(PARENT, change, "lower", 0.25) == "within bound"


def test_a_change_inside_the_quartile_spread_is_no_gain():
    # Every pair won, but by less than the parent's q3 - q1.
    change = [p - 0.05 for p in PARENT]
    assert verdict(PARENT, change, "lower", 0.05) == "within bound"


def test_ties_count_for_neither_side():
    assert bench_pairs.count_wins(PARENT, PARENT, "higher") == 0
    assert verdict(PARENT, list(PARENT), "higher", 0.02) == "within bound"


def test_worse_by_more_than_the_bound():
    assert verdict(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25) == "worse"
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25) == "within bound"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [60.0, 70.0, 80.0, 90.0, 100.0, 100.0, 110.0, 120.0, 130.0, 140.0]
    overlapping = [w * 0.7 + 10.0 for w in wide]
    assert verdict(wide, overlapping, "higher", 0.25) == "unresolved"
    # Unless one side's runs all beat the other's.
    below = [40.0 + i for i in range(10)]
    assert verdict(wide, below, "higher", 0.25) == "worse"


def _fake_checkout(tmp_path, correct, failed):
    bench = tmp_path / "bench"
    bench.mkdir()
    info = {"info": {"environment": {}}}
    result = {"correct": correct, "attempted": 5, "failed": failed, "metrics": {}}
    (bench / "run.py").write_text(
        f"print({json.dumps(json.dumps(info))})\nprint({json.dumps(json.dumps(result))})\n"
    )
    return str(tmp_path)


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 2), (False, 1)])
def test_a_run_that_is_not_correct_stops_the_script(tmp_path, correct, failed):
    checkout = _fake_checkout(tmp_path, correct, failed)
    with pytest.raises(SystemExit) as stop:
        bench_pairs.run_once(checkout, "mutag_train", 1, 0.1)
    assert stop.value.code != 0
    assert f"correct={correct} with {failed} failed operations" in str(stop.value.code)


def test_a_correct_run_is_returned(tmp_path):
    run = bench_pairs.run_once(_fake_checkout(tmp_path, True, 0), "mutag_train", 3, 0.1)
    assert run["seed"] == 3 and run["correct"] is True and run["failed"] == 0
    # Starting an interpreter alone faults pages in.
    assert isinstance(run["minflt"], int) and run["minflt"] > 0
    assert bench_pairs.brief(run)["minflt"] == run["minflt"]


def test_a_run_records_its_childrens_minor_faults_around_it(tmp_path, monkeypatch):
    totals = iter([1000, 1250])
    asked = []

    def getrusage(who):
        asked.append(who)
        return SimpleNamespace(ru_minflt=next(totals))

    monkeypatch.setattr(bench_pairs.resource, "getrusage", getrusage)
    run = bench_pairs.run_once(_fake_checkout(tmp_path, True, 0), "mutag_train", 3, 0.1)
    assert run["minflt"] == 250
    assert asked == [resource.RUSAGE_CHILDREN] * 2


SPEC = {"command": ["python3", "bench/run.py"], "run_seconds": 0.1,
        "workloads": [{"name": "w"}], "end_to_end": []}


def _repo(path, run_py="print('run')\n", spec=json.dumps(SPEC)):
    """A committed checkout with src/, bench/ and BENCHMARK.json."""
    (path / "src").mkdir(parents=True)
    (path / "src" / "mod.py").write_text("x = 1\n")
    (path / "bench").mkdir()
    (path / "bench" / "run.py").write_text(run_py)
    (path / "BENCHMARK.json").write_text(spec)
    git = ["git", "-C", str(path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "init"], check=True)
    return str(path)


def test_two_checkouts_of_one_benchmark_are_described(tmp_path):
    sides = {"parent": _repo(tmp_path / "p"), "change": _repo(tmp_path / "c")}
    described = bench_pairs.describe_sides(sides)
    for side in sides:
        assert set(described[side]) == {"commit", "src_tree", "bench_tree", "spec_blob"}
    assert described["parent"]["bench_tree"] == described["change"]["bench_tree"]


@pytest.mark.parametrize("differs", [
    {"run_py": "print('other')\n"}, {"spec": json.dumps({**SPEC, "run_seconds": 1})},
])
def test_two_different_benchmarks_stop_the_script_before_any_run(tmp_path, differs):
    # The change's run.py would leave a marker file if it ever ran.
    marker = tmp_path / "ran"
    run_py = f"open({str(marker)!r}, 'w').close()\n"
    parent = _repo(tmp_path / "p", **{"run_py": run_py, **differs})
    change = _repo(tmp_path / "c", run_py=run_py)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["--parent", parent, "--change", change, "--out", str(out),
                          "--first-seed", "1"])
    assert "two different benchmarks" in str(stop.value.code)
    assert not marker.exists() and not out.exists()


@pytest.mark.parametrize("path", ["bench/run.py", "BENCHMARK.json", "src/mod.py"])
def test_uncommitted_benchmark_or_source_changes_are_refused(tmp_path, path):
    checkout = _repo(tmp_path / "c")
    with open(os.path.join(checkout, path), "a") as fh:
        fh.write("\n")
    with pytest.raises(SystemExit) as stop:
        bench_pairs.describe(checkout)
    assert "uncommitted changes" in str(stop.value.code)


def test_per_layer_figures_come_from_three_traced_pairs(tmp_path, monkeypatch):
    spec = {**SPEC, "end_to_end": [{"name": "e2e_s", "unit": "s", "better": "lower", "bound": 0.25}],
            "per_layer": [{"name": "layer_s", "unit": "s/call", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    change = str(tmp_path)
    traced = []

    def run_once(checkout, workload, seed, seconds, trace=0):
        if trace:
            traced.append((checkout, seed))
        scale = 2.0 if checkout == change else 1.0
        name = "layer_s" if trace else "e2e_s"
        return {"seed": seed, "info": {"environment": {}}, "minflt": 0, "correct": True,
                "attempted": 1, "failed": 0, "metrics": {name: {"value": scale * seed}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "describe_sides", lambda sides: {})
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "P", "--change", change, "--out", str(out),
                             "--first-seed", "1"]) == 0
    # The workload's first three seeds, the side that runs first alternating.
    assert traced == [("P", 1), (change, 1), (change, 2), ("P", 2), ("P", 3), (change, 3)]
    result = json.loads(out.read_text())["workloads"]["w"]
    assert [r["seed"] for r in result["parent"]["traced"]] == [1, 2, 3]
    assert result["per_layer"] == {"layer_s": {
        "parent": {"median": 2.0, "q1": 1.5, "q3": 2.5},
        "change": {"median": 4.0, "q1": 3.0, "q3": 5.0},
        "unit": "s/call",
    }}
    # The per-layer figures are ungated: verdicts cover the end-to-end metrics only.
    assert set(result["verdicts"]) == {"e2e_s"}
