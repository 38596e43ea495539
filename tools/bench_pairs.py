"""Run the benchmark in alternating parent/change pairs and write BENCH_<label>.json.

Usage, from the repository root::

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_x.json --first-seed 1601

``--parent`` and ``--change`` are git checkouts of the two commits to
compare; each must have no uncommitted change under ``src/`` or ``bench/``
or in ``BENCHMARK.json``, and the two must hold the same ``bench/`` and
``BENCHMARK.json``, or the runs would measure two different benchmarks.
For each workload in ``BENCHMARK.json`` the script runs ten pairs of::

    python3 bench/run.py --workload W --seed S --seconds RUN_SECONDS

one side after the other, in the parent's checkout and the change's, with
the same seed within a pair and a new seed for every pair.  The side that
runs first alternates from pair to pair, and BLAS is held at one thread.
Runs go one at a time, so no two compete for the machine.

The output records, per side and workload, every run's result line, the
median and quartiles of each end-to-end metric, the ``environment`` block
the runner prints, and the per-layer metrics of ``--trace 1`` runs on the
workload's first three seeds, alternating sides as the pairs do.  One
traced run moves with the machine, so ``per_layer`` gives each per-layer
metric's median and quartiles per side over those runs: ungated figures,
read beside the end-to-end verdicts.  Each run also records ``minflt``,
its minor page faults: the rise in ``getrusage(RUSAGE_CHILDREN).ru_minflt``
across the run, which counts the script's own children only, over the
whole run with data generation included.  Each side names its ``commit``, its
``src_tree`` (``git rev-parse COMMIT:src``), which identifies the code
measured even when the commit was made in a throwaway clone, and its
``bench_tree`` and ``spec_blob`` (the same for ``bench`` and
``BENCHMARK.json``).  Per metric,
``wins`` counts the pairs in which the change read better, and ``verdicts``
gives the reading rule of the README (see :func:`verdict`).  A run that is
not ``correct`` or has a failed operation stops the script with exit status
1, and no file is written.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

PAIRS = 10
GAIN_WINS = 9  # pairs of PAIRS the change must win for a gain
TRACED_PAIRS = 3  # traced pairs per workload, on its first seeds
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _git(checkout: str, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", checkout, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def describe(checkout: str) -> dict:
    if _git(checkout, "status", "--porcelain", "--", "src", "bench", "BENCHMARK.json"):
        sys.exit(f"error: {checkout} has uncommitted changes under src/ or bench/ "
                 "or in BENCHMARK.json; commit them first")
    names = {"commit": "HEAD", "src_tree": "HEAD:src", "bench_tree": "HEAD:bench",
             "spec_blob": "HEAD:BENCHMARK.json"}
    return {key: _git(checkout, "rev-parse", name) for key, name in names.items()}


def describe_sides(sides: dict[str, str]) -> dict:
    """Each side's description; exits if the two hold different benchmarks."""
    described = {side: describe(path) for side, path in sides.items()}
    for key in ("bench_tree", "spec_blob"):
        if described["parent"][key] != described["change"][key]:
            sys.exit(f"error: the parent and the change differ in {key}; "
                     "their runs would measure two different benchmarks")
    return described


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run; returns its info and result lines."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(command, cwd=checkout, env={**os.environ, **BLAS_ENV},
                          capture_output=True, text=True, timeout=1800)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(command)} exited {proc.returncode} in {checkout}:\n{proc.stderr}")
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    if result["correct"] is not True or result["failed"]:
        sys.exit(f"error: {' '.join(command)} in {checkout} was correct={result['correct']} "
                 f"with {result['failed']} failed operations; no file written")
    return {"seed": seed, "info": info["info"], "minflt": faults, **result}


def brief(run: dict) -> dict:
    """A run's outcome and metric values, without units."""
    return {"seed": run["seed"], "correct": run["correct"], "attempted": run["attempted"],
            "failed": run["failed"], "minflt": run["minflt"],
            "metrics": {k: v["value"] for k, v in run["metrics"].items()}}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def count_wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better; a tie counts for neither side."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """How the change reads on one metric, from paired runs of both sides.

    ``gain``: the change wins at least GAIN_WINS pairs (ties count for
    neither) and its median is better by more than the parent's q3 - q1.
    ``unresolved``: otherwise, the parent's quartile spread over its median
    is wider than ``bound``, and neither side's runs all beat the other's.
    ``worse``: otherwise, the change's median is worse by more than
    ``bound`` times the parent's.  ``within bound``: anything else.
    """
    sign = 1 if better == "higher" else -1
    p, c = summarize(parent), summarize(change)
    gained = sign * (c["median"] - p["median"])
    if count_wins(parent, change, better) >= GAIN_WINS and gained > p["q3"] - p["q1"]:
        return "gain"
    scale = abs(p["median"])
    separated = any(
        all(sign * (x - y) > 0 for x in a for y in b) for a, b in ((change, parent), (parent, change))
    )
    if p["q3"] - p["q1"] > bound * scale and not separated:
        return "unresolved"
    return "worse" if -gained > bound * scale else "within bound"


def compare(spec: dict, runs: dict) -> dict:
    """Quartiles per side, and the change's wins and verdict per end-to-end metric."""
    out = {side: {"environment": runs[side][0]["info"]["environment"], "metrics": {}}
           for side in ("parent", "change")}
    wins, verdicts = {}, {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in out}
        for side in out:
            out[side]["metrics"][name] = {**summarize(values[side]), "unit": metric["unit"]}
        wins[name] = count_wins(values["parent"], values["change"], metric["better"])
        verdicts[name] = verdict(values["parent"], values["change"], metric["better"], metric["bound"])
    return {**out, "wins": wins, "verdicts": verdicts}


def per_layer(spec: dict, traced: dict) -> dict:
    """Median and quartiles per side of each per-layer metric over the
    traced runs, which :func:`brief` has made."""
    return {
        metric["name"]: {
            **{side: summarize([r["metrics"][metric["name"]] for r in runs])
               for side, runs in traced.items()},
            "unit": metric["unit"],
        }
        for metric in spec["per_layer"]
    }


def sides_in_order(pair: int) -> tuple[str, str]:
    """The side that runs first alternates from pair to pair."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def print_table(workload: str, spec: dict, result: dict) -> None:
    for metric in spec["end_to_end"]:
        name = metric["name"]
        p, c = result["parent"]["metrics"][name], result["change"]["metrics"][name]
        delta = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
        spread = (p["q3"] - p["q1"]) / p["median"] if p["median"] else 0.0
        print(
            f"{workload:<14} {name:<19} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
            f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  {delta:+.1%}  "
            f"wins {result['wins'][name]}/{PAIRS}  spread {spread:.1%}  bound {metric['bound']:.0%}  "
            f"{result['verdicts'][name]}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git checkout of the parent commit")
    parser.add_argument("--change", required=True, help="git checkout of the change")
    parser.add_argument("--out", required=True, help="output file, e.g. BENCH_label.json")
    parser.add_argument("--first-seed", type=int, required=True,
                        help="seed of the first pair; each later pair takes the next")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    report = {
        "command": spec["command"] + ["--workload", "W", "--seed", "S", "--seconds", str(spec["run_seconds"])],
        "pairs": PAIRS,
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "sides": describe_sides(sides),
        "workloads": {},
    }
    seed = args.first_seed
    for workload in (w["name"] for w in spec["workloads"]):
        first_seed = seed
        runs = {"parent": [], "change": []}
        for pair in range(PAIRS):
            for side in sides_in_order(pair):
                run = run_once(sides[side], workload, seed, spec["run_seconds"])
                runs[side].append(run)
                print(f"{workload} seed {seed} {side}: correct={run['correct']} "
                      f"failed={run['failed']}", file=sys.stderr, flush=True)
            seed += 1
        result = compare(spec, runs)
        traced = {"parent": [], "change": []}
        for pair in range(TRACED_PAIRS):
            for side in sides_in_order(pair):
                run = run_once(sides[side], workload, first_seed + pair, spec["run_seconds"], trace=1)
                traced[side].append(brief(run))
        for side in runs:
            result[side]["runs"] = [brief(r) for r in runs[side]]
            result[side]["traced"] = traced[side]
        result["per_layer"] = per_layer(spec, traced)
        report["workloads"][workload] = result
        print_table(workload, spec, result)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
