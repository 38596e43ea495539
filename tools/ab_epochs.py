"""Time two trees' training, evaluation and explain side by side in one process.

Usage, from the repository root::

    python3 tools/ab_epochs.py --parent ../parent --change . --workload dd_train \\
        --seed 1 --rounds 10 --out ab.json

``--parent`` and ``--change`` are directories that hold ``src/subsketch``;
each package is copied into a temporary directory under its own name,
``subsketch_parent`` and ``subsketch_change``, and both are imported into
this one process.  The workload's data is set up as the benchmark sets it
up: this repository's ``bench/run.py`` is imported, read-only, and its
``Session.prepare`` writes the data (and the saved model of a saved-model
workload) in a child process, then ``setup_sample`` parses it and
precomputes every graph's tensors as many times as the benchmark does,
with the ``subsketch`` package of ``--change``.  So the data, and the
allocator state that setup leaves, are the benchmark's.  BLAS is held at
one thread.

After one untimed warm-up round, each round runs, per side, with the side
that goes first alternating from round to round:

- ``train``: one one-epoch ``train_fold`` on fold 0, from a fresh model;
- ``evaluate``: one ``evaluate_accuracy`` pass with the model the
  benchmark scores (the saved model over every graph, or the side's
  trained model over fold 0's test graphs);
- ``explain``: ``explain_graph`` on each of the first 32 of those graphs.

Per phase the JSON output holds the paired median ratio of the change's
seconds to the parent's, the rounds the change won (took less time), each
side's seconds per round and its minor page faults per round
(``getrusage(RUSAGE_SELF).ru_minflt`` read around the phase).  The script
exits with status 1, and writes no file, if the two sides' trained weights
(sha256 of every array's bytes) or final losses differ in any round.
Only the standard library and numpy are used.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402  (everything below follows the BLAS pinning)
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
PHASES = ("train", "evaluate", "explain")


def import_sides(trees: dict[str, str], scratch: str) -> dict:
    """Each tree's ``src/subsketch`` copied under ``subsketch_<side>`` and
    imported; its modules by name."""
    sys.path.insert(0, scratch)
    packages = {}
    for side, tree in trees.items():
        source = os.path.join(tree, "src", "subsketch")
        if not os.path.isfile(os.path.join(source, "__init__.py")):
            sys.exit(f"error: no subsketch package under {os.path.join(tree, 'src')}")
        shutil.copytree(source, os.path.join(scratch, f"subsketch_{side}"))
        packages[side] = {
            name: importlib.import_module(f"subsketch_{side}.{name}")
            for name in ("trainer", "explain")
        }
    return packages


def weights_digest(model) -> str:
    digest = hashlib.sha256()
    for array in model.values():
        digest.update(array.tobytes())
    return digest.hexdigest()


def faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Side:
    """One tree's phases on the shared session's data."""

    def __init__(self, modules: dict, session, explain_set: int):
        self.trainer, self.explain = modules["trainer"], modules["explain"]
        self.session = session
        self.explain_set = explain_set

    def train(self):
        s = self.session
        result = self.trainer.train_fold(s.graphs, s.plan, 0, s.config, s.tensors)
        if s.workload.saved_model:
            self.eval_model, self.eval_config, self.eval_k = s.saved
            self.eval_ids = [g.index for g in s.graphs]
        else:
            self.eval_model, self.eval_config, self.eval_k = result.model, s.config, result.final_k
            self.eval_ids = s.test_ids
        return weights_digest(result.model), result.trajectory[-1]["loss"]

    def evaluate(self):
        return self.trainer.evaluate_accuracy(
            self.eval_model, self.session.tensors, self.eval_ids, self.eval_k, self.eval_config
        )

    def explain_all(self):
        graphs = self.session.graphs
        for gid in self.eval_ids[: self.explain_set]:
            self.explain.explain_graph(self.eval_model, self.eval_config, graphs[gid], self.eval_k)


def timed(fn):
    """``fn()``'s result, seconds and minor page faults."""
    before, start = faults(), time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start, faults() - before


def summarize(record: dict) -> dict:
    parent, change = record["seconds"]["parent"], record["seconds"]["change"]
    return {
        "ratio": statistics.median(c / p for p, c in zip(parent, change)),
        "wins": sum(c < p for p, c in zip(parent, change)),
        "rounds": len(parent),
        **record,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="tree that holds src/subsketch")
    parser.add_argument("--change", required=True, help="tree that holds src/subsketch")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="the benchmark's data seed")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out", required=True, help="output JSON file")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    with tempfile.TemporaryDirectory() as scratch:
        packages = import_sides(trees, os.path.join(scratch, "packages"))
        sys.path.insert(0, os.path.join(trees["change"], "src"))
        sys.path.insert(0, os.path.join(ROOT, "bench"))
        import run as bench

        if args.workload not in bench.WORKLOADS:
            sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(bench.WORKLOADS)}")
        session = bench.Session(args.workload, args.seed, os.path.join(scratch, "work"))
        session.prepare()
        for _ in range(session.workload.setup_repeats):
            bench.setup_sample(session)
        sides = {side: Side(packages[side], session, bench.EXPLAIN_SET) for side in SIDES}

        records = {
            phase: {"seconds": {s: [] for s in SIDES}, "minflt": {s: [] for s in SIDES}}
            for phase in PHASES
        }
        outcome = None
        for round_ in range(args.rounds + 1):  # round 0 is the warm-up
            order = SIDES if round_ % 2 else SIDES[::-1]
            for side in order:
                runner = sides[side]
                trained, *train_times = timed(runner.train)
                outcome = outcome or trained
                if trained != outcome:
                    print(f"error: round {round_}: the {side} side's trained weights or final "
                          f"loss differ ({trained} against {outcome}); no file written",
                          file=sys.stderr)
                    return 1
                _, *eval_times = timed(runner.evaluate)
                _, *explain_times = timed(runner.explain_all)
                if round_ == 0:
                    continue
                for phase, (seconds, minflt) in zip(
                    PHASES, (train_times, eval_times, explain_times)
                ):
                    records[phase]["seconds"][side].append(seconds)
                    records[phase]["minflt"][side].append(minflt)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trees": trees,
        "weights_sha256": outcome[0],
        "final_loss": outcome[1],
        "phases": {phase: summarize(records[phase]) for phase in PHASES},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for phase, entry in report["phases"].items():
        print(
            f"{args.workload:<14} {phase:<9} ratio {entry['ratio']:.4f}  "
            f"wins {entry['wins']}/{entry['rounds']}  minflt median parent "
            f"{statistics.median(entry['minflt']['parent'])} change "
            f"{statistics.median(entry['minflt']['change'])}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
