"""subsketch benchmark: seeded synthetic workloads driven through the public API.

Usage, from the repository root::

    python3 bench/run.py --workload mutag_train --seed 1 --seconds 20 --trace 0

Each run generates its dataset from ``--seed`` in a child process (see
``synth.py``), then drives ``dataset.parse_tu_dataset``,
``trainer.precompute_tensors``, ``trainer.train_fold``,
``trainer.evaluate_accuracy``, ``persist.save_model``/``load_model`` and
``explain.explain_graph`` from outside, one call at a time (a closed loop
with one client).  BLAS is pinned to one thread before numpy is imported.

``--trace 0`` sets up several times (``setup_s`` is their median), then
for ``--seconds`` runs rounds of one training epoch, evaluation passes and
explain calls, and reports 90th-percentile timings.  Warm-up (one epoch,
one evaluation pass, one explain call) runs before the rounds and is
excluded from every timing.

``--trace 1`` installs the wrappers in ``tracing.py`` and runs a fixed amount
of work instead, so that its counts repeat exactly for a seed; it prints
the per-layer metrics plus the tracing overhead, and writes its spans to
``.bench_run/``.  See ``README.md`` for every metric's definition.

The last line of standard output is the result object; the line before it
records the environment (library versions, BLAS threads, cores, ``src/``
line count) and per-operation failure counts.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402  (everything below follows the BLAS pinning)
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")

FOLDS = 10
CV_EPOCHS = 300
EXPLAIN_SET = 32  # graphs whose explanations are checked against a batched pass
MIN_EXPLAIN_SAMPLES = 100  # so that p90 has ten samples beyond it
DIST_TOLERANCE = 1e-9
# --seed picks the data; the training settings, their seed included, are
# part of the workload and stay fixed, so that seeds differ only in data.
TRAIN_SEED = 0
MIN_ROUNDS = 10
SETUP_SAMPLE_S = 1.0


@dataclass(frozen=True)
class Workload:
    scale: str  # key of synth.SCALES
    n: int
    s: int
    setup_repeats: int  # setup samples; setup_s is their median
    train_share: float  # of --seconds; evaluation and explain share the rest
    eval_share: float
    saved_model: bool  # evaluate a saved untrained model instead of the trained one
    trace_epochs: int  # traced (and as many untraced) epochs in a traced run


WORKLOADS = {
    "mutag_train": Workload(
        scale="MUTAG", n=12, s=5, setup_repeats=5,
        train_share=0.7, eval_share=0.1, saved_model=False, trace_epochs=10,
    ),
    "dd_train": Workload(
        scale="DD", n=30, s=8, setup_repeats=3,
        train_share=0.8, eval_share=0.1, saved_model=False, trace_epochs=2,
    ),
    "proteins_eval": Workload(
        scale="PROTEINS", n=20, s=6, setup_repeats=3,
        train_share=0.5, eval_share=0.25, saved_model=True, trace_epochs=3,
    ),
}


# --------------------------------------------------------------- environment


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "subsketch", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


# --------------------------------------------------------------- helpers


def trajectory_digest(trajectory: list[dict]) -> str:
    rows = [
        [r["fold"], r["epoch"], float(r["loss"]).hex(), float(r["train_acc"]).hex(),
         float(r["k"]).hex(), r["reward"], bool(r["terminated"])]
        for r in trajectory
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tally:
    """Attempts and failures per operation kind."""

    def __init__(self):
        self.ops: dict[str, list[int]] = {}

    def add(self, op: str, attempted: int, failed: int) -> None:
        row = self.ops.setdefault(op, [0, 0])
        row[0] += attempted
        row[1] += failed

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.ops.values())


# --------------------------------------------------------------- the session


class Session:
    """One workload's data, model and measurements inside one process."""

    def __init__(self, name: str, seed: int, work_dir: str):
        from subsketch.trainer import TrainConfig

        self.workload = WORKLOADS[name]
        self.seed = seed
        self.data_dir = os.path.join(work_dir, "data")
        self.saved_dir = os.path.join(work_dir, "saved")
        self.model_dir = os.path.join(work_dir, "model")
        os.makedirs(self.model_dir)
        w = self.workload
        self.config = TrainConfig(
            n=w.n, s=w.s, epochs=1, seed=TRAIN_SEED, batch_size=32
        )
        self.tally = Tally()
        self.graphs = self.tensors = None
        self.digest = None
        self.eval_accuracy = None
        self.last_loss = None

    def prepare(self) -> None:
        """Write the dataset (and saved model) in a child process; untimed."""
        cmd = [
            sys.executable, os.path.join(BENCH_DIR, "synth.py"), "--src", SRC,
            "--scale", self.workload.scale, "--seed", str(self.seed), "--data-dir", self.data_dir,
        ]
        if self.workload.saved_model:
            cmd += ["--model-dir", self.saved_dir, "--config", json.dumps(asdict(self.config))]
        subprocess.run(cmd, check=True)

    def attempt(self, op: str, count: int, fn):
        """Run one operation; an exception counts ``count`` failed attempts."""
        try:
            return fn()
        except Exception:  # a failing operation is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.tally.add(op, count, count)
            return None

    # ---------------------------------------------------------- phases

    def setup(self) -> float:
        """Parse the TU files and precompute every graph's tensors."""
        from subsketch.dataset import make_folds, parse_tu_dataset
        from subsketch.persist import load_model
        from subsketch.trainer import precompute_tensors

        self.graphs = self.tensors = None  # never hold two copies at once
        start = time.perf_counter()
        graphs = parse_tu_dataset(self.data_dir, self.workload.scale)
        tensors = {g.index: precompute_tensors(g, self.config.n, self.config.s) for g in graphs}
        if self.workload.saved_model:
            self.saved = load_model(self.saved_dir)
        elapsed = time.perf_counter() - start
        self.graphs, self.tensors = graphs, tensors
        self.plan = make_folds(graphs, self.seed, FOLDS)
        self.train_ids, self.test_ids = self.plan.split(0)
        return elapsed

    def train_epoch(self) -> float | None:
        """One ``train_fold`` call of one epoch on fold 0, from a fresh model;
        seconds, or None if it failed.

        Every call does identical work: the first agent step draws from the
        fixed training seed alone, so even the pooling ratio it leaves for
        evaluation does not depend on the data.
        """
        from subsketch.trainer import train_fold

        start = time.perf_counter()
        result = self.attempt(
            "epoch", 1, lambda: train_fold(self.graphs, self.plan, 0, self.config, self.tensors)
        )
        elapsed = time.perf_counter() - start
        if result is None:
            return None
        digest = trajectory_digest(result.trajectory)
        self.digest = self.digest or digest
        self.last_loss = result.trajectory[-1]["loss"]
        # Same seed, same settings: the trajectory must repeat exactly.
        ok = math.isfinite(self.last_loss) and digest == self.digest
        self.tally.add("epoch", 1, 0 if ok else 1)
        self.trained = (result.model, result.final_k)
        self.attempt("save_load", 1, lambda: self.save_load(*self.trained))
        return elapsed if ok else None

    def save_load(self, model, k) -> None:
        from subsketch.persist import load_model, save_model

        save_model(self.model_dir, model, self.config, k, fold=0)
        loaded, config, loaded_k = load_model(self.model_dir)
        same = config == self.config and loaded_k == k and all(
            np.array_equal(a, b)
            for a, b in zip(model.registry().values(), loaded.registry().values())
        )
        self.tally.add("save_load", 1, 0 if same else 1)

    def use_eval_model(self) -> None:
        """Pick what evaluation and explain score: the saved model on every
        graph, or the trained model on the held-out fold."""
        if self.workload.saved_model:
            self.eval_model, self.eval_config, self.eval_k = self.saved
            self.eval_ids = [g.index for g in self.graphs]
        else:
            self.eval_model, self.eval_k = self.trained
            self.eval_config = self.config
            self.eval_ids = self.test_ids
        self.eval_accuracy = None

    def eval_pass(self) -> float | None:
        from subsketch.trainer import evaluate_accuracy

        start = time.perf_counter()
        acc = self.attempt(
            "eval_pass", 1,
            lambda: evaluate_accuracy(self.eval_model, self.tensors, self.eval_ids, self.eval_k, self.eval_config),
        )
        elapsed = time.perf_counter() - start
        if acc is None:
            return None
        self.eval_accuracy = acc if self.eval_accuracy is None else self.eval_accuracy
        ok = 0.0 <= acc <= 1.0 and acc == self.eval_accuracy
        self.tally.add("eval_pass", 1, 0 if ok else 1)
        return elapsed if ok else None

    def build_reference(self) -> None:
        """Batched class distributions for the explain set, in one batch."""
        from subsketch.diffcore import Tape
        from subsketch.trainer import batch_forward, bind_model, evaluate_accuracy

        ids = self.eval_ids[:EXPLAIN_SET]
        labels = [self.graphs[i].label for i in ids]
        tape = Tape(training=False)
        result = batch_forward(
            bind_model(self.eval_model, tape), [self.tensors[i] for i in ids], labels,
            self.eval_k, self.eval_config, tape, compute_loss=False,
        )
        self.reference = dict(zip(ids, result.graph_dists.value.copy()))
        acc = evaluate_accuracy(self.eval_model, self.tensors, ids, self.eval_k, self.eval_config)
        ok = bool(np.all(np.isfinite(result.graph_dists.value))) and acc == result.correct / len(ids)
        self.tally.add("batched_reference", 1, 0 if ok else 1)
        self.explain_ids = ids
        self.explain_calls = 0

    def explain_call(self) -> float | None:
        from subsketch.explain import explain_graph

        gid = self.explain_ids[self.explain_calls % len(self.explain_ids)]
        self.explain_calls += 1
        start = time.perf_counter()
        detail = self.attempt(
            "explain_call", 1,
            lambda: explain_graph(self.eval_model, self.eval_config, self.graphs[gid], self.eval_k),
        )
        elapsed = time.perf_counter() - start
        if detail is None:
            return None
        expected = self.reference[gid]
        dist = np.asarray(detail["graph_distribution"])
        ok = (
            detail["predicted_label"] == int(np.argmax(expected))
            and dist.shape == expected.shape
            and float(np.max(np.abs(dist - expected))) <= DIST_TOLERANCE
        )
        self.tally.add("explain_call", 1, 0 if ok else 1)
        return elapsed if ok else None


def setup_sample(session: Session) -> float:
    """Mean time of back-to-back setups lasting at least SETUP_SAMPLE_S, so
    that a sample of a small dataset spans many switches of machine speed."""
    times = [session.setup()]
    while sum(times) < SETUP_SAMPLE_S:
        times.append(session.setup())
    return statistics.mean(times)


def repeat(op, seconds: float, at_least: int) -> list[float]:
    """Call ``op`` for ``seconds`` and at least ``at_least`` times; return
    the timings of the calls that succeeded."""
    until = time.perf_counter() + seconds
    times = []
    calls = 0
    while calls < at_least or time.perf_counter() < until:
        elapsed = op()
        calls += 1
        if elapsed is not None:
            times.append(elapsed)
    return times


# --------------------------------------------------------------- the two runs


def _values(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_untraced(session: Session, seconds: float) -> tuple[dict, dict]:
    w = session.workload
    setup_times = [setup_sample(session) for _ in range(w.setup_repeats)]
    session.train_epoch()  # warm-ups: checked, never timed
    session.use_eval_model()
    session.eval_pass()
    session.build_reference()
    session.explain_call()

    # Rounds interleave the three operations, each given time in proportion
    # to its share, so that every metric samples the whole run.
    epoch_times, eval_times, explain_times = [], [], []
    explain_share = 1.0 - w.train_share - w.eval_share
    rounds = 0
    until = time.perf_counter() + seconds
    while rounds < MIN_ROUNDS or time.perf_counter() < until:
        start = time.perf_counter()
        epoch = session.train_epoch()
        spent = time.perf_counter() - start
        rounds += 1
        if epoch is not None:
            epoch_times.append(epoch)
        eval_times += repeat(session.eval_pass, spent * w.eval_share / w.train_share, 1)
        explain_times += repeat(session.explain_call, spent * explain_share / w.train_share, 1)
    explain_times += repeat(session.explain_call, 0.0, MIN_EXPLAIN_SAMPLES - len(explain_times))

    # On a shared virtual machine the CPU can switch, every fraction of a
    # second, between a fast state and one about 1.7x slower, with a share
    # of slow time that differs from run to run.  A median flips between the
    # two states, while the 90th percentile sits in the slow state in every
    # run, so the gated timings are 90th percentiles.
    setup_s = statistics.median(setup_times)
    epoch_s = percentile(epoch_times, 0.9)
    eval_rate = len(session.eval_ids) / percentile(eval_times, 0.9)
    cv_s = setup_s + FOLDS * (CV_EPOCHS * epoch_s + len(session.test_ids) / eval_rate)
    metrics = {
        "setup_s": (setup_s, "s"),
        "train_graphs_per_s": (len(session.train_ids) / epoch_s, "graphs/s"),
        "cv_projected_s": (cv_s, "s"),
        "eval_graphs_per_s": (eval_rate, "graphs/s"),
        "explain_ms_p90": (1e3 * percentile(explain_times, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "train_loss_end": (float(session.last_loss), "loss"),
    }
    ungated = {"explain_ms_p50": (1e3 * statistics.median(explain_times), "ms")}
    samples = {
        "setup": len(setup_times), "rounds": rounds, "epochs": len(epoch_times),
        "eval_passes": len(eval_times), "explain_calls": len(explain_times),
    }
    return metrics, {"samples": samples, "ungated": _values(ungated)}


def run_traced(session: Session, trace_path: str) -> tuple[dict, dict]:
    from tracing import TAPE_OPS, Tracer

    w = session.workload
    tracer = Tracer()
    with tracer.installed():
        session.setup()
    session.train_epoch()  # warm-up
    # Alternate untraced and traced epochs of identical work, so that the
    # overhead figure does not absorb drift in the machine's speed.
    plain, traced = [], []
    for _ in range(w.trace_epochs):
        plain.append(session.train_epoch())
        with tracer.installed():
            traced.append(session.train_epoch())
    plain = [t for t in plain if t is not None]
    traced = [t for t in traced if t is not None]
    train_ops = {kind: list(stats) for kind, stats in tracer.ops.items()}
    with tracer.installed():
        session.use_eval_model()
        for _ in range(3):
            session.eval_pass()
        session.build_reference()
        for _ in range(MIN_EXPLAIN_SAMPLES):
            session.explain_call()
    tracer.write(trace_path)

    spans = tracer.span_stats(skip_under="explain.explain")
    c, seen = tracer.counts, tracer.samples
    steps = spans["trainer.sgd"]["calls"]
    traced_rate = len(session.train_ids) / statistics.median(traced)
    metrics = {
        "dataset.parse_s": (spans["dataset.parse"]["mean"], "s/call"),
        "dataset.nodes": (statistics.mean(seen["dataset.nodes"]), "count"),
        "trainer.precompute_s": (spans["trainer.precompute"]["mean"], "s/call"),
        "trainer.forward_s": (spans["trainer.forward"]["mean"], "s/call"),
        "trainer.forward_self_s": (spans["trainer.forward"]["mean_self"], "s/call"),
        "trainer.sgd_s": (spans["trainer.sgd"]["mean"], "s/call"),
        "trainer.steps": (steps, "count"),
        "trainer.eval_s": (spans["trainer.eval"]["mean"], "s/call"),
        "sampler.sample_s": (spans["sampler.sample"]["mean"], "s/call"),
        "sampler.sample_calls": (spans["sampler.sample"]["calls"], "count"),
        "sampler.sketch_build_s": (spans["sampler.sketch_build"]["mean"], "s/call"),
        "sampler.sketch_build_calls": (spans["sampler.sketch_build"]["calls"], "count"),
        "sampler.sketch_edge_density": (c["sketch_edges"] / c["sketch_pairs"], "ratio"),
        "encoder.propagation_s": (spans["encoder.propagation"]["mean"], "s/call"),
        "encoder.features_s": (spans["encoder.features"]["mean"], "s/call"),
        "pooling.topk_s": (spans["pooling.topk"]["mean"], "s/call"),
        "pooling.kept_ratio": (c["topk_kept"] / c["topk_scored"], "ratio"),
        "pooling.agent_step_s": (spans["pooling.agent_step"]["mean"], "s/call"),
        "pooling.k_final": (seen["k"][-1], "ratio"),
        "sketch_mi.attention_s": (spans["sketch_mi.attention"]["mean"], "s/call"),
        "sketch_mi.attention_rows": (statistics.mean(seen["attention_rows"]), "rows"),
        "sketch_mi.mask_live_ratio": (c["mask_live"] / c["mask_entries"], "ratio"),
        "sketch_mi.mask_s": (spans["sketch_mi.mask"]["mean"], "s/call"),
        "sketch_mi.mi_loss_s": (spans["sketch_mi.mi_loss"]["mean"], "s/call"),
        "diffcore.backward_s": (spans["diffcore.backward"]["mean"], "s/call"),
        "diffcore.tape_nodes_per_step": (statistics.mean(seen["tape_nodes"]), "nodes"),
        "diffcore.tape_peak_mb": (max(seen["tape_bytes"]) / 2**20, "MB"),
        "persist.load_s": (spans["persist.load"]["mean"], "s/call"),
        "persist.save_s": (spans["persist.save"]["mean"], "s/call"),
        "explain.explain_s": (spans["explain.explain"]["mean"], "s/call"),
        "trace.train_graphs_per_s": (traced_rate, "graphs/s"),
        "trace.overhead": (statistics.median(traced) / statistics.median(plain), "ratio"),
    }
    folded = [0, 0.0, 0.0]
    for kind in TAPE_OPS:
        stats = train_ops.get(kind, [0, 0.0, 0.0])
        if kind in OP_KINDS:
            metrics.update(_op_metrics(kind, stats, steps))
        else:
            folded = [a + b for a, b in zip(folded, stats)]
    metrics.update(_op_metrics("other", folded, steps))
    samples = {
        "epochs": w.trace_epochs,
        "explain_calls": MIN_EXPLAIN_SAMPLES, "spans": len(tracer.spans),
    }
    return metrics, {"samples": samples, "op_share": _op_shares(train_ops)}


# Op kinds reported on their own: each takes at least 1% of the training
# tape's time (forward plus backward) on some workload.  The rest, each under
# 1% everywhere, fold into ``diffcore.op.other``; the ``op_share`` info of a
# traced run shows every kind's share.
OP_KINDS = (
    "matmul", "softmax_rows", "block_diag_matmul", "leaky_relu", "add", "tanh",
    "mul", "dropout", "sum", "take_rows", "rowblock_weighted_sum",
)


def _op_metrics(kind: str, stats: list, steps: int) -> dict:
    calls, fwd, bwd = stats
    return {
        f"diffcore.op.{kind}.calls": (calls / steps, "calls/step"),
        f"diffcore.op.{kind}.fwd_s": (fwd / steps, "s/step"),
        f"diffcore.op.{kind}.bwd_s": (bwd / steps, "s/step"),
    }


def _op_shares(ops: dict) -> dict:
    total = sum(fwd + bwd for _, fwd, bwd in ops.values()) or 1.0
    return {
        kind: round((fwd + bwd) / total, 4)
        for kind, (_, fwd, bwd) in sorted(ops.items(), key=lambda kv: -(kv[1][1] + kv[1][2]))
    }


# --------------------------------------------------------------- entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description="subsketch benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "subsketch", "__init__.py")):
        print(f"error: no subsketch package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work_dir = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    session = Session(args.workload, args.seed, work_dir)
    try:
        session.prepare()
        if args.trace:
            trace_path = os.path.join(RUN_DIR, f"spans-{args.workload}-seed{args.seed}.json")
            metrics, details = run_traced(session, trace_path)
        else:
            metrics, details = run_untraced(session, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment()
    session.tally.add("blas_pinning", 1, int(env["blas_threads"] not in (None, 1)))
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "trajectory_digest": session.digest, **details,
        "operations": {op: {"attempted": a, "failed": f} for op, (a, f) in session.tally.ops.items()},
        "environment": env,
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": session.tally.failed == 0,
        "attempted": session.tally.attempted,
        "failed": session.tally.failed,
        "metrics": _values(metrics),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
