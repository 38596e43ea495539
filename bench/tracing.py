"""Spans and counts around the public functions of each subsketch layer.

Nothing here runs unless a :class:`Tracer` is installed, which the
benchmark does only in its traced run.  Installing swaps module attributes
for timing wrappers (in every ``subsketch`` module that imported the
function, since ``from .x import f`` copies the reference) and wraps
``Tape`` methods so that each recorded node carries a backward rule timed
under its op kind.  Uninstalling restores every original attribute.

Spans are kept in memory as ``[name, start, end, parent]`` rows, ``parent``
being the index of the enclosing span or -1, and written out once at the
end.  A span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Tape methods timed per op kind.  ``elementwise`` only dispatches to the
# named methods, so wrapping it too would count every such op twice.
TAPE_OPS = (
    "param", "constant", "matmul", "transpose", "reshape", "take_rows", "sum",
    "block_diag_matmul", "rowblock_weighted_sum", "add", "mul", "div", "neg",
    "scale", "sigmoid", "tanh", "leaky_relu", "log", "exp", "sqrt", "softplus",
    "softmax_rows", "dropout",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        # kind -> [calls, forward seconds, backward seconds]
        self.ops: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- wrappers

    def _span_wrapper(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _op_wrapper(self, kind, fn):
        stats, clock = self.ops[kind], time.perf_counter

        def timed_rule(rule):
            def run(g):
                start = clock()
                grads = rule(g)
                stats[2] += clock() - start
                return grads

            return run

        @functools.wraps(fn)
        def wrapper(tape, *args, **kwargs):
            before = len(tape.nodes)
            start = clock()
            out = fn(tape, *args, **kwargs)
            stats[1] += clock() - start
            stats[0] += 1
            # dropout in eval mode returns its input unchanged: nothing new.
            if len(tape.nodes) > before and out.backward_rule is not None:
                out.backward_rule = timed_rule(out.backward_rule)
            return out

        return wrapper

    # ----------------------------------------------------------- install

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, module, attr, name, after=None):
        original = getattr(module, attr)
        wrapper = self._span_wrapper(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "subsketch" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    @contextmanager
    def installed(self):
        """Wrap every traced entry point for the duration of the block."""
        from subsketch import (
            dataset, diffcore, encoder, explain, persist, pooling, sampler,
            sketch_mi, trainer,
        )

        functions = (
            (dataset, "parse_tu_dataset", "dataset.parse", _after_parse),
            (trainer, "precompute_tensors", "trainer.precompute", None),
            (trainer, "train_fold", "trainer.train_fold", None),
            (trainer, "batch_forward", "trainer.forward", None),
            (trainer, "sgd_momentum_step", "trainer.sgd", None),
            (trainer, "evaluate_accuracy", "trainer.eval", None),
            (sampler, "sample_subgraphs", "sampler.sample", None),
            (sampler, "build_sketched_graph", "sampler.sketch_build", _after_sketch),
            (encoder, "propagation_matrix", "encoder.propagation", None),
            (encoder, "subgraph_features", "encoder.features", None),
            (pooling, "rank_topk", "pooling.topk", _after_topk),
            (sketch_mi, "inter_attention_with_mask", "sketch_mi.attention", _after_attention),
            (sketch_mi, "attention_mask", "sketch_mi.mask", None),
            (sketch_mi, "mi_loss", "sketch_mi.mi_loss", None),
            (persist, "save_model", "persist.save", None),
            (persist, "load_model", "persist.load", None),
            (explain, "explain_graph", "explain.explain", None),
        )
        try:
            for module, attr, name, after in functions:
                self._patch_function(module, attr, name, after)
            self._patch(
                pooling.PoolingAgent, "step_epoch",
                self._span_wrapper("pooling.agent_step", pooling.PoolingAgent.step_epoch, _after_agent),
            )
            self._patch(
                diffcore.Tape, "backward",
                self._span_wrapper("diffcore.backward", diffcore.Tape.backward, _after_backward),
            )
            for kind in TAPE_OPS:
                self._patch(diffcore.Tape, kind, self._op_wrapper(kind, getattr(diffcore.Tape, kind)))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # ----------------------------------------------------------- results

    def span_stats(self, skip_under: str | None = None) -> dict[str, dict]:
        """Per span name: calls, mean duration and mean self time (seconds).

        Spans nested under a span named ``skip_under`` are left out, so
        that single-graph explain calls do not mix into batched figures.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        skipped = [False] * len(self.spans)
        out: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            skipped[i] = parent >= 0 and (skipped[parent] or self.spans[parent][0] == skip_under)
            if skipped[i]:
                continue
            entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child_time[i]
        for entry in out.values():
            entry["mean"] = entry["total"] / entry["calls"]
            entry["mean_self"] = entry["self"] / entry["calls"]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


# Hooks run after the wrapped call returns, outside its span, and record the
# counts each layer's ratios are built from.


def _after_parse(tracer, args, graphs):
    tracer.samples["dataset.nodes"].append(sum(g.num_nodes for g in graphs))


def _after_sketch(tracer, args, sketch):
    m = len(sketch.supernodes)
    tracer.counts["sketch_edges"] += len(sketch.edges)
    tracer.counts["sketch_pairs"] += m * (m - 1) // 2


def _after_topk(tracer, args, kept):
    tracer.counts["topk_kept"] += len(kept)
    tracer.counts["topk_scored"] += len(args[0])


def _after_attention(tracer, args, result):
    mask = args[0]
    tracer.samples["attention_rows"].append(mask.shape[0])
    tracer.counts["mask_live"] += int(np.count_nonzero(mask == 0.0))
    tracer.counts["mask_entries"] += mask.size


def _after_agent(tracer, args, k):
    tracer.samples["k"].append(args[0].k)


def _after_backward(tracer, args, grads):
    tape = args[0]
    tracer.samples["tape_nodes"].append(len(tape.nodes))
    buffers = {}
    for node in tape.nodes:
        for arr in (node.value, node.grad):
            if isinstance(arr, np.ndarray):
                base = arr if arr.base is None else arr.base
                buffers[id(base)] = base.nbytes
    tracer.samples["tape_bytes"].append(sum(buffers.values()))
