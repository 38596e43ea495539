"""Joint training: classification + mutual information + L2, with the
ratio-tuning agent stepped between epochs and 10-fold cross-validation.

The forward pass is fully batched for CPU efficiency: every subgraph of
every graph in the batch lives in one big tape.  The node encoder (both
convolutions, dropout and intra-attention, with block-diagonal propagation
for the per-subgraph convolutions) is one tape node,
:func:`~.encoder.encode_subgraphs`, whose backward skips the subgraphs that
top-k pooling left out.  Node features are one-hot categories, so the first
layer's product X W0 is a row lookup of W0 by each node's category; no dense
feature block is built, and ``Graph.features`` is never read.  A graph's
constants are fixed-shape arrays built once (:func:`precompute_tensors`):
(n, s, s) propagation codes, one byte per entry up to s = 15, and (n*s,)
categories, read straight from the graph's read-only intp ``node_labels``,
beside its :class:`SubgraphSet`.  They are kept read-only on the graph for
one (n, s) at a time, so ``ablate``'s variants and ``explain`` reuse what
setup sampled.  :func:`batch_forward` is the one forward function, and
:class:`ForwardResult` the one record it returns; it expands the batch's
codes into the float64 blocks with one ``np.take`` from the s*s + 1 values
of ``encoder.propagation_values``.
Every graph keeps the same number M of supernodes, so the selection is one
(B, M) array of subgraph indices, supernode rows are grouped by graph, and
sketch attention runs under one (B*M, M) mask, one M x M block per graph,
never forming cross-graph pairs.  Top-k ranking and sketched-graph
construction run per graph on plain numpy values between tape ops; the
forward keeps only the selection and that mask.  The vote cross-entropy is
one log-space tape op on the subgraph logits (``Tape.vote_nll``).

A training step records its forward on a ``Tape`` and runs backward on it
once; backward frees each gradient as soon as it is used.
:func:`score_batch` is the one scoring pass, shared by
:func:`evaluate_accuracy` and ``explain``: the same forward, dropout off, on
a forward-only ``Tape(training=False, record=False)`` that keeps nothing for
backward, so a batch's intermediates are freed as the forward goes.  It lets
a model of huge values overflow without warnings and raises
``ScoresNotFinite`` naming the first graph whose class distribution is not
finite.  The evaluation loop holds each batch's result until the next batch
is scored: dropped first, its pages went back to the system and the next
forward faulted them in again, and whole-set PROTEINS-like evaluation ran
about 30% slower.
:func:`cross_validate` trains each fold with :func:`train_fold`, in the
parent or in pool workers, and then scores each returned model on its
fold's test graphs itself; a fold scored non-finite is a diverged run.

Variants:
    full        adaptive k, negatives from the previous graph in the batch
    fixed_k     agent frozen at k0, same objective as full
    no_mi       classification + L2 only
    mi_corrupt  negatives from batch_forward over copies of the batch's
                GraphTensors whose categories are shuffled per graph
"""

from __future__ import annotations

import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .dataset import FoldPlan, Graph, batches, dataset_stats, make_folds
from .diffcore import Node, Tape
from .encoder import (
    encode_subgraphs, glorot, propagation_matrix, propagation_values, subgraph_features,
)
from .errors import ConfigError, ScoresNotFinite, TrainingDiverged
from .pooling import PoolingAgent, annealed_epsilon, rank_topk
from .sampler import SubgraphSet, build_sketched_graph, sample_subgraphs
from .sketch_mi import attention_mask, corrupt, inter_attention_with_mask, mi_loss

VARIANTS = ("full", "fixed_k", "no_mi", "mi_corrupt")

# Per TrainConfig annotation: the values it admits, and how ``cli`` reads
# one from a config file's text.
FIELD_TYPES = {
    "int": (numbers.Integral, int),
    "float": (numbers.Real, float),
    "str": (str, str),
    "float | None": (
        (numbers.Real, type(None)), lambda text: None if text.lower() == "none" else float(text)
    ),
}


@dataclass
class TrainConfig:
    """Training settings.  Each field's annotation is its type: it is
    checked on construction, and ``cli`` reads config-file values by it."""

    n: int = 12
    s: int = 5
    k0: float = 0.5
    dk: float | None = None  # defaults to 1/n
    b_com: int = 0
    d1: int = 16
    d2: int = 96
    heads: int = 2
    beta: float = 0.8
    l2: float = 0.01
    lr: float = 0.01
    momentum: float = 0.9
    dropout: float = 0.5
    epochs: int = 300
    batch_size: int = 32
    seed: int = 0
    variant: str = "full"
    patience: int = 50
    fold_count: int = 10
    jobs: int = 1

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            # bool is an int subclass, but True is no count or rate
            if isinstance(value, bool) or not isinstance(value, FIELD_TYPES[field.type][0]):
                raise ConfigError(f"{field.name} must be of type {field.type}, got {value!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        for name in ("lr", "beta", "l2"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        for name in ("b_com", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not 0.0 < self.k0 <= 1.0:
            raise ConfigError(f"k0 must lie in (0, 1], got {self.k0}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        for name in (
            "n", "s", "d1", "d2", "heads", "epochs", "batch_size", "patience", "jobs"
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.dk is not None and not 0.0 < self.dk <= 1.0:
            raise ConfigError(f"dk must lie in (0, 1], got {self.dk}")
        if self.fold_count < 2:
            raise ConfigError(f"fold_count must be at least 2, got {self.fold_count}")

    @property
    def resolved_dk(self) -> float:
        return self.dk if self.dk is not None else 1.0 / self.n


class ModelParams(dict):
    """Every trainable array by name, in :func:`param_spec` order; bind, the
    L2 term, the optimizer and save/load all walk this one mapping."""

    def registry(self) -> dict[str, np.ndarray]:
        return self


def param_spec(
    feature_dim: int, num_classes: int, config: TrainConfig
) -> list[tuple[str, tuple[int, int]]]:
    """Name and shape of every trainable array, in init and storage order."""
    d1, d2, heads = config.d1, config.d2, config.heads
    return [
        ("encoder.layer0", (feature_dim, d1)),
        ("encoder.layer1", (d1, d1)),
        ("encoder.w_intra", (d1, d1)),
        ("encoder.a_intra", (d1, 1)),
        ("pool.p", (d1, 1)),
        *((f"sketch.w_inter{m}", (d2, d1)) for m in range(heads)),
        *((f"sketch.a_inter{m}", (2 * d2, 1)) for m in range(heads)),
        ("sketch.w_mi", (d2, d2)),
        ("classifier.w", (d2, num_classes)),
        ("classifier.b", (1, num_classes)),
    ]


def init_model(
    rng: np.random.Generator, feature_dim: int, num_classes: int, config: TrainConfig
) -> ModelParams:
    """Glorot draws in spec order; the classifier bias starts at zero."""
    return ModelParams(
        (name, np.zeros(shape) if name == "classifier.b" else glorot(rng, *shape))
        for name, shape in param_spec(feature_dim, num_classes, config)
    )


def bind_model(model: ModelParams, tape: Tape) -> dict[str, Node]:
    """One parameter node per array, under the array's name."""
    return {name: tape.param(arr) for name, arr in model.items()}


@dataclass(eq=False)
class GraphTensors:
    """Sampling-dependent constants for one graph, reused every epoch."""

    graph: Graph
    subgraph_set: SubgraphSet
    prop_codes: np.ndarray  # (n, s, s) codes of the propagation matrices' entries
    feats: np.ndarray  # (n*s,) intp node category per stacked row; pads hold 0


_TENSORS_SLOT = "_precomputed"  # Graph.__dict__ key: ((n, s), subgraph set, codes, feats)


def precompute_tensors(graph: Graph, n: int, s: int) -> GraphTensors:
    """The graph's constants at ``(n, s)``, sampled once per graph and shape.

    The arrays are kept read-only in one slot of the graph's ``__dict__``,
    as ``cached_property`` keeps ``num_categories``; a repeat call at the
    same shape wraps them in a new :class:`GraphTensors`, and another shape
    replaces the slot.  The slot holds no ``GraphTensors``, whose ``graph``
    would point back at the graph: the arrays go with the graph, no cycle.
    """
    slot = graph.__dict__.get(_TENSORS_SLOT)
    if slot is None or slot[0] != (n, s):
        ss = sample_subgraphs(graph, n, s)
        codes = propagation_matrix(ss.adjacency, ss.mask)
        feats = subgraph_features(ss, graph.node_labels)
        for array in (ss.nodes, ss.mask, ss.adjacency, ss.overlap, codes, feats):
            array.setflags(write=False)
        slot = graph.__dict__[_TENSORS_SLOT] = ((n, s), ss, codes, feats)
    return GraphTensors(graph, *slot[1:])


def total_loss(
    logits: Node,
    labels: list[int],
    m: int,
    mi_value: Node | None,
    param_nodes: list[Node],
    beta: float,
    l2: float,
    tape: Tape,
) -> Node:
    """Vote cross-entropy of (B*m, C) subgraph logits, graph b in rows
    [b*m, (b+1)*m), + beta * MI + l2 * ||params||^2, means over the batch."""
    loss = tape.vote_nll(logits, labels, m)
    if mi_value is not None and beta != 0.0:
        loss = tape.add(loss, tape.scale(mi_value, beta))
    if l2 != 0.0:
        # Recorded last, so backward hands every parameter its L2 gradient
        # before any other.
        loss = tape.add(loss, tape.l2_penalty(param_nodes, l2))
    return loss


def sgd_momentum_step(
    arrays: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    velocity: dict[str, np.ndarray],
) -> None:
    """v <- momentum * v + g; theta <- theta - lr * v (in place)."""
    for name, theta in arrays.items():
        v = velocity.setdefault(name, np.zeros_like(theta))
        v *= momentum
        v += grads[name]
        theta -= lr * v


@dataclass(eq=False)
class ForwardResult:
    """Tape nodes and plain arrays from one forward pass.

    ``intra_weights`` is a plain array: the encoder's gradient flows through
    its embeddings, and only ``explain`` reads the weights.  Supernode rows
    (``gates``, ``z_primes``, ``mask``, ``sub_dists``) are grouped by graph:
    graph b owns rows [b*M, (b+1)*M), in the order of ``selected[b]``.
    ``loss`` and ``mi`` stay None when the pass computes no loss.
    """

    values: Node  # (B*n, 1) projection scores
    intra_weights: np.ndarray  # (B*n, s) intra-attention weights
    selected: np.ndarray  # (B, M) kept subgraph indices per graph, best first
    gates: Node  # (B*M, 1)
    mask: np.ndarray  # (B*M, M) sketch attention: 0 on sketch edges and the diagonal
    z_primes: Node  # (B*M, d2)
    readouts: Node  # (B, d2)
    sub_dists: Node  # (B*M, C)
    graph_dists: Node  # (B, C)
    correct: int
    loss: Node | None = None
    mi: Node | None = None


def batch_forward(
    bound: dict[str, Node],
    tensors: list[GraphTensors],
    labels: list[int],
    k: float,
    config: TrainConfig,
    tape: Tape,
    rng: np.random.Generator | None = None,
    corrupt_rng: np.random.Generator | None = None,
    compute_loss: bool = True,
) -> ForwardResult:
    n, batch = config.n, len(tensors)
    direction = tape.matmul(
        tape.transpose(bound["encoder.w_intra"]), bound["encoder.a_intra"]
    )
    codes = np.concatenate([t.prop_codes for t in tensors])
    embeddings, intra_weights = encode_subgraphs(
        tape, bound["encoder.layer0"], bound["encoder.layer1"], direction,
        np.take(propagation_values(codes.shape[-1]), codes),
        np.concatenate([t.feats for t in tensors]),
        np.concatenate([t.subgraph_set.mask for t in tensors]), config.dropout, rng,
    )

    # Projection scores; the norm stays on the tape so p trains through it.
    p = bound["pool.p"]
    norm = tape.sqrt(tape.sum(tape.mul(p, p)))
    raw = tape.matmul(embeddings, p)
    values = tape.div(raw, norm)

    # Per-graph top-k on the numeric scores; every graph keeps the same M.
    local = [rank_topk(row, k) for row in values.value.reshape(batch, n)]
    selected = np.array(local, dtype=np.intp)
    kept = selected.shape[1]
    rows = (selected + n * np.arange(batch)[:, None]).reshape(-1)

    chosen = tape.take_rows(embeddings, rows)
    gates = tape.sigmoid(tape.take_rows(values, rows))
    gated = tape.mul(chosen, gates)

    # Sketch attention per graph: each graph keeps the same count M, so the
    # stacked (m', M) mask holds one M x M block per graph.
    mask = np.vstack([
        attention_mask(build_sketched_graph(t.subgraph_set, sel, config.b_com))
        for t, sel in zip(tensors, local)
    ])
    heads = [
        (bound[f"sketch.w_inter{i}"], bound[f"sketch.a_inter{i}"])
        for i in range(config.heads)
    ]
    z_primes, _ = inter_attention_with_mask(mask, gated, heads, tape)

    # Each graph's mean over its block of M supernode rows.
    mean_weights = tape.constant(np.full((batch, kept), 1.0 / kept))
    readouts = tape.rowblock_weighted_sum(mean_weights, z_primes)
    logits = tape.add(tape.matmul(z_primes, bound["classifier.w"]), bound["classifier.b"])
    sub_dists = tape.softmax_rows(logits)
    graph_dists = tape.rowblock_weighted_sum(mean_weights, sub_dists)
    correct = int(
        np.sum(np.argmax(graph_dists.value, axis=1) == np.asarray(labels))
    )
    result = ForwardResult(
        values, intra_weights, selected, gates, mask, z_primes, readouts,
        sub_dists, graph_dists, correct,
    )
    if not compute_loss:
        return result

    if config.variant != "no_mi":
        # The bilinear score z W r of a (supernode z, readout r) pair is
        # z . (r W^T): W meets the B readouts once, and each pair is a row
        # dot with its graph's summary row.  The corrupted pass keeps the
        # same count M, so both kinds of negative share the row -> graph map.
        summary = tape.matmul(readouts, tape.transpose(bound["sketch.w_mi"]))
        own = tape.repeat_rows(summary, kept)
        pos = tape.rowdot(z_primes, own)
        if config.variant != "mi_corrupt":
            if batch < 2:
                raise ConfigError(
                    f"{config.variant} negatives need a batch of at least 2 graphs"
                )
            # Graph b's supernodes meet the previous graph's summary, and
            # graph 0's meet the last graph's.
            previous = tape.repeat_rows(summary, kept, shift=1)
            neg = tape.rowdot(z_primes, previous)
        else:  # mi_corrupt: the same forward over feature-shuffled copies
            # One shuffle per graph, shared by all its subgraphs, so that
            # overlapping subgraphs agree on each node's corrupted category.
            shuffled = [
                replace(t, feats=subgraph_features(
                    t.subgraph_set, corrupt(t.graph.node_labels, corrupt_rng)
                ))
                for t in tensors
            ]
            twisted = batch_forward(
                bound, shuffled, labels, k, config, tape, rng, compute_loss=False
            )
            neg = tape.rowdot(twisted.z_primes, own)
        result.mi = mi_loss(pos, neg, tape)

    result.loss = total_loss(
        logits, labels, kept, result.mi, list(bound.values()), config.beta, config.l2, tape
    )
    return result


@dataclass(eq=False)
class FoldResult:
    fold: int
    model: ModelParams
    final_k: float
    trajectory: list[dict]
    test_accuracy: float | None = None


@dataclass
class RunReport:
    fold_accuracies: list[float]
    mean_accuracy: float
    std_accuracy: float
    trajectories: list[list[dict]]
    wall_clock_seconds: float


def _fold_seed(config: TrainConfig, fold: int) -> int:
    return int(np.random.SeedSequence([config.seed, fold]).generate_state(1)[0])


def score_batch(
    model: ModelParams, tensors: list[GraphTensors], k: float, config: TrainConfig
) -> ForwardResult:
    """The model's dropout-free forward over one batch at ratio k, on a
    forward-only tape.  Raises :class:`ScoresNotFinite` naming the first
    graph of the batch whose class distribution is not finite."""
    tape = Tape(training=False, record=False)
    # A finite model of huge values overflows; the check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        result = batch_forward(
            bind_model(model, tape), tensors, [t.graph.label for t in tensors], k,
            config, tape, compute_loss=False,
        )
    finite = np.isfinite(result.graph_dists.value).all(axis=1)
    if not finite.all():
        graph = tensors[int(np.argmin(finite))].graph
        raise ScoresNotFinite(
            f"the model gives graph {graph.index} a class distribution that is not finite"
        )
    return result


def evaluate_accuracy(
    model: ModelParams,
    tensors: dict[int, GraphTensors],
    graph_ids: list[int],
    k: float,
    config: TrainConfig,
) -> float:
    """Dropout-free accuracy of the model at ratio k over the given graphs."""
    correct = 0
    for start in range(0, len(graph_ids), config.batch_size):
        chunk = graph_ids[start : start + config.batch_size]
        # Bound to a name so that a batch's arrays live until the next batch
        # is scored (see the module docstring).
        result = score_batch(model, [tensors[i] for i in chunk], k, config)
        correct += result.correct
    return correct / len(graph_ids)


def train_fold(
    graphs: list[Graph],
    plan: FoldPlan,
    fold: int,
    config: TrainConfig,
    tensors: dict[int, GraphTensors] | None = None,
) -> FoldResult:
    train_ids, _ = plan.split(fold)
    if tensors is None:
        tensors = {
            g.index: precompute_tensors(g, config.n, config.s) for g in graphs
        }
    stats = dataset_stats(graphs)
    seed = _fold_seed(config, fold)
    rng_init = np.random.default_rng([seed, 0])
    rng_dropout = np.random.default_rng([seed, 1])
    rng_agent = np.random.default_rng([seed, 2])
    rng_corrupt = np.random.default_rng([seed, 3])

    model = init_model(rng_init, stats.feature_dim, stats.num_classes, config)
    velocity: dict[str, np.ndarray] = {}
    agent = PoolingAgent(k=config.k0, dk=config.resolved_dk)
    if config.variant == "fixed_k":
        agent.frozen = True

    trajectory: list[dict] = []
    best_loss = np.inf
    best_epoch = -1
    for epoch in range(config.epochs):
        if not agent.frozen:
            agent.epsilon = annealed_epsilon(epoch)
        if np.linalg.norm(model["pool.p"]) < 1e-8:
            model["pool.p"][:] = glorot(rng_init, config.d1, 1)
        k_used = agent.k
        epoch_loss = 0.0
        epoch_correct = 0
        epoch_graphs = 0
        for step, batch_ids in enumerate(
            batches(train_ids, config.batch_size, seed, epoch)
        ):
            batch_tensors = [tensors[i] for i in batch_ids]
            labels = [tensors[i].graph.label for i in batch_ids]
            tape = Tape(training=True)
            bound = bind_model(model, tape)
            # Overflow and NaN are reported below, naming the batch.
            with np.errstate(over="ignore", invalid="ignore"):
                result = batch_forward(
                    bound, batch_tensors, labels, k_used, config, tape,
                    rng=rng_dropout, corrupt_rng=rng_corrupt,
                )
                grads = tape.backward(result.loss)
                epoch_loss += result.loss.value[0, 0] * len(batch_ids)
            grads = {name: grads[node] for name, node in bound.items()}
            # A non-finite loss makes the running sum non-finite too.
            if not np.isfinite(epoch_loss) or not all(
                np.isfinite(g).all() for g in grads.values()
            ):
                raise TrainingDiverged(
                    f"training diverged in fold {fold}, epoch {epoch}, batch "
                    f"{step}: the loss, its epoch sum or a gradient is not finite"
                )
            sgd_momentum_step(model, grads, config.lr, config.momentum, velocity)
            epoch_correct += result.correct
            epoch_graphs += len(batch_ids)

        train_acc = epoch_correct / epoch_graphs
        mean_loss = epoch_loss / epoch_graphs
        agent.step_epoch(train_acc, rng_agent)
        trajectory.append(
            {
                "fold": fold,
                "epoch": epoch,
                "loss": mean_loss,
                "train_acc": train_acc,
                "k": k_used,
                "reward": agent.last_reward,
                "terminated": agent.frozen,
            }
        )
        if mean_loss < best_loss - 1e-9:
            best_loss = mean_loss
            best_epoch = epoch
        # Early stop only once k is frozen, so ratio exploration cannot be
        # cut short by a stale loss plateau.
        if agent.frozen and epoch - best_epoch >= config.patience:
            break

    return FoldResult(fold=fold, model=model, final_k=agent.k, trajectory=trajectory)


_worker_run_fold = None  # a pool worker's fold function, set as the worker starts


def _start_worker(run_fold) -> None:
    global _worker_run_fold
    _worker_run_fold = run_fold


def _run_worker_fold(fold: int) -> FoldResult:
    return _worker_run_fold(fold)


def cross_validate(
    graphs: list[Graph], config: TrainConfig
) -> tuple[RunReport, list[FoldResult]]:
    start = time.perf_counter()
    plan = make_folds(graphs, config.seed, config.fold_count)
    tensors = {g.index: precompute_tensors(g, config.n, config.s) for g in graphs}
    run_fold = partial(train_fold, graphs, plan, config=config, tensors=tensors)
    if config.jobs > 1:
        # Workers only train.  Each gets the graphs and tensors once, as it
        # starts, and the folds one at a time, since early stopping makes
        # their lengths differ.  The pool forks all its workers at once, so
        # it gets no more than folds.
        with ProcessPoolExecutor(
            min(config.jobs, config.fold_count), initializer=_start_worker,
            initargs=(run_fold,),
        ) as pool:
            results = list(pool.map(_run_worker_fold, range(config.fold_count)))
    else:
        results = [run_fold(f) for f in range(config.fold_count)]
    for r in results:
        try:
            r.test_accuracy = evaluate_accuracy(
                r.model, tensors, plan.split(r.fold)[1], r.final_k, config
            )
        except ScoresNotFinite as exc:
            raise TrainingDiverged(f"training diverged in fold {r.fold}: {exc}") from None

    accuracies = [r.test_accuracy for r in results]
    report = RunReport(
        fold_accuracies=accuracies,
        mean_accuracy=float(np.mean(accuracies)),
        std_accuracy=float(np.std(accuracies)),
        trajectories=[r.trajectory for r in results],
        wall_clock_seconds=time.perf_counter() - start,
    )
    return report, results
