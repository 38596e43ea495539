"""Acceptance gate: one test per release criterion, run with ``pytest -v``.

Each criterion asserts at its stated tolerance and shows up as a single
pass/fail line.  Criteria 4, 5, 6, and 8 require the MUTAG / PTC benchmark
datasets; they look under ``$SUBSKETCH_DATA_DIR`` (default: ``data/`` at
the repository root).  When the files are absent those tests FAIL with
instructions rather than skip — a criterion that cannot be demonstrated
in this environment is reported red, not quietly waved through.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from _reference import (
    Encoder,
    SubgraphEntry,
    encode_nodes,
    entries_of,
    inter_attention_details,
    intra_attention_weights,
    neighbors,
    readout,
    subgraph_set_of,
    topk_select,
)
from _synth import planted_motif_dataset, random_graph
from gradcheck import assert_grads_close, finite_diff_grads
from subsketch.dataset import (
    dataset_stats,
    make_folds,
    parse_tu_dataset,
    write_tu_dataset,
)
from subsketch.diffcore import Tape
from subsketch.encoder import glorot
from subsketch.explain import explain_graph, write_graph_json
from subsketch.pooling import PoolingAgent, annealed_epsilon
from subsketch.sampler import SketchedGraph, build_sketched_graph, sample_subgraphs
from subsketch.trainer import (
    ModelParams,
    TrainConfig,
    batch_forward,
    bind_model,
    cross_validate,
    init_model,
    precompute_tensors,
    train_fold,
)

DATA_ROOT = os.environ.get("SUBSKETCH_DATA_DIR") or os.path.join(
    os.path.dirname(__file__), os.pardir, "data"
)


def _load_benchmark(*names):
    """Parse the first present benchmark dataset, or fail with instructions."""
    tried = []
    for name in names:
        root = os.path.join(DATA_ROOT, name)
        if os.path.isfile(os.path.join(root, f"{name}_A.txt")):
            return name, parse_tu_dataset(root, name)
        tried.append(root)
    pytest.fail(
        "benchmark dataset unavailable: looked for "
        + ", ".join(os.path.abspath(path) for path in tried)
        + ". This environment cannot download it (no general network access); "
        "place the four TU-format files (NAME_A.txt, NAME_graph_indicator.txt, "
        "NAME_graph_labels.txt, NAME_node_labels.txt) in that directory and "
        "re-run. The criterion stays red until demonstrated on the real data.",
        pytrace=False,
    )


# --- criterion 1: gradients --------------------------------------------

TINY = TrainConfig(
    n=3, s=3, d1=4, d2=6, heads=2, dropout=0.0, beta=0.8, l2=0.01
)


def test_criterion_1_gradient_suite():
    """Tape gradients of the full loss match finite differences (rel err
    <= 1e-4) for every parameter array, across 20 random seeds."""
    start = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        graphs = [
            random_graph(rng, int(rng.integers(6, 10)), 0.4, index=i, label=i % 2)
            for i in range(3)
        ]
        tensors = [precompute_tensors(g, TINY.n, TINY.s) for g in graphs]
        labels = [g.label for g in graphs]
        model = init_model(rng, graphs[0].features.shape[1], 2, TINY)
        names = list(model.registry())
        arrays = list(model.registry().values())
        k = float(rng.uniform(0.34, 1.0))

        def loss_value(current):
            tape = Tape(training=False)
            bound = bind_model(ModelParams(zip(names, current)), tape)
            result = batch_forward(bound, tensors, labels, k, TINY, tape)
            return float(result.loss.value[0, 0])

        tape = Tape(training=False)
        bound = bind_model(ModelParams(zip(names, arrays)), tape)
        result = batch_forward(bound, tensors, labels, k, TINY, tape)
        grads = tape.backward(result.loss)
        got = [grads[bound[name]] for name in names]
        want = finite_diff_grads(loss_value, arrays)
        assert_grads_close(got, want, tol=1e-4)
    assert time.perf_counter() - start < 60.0


# --- criterion 2: oracles ----------------------------------------------


def test_criterion_2_oracle_suite():
    """Selection, sampling, and sketch construction agree exactly with
    independent oracles on 100 random instances each."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)

    # Top-k selection vs. a sort oracle.
    for _ in range(100):
        count = int(rng.integers(2, 30))
        width = int(rng.integers(2, 6))
        zs = rng.normal(size=(count, width))
        p = rng.normal(size=(width, 1))
        k = float(rng.uniform(0.05, 1.0))
        idx, gates = topk_select(zs, p, k)
        vals = zs @ (p[:, 0] / np.linalg.norm(p))
        expected = max(1, math.ceil(k * count - 1e-9))
        oracle = sorted(range(count), key=lambda i: (-vals[i], i))[:expected]
        assert idx == oracle
        assert np.allclose(gates, 1.0 / (1.0 + np.exp(-vals[oracle])), atol=1e-12)

    # Subgraph sampling vs. an independent BFS implementation.
    for trial in range(100):
        graph = random_graph(
            rng, int(rng.integers(2, 14)), float(rng.uniform(0.1, 0.7)), index=trial
        )
        n = int(rng.integers(1, 9))
        s = int(rng.integers(1, 7))
        result = sample_subgraphs(graph, n, s)
        adj = {v: sorted(nb) for v, nb in enumerate(neighbors(graph))}
        ranked = sorted(range(graph.num_nodes), key=lambda v: (-len(adj[v]), v))
        assert result.n == n
        for i, entry in enumerate(entries_of(result)):
            root = ranked[i % graph.num_nodes]
            seen = {root}
            order = [root]
            queue = [root]
            while queue and len(order) < s:
                v = queue.pop(0)
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        order.append(w)
                        queue.append(w)
                        if len(order) == s:
                            break
            assert entry.central_node == root
            assert list(entry.node_ids) == order
            member = len(order)
            induced = np.zeros((s, s))
            for a in range(member):
                for b in range(member):
                    if order[b] in adj[order[a]]:
                        induced[a, b] = 1.0
            assert np.array_equal(entry.local_adjacency, induced)
            assert list(entry.mask) == [True] * member + [False] * (s - member)

    # Sketch edges vs. a pairwise shared-node count.
    for _ in range(100):
        universe = int(rng.integers(3, 20))
        count = int(rng.integers(1, 8))
        entries = []
        for _ in range(count):
            size = int(rng.integers(1, min(universe, 6) + 1))
            ids = tuple(int(x) for x in rng.choice(universe, size=size, replace=False))
            entries.append(
                SubgraphEntry(
                    central_node=ids[0],
                    node_ids=ids,
                    local_adjacency=np.zeros((size, size)),
                    mask=np.ones(size, dtype=bool),
                )
            )
        chosen = sorted(
            int(x)
            for x in rng.choice(count, size=int(rng.integers(1, count + 1)), replace=False)
        )
        b_com = int(rng.integers(0, 4))
        sketch = build_sketched_graph(subgraph_set_of(entries), chosen, b_com)
        want = set()
        for i in range(len(chosen)):
            for j in range(i + 1, len(chosen)):
                shared = sum(
                    1
                    for a in entries[chosen[i]].node_ids
                    for b in entries[chosen[j]].node_ids
                    if a == b
                )
                if shared > b_com:
                    want.add((i, j))
        assert set(sketch.edges) == want
        assert sketch.supernodes == tuple(chosen)
    assert time.perf_counter() - start < 60.0


# --- criterion 3: agent convergence on a mock environment ---------------


def test_criterion_3_rl_mock_convergence():
    """With reward +1 only near k* = 0.5, the greedy policy puts k within
    one step of k* inside 200 episodes, for 5 seeds."""
    start = time.perf_counter()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        agent = PoolingAgent(k=0.9, dk=0.05, gamma=0.9, epsilon=1.0, alpha=0.2)
        ks = []
        for episode in range(200):
            agent.epsilon = annealed_epsilon(episode, start=1.0, end=0.0, span=120)
            state = agent.state()
            action = agent.choose_action(rng)
            agent.apply_action(action)
            reward = 1.0 if abs(agent.k - 0.5) <= agent.dk / 2 else -1.0
            agent.q_update(state, action, reward, agent.state())
            ks.append(agent.k)
        assert all(
            abs(k - 0.5) <= agent.dk + 1e-12 for k in ks[-20:]
        ), f"seed {seed}: greedy k drifted, tail {ks[-5:]}"
    assert time.perf_counter() - start < 10.0


# --- criteria 4-6, 8: benchmark runs ------------------------------------


def test_criterion_4_mutag_end_to_end():
    """10-fold mean accuracy >= 0.85 on MUTAG with the default settings,
    and every fold strictly above the 0.665 majority baseline."""
    _, graphs = _load_benchmark("MUTAG")
    report, _ = cross_validate(graphs, TrainConfig(n=12, s=5))
    assert report.mean_accuracy >= 0.85, report.fold_accuracies
    assert all(acc > 0.665 for acc in report.fold_accuracies), report.fold_accuracies


def test_criterion_5_ablation_direction_ptc():
    """Across a shared fold plan and 3 seeds on PTC: full >= no_mi and
    full >= fixed_k(k=1) on mean accuracy (direction only)."""
    _, graphs = _load_benchmark("PTC", "PTC_MR", "PTC_FM")
    base = TrainConfig(n=12, s=5)
    means = {}
    for variant, k0 in (("full", base.k0), ("no_mi", base.k0), ("fixed_k", 1.0)):
        accs = []
        for seed in (0, 1, 2):
            config = replace(base, variant=variant, k0=k0, seed=seed)
            report, _ = cross_validate(graphs, config)
            accs.append(report.mean_accuracy)
        means[variant] = float(np.mean(accs))
    assert means["full"] >= means["no_mi"], means
    assert means["full"] >= means["fixed_k"], means


def test_criterion_6_ratio_search_terminates():
    """On MUTAG with k0 = 0.5 the stability condition freezes k before the
    epoch budget in >= 4 of 5 seeds, and k never moves afterwards."""
    _, graphs = _load_benchmark("MUTAG")
    base = TrainConfig(n=12, s=5, k0=0.5)
    triggered = 0
    for seed in range(5):
        config = replace(base, seed=seed)
        plan = make_folds(graphs, config.seed, config.fold_count)
        result = train_fold(graphs, plan, 0, config)
        frozen = [row for row in result.trajectory if row["terminated"]]
        if not frozen or frozen[0]["epoch"] >= config.epochs - 1:
            continue
        after = {row["k"] for row in result.trajectory
                 if row["epoch"] > frozen[0]["epoch"]}
        assert len(after) <= 1, f"seed {seed}: k moved after freezing: {after}"
        triggered += 1
    assert triggered >= 4, f"froze before budget in only {triggered} of 5 seeds"


# --- criterion 7: structural properties ---------------------------------


def test_criterion_7_property_suite():
    """Normalization, probability-vector, permutation, determinism, and
    parameter-registry invariants hold on random instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(707)

    for trial in range(25):
        graph = random_graph(
            rng, int(rng.integers(4, 12)), 0.5, index=trial, label=trial % 2
        )
        n, s, d1, d2 = 4, 3, 5, 6
        subgraph_set = sample_subgraphs(graph, n, s)
        tape = Tape(training=False)
        # Arrays drawn in the model's parameter order (param_spec).
        enc = Encoder(
            (
                tape.param(glorot(rng, graph.features.shape[1], d1)),
                tape.param(glorot(rng, d1, d1)),
            ),
            tape.param(glorot(rng, d1, d1)),
            tape.param(glorot(rng, d1, 1)),
        )
        # Intra-subgraph attention is a distribution over real nodes only.
        for entry in entries_of(subgraph_set):
            h = encode_nodes(entry, graph.features, enc, tape)
            weights = intra_attention_weights(h, entry.mask, enc, tape).value[0]
            assert abs(weights.sum() - 1.0) < 1e-12
            assert np.all(weights >= 0.0)
            assert np.all(weights[~entry.mask] == 0.0)

        # Sketch attention rows are distributions; outputs and readout are
        # equivariant / invariant under supernode reordering.
        sketch = build_sketched_graph(subgraph_set, list(range(n)), 0)
        w_inter = [tape.param(glorot(rng, d2, d1)) for _ in range(2)]
        a_inter = [tape.param(glorot(rng, 2 * d2, 1)) for _ in range(2)]
        bound_sketch = list(zip(w_inter, a_inter))
        glorot(rng, d2, d2)  # W_MI: drawn in parameter order, unused by these checks
        zs = tape.constant(rng.normal(size=(n, d1)))
        out, alphas = inter_attention_details(sketch, zs, bound_sketch, tape)
        for alpha in alphas:
            assert np.allclose(alpha.value.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(alpha.value >= 0.0)
        summary = readout(out, tape)

        perm = [int(x) for x in rng.permutation(n)]
        permuted_sketch = SketchedGraph(
            supernodes=tuple(sketch.supernodes[i] for i in perm),
            adjacency=sketch.adjacency[np.ix_(perm, perm)],
        )
        zs_perm = tape.constant(zs.value[perm])
        out_perm, _ = inter_attention_details(
            permuted_sketch, zs_perm, bound_sketch, tape
        )
        assert np.allclose(out_perm.value, out.value[perm], atol=1e-9)
        assert np.allclose(
            readout(out_perm, tape).value, summary.value, atol=1e-9
        )

    # Class scores are probability vectors at both granularities.
    graphs = [
        random_graph(rng, int(rng.integers(5, 9)), 0.5, index=i, label=i % 2)
        for i in range(4)
    ]
    config = replace(TINY, beta=0.0)
    model = init_model(rng, graphs[0].features.shape[1], 2, config)
    tensors = [precompute_tensors(g, config.n, config.s) for g in graphs]
    tape = Tape(training=False)
    bound = bind_model(model, tape)
    result = batch_forward(
        bound, tensors, [g.label for g in graphs], 0.6, config, tape
    )
    for dists in (result.graph_dists.value, result.sub_dists.value):
        assert np.all(dists >= 0.0)
        assert np.allclose(dists.sum(axis=1), 1.0, atol=1e-12)

    # Determinism: an identical run reproduces accuracies and weights.
    data = planted_motif_dataset(np.random.default_rng(3), num_graphs=20, base_nodes=8)
    small = TrainConfig(
        n=3, s=3, d1=4, d2=6, epochs=6, batch_size=8, fold_count=4, seed=9
    )
    report_a, results_a = cross_validate(data, small)
    report_b, results_b = cross_validate(data, small)
    assert report_a.fold_accuracies == report_b.fold_accuracies
    assert report_a.trajectories == report_b.trajectories
    for res_a, res_b in zip(results_a, results_b):
        for name, array in res_a.model.registry().items():
            assert np.array_equal(array, res_b.model.registry()[name]), name

    # Registry: stable naming, bound one-to-one, every array trains.
    registry = model.registry()
    assert len(registry) == 8 + 2 * config.heads
    assert set(registry) == set(bound)
    train_tape = Tape(training=True)
    train_bound = bind_model(model, train_tape)
    train_result = batch_forward(
        train_bound,
        tensors,
        [g.label for g in graphs],
        0.6,
        replace(config, beta=0.8),
        train_tape,
    )
    grads = train_tape.backward(train_result.loss)
    for name, node in train_bound.items():
        assert node in grads, name
        assert np.any(grads[node] != 0.0), f"no gradient reaches {name}"
    assert time.perf_counter() - start < 120.0


# --- criterion 8: explanation integrity ---------------------------------


def test_criterion_8_explain_output_integrity(tmp_path):
    """For 10 MUTAG graphs, the exported per-subgraph distributions,
    renormalized, match the model's graph distribution to 1e-9."""
    _, graphs = _load_benchmark("MUTAG")
    config = TrainConfig(n=12, s=5)
    plan = make_folds(graphs, config.seed, config.fold_count)
    trained = train_fold(graphs, plan, 0, config)
    for graph in graphs[:10]:
        detail = explain_graph(trained.model, config, graph, trained.final_k)
        path = tmp_path / f"graph_{graph.index}.json"
        write_graph_json(str(path), detail)
        exported = json.loads(path.read_text())
        summed = np.zeros(len(exported["graph_distribution"]))
        for sub in exported["selected_subgraphs"]:
            summed += np.asarray(sub["class_distribution"])
        renormalised = summed / summed.sum()
        assert np.allclose(
            renormalised, exported["graph_distribution"], atol=1e-9
        ), graph.index
