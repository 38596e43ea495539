import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from subsketch.dataset import Graph, make_folds
from subsketch.diffcore import Node, Tape
from subsketch.encoder import subgraph_features
from subsketch.errors import ConfigError, TrainingDiverged
from subsketch.sampler import build_sketched_graph, sample_subgraphs
from subsketch.sketch_mi import mi_loss
from subsketch.explain import explain_graph
from subsketch.trainer import (
    VARIANTS,
    ForwardResult,
    ModelParams,
    TrainConfig,
    batch_forward,
    bind_model,
    cross_validate,
    evaluate_accuracy,
    init_model,
    precompute_tensors,
    sgd_momentum_step,
    total_loss,
    train_fold,
)

from _reference import (
    classify_graph,
    encode_nodes,
    encoder_of,
    entries_of,
    heads_of,
    inter_attention,
    intra_attention,
    precompute_reference,
    readout,
    topk_select,
)
from _synth import planted_motif_dataset, random_graph
from gradcheck import finite_diff_grads, max_rel_err

TINY = dict(n=3, s=3, d1=4, d2=5, heads=2, batch_size=10, fold_count=5)


def tiny_config(**kw):
    merged = {**TINY, **kw}
    return TrainConfig(**merged)


@pytest.fixture(scope="module")
def dataset():
    return planted_motif_dataset(np.random.default_rng(0), num_graphs=40, base_nodes=10)


def test_config_validation():
    with pytest.raises(ConfigError, match="unknown variant"):
        TrainConfig(variant="half_k")
    with pytest.raises(ConfigError, match="beta"):
        TrainConfig(beta=-0.1)
    with pytest.raises(ConfigError, match="k0"):
        TrainConfig(k0=0.0)
    assert TrainConfig(n=10).resolved_dk == pytest.approx(0.1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("lr", -1.0),
        ("lr", float("nan")),
        ("momentum", 1.5),
        ("momentum", -0.5),
        ("patience", -3),
        ("b_com", -2),
        ("beta", float("nan")),
        ("l2", float("nan")),
        ("seed", -1),
        # wrong types, as a hand-edited model manifest can hold them
        ("n", 12.5),
        ("n", True),
        ("s", 5.0),
        ("batch_size", 2.5),
        ("seed", 1.5),
        ("b_com", 0.5),
        ("fold_count", 10.0),
        ("lr", False),
        ("lr", "0.1"),
        ("variant", 3),
        ("dk", "none"),
        ("dk", True),
    ],
)
def test_config_rejects_malformed_training_settings(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must"):
        TrainConfig(**{field: value})


def test_classify_single_subgraph_is_its_own_softmax():
    tape = Tape()
    z = tape.constant(np.array([[0.3, -0.2, 0.9]]))
    w = tape.constant(np.eye(3))
    b = tape.constant(np.zeros((1, 3)))
    graph_dist, sub_dists = classify_graph(z, w, b, tape)
    np.testing.assert_allclose(graph_dist.value, sub_dists.value, atol=1e-12)


def test_classify_vote_arithmetic():
    # log-probability rows make the softmax reproduce the target distributions.
    tape = Tape()
    z = tape.constant(np.log(np.array([[0.9, 0.1], [0.2, 0.8]])))
    graph_dist, sub_dists = classify_graph(
        z, tape.constant(np.eye(2)), tape.constant(np.zeros((1, 2))), tape
    )
    np.testing.assert_allclose(sub_dists.value, [[0.9, 0.1], [0.2, 0.8]], atol=1e-12)
    np.testing.assert_allclose(graph_dist.value, [[0.55, 0.45]], atol=1e-12)
    assert np.argmax(graph_dist.value[0]) == 0


def test_classify_uniform_votes_tie_to_class_zero():
    tape = Tape()
    z = tape.constant(np.zeros((4, 3)))
    graph_dist, _ = classify_graph(
        z, tape.constant(np.zeros((3, 2))), tape.constant(np.zeros((1, 2))), tape
    )
    np.testing.assert_allclose(graph_dist.value, [[0.5, 0.5]], atol=1e-12)
    assert np.argmax(graph_dist.value[0]) == 0


@pytest.mark.parametrize("seed", range(3))
def test_distributions_are_valid(seed):
    rng = np.random.default_rng(seed)
    tape = Tape()
    graph_dist, sub_dists = classify_graph(
        tape.constant(rng.standard_normal((6, 4)) * 3),
        tape.constant(rng.standard_normal((4, 3))),
        tape.constant(rng.standard_normal((1, 3))),
        tape,
    )
    for dists in (sub_dists.value, graph_dist.value):
        assert np.all(dists >= 0)
        np.testing.assert_allclose(dists.sum(axis=1), 1.0, atol=1e-9)


# One subgraph per graph whose logits are log-probabilities, so each
# graph's vote is the row itself.
def test_total_loss_pure_cross_entropy():
    tape = Tape()
    logits = tape.constant(np.log(np.array([[0.9, 0.1], [0.25, 0.75]])))
    loss = total_loss(logits, [0, 1], 1, None, [], beta=0.0, l2=0.0, tape=tape)
    want = -0.5 * (np.log(0.9) + np.log(0.75))
    assert loss.value[0, 0] == pytest.approx(want, abs=1e-12)


def test_total_loss_averages_the_votes_of_a_graphs_subgraphs():
    tape = Tape()
    logits = tape.constant(np.log(np.array([[0.9, 0.1], [0.3, 0.7]])))
    loss = total_loss(logits, [0], 2, None, [], beta=0.0, l2=0.0, tape=tape)
    assert loss.value[0, 0] == pytest.approx(-np.log(0.6), abs=1e-12)


def test_total_loss_perfect_predictions():
    tape = Tape()
    logits = tape.constant(np.log(np.array([[1 - 1e-9, 1e-9], [1e-9, 1 - 1e-9]])))
    loss = total_loss(logits, [0, 1], 1, None, [], beta=0.0, l2=0.0, tape=tape)
    assert 0.0 <= loss.value[0, 0] < 1e-8


def test_total_loss_hand_arithmetic_with_l2():
    tape = Tape()
    logits = tape.constant(np.log(np.array([[0.9, 0.1], [0.25, 0.75]])))
    theta = tape.param(np.array([[1.0, 2.0], [3.0, 4.0]]))
    mi = tape.constant(np.array([[0.5]]))
    loss = total_loss(logits, [0, 1], 1, mi, [theta], beta=0.8, l2=0.1, tape=tape)
    want = -0.5 * (np.log(0.9) + np.log(0.75)) + 0.8 * 0.5 + 0.1 * 30.0
    assert loss.value[0, 0] == pytest.approx(want, abs=1e-12)


def test_sgd_vanilla_reduction():
    theta = {"w": np.array([[1.0, 2.0]])}
    sgd_momentum_step(theta, {"w": np.array([[0.5, -1.0]])}, 1.0, 0.0, {})
    np.testing.assert_allclose(theta["w"], [[0.5, 3.0]])


def test_sgd_zero_gradient_moves_by_decayed_velocity():
    theta = {"w": np.array([[0.0]])}
    velocity = {"w": np.array([[2.0]])}
    sgd_momentum_step(theta, {"w": np.array([[0.0]])}, 0.1, 0.9, velocity)
    np.testing.assert_allclose(theta["w"], [[-0.18]])
    np.testing.assert_allclose(velocity["w"], [[1.8]])


def test_sgd_two_steps_constant_gradient():
    theta = {"w": np.array([[0.0]])}
    g = {"w": np.array([[1.0]])}
    velocity = {}
    sgd_momentum_step(theta, g, 0.01, 0.9, velocity)
    sgd_momentum_step(theta, g, 0.01, 0.9, velocity)
    np.testing.assert_allclose(theta["w"], [[-0.01 * (1.0 + 1.9)]])


def test_sgd_lr_zero_is_identity():
    theta = {"w": np.array([[0.3, 0.4]])}
    before = theta["w"].copy()
    sgd_momentum_step(theta, {"w": np.array([[5.0, -5.0]])}, 0.0, 0.9, {})
    np.testing.assert_array_equal(theta["w"], before)


def test_registry_covers_every_parameter_and_l2_matches(dataset):
    config = tiny_config()
    model = init_model(np.random.default_rng(0), 4, 2, config)
    registry = model.registry()
    # 2 conv layers + 2 intra arrays + projection + per-head (W, a) + W_MI + 2 classifier.
    assert len(registry) == 2 + 2 + 1 + 2 * config.heads + 1 + 2
    tape = Tape()
    bound = bind_model(model, tape)
    assert set(bound) == set(registry)
    logits = tape.constant(np.zeros((1, 2)))
    loss = total_loss(
        logits, [0], 1, None, list(bound.values()), beta=0.0, l2=1.0, tape=tape
    )
    want = -np.log(0.5) + sum(np.sum(a * a) for a in registry.values())
    assert loss.value[0, 0] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("variant", ["full", "no_mi", "mi_corrupt"])
def test_full_model_gradients_match_finite_differences(dataset, variant):
    config = tiny_config(variant=variant, dropout=0.0, seed=0)
    graphs = dataset[:2]
    tensors = [precompute_tensors(g, config.n, config.s) for g in graphs]
    labels = [g.label for g in graphs]
    model = init_model(np.random.default_rng(3), 4, 2, config)
    names = list(model.registry())
    base_arrays = [model.registry()[name].copy() for name in names]

    def build(arrays):
        m = ModelParams(zip(names, [a.copy() for a in arrays]))
        tape = Tape(training=False)
        bound = bind_model(m, tape)
        result = batch_forward(
            bound, tensors, labels, 0.7, config, tape,
            corrupt_rng=np.random.default_rng(9),
        )
        return tape, result.loss, [bound[n] for n in names]

    tape, loss, nodes = build(base_arrays)
    grads = tape.backward(loss)
    got = [grads[node] for node in nodes]
    want = finite_diff_grads(lambda arrs: build(arrs)[1].value[0, 0], base_arrays)
    for name, g, w in zip(names, got, want):
        err = max_rel_err(g, w)
        assert err <= 1e-4, f"{variant}/{name}: rel err {err:.2e}"


def test_batched_forward_matches_per_module_path(dataset):
    config = tiny_config(variant="no_mi", dropout=0.0)
    # Two nodes with nonzero categories: every subgraph of this graph has a
    # pad row, whose category 0 must not leak into the batched lookup.
    pair = Graph(
        index=40, label=1, edges=((0, 1),), node_labels=(2, 3),
        features=np.eye(4)[[2, 3]],
    )
    graphs = dataset[:3] + [pair]
    tensors = [precompute_tensors(g, config.n, config.s) for g in graphs]
    pads = ~tensors[-1].subgraph_set.mask.reshape(-1)
    assert pads.any() and np.all(tensors[-1].feats[pads] == 0)
    labels = [g.label for g in graphs]
    model = init_model(np.random.default_rng(5), 4, 2, config)
    k = 0.6  # keeps 2 of 3 subgraphs per graph

    tape = Tape(training=False)
    bound = bind_model(model, tape)
    result = batch_forward(bound, tensors, labels, k, config, tape, compute_loss=False)

    for b, tensor in enumerate(tensors):
        single = Tape(training=False)
        sb = bind_model(model, single)
        enc = encoder_of(sb)
        z_rows = []
        for entry in entries_of(tensor.subgraph_set):
            h = encode_nodes(entry, tensor.graph.features, enc, single)
            z_rows.append(intra_attention(h, entry.mask, enc, single).value[0])
        z_values = np.vstack(z_rows)
        idx, gates = topk_select(z_values, model["pool.p"], k)
        assert idx == result.selected[b].tolist()
        sk = build_sketched_graph(tensor.subgraph_set, idx, config.b_com)
        gated = z_values[idx] * gates[:, None]
        zp = inter_attention(sk, single.constant(gated), heads_of(sb, config.heads), single)
        r = readout(zp, single)
        graph_dist, _ = classify_graph(zp, sb["classifier.w"], sb["classifier.b"], single)

        kept = len(idx)
        np.testing.assert_allclose(
            result.z_primes.value[b * kept : (b + 1) * kept], zp.value, atol=1e-10
        )
        np.testing.assert_allclose(result.readouts.value[b], r.value[0], atol=1e-10)
        np.testing.assert_allclose(
            result.graph_dists.value[b], graph_dist.value[0], atol=1e-10
        )


def test_zero_width_feature_placeholders_train_like_no_features(dataset):
    # bench/synth.make_graphs builds its graphs with features=np.empty((nodes, 0)).
    config = tiny_config(n=6, s=4)
    ids = [g.index for g in dataset[:12]]
    model = init_model(np.random.default_rng(2), 4, 2, config)
    accuracies = []
    for features in (lambda g: np.empty((g.num_nodes, 0)), lambda g: None):
        graphs = [replace(g, features=features(g)) for g in dataset[:12]]
        tensors = {g.index: precompute_tensors(g, config.n, config.s) for g in graphs}
        accuracies.append(evaluate_accuracy(model, tensors, ids, 0.5, config))
    assert accuracies[0] == accuracies[1]


@pytest.mark.parametrize("k", [0.5, 1.0])
@pytest.mark.parametrize("b_com", [0, 1, 2])
def test_explain_sketch_edges_match_the_sketched_graph(dataset, b_com, k):
    config = tiny_config(n=8, s=4, b_com=b_com)
    model = init_model(np.random.default_rng(3), 4, 2, config)
    # Five nodes against n = 8 roots: the root ranking wraps, so node sets repeat.
    small = Graph(
        index=99, label=0, edges=((0, 1), (1, 2), (2, 3), (3, 4), (1, 3)),
        node_labels=(0, 1, 2, 3, 0),
    )
    ss = sample_subgraphs(small, config.n, config.s)
    assert len({frozenset(row[real].tolist()) for row, real in zip(ss.nodes, ss.mask)}) < 8
    edges = 0
    for graph in [*dataset[:6], small]:
        detail = explain_graph(model, config, graph, k)
        selected = [sub["index"] for sub in detail["selected_subgraphs"]]
        sketch = build_sketched_graph(
            sample_subgraphs(graph, config.n, config.s), selected, b_com
        )
        want = [[selected[i], selected[j]] for i, j in sketch.edges]
        assert detail["sketch_edges"] == want
        edges += len(want)
    assert edges > 0


def test_precompute_rejects_negative_categories_without_features():
    # The graph itself rejects the label, so no GraphTensors can hold one.
    with pytest.raises(ValueError, match="graph 7: node_labels must be non-negative"):
        Graph(index=7, label=0, edges=((0, 1),), node_labels=(0, -1))


def test_precompute_keeps_each_array_at_its_width():
    """Bytes a graph's tensors keep: float64 propagation blocks, intp node
    ids and categories, bool mask and adjacency, int16 overlaps, plus under
    3 KiB of Python objects, which one more float64 (n, s) array would
    overrun."""
    n, s = 30, 8
    graph = random_graph(np.random.default_rng(5), num_nodes=60, edge_prob=0.1)
    precompute_tensors(graph, n, s)  # warm any lazy state first
    tracemalloc.start()
    try:
        tensors = precompute_tensors(graph, n, s)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    arrays = n * s * s * (8 + 1) + n * s * (8 + 8 + 1) + n * n * 2
    assert kept <= arrays + 3 * 1024, f"{kept} bytes kept, arrays need {arrays}"
    assert tensors.subgraph_set.adjacency.nbytes == n * s * s


def test_mi_corrupt_shuffles_each_graph_once(dataset, monkeypatch):
    import subsketch.trainer as trainer

    config = tiny_config(variant="mi_corrupt", n=6, s=4, dropout=0.0)
    graphs = dataset[:2]
    tensors = [precompute_tensors(g, config.n, config.s) for g in graphs]
    calls = []

    def recording(subgraph_set, categories):
        out = subgraph_features(subgraph_set, categories)
        calls.append((subgraph_set, out))
        return out

    monkeypatch.setattr(trainer, "subgraph_features", recording)
    model = init_model(np.random.default_rng(1), 4, 2, config)
    tape = Tape(training=False)
    batch_forward(
        bind_model(model, tape), tensors, [g.label for g in graphs], 0.5, config,
        tape, corrupt_rng=np.random.default_rng(4),
    )
    # One call per graph, and overlapping subgraphs of one graph see one
    # shuffle: a shared node gets the same corrupted category in every
    # subgraph that holds it.
    assert [id(ss) for ss, _ in calls] == [id(t.subgraph_set) for t in tensors]
    seen = {}
    shared = 0
    for b, (ss, out) in enumerate(calls):
        for node, category in zip(ss.nodes[ss.mask], out.reshape(ss.mask.shape)[ss.mask]):
            key = (b, node)
            if key in seen:
                shared += 1
                assert category == seen[key]
            else:
                seen[key] = category
    assert shared > 0


def _forward_states(config, graphs, monkeypatch):
    """One dropout-free forward pass, with every nested forward it made: the
    feature-shuffled view of ``mi_corrupt``."""
    import subsketch.trainer as trainer

    states = []

    def recording(*args, **kwargs):
        states.append(trainer_run(*args, **kwargs))
        return states[-1]

    trainer_run = trainer.batch_forward
    monkeypatch.setattr(trainer, "batch_forward", recording)
    tensors = [precompute_tensors(g, config.n, config.s) for g in graphs]
    model = init_model(np.random.default_rng(5), 4, 2, config)
    tape = Tape(training=False)
    result = batch_forward(
        bind_model(model, tape), tensors, [g.label for g in graphs], 0.5, config,
        tape, corrupt_rng=np.random.default_rng(6),
    )
    return model, result, states


def _softplus(x):
    return np.logaddexp(0.0, x)


def test_alternative_graph_negatives_come_from_the_previous_graph(dataset, monkeypatch):
    config = tiny_config(variant="full", dropout=0.0)
    model, result, _ = _forward_states(config, dataset[:3], monkeypatch)
    z, r, w = result.z_primes.value, result.readouts.value, model["sketch.w_mi"]
    owner = np.repeat(np.arange(3), result.selected.shape[1])

    def oracle(partner):
        pos = np.einsum("id,de,ie->i", z, w, r[owner])
        neg = np.einsum("id,de,ie->i", z, w, r[partner])
        return (_softplus(-pos).sum() + _softplus(neg).sum()) / (2 * len(z))

    got = result.mi.value[0, 0]
    previous, following = oracle((owner - 1) % 3), oracle((owner + 1) % 3)
    assert abs(got - previous) <= 1e-12 * abs(previous)
    assert abs(got - following) > 1e-6 * abs(following)


@pytest.mark.parametrize("variant", ["full", "mi_corrupt"])
def test_batched_pair_scores_match_per_pair_oracle(dataset, monkeypatch, variant):
    import subsketch.trainer as trainer

    pairs = {}

    def recording(pos, neg, tape):
        pairs.update(pos=pos.value[:, 0], neg=neg.value[:, 0])
        return mi_loss(pos, neg, tape)

    monkeypatch.setattr(trainer, "mi_loss", recording)
    config = tiny_config(variant=variant, dropout=0.0)
    graphs = dataset[:4]
    model, result, states = _forward_states(config, graphs, monkeypatch)
    w, r = model["sketch.w_mi"], result.readouts.value
    assert len(states) == (variant == "mi_corrupt")
    z = result.z_primes.value
    # Negatives: the previous graph's readout, or the feature-shuffled pass.
    z_neg = z if variant == "full" else states[0].z_primes.value
    kept = result.selected.shape[1]
    want_pos, want_neg = [], []
    for i in range(len(z)):
        b = i // kept
        want_pos.append(float(z[i] @ w @ r[b]))
        partner = (b - 1) % len(graphs) if variant == "full" else b
        want_neg.append(float(z_neg[i] @ w @ r[partner]))
    for got, want in ((pairs["pos"], want_pos), (pairs["neg"], want_neg)):
        want = np.asarray(want)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


# Tape nodes one training step records at the default head count (dropout
# on).  Fewer nodes is the point of the fused ops; a change here should be
# deliberate.  mi_corrupt's shuffled view is a whole batch_forward, whose
# readout and classifier head add 6 nodes that no gradient reaches.
STEP_TAPE_NODES = {"full": 77, "no_mi": 62, "mi_corrupt": 123}


@pytest.mark.parametrize("variant", sorted(STEP_TAPE_NODES))
def test_training_step_tape_size_is_pinned(dataset, variant):
    config = TrainConfig(variant=variant)
    graphs = dataset[:8]
    tensors = [precompute_tensors(g, config.n, config.s) for g in graphs]
    model = init_model(np.random.default_rng(0), 4, 2, config)
    tape = Tape(training=True)
    result = batch_forward(
        bind_model(model, tape), tensors, [g.label for g in graphs], 0.5, config,
        tape, rng=np.random.default_rng(1), corrupt_rng=np.random.default_rng(2),
    )
    tape.backward(result.loss)
    assert len(tape.nodes) == STEP_TAPE_NODES[variant]


def test_training_step_peak_memory_is_bounded():
    # A DD-shaped step: 32 graphs, n = 30 subgraphs of s = 8 nodes.  With the
    # encoder as 14 tape ops and a backward that kept every gradient until
    # the tape was dropped, it peaked at 23.2 MB; the fused encoder keeps
    # only what its backward reads, and backward frees each gradient once
    # used, for a peak of 12.7 MB.
    rng = np.random.default_rng(18)
    graphs = [random_graph(rng, 60, 0.07, index=i, label=i % 2) for i in range(32)]
    config = TrainConfig(n=30, s=8)
    tensors = [precompute_tensors(g, config.n, config.s) for g in graphs]
    model = init_model(np.random.default_rng(0), 2, 2, config)

    def step():
        tape = Tape(training=True)
        result = batch_forward(
            bind_model(model, tape), tensors, [g.label for g in graphs], 0.5, config,
            tape, rng=np.random.default_rng(1), corrupt_rng=np.random.default_rng(2),
        )
        tape.backward(result.loss)

    step()  # warm any lazy state first
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, f"a training step peaked at {peak / 2**20:.1f} MB"


def _eval_forward(graphs, config, k, record):
    """A dropout-free forward with its loss, so that every field of the
    record is set (``mi`` stays None for ``no_mi``)."""
    tensors = [precompute_tensors(g, config.n, config.s) for g in graphs]
    model = init_model(np.random.default_rng(11), 4, 2, config)
    tape = Tape(training=False, record=record)
    bound = bind_model(model, tape)
    result = batch_forward(
        bound, tensors, [g.label for g in graphs], k, config, tape,
        corrupt_rng=np.random.default_rng(12),
    )
    return tape, bound, result


def _record_fields(result):
    """Every field of a ForwardResult by name, tape nodes as their values."""
    return {
        f.name: getattr(result, f.name).value
        if isinstance(getattr(result, f.name), Node) else getattr(result, f.name)
        for f in fields(ForwardResult)
    }


def _eval_graphs(dataset):
    # A 5-node graph wraps the root ranking at n = 6, so node sets repeat.
    small = random_graph(np.random.default_rng(40), 5, 0.5, index=40, label=1)
    return dataset[:6] + [small]


@pytest.mark.parametrize("k", [0.5, 0.75])
@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_only_tape_gives_the_recording_tapes_bits(dataset, variant, k):
    config = tiny_config(variant=variant, n=6, s=4)  # dropout on, but not training
    graphs = _eval_graphs(dataset)
    _, _, want = _eval_forward(graphs, config, k, record=True)
    _, _, got = _eval_forward(graphs, config, k, record=False)

    want = _record_fields(want)
    for name, g in _record_fields(got).items():
        w = want[name]
        if isinstance(w, np.ndarray):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
        else:
            assert g == w, name
    assert (want["mi"] is None) == (variant == "no_mi")


def test_forward_only_tape_keeps_nothing_for_backward(dataset):
    config = tiny_config(n=6, s=4)
    tape, bound, result = _eval_forward(_eval_graphs(dataset), config, 0.5, record=False)
    assert tape.nodes == [] and tape.params == []
    returned = [getattr(result, f.name) for f in fields(ForwardResult)]
    assert all(v is not None for v in returned)
    nodes = [*bound.values(), *(v for v in returned if isinstance(v, Node))]
    assert all(node.parents == () and node.backward_rule is None for node in nodes)
    x = tape.constant(np.ones((2, 3)))
    assert tape.dropout(x, 0.5, np.random.default_rng(0)) is x
    with pytest.raises(ValueError, match="record=False"):
        tape.backward(tape.sum(x))


@pytest.mark.parametrize("call", ["evaluate_accuracy", "explain_graph"])
def test_evaluation_records_nothing_for_backward(dataset, monkeypatch, call):
    config = tiny_config(n=6, s=4)
    graphs = dataset[:12]
    model = init_model(np.random.default_rng(2), 4, 2, config)
    seen = []
    record = Tape._record

    def spying(tape, *args, **kwargs):
        node = record(tape, *args, **kwargs)
        seen.append((len(tape.nodes), len(tape.params), node.parents, node.backward_rule))
        return node

    monkeypatch.setattr(Tape, "_record", spying)
    if call == "evaluate_accuracy":
        tensors = {g.index: precompute_tensors(g, config.n, config.s) for g in graphs}
        evaluate_accuracy(model, tensors, [g.index for g in graphs], 0.5, config)
    else:
        explain_graph(model, config, graphs[0], 0.5)
    assert seen
    assert all(entry == (0, 0, (), None) for entry in seen)


@pytest.mark.parametrize("seed", range(12))
def test_precompute_matches_per_subgraph_reference(seed):
    # Graphs of 1..13 nodes against n=8, s=5: small ones wrap the root
    # ranking, and sparse ones have components smaller than s.
    rng = np.random.default_rng(900 + seed)
    graph = random_graph(rng, int(rng.integers(1, 14)), float(rng.uniform(0.05, 0.5)))
    tensors = precompute_tensors(graph, 8, 5)
    want = precompute_reference(graph, 8, 5)
    got = {
        "prop_blocks": tensors.prop_blocks,
        "feats": tensors.feats,
        "mask": tensors.subgraph_set.mask,
        "overlap": tensors.subgraph_set.overlap,
    }
    for name, array in want.items():
        assert got[name].dtype == array.dtype, name
        assert got[name].shape == array.shape, name
        assert got[name].tobytes() == array.tobytes(), name


def test_divergence_names_fold_epoch_and_batch(dataset):
    config = tiny_config(lr=10.0, l2=0.0, epochs=3, seed=0)
    plan = make_folds(dataset, config.seed, config.fold_count)
    with pytest.raises(TrainingDiverged, match=r"fold 1, epoch \d+, batch \d+: "):
        train_fold(dataset, plan, 1, config)


@pytest.mark.filterwarnings("error")
def test_divergence_is_reported_without_numpy_warnings(dataset):
    config = tiny_config(lr=10.0, l2=0.0, epochs=3, seed=0)
    plan = make_folds(dataset, config.seed, config.fold_count)
    with pytest.raises(TrainingDiverged, match="not finite"):
        train_fold(dataset, plan, 1, config)


def test_zero_projection_vector_is_redrawn_before_training(dataset, monkeypatch):
    """A zero ``pool.p`` scores nothing and its norm has no gradient, so an
    epoch that finds one draws a new one first."""
    import subsketch.trainer as trainer

    original = trainer.init_model

    def zeroed(*args):
        model = original(*args)
        model["pool.p"][:] = 0.0
        return model

    monkeypatch.setattr(trainer, "init_model", zeroed)
    config = tiny_config(epochs=1, seed=0)
    plan = make_folds(dataset, config.seed, config.fold_count)
    result = train_fold(dataset, plan, 0, config)
    assert np.isfinite(result.trajectory[-1]["loss"])
    assert np.linalg.norm(result.model["pool.p"]) > 0


def test_vote_loss_stays_finite_when_true_class_votes_underflow(dataset):
    # Every subgraph puts the true class 0 about 1000 below class 1, so each
    # graph's vote for it is 0.0 in probability space.
    config = tiny_config(variant="no_mi", l2=0.0)
    graphs = dataset[:4]
    tensors = [precompute_tensors(g, config.n, config.s) for g in graphs]
    model = init_model(np.random.default_rng(0), 4, 2, config)
    model["classifier.b"][:] = [[0.0, 1000.0]]
    tape = Tape(training=False)
    bound = bind_model(model, tape)
    result = batch_forward(bound, tensors, [0] * len(graphs), 0.5, config, tape)
    logits = result.z_primes.value @ model["classifier.w"] + model["classifier.b"]
    margins = logits[:, 1] - logits[:, 0]
    assert margins.min() >= 800.0
    assert np.all(result.graph_dists.value[:, 0] == 0.0)

    grads = tape.backward(result.loss)
    loss = result.loss.value[0, 0]
    assert margins.min() <= loss <= margins.max()
    assert all(np.isfinite(g).all() for g in grads.values())
    # All of the vote's gradient moves the bias from class 1 to class 0.
    np.testing.assert_allclose(grads[bound["classifier.b"]], [[-1.0, 1.0]], rtol=1e-12)


def test_non_finite_gradient_stops_training(dataset, monkeypatch):
    backward = Tape.backward

    def poisoned(tape, loss):
        return {node: np.full_like(g, np.nan) for node, g in backward(tape, loss).items()}

    monkeypatch.setattr(Tape, "backward", poisoned)
    config = tiny_config(epochs=1, seed=0)
    plan = make_folds(dataset, config.seed, config.fold_count)
    with pytest.raises(TrainingDiverged, match="fold 0, epoch 0, batch 0: .*not finite"):
        train_fold(dataset, plan, 0, config)


@pytest.mark.parametrize("variant", ["full", "mi_corrupt"])
def test_nan_in_an_unselected_subgraph_stops_training(dataset, variant):
    # The encoder's backward skips subgraphs that top-k left out; a NaN in
    # one must still reach the weight gradients, as 0 * NaN does in the
    # unfused op chain, even though the loss never reads that subgraph.
    config = tiny_config(variant=variant, n=6, s=4, epochs=1, seed=0)
    plan = make_folds(dataset, config.seed, config.fold_count)
    train_ids, _ = plan.split(0)
    tensors = {g.index: precompute_tensors(g, config.n, config.s) for g in dataset}
    tensors[train_ids[0]].prop_blocks[2, 0, 0] = np.nan
    batch = [tensors[i] for i in train_ids[:4]]
    tape = Tape(training=True)
    bound = bind_model(init_model(np.random.default_rng(0), 4, 2, config), tape)
    result = batch_forward(
        bound, batch, [t.graph.label for t in batch], config.k0, config, tape,
        rng=np.random.default_rng(1), corrupt_rng=np.random.default_rng(2),
    )
    assert np.isnan(result.values.value[2, 0])
    assert 2 not in result.selected[0]  # a NaN score ranks last
    assert np.isfinite(result.loss.value).all()
    grads = tape.backward(result.loss)
    assert not all(np.isfinite(g).all() for g in grads.values())
    with pytest.raises(TrainingDiverged, match="not finite"):
        train_fold(dataset, plan, 0, config, tensors)


def test_single_graph_batch_rejected_for_alternative_negatives(dataset):
    config = tiny_config(variant="full", dropout=0.0)
    tensor = precompute_tensors(dataset[0], config.n, config.s)
    tape = Tape(training=False)
    bound = bind_model(init_model(np.random.default_rng(0), 4, 2, config), tape)
    with pytest.raises(ConfigError, match="at least 2 graphs"):
        batch_forward(bound, [tensor], [0], 0.5, config, tape)


def test_no_mi_forward_has_no_mi_term(dataset):
    config = tiny_config(variant="no_mi")
    tensors = [precompute_tensors(g, config.n, config.s) for g in dataset[:2]]
    tape = Tape(training=False)
    bound = bind_model(init_model(np.random.default_rng(0), 4, 2, config), tape)
    result = batch_forward(bound, tensors, [0, 1], 0.5, config, tape)
    assert result.mi is None


def test_fixed_k_with_full_ratio_never_drops(dataset):
    config = tiny_config(variant="fixed_k", k0=1.0, epochs=3, seed=2)
    plan = make_folds(dataset, config.seed, config.fold_count)
    result = train_fold(dataset, plan, 0, config)
    assert all(row["k"] == 1.0 for row in result.trajectory)
    assert all(row["reward"] is None for row in result.trajectory)
    assert all(row["terminated"] for row in result.trajectory)
    assert result.final_k == 1.0


def test_early_stop_armed_only_when_frozen(dataset):
    # Frozen from the start, lr=0, and no batch-dependent MI term: the loss
    # is bit-identical every epoch, so it never improves after epoch 0.
    config = tiny_config(
        variant="fixed_k", lr=0.0, beta=0.0, patience=3, epochs=50, seed=0, dropout=0.0
    )
    plan = make_folds(dataset, config.seed, config.fold_count)
    result = train_fold(dataset, plan, 0, config)
    assert len(result.trajectory) == 4  # epochs 0..3, stop at patience

    # Same setup but with an active agent: no stop before the 10-epoch
    # history even exists, despite the stale loss.
    config2 = tiny_config(
        variant="full", lr=0.0, beta=0.0, patience=3, epochs=14, seed=0, dropout=0.0
    )
    result2 = train_fold(dataset, plan, 0, config2)
    assert len(result2.trajectory) >= 10


def test_stub_model_scores_class_proportion(dataset):
    config = tiny_config()
    tensors = {g.index: precompute_tensors(g, config.n, config.s) for g in dataset}
    model = init_model(np.random.default_rng(0), 4, 2, config)
    model["classifier.w"][:] = 0.0
    model["classifier.b"][:] = [[5.0, 0.0]]  # always vote class 0
    ids = [g.index for g in dataset]
    acc = evaluate_accuracy(model, tensors, ids, 0.5, config)
    want = sum(1 for g in dataset if g.label == 0) / len(dataset)
    assert acc == pytest.approx(want)


def test_cross_validate_report_statistics(dataset):
    config = tiny_config(epochs=2, fold_count=5, seed=4)
    report, results = cross_validate(dataset, config)
    assert len(report.fold_accuracies) == 5
    assert report.mean_accuracy == pytest.approx(np.mean(report.fold_accuracies))
    assert report.std_accuracy == pytest.approx(np.std(report.fold_accuracies))
    assert all(0.0 <= a <= 1.0 for a in report.fold_accuracies)
    assert len(report.trajectories) == 5
    assert report.wall_clock_seconds > 0
    assert all(r.test_accuracy is not None for r in results)


def test_training_is_reproducible(dataset):
    config = tiny_config(epochs=3, fold_count=5, seed=11)
    report_a, results_a = cross_validate(dataset, config)
    report_b, results_b = cross_validate(dataset, config)
    assert report_a.fold_accuracies == report_b.fold_accuracies
    assert report_a.trajectories == report_b.trajectories
    for ra, rb in zip(results_a, results_b):
        for name, arr in ra.model.registry().items():
            np.testing.assert_array_equal(arr, rb.model.registry()[name])


def test_identical_fold_accuracies_give_zero_std():
    from subsketch.trainer import RunReport

    report = RunReport([0.5, 0.5, 0.5], 0.5, 0.0, [], 1.0)
    assert report.std_accuracy == 0.0


def test_parallel_folds_match_sequential(dataset):
    config = tiny_config(epochs=2, fold_count=5, seed=6)
    seq_report, _ = cross_validate(dataset, config)
    par_report, _ = cross_validate(dataset, tiny_config(epochs=2, fold_count=5, seed=6, jobs=2))
    assert seq_report.fold_accuracies == par_report.fold_accuracies
    assert seq_report.trajectories == par_report.trajectories


def test_parallel_folds_share_one_precompute(dataset, monkeypatch):
    """With ``jobs > 1`` the parent samples every graph once and hands the
    tensors to the fold workers, which sample nothing themselves."""
    import subsketch.trainer as trainer

    calls = []
    original = trainer.precompute_tensors

    def counting(graph, n, s):
        calls.append(graph.index)
        return original(graph, n, s)

    monkeypatch.setattr(trainer, "precompute_tensors", counting)
    report, _ = cross_validate(dataset, tiny_config(epochs=1, fold_count=5, seed=6, jobs=2))
    assert len(report.fold_accuracies) == 5
    assert sorted(calls) == sorted(g.index for g in dataset)


def test_parallel_folds_send_the_graphs_once_per_worker(dataset, monkeypatch):
    """The fold payload goes to each of the 2 workers at most once, not
    with each of the 4 folds."""
    pickled = Counter()

    def counting_reduce(graph):
        pickled[graph.index] += 1
        return type(graph), tuple(getattr(graph, f.name) for f in fields(graph))

    monkeypatch.setattr(Graph, "__reduce__", counting_reduce)
    report, _ = cross_validate(dataset, tiny_config(epochs=1, fold_count=4, seed=6, jobs=2))
    assert len(report.fold_accuracies) == 4
    assert max(pickled.values(), default=0) <= 2


def test_jobs_above_the_fold_count_start_one_worker_per_fold(dataset, monkeypatch):
    """The pool forks all its workers at once, so ``jobs=8`` over 2 folds
    asks for 2.  An in-process stand-in records the request and starts no
    process."""
    import subsketch.trainer as trainer

    asked = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            asked.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(trainer, "ProcessPoolExecutor", InProcessPool)
    config = tiny_config(epochs=1, fold_count=2, seed=6)
    seq_report, _ = cross_validate(dataset, config)
    report, _ = cross_validate(dataset, replace(config, jobs=8))
    assert asked == [2]
    assert report.fold_accuracies == seq_report.fold_accuracies
    assert report.trajectories == seq_report.trajectories


def test_training_beats_majority_rate(dataset):
    config = TrainConfig(
        n=6, s=4, d1=8, d2=16, heads=2, batch_size=10, fold_count=5,
        epochs=80, seed=1, lr=0.05,
    )
    plan = make_folds(dataset, config.seed, config.fold_count)
    result = train_fold(dataset, plan, 0, config)
    late = [row["train_acc"] for row in result.trajectory[-10:]]
    assert np.mean(late) > 0.6  # majority rate is 0.5
