import numpy as np
import pytest

from subsketch.diffcore import Tape
from subsketch.encoder import (
    encode_subgraphs, propagation_matrix, propagation_values, subgraph_features,
)
from subsketch.sampler import sample_subgraphs
from subsketch.trainer import TrainConfig, bind_model, init_model

from _reference import (
    Encoder,
    SubgraphEntry,
    dense_propagation,
    encode_nodes,
    encoder_chain,
    entries_of,
    intra_attention,
    intra_attention_weights,
    subgraph_set_of,
)
from _synth import random_graph
from gradcheck import assert_grads_close, finite_diff_grads


def entry_for(adjacency, real, central=0):
    s = adjacency.shape[0]
    mask = np.zeros(s, dtype=bool)
    mask[:real] = True
    return SubgraphEntry(
        central_node=central,
        node_ids=tuple(range(real)),
        local_adjacency=adjacency.astype(float),
        mask=mask,
    )


def bind_arrays(tape, layer_weights, w_intra, a_intra):
    return Encoder(
        layer_weights=tuple(tape.param(w) for w in layer_weights),
        w_intra=tape.param(w_intra),
        a_intra=tape.param(a_intra),
    )


def test_zero_weights_give_zero_output():
    entry = entry_for(np.array([[0.0, 1.0], [1.0, 0.0]]), real=2)
    feats = np.array([[1.0, 2.0], [3.0, 4.0]])
    tape = Tape()
    bound = bind_arrays(tape, [np.zeros((2, 3)), np.zeros((3, 3))], np.eye(3), np.ones((3, 1)))
    h = encode_nodes(entry, feats, bound, tape)
    np.testing.assert_array_equal(h.value, np.zeros((2, 3)))


def test_single_node_single_layer_hand_value():
    entry = entry_for(np.zeros((1, 1)), real=1)
    feats = np.array([[1.0]])
    tape = Tape()
    bound = bind_arrays(tape, [np.array([[0.7]])], np.eye(1), np.ones((1, 1)))
    h = encode_nodes(entry, feats, bound, tape)
    assert h.value[0, 0] == pytest.approx(np.tanh(0.7), abs=1e-12)


def gcn_oracle(entry, graph_features, layer_weights):
    """Per-node message loops over the real sub-block; independent of the tape."""
    k = len(entry.node_ids)
    a = entry.local_adjacency[:k, :k] + np.eye(k)
    deg = a.sum(axis=1)
    h = graph_features[list(entry.node_ids)].astype(float)
    for w in layer_weights:
        hw = h @ w
        nxt = np.zeros((k, w.shape[1]))
        for i in range(k):
            for j in range(k):
                if a[i, j]:
                    nxt[i] += hw[j] / np.sqrt(deg[i] * deg[j])
        h = np.tanh(nxt)
    padded = np.zeros((entry.mask.shape[0], h.shape[1]))
    padded[:k] = h
    return padded


@pytest.mark.parametrize("seed", range(4))
def test_matches_dense_message_oracle(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, num_nodes=10, edge_prob=0.35)
    entry = entries_of(sample_subgraphs(g, n=1, s=4))[0]
    weights = [rng.standard_normal((2, 5)), rng.standard_normal((5, 5))]
    tape = Tape()
    bound = bind_arrays(tape, weights, np.eye(5), np.ones((5, 1)))
    h = encode_nodes(entry, g.features, bound, tape)
    assert np.max(np.abs(h.value - gcn_oracle(entry, g.features, weights))) <= 1e-10


def expand(codes):
    """The float64 blocks that ``trainer.batch_forward`` reads from codes."""
    return np.take(propagation_values(codes.shape[-1]), codes)


@pytest.mark.parametrize("seed", range(3))
def test_bool_adjacency_gives_the_float_adjacency_bits(seed):
    g = random_graph(np.random.default_rng(60 + seed), num_nodes=9, edge_prob=0.3)
    ss = sample_subgraphs(g, n=4, s=5)
    want = dense_propagation(ss.adjacency.astype(np.float64), ss.mask)
    assert expand(propagation_matrix(ss.adjacency, ss.mask)).tobytes() == want.tobytes()


def every_degree_pair(s):
    """(s*s - 2s + 3, s, s) bool adjacency and mask holding every degree pair
    of ``A + I`` that can occur at s: one subgraph per pair (a, b) in 2..s,
    whose nodes 0 and 1 are linked with degrees a and b; then one edgeless
    subgraph, all pairs (1, 1); and one whose real node is followed by
    pads."""
    blocks = []
    for a in range(2, s + 1):
        for b in range(2, s + 1):
            adjacency = np.zeros((s, s), dtype=bool)
            adjacency[0, 1:a] = adjacency[1:a, 0] = True
            adjacency[1, 2:b] = adjacency[2:b, 1] = True
            blocks.append(adjacency)
    blocks += [np.zeros((s, s), dtype=bool)] * 2
    mask = np.ones((len(blocks), s), dtype=bool)
    mask[-1, 1:] = False
    return np.stack(blocks), mask


@pytest.mark.parametrize("s", [1, 2, 5, 8, 15, 16, 17])
def test_propagation_codes_expand_to_the_dense_bits(s):
    rng = np.random.default_rng(s)
    cases = [every_degree_pair(s)]
    for num_nodes, edge_prob in ((s + 3, 0.3), (2 * s, 0.6), (max(s // 2, 1), 0.5)):
        ss = sample_subgraphs(random_graph(rng, num_nodes, edge_prob), n=6, s=s)
        cases.append((ss.adjacency, ss.mask))
    for adjacency, mask in cases:
        codes = propagation_matrix(adjacency, mask)
        assert codes.shape == adjacency.shape
        want = dense_propagation(adjacency.astype(np.float64), mask)
        assert expand(codes).tobytes() == want.tobytes()
    # Every code a subgraph can hold: the isolated pair (1, 1), the pairs of
    # linked degrees 2..s, and 0 beside a pad once s > 1.
    linked = {1 + (a - 1) * s + (b - 1) for a in range(2, s + 1) for b in range(2, s + 1)}
    reachable = {1} | linked | ({0} if s > 1 else set())
    assert set(np.unique(propagation_matrix(*cases[0])).tolist()) == reachable


@pytest.mark.parametrize("s, dtype", [(15, np.uint8), (16, np.uint16)])
def test_code_dtype_holds_the_top_code(s, dtype):
    # The top code s*s is two nodes of degree s; at s = 16 it is 256, which
    # a uint8 would wrap to 0, the code of an entry off A + I.
    complete = ~np.eye(s, dtype=bool)[None]
    codes = propagation_matrix(complete, np.ones((1, s), dtype=bool))
    assert codes.dtype == dtype
    assert (codes == s * s).all()
    assert expand(codes).tobytes() == dense_propagation(complete, np.ones((1, s))).tobytes()


def test_padded_rows_stay_zero():
    adjacency = np.zeros((4, 4))
    adjacency[0, 1] = adjacency[1, 0] = 1.0
    entry = entry_for(adjacency, real=2)
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    rng = np.random.default_rng(0)
    tape = Tape()
    bound = bind_arrays(
        tape,
        [rng.standard_normal((2, 3)), rng.standard_normal((3, 3))],
        np.eye(3),
        np.ones((3, 1)),
    )
    h = encode_nodes(entry, feats, bound, tape)
    np.testing.assert_array_equal(h.value[2:], np.zeros((2, 3)))
    codes = propagation_matrix(entry.local_adjacency > 0, entry.mask)
    np.testing.assert_array_equal(codes, codes.T)
    np.testing.assert_array_equal(codes[2:], 0)
    np.testing.assert_array_equal(codes[:, 2:], 0)
    cats = subgraph_features(subgraph_set_of([entry]), np.array([1, 0], dtype=np.intp))
    assert cats.dtype == np.intp
    np.testing.assert_array_equal(cats, [1, 0, 0, 0])


def test_attention_single_real_node_returns_its_row():
    entry = entry_for(np.zeros((3, 3)), real=1)
    rng = np.random.default_rng(1)
    tape = Tape()
    bound = bind_arrays(
        tape, [np.eye(2)], rng.standard_normal((2, 2)), rng.standard_normal((2, 1))
    )
    h = tape.constant(np.array([[0.3, -0.7], [9.0, 9.0], [9.0, 9.0]]))
    z = intra_attention(h, entry.mask, bound, tape)
    np.testing.assert_allclose(z.value, [[0.3, -0.7]], atol=1e-12)


def test_attention_identical_rows_average_to_that_row():
    entry = entry_for(np.zeros((3, 3)), real=3)
    rng = np.random.default_rng(2)
    tape = Tape()
    bound = bind_arrays(
        tape, [np.eye(2)], rng.standard_normal((2, 2)), rng.standard_normal((2, 1))
    )
    h = tape.constant(np.tile([[0.5, -1.5]], (3, 1)))
    z = intra_attention(h, entry.mask, bound, tape)
    np.testing.assert_allclose(z.value, [[0.5, -1.5]], atol=1e-12)
    w = intra_attention_weights(h, entry.mask, bound, tape)
    np.testing.assert_allclose(w.value, np.full((1, 3), 1 / 3), atol=1e-12)


def test_attention_hand_evaluation():
    h_rows = np.array([[0.2, 0.0, 0.0], [0.0, 0.4, 0.0], [-0.3, 0.1, 0.0]])
    mask = np.array([True, True, True])
    tape = Tape()
    bound = bind_arrays(tape, [np.eye(3)], np.eye(3), np.array([[1.0], [0.0], [0.0]]))
    z = intra_attention(tape.constant(h_rows), mask, bound, tape)
    # Direct evaluation: logits tanh(first column), softmax, weighted row sum.
    logits = np.tanh(h_rows[:, 0])
    weights = np.exp(logits) / np.exp(logits).sum()
    np.testing.assert_allclose(z.value, (weights[:, None] * h_rows).sum(0, keepdims=True), atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_weights_normalized_and_masked(seed):
    rng = np.random.default_rng(seed)
    entry = entry_for((lambda a: a + a.T)(np.triu(rng.random((5, 5)) < 0.4, 1).astype(float)), real=3)
    tape = Tape()
    bound = bind_arrays(
        tape,
        [rng.standard_normal((2, 4)), rng.standard_normal((4, 4))],
        rng.standard_normal((4, 4)),
        rng.standard_normal((4, 1)),
    )
    h = encode_nodes(entry, rng.standard_normal((3, 2)), bound, tape)
    w = intra_attention_weights(h, entry.mask, bound, tape).value
    assert abs(w.sum() - 1.0) <= 1e-9
    np.testing.assert_array_equal(w[0, 3:], [0.0, 0.0])

    z = intra_attention(h, entry.mask, bound, tape).value
    real = h.value[:3]
    assert np.all(z[0] <= real.max(axis=0) + 1e-12)
    assert np.all(z[0] >= real.min(axis=0) - 1e-12)


def test_all_masked_rejected():
    entry = entry_for(np.zeros((2, 2)), real=0)
    tape = Tape()
    bound = bind_arrays(tape, [np.eye(2)], np.eye(2), np.ones((2, 1)))
    with pytest.raises(ValueError, match="at least one real node"):
        intra_attention(tape.constant(np.zeros((2, 2))), entry.mask, bound, tape)


@pytest.mark.parametrize("seed", range(6))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(40 + seed)
    g = random_graph(rng, num_nodes=9, edge_prob=0.3)
    entry = entries_of(sample_subgraphs(g, n=2, s=4))[1]
    weighting = rng.standard_normal((1, 3))
    arrays = [
        rng.standard_normal((2, 3)) * 0.6,
        rng.standard_normal((3, 3)) * 0.6,
        rng.standard_normal((3, 3)) * 0.6,
        rng.standard_normal((3, 1)) * 0.6,
    ]

    def build(arrs):
        tape = Tape(training=False)
        nodes = [tape.param(a) for a in arrs]
        bound = Encoder(
            layer_weights=tuple(nodes[:2]), w_intra=nodes[2], a_intra=nodes[3]
        )
        h = encode_nodes(entry, g.features, bound, tape)
        z = intra_attention(h, entry.mask, bound, tape)
        loss = tape.sum(tape.mul(z, tape.constant(weighting)))
        return tape, loss, nodes

    tape, loss, nodes = build(arrays)
    grads = tape.backward(loss)
    got = [grads[node] for node in nodes]
    want = finite_diff_grads(lambda arrs: build(arrs)[1].value[0, 0], arrays)
    assert_grads_close(got, want, tol=1e-4)


def test_init_shapes_and_binding():
    model = init_model(np.random.default_rng(0), 7, 2, TrainConfig(d1=16))
    assert model["encoder.layer0"].shape == (7, 16)
    assert model["encoder.layer1"].shape == (16, 16)
    assert model["encoder.w_intra"].shape == (16, 16)
    assert model["encoder.a_intra"].shape == (16, 1)
    tape = Tape()
    bound = bind_model(model, tape)
    assert bound["encoder.layer0"].value is model["encoder.layer0"]
    assert all(node.is_param for node in tape.params)


def test_dropout_only_between_layers_in_training():
    entry = entry_for(np.zeros((1, 1)), real=1)
    feats = np.array([[1.0]])
    params = ([np.array([[1.0]]), np.array([[1.0]])], np.eye(1), np.ones((1, 1)))
    eval_tape = Tape(training=False)
    h_eval = encode_nodes(
        entry, feats, bind_arrays(eval_tape, *params), eval_tape, dropout_rate=0.5,
        rng=np.random.default_rng(0),
    )
    # Evaluation mode ignores dropout entirely.
    assert h_eval.value[0, 0] == pytest.approx(np.tanh(np.tanh(1.0)), abs=1e-12)

    dropped = one = 0
    for seed in range(40):
        tape = Tape(training=True)
        h = encode_nodes(
            entry, feats, bind_arrays(tape, *params), tape, dropout_rate=0.5,
            rng=np.random.default_rng(seed),
        )
        val = h.value[0, 0]
        if val == 0.0:
            dropped += 1
        else:
            # Kept units are rescaled by 1/(1-rate) = 2 before the second layer.
            assert val == pytest.approx(np.tanh(2.0 * np.tanh(1.0)), abs=1e-12)
            one += 1
    assert dropped > 5 and one > 5


# ------------------------------------------------ the fused subgraph encoder


def _encoder_inputs(seed, graphs=3, n=6, s=4, d=5):
    """Stacked constants of a few small graphs (some with pad rows) and
    random ``layer0``, ``layer1`` and ``direction`` arrays."""
    rng = np.random.default_rng(seed)
    sets = [
        sample_subgraphs(random_graph(rng, int(rng.integers(3, 12)), 0.3), n, s)
        for _ in range(graphs)
    ]
    cats = int(rng.integers(2, 5))
    prop = np.concatenate([expand(propagation_matrix(ss.adjacency, ss.mask)) for ss in sets])
    feats = np.concatenate([
        subgraph_features(ss, rng.integers(0, cats, size=ss.nodes.max() + 1)) for ss in sets
    ])
    real = np.concatenate([ss.mask for ss in sets])
    arrays = [
        rng.standard_normal((cats, d)) * 0.7,
        rng.standard_normal((d, d)) * 0.7,
        rng.standard_normal((d, 1)) * 0.7,
    ]
    return prop, feats, real, arrays


def _upstream(rng, m, d, dead):
    """An embedding gradient whose rows in ``dead`` are +0 or -0."""
    g = rng.standard_normal((m, d))
    g[dead] = 0.0
    g[dead[::2]] = -0.0
    return g


def _run_encoder(encode, arrays, prop, feats, real, g, dropout, record):
    tape = Tape(training=dropout > 0.0, record=record)
    nodes = [tape.param(a) for a in arrays]
    emb, weights = encode(
        tape, *nodes, prop, feats, real, dropout, np.random.default_rng(9)
    )
    weights = weights if isinstance(weights, np.ndarray) else weights.value
    if not record:
        return emb.value, weights, None
    grads = tape.backward(tape.sum(tape.mul(emb, tape.constant(g))))
    return emb.value, weights, [grads[node] for node in nodes]


@pytest.mark.parametrize("dead", ["none", "half", "all but one", "all"])
@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("seed", range(3))
def test_fused_encoder_matches_the_op_chain_bit_for_bit(seed, dropout, record, dead):
    prop, feats, real, arrays = _encoder_inputs(70 + seed)
    m, d = prop.shape[0], arrays[0].shape[1]
    rng = np.random.default_rng(seed)
    dead_rows = {
        "none": np.array([], dtype=np.intp),
        "half": np.sort(rng.permutation(m)[: m // 2]),
        "all but one": np.delete(np.arange(m), int(rng.integers(m))),
        "all": np.arange(m),
    }[dead]
    g = _upstream(rng, m, d, dead_rows)
    want = _run_encoder(encoder_chain, arrays, prop, feats, real, g, dropout, record)
    got = _run_encoder(encode_subgraphs, arrays, prop, feats, real, g, dropout, record)
    for name, w, x in zip(("embeddings", "intra weights"), want, got):
        assert x.shape == w.shape and x.tobytes() == w.tobytes(), name
    if record:
        for name, w, x in zip(("layer0", "layer1", "direction"), want[2], got[2]):
            assert x.shape == w.shape and x.tobytes() == w.tobytes(), name


def test_fused_encoder_backward_sees_non_finite_dead_subgraphs():
    # A NaN in a subgraph with a zero embedding gradient poisons the op
    # chain's weight gradients through 0 * NaN; the fused op must not hide it.
    prop, feats, real, arrays = _encoder_inputs(80)
    m, d = prop.shape[0], arrays[0].shape[1]
    prop[m - 2, 0, 0] = np.nan
    g = _upstream(np.random.default_rng(0), m, d, np.arange(m // 2, m))
    _, _, want = _run_encoder(encoder_chain, arrays, prop, feats, real, g, 0.5, True)
    _, _, got = _run_encoder(encode_subgraphs, arrays, prop, feats, real, g, 0.5, True)
    for w, x in zip(want, got):
        assert not np.isfinite(w).all()
        np.testing.assert_array_equal(x, w)


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("seed", range(3))
def test_fused_encoder_gradients_match_finite_differences(seed, dropout):
    prop, feats, real, arrays = _encoder_inputs(90 + seed, graphs=2, n=3, s=4, d=3)
    m, d = prop.shape[0], arrays[0].shape[1]
    rng = np.random.default_rng(seed)
    g = _upstream(rng, m, d, np.array([1, m - 1]))

    def loss(arrs):
        tape = Tape(training=dropout > 0.0, record=False)
        emb, _ = encode_subgraphs(
            tape, *(tape.param(a) for a in arrs), prop, feats, real, dropout,
            np.random.default_rng(9),
        )
        return float((emb.value * g).sum())

    _, _, got = _run_encoder(encode_subgraphs, arrays, prop, feats, real, g, dropout, True)
    assert_grads_close(got, finite_diff_grads(loss, arrays), tol=1e-4)
