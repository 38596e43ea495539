import numpy as np
import pytest

from subsketch.diffcore import MASK_OFF, Tape
from subsketch.errors import ConfigError
from subsketch.pooling import rank_topk, selection_count
from subsketch.sampler import SketchedGraph, build_sketched_graph, sample_subgraphs
from subsketch.sketch_mi import attention_mask, corrupt, inter_attention_with_mask, mi_loss
from subsketch.trainer import TrainConfig, bind_model, init_model

from _reference import bilinear_logits, inter_attention, inter_attention_details, readout
from _synth import random_graph
from gradcheck import assert_grads_close, finite_diff_grads


def sketch_of(m, edges=()):
    adjacency = np.zeros((m, m))
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 1.0
    return SketchedGraph(supernodes=tuple(range(m)), adjacency=adjacency)


def bind_arrays(tape, w_list, a_list):
    """Each head's (w, a) as parameter nodes: every w first, then every a."""
    ws = [tape.param(w) for w in w_list]
    return list(zip(ws, [tape.param(a) for a in a_list]))


def test_single_supernode_passes_through_projection():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((3, 2))
    tape = Tape()
    bound = bind_arrays(tape, [w], [rng.standard_normal((6, 1))])
    zs = tape.constant(np.array([[0.4, -1.2]]))
    out = inter_attention(sketch_of(1), zs, bound, tape)
    np.testing.assert_allclose(out.value, zs.value @ w.T, atol=1e-12)


def test_identical_supernodes_get_identical_outputs():
    rng = np.random.default_rng(1)
    tape = Tape()
    bound = bind_arrays(tape, [rng.standard_normal((4, 3))], [rng.standard_normal((8, 1))])
    zs = tape.constant(np.tile([[0.2, 0.5, -0.3]], (2, 1)))
    out = inter_attention(sketch_of(2, [(0, 1)]), zs, bound, tape)
    np.testing.assert_allclose(out.value[0], out.value[1], atol=1e-12)


def gat_oracle(adjacency_with_self, zs, w_list, a_list, slope=0.2):
    """Per-pair concatenation evaluation, later averaged over heads."""
    m = zs.shape[0]
    heads = []
    for w, a in zip(w_list, a_list):
        projected = zs @ w.T
        logits = np.full((m, m), -np.inf)
        for i in range(m):
            for j in range(m):
                if adjacency_with_self[i, j]:
                    raw = float(a[:, 0] @ np.concatenate([projected[i], projected[j]]))
                    logits[i, j] = raw if raw > 0 else slope * raw
        alpha = np.exp(logits - logits.max(axis=1, keepdims=True))
        alpha /= alpha.sum(axis=1, keepdims=True)
        heads.append(alpha @ projected)
    return sum(heads) / len(heads)


@pytest.mark.parametrize("seed", range(4))
def test_matches_pairwise_concatenation_oracle(seed):
    rng = np.random.default_rng(10 + seed)
    sk = sketch_of(4, [(0, 1), (1, 2), (0, 3)])
    zs_value = rng.standard_normal((4, 3))
    w_list = [rng.standard_normal((5, 3)) for _ in range(2)]
    a_list = [rng.standard_normal((10, 1)) for _ in range(2)]
    tape = Tape()
    bound = bind_arrays(tape, w_list, a_list)
    out = inter_attention(sk, tape.constant(zs_value), bound, tape)
    want = gat_oracle(sk.adjacency + np.eye(4), zs_value, w_list, a_list)
    assert np.max(np.abs(out.value - want)) <= 1e-10


def test_coefficients_normalized_per_head():
    rng = np.random.default_rng(5)
    sk = sketch_of(5, [(0, 1), (2, 3), (3, 4)])
    tape = Tape()
    bound = bind_arrays(
        tape,
        [rng.standard_normal((4, 3)) for _ in range(3)],
        [rng.standard_normal((8, 1)) for _ in range(3)],
    )
    _, alphas = inter_attention_details(
        sk, tape.constant(rng.standard_normal((5, 3))), bound, tape
    )
    assert len(alphas) == 3
    allowed = sk.adjacency + np.eye(5)
    for alpha in alphas:
        np.testing.assert_allclose(alpha.value.sum(axis=1), np.ones(5), atol=1e-9)
        assert np.all(alpha.value[allowed == 0] == 0.0)


def dense_batch_attention(additive_mask, zs, bound, tape):
    """Reference: every graph's supernodes in one (sum m')^2 attention matrix,
    cross-graph pairs switched off by a block-diagonal MASK_OFF mask."""
    rows = zs.shape[0]
    mask = tape.constant(additive_mask)
    ones_row = tape.constant(np.ones((1, rows)))
    ones_col = tape.constant(np.ones((rows, 1)))
    heads = []
    for w, a in bound:
        d2 = w.shape[0]
        projected = tape.matmul(zs, tape.transpose(w))
        src = tape.matmul(projected, tape.take_rows(a, list(range(d2))))
        dst = tape.matmul(projected, tape.take_rows(a, list(range(d2, 2 * d2))))
        logits = tape.leaky_relu(
            tape.add(tape.matmul(src, ones_row), tape.matmul(ones_col, tape.transpose(dst)))
        )
        alpha = tape.softmax_rows(tape.add(logits, mask))
        heads.append(tape.matmul(alpha, projected))
    total = heads[0]
    for extra in heads[1:]:
        total = tape.add(total, extra)
    return tape.scale(total, 1.0 / len(heads))


@pytest.mark.parametrize("seed", range(3))
def test_batched_attention_matches_dense_block_diagonal_reference(seed):
    rng = np.random.default_rng(40 + seed)
    m, d1, d2 = 4, 3, 5
    sketches = [
        sketch_of(m),  # isolated supernodes
        sketch_of(m, [(0, 1), (1, 2), (2, 3)]),  # path
        sketch_of(m, [(i, j) for i in range(m) for j in range(i + 1, m)]),  # complete
        sketch_of(m, [(0, 2), (1, 3)]),
    ]
    rows = m * len(sketches)
    zs_value = rng.standard_normal((rows, d1))
    w_list = [rng.standard_normal((d2, d1)) for _ in range(2)]
    a_list = [rng.standard_normal((2 * d2, 1)) for _ in range(2)]
    weighting = rng.standard_normal((rows, d2))
    dense_mask = np.full((rows, rows), MASK_OFF)
    for b, sk in enumerate(sketches):
        dense_mask[b * m : (b + 1) * m, b * m : (b + 1) * m] = attention_mask(sk)

    def run(attend, mask):
        tape = Tape()
        bound = bind_arrays(tape, w_list, a_list)
        zs = tape.param(zs_value)
        out = attend(mask, zs, bound, tape)
        if isinstance(out, tuple):
            out = out[0]
        grads = tape.backward(tape.sum(tape.mul(out, tape.constant(weighting))))
        nodes = [zs, *(w for w, _ in bound), *(a for _, a in bound)]
        return out.value, [grads[node] for node in nodes]

    batched_mask = np.vstack([attention_mask(sk) for sk in sketches])
    assert batched_mask.shape == (rows, m)
    got, got_grads = run(inter_attention_with_mask, batched_mask)
    want, want_grads = run(dense_batch_attention, dense_mask)
    assert np.max(np.abs(got - want)) <= 1e-12
    for g, w in zip(got_grads, want_grads):
        assert np.max(np.abs(g - w)) <= 1e-12


def test_batched_coefficients_stay_inside_each_graph():
    rng = np.random.default_rng(7)
    sketches = [sketch_of(3), sketch_of(3, [(0, 1), (0, 2), (1, 2)])]
    tape = Tape()
    bound = bind_arrays(tape, [rng.standard_normal((4, 2))], [rng.standard_normal((8, 1))])
    mask = np.vstack([attention_mask(sk) for sk in sketches])
    _, alphas = inter_attention_with_mask(
        mask, tape.constant(rng.standard_normal((6, 2))), bound, tape
    )
    alpha = alphas[0].value
    assert alpha.shape == (6, 3)
    np.testing.assert_allclose(alpha[:3], np.eye(3), atol=1e-15)  # no sketch edges
    np.testing.assert_allclose(alpha.sum(axis=1), np.ones(6), atol=1e-12)
    assert np.all(alpha[3:] > 0.0)


@pytest.mark.parametrize("b_com", [0, 1, 2])
@pytest.mark.parametrize("num_nodes", [4, 6, 9, 14])
def test_selection_helpers_match_the_formulas_they_replaced(b_com, num_nodes):
    rng = np.random.default_rng(500 + num_nodes)
    graph = random_graph(rng, num_nodes, edge_prob=0.4)
    ss = sample_subgraphs(graph, n=8, s=4)  # below 8 nodes, node sets repeat
    values = np.round(rng.standard_normal(8), 1)
    values[[2, 5]] = values[0]  # a three-way tie
    for k in (0.1, 0.5, 0.75, 1.0):  # k = 0.1 keeps M = 1
        idx = rank_topk(values, k)
        want = np.argsort(-values, kind="stable")[: selection_count(k, 8)]
        assert idx == [int(i) for i in want] and all(type(i) is int for i in idx)
        linked = ss.overlap[np.ix_(want, want)] > b_com
        np.fill_diagonal(linked, False)
        sk = build_sketched_graph(ss, idx, b_com)
        assert sk.adjacency.dtype == bool and sk.adjacency.tobytes() == linked.tobytes()
        allowed = sk.adjacency + np.eye(len(idx))
        want_mask = np.where(allowed > 0, 0.0, MASK_OFF)
        assert attention_mask(sk).tobytes() == want_mask.tobytes()


def test_mask_must_tile_the_embeddings():
    tape = Tape()
    bound = bind_arrays(tape, [np.eye(2)], [np.ones((4, 1))])
    zs = tape.constant(np.ones((6, 2)))
    with pytest.raises(ValueError, match="does not fit"):
        inter_attention_with_mask(np.zeros((6, 4)), zs, bound, tape)
    with pytest.raises(ValueError, match="does not fit"):
        inter_attention_with_mask(np.zeros((4, 2)), zs, bound, tape)


def test_embedding_count_must_match_supernodes():
    tape = Tape()
    bound = bind_arrays(tape, [np.eye(2)], [np.ones((4, 1))])
    with pytest.raises(ValueError, match="supernodes"):
        inter_attention(sketch_of(3), tape.constant(np.ones((2, 2))), bound, tape)


def test_readout_single_row_identity():
    tape = Tape()
    z = tape.constant(np.array([[0.1, 0.9]]))
    np.testing.assert_allclose(readout(z, tape).value, [[0.1, 0.9]], atol=1e-12)


def test_readout_mean_and_permutation_invariance():
    tape = Tape()
    z = tape.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(readout(z, tape).value, [[0.5, 0.5]], atol=1e-12)
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((6, 4))
    base = readout(tape.constant(rows), tape).value
    for _ in range(5):
        perm = rng.permutation(6)
        again = readout(tape.constant(rows[perm]), tape).value
        np.testing.assert_allclose(again, base, atol=1e-12)


def logit(p):
    return float(np.log(p / (1 - p)))


def test_mi_loss_uninformative_is_ln2():
    tape = Tape()
    loss = mi_loss(
        tape.constant(np.zeros((3, 1))), tape.constant(np.zeros((3, 1))), tape
    )
    assert loss.value[0, 0] == pytest.approx(np.log(2.0), abs=1e-12)


def test_mi_loss_perfect_discrimination_vanishes():
    tape = Tape()
    loss = mi_loss(
        tape.constant(np.full((2, 1), 30.0)), tape.constant(np.full((2, 1), -30.0)), tape
    )
    assert 0.0 <= loss.value[0, 0] < 1e-12


def test_mi_loss_hand_arithmetic():
    tape = Tape()
    pos = tape.constant(np.array([[logit(0.9)], [logit(0.8)]]))
    neg = tape.constant(np.array([[logit(0.2)], [logit(0.1)]]))
    loss = mi_loss(pos, neg, tape)
    want = -0.25 * (np.log(0.9) + np.log(0.8) + np.log(0.8) + np.log(0.9))
    assert loss.value[0, 0] == pytest.approx(want, abs=1e-9)
    assert loss.value[0, 0] == pytest.approx(0.1643, abs=5e-5)


@pytest.mark.parametrize("seed", range(4))
def test_mi_loss_nonnegative_and_finite(seed):
    rng = np.random.default_rng(seed)
    tape = Tape()
    loss = mi_loss(
        tape.constant(rng.standard_normal((5, 1)) * 10),
        tape.constant(rng.standard_normal((4, 1)) * 10),
        tape,
    )
    value = loss.value[0, 0]
    assert np.isfinite(value) and value >= 0.0


@pytest.mark.parametrize("seed", range(5))
def test_mi_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(20 + seed)
    zp = rng.standard_normal((4, 3))
    r_own = rng.standard_normal((1, 3))
    r_other = rng.standard_normal((1, 3))
    w_mi = rng.standard_normal((3, 3)) * 0.5

    def build(arrs):
        tape = Tape(training=False)
        w = tape.param(arrs[0])
        pos = bilinear_logits(tape.constant(zp), tape.constant(r_own), w, tape)
        neg = bilinear_logits(tape.constant(zp), tape.constant(r_other), w, tape)
        return tape, mi_loss(pos, neg, tape), w

    tape, loss, w = build([w_mi])
    got = [tape.backward(loss)[w]]
    want = finite_diff_grads(lambda arrs: build(arrs)[1].value[0, 0], [w_mi])
    assert_grads_close(got, want, tol=1e-4)


def test_corrupt_single_node_unchanged():
    g = random_graph(np.random.default_rng(0), num_nodes=1, edge_prob=0.0)
    cats = np.asarray(g.node_labels)
    np.testing.assert_array_equal(corrupt(cats, np.random.default_rng(1)), cats)


def test_corrupt_identical_rows_unchanged():
    cats = np.zeros(4, dtype=np.intp)
    np.testing.assert_array_equal(corrupt(cats, np.random.default_rng(2)), cats)


def test_corrupt_preserves_multiset_and_adjacency():
    g = random_graph(np.random.default_rng(3), num_nodes=5, edge_prob=0.5)
    cats = np.asarray(g.node_labels)
    shuffled = corrupt(cats, np.random.default_rng(4))
    assert shuffled.shape == cats.shape
    assert sorted(shuffled) == sorted(cats)
    # The same draw as a permutation of the node ids: only categories move.
    np.testing.assert_array_equal(shuffled, cats[np.random.default_rng(4).permutation(5)])


def test_init_shapes():
    config = TrainConfig(d1=16, d2=96, heads=2)
    model = init_model(np.random.default_rng(0), 7, 2, config)
    assert all(model[f"sketch.w_inter{m}"].shape == (96, 16) for m in range(2))
    assert all(model[f"sketch.a_inter{m}"].shape == (192, 1) for m in range(2))
    assert "sketch.w_inter2" not in model
    assert model["sketch.w_mi"].shape == (96, 96)
    tape = Tape()
    bound = bind_model(model, tape)
    assert bound["sketch.w_mi"].is_param
    with pytest.raises(ConfigError):
        TrainConfig(heads=0)
