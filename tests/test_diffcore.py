import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsketch.diffcore import Tape, as_matrix

from _reference import vote_loss_chain
from gradcheck import assert_grads_close, finite_diff_grads, max_rel_err


def rand(rng, r, c):
    return rng.standard_normal((r, c))


# ---------------------------------------------------------------- basic ops


def test_matmul_identity():
    t = Tape()
    m = rand(np.random.default_rng(0), 3, 4)
    out = t.matmul(t.constant(np.eye(3)), t.constant(m))
    np.testing.assert_array_equal(out.value, m)


def test_matmul_hand_computed():
    t = Tape()
    out = t.matmul(t.constant([[1.0, 2.0], [3.0, 4.0]]), t.constant([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.value, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    t = Tape()
    a = t.constant(np.zeros((2, 3)))
    b = t.constant(np.zeros((4, 5)))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
        t.matmul(a, b)


def test_sigmoid_of_zero_is_half():
    t = Tape()
    out = t.sigmoid(t.constant(np.zeros((3, 3))))
    np.testing.assert_array_equal(out.value, np.full((3, 3), 0.5))


def test_add_zero_identity():
    t = Tape()
    m = rand(np.random.default_rng(1), 2, 5)
    out = t.add(t.constant(m), t.constant(np.zeros((2, 5))))
    np.testing.assert_array_equal(out.value, m)


def test_tanh_at_zero():
    t = Tape()
    assert t.tanh(t.constant([[0.0]])).value[0, 0] == 0.0


def test_log_domain_error():
    t = Tape()
    with pytest.raises(ValueError, match="log"):
        t.log(t.constant([[1.0, -2.0]]))


def test_as_matrix_rejects_non_2d():
    with pytest.raises(ValueError, match="2-D"):
        as_matrix(np.zeros(3))


# ---------------------------------------------------------------- softmax


def test_softmax_single_column_is_ones():
    t = Tape()
    out = t.softmax_rows(t.constant([[3.0], [-1.0], [0.2]]))
    np.testing.assert_array_equal(out.value, np.ones((3, 1)))


def test_softmax_uniform_on_ties():
    t = Tape()
    out = t.softmax_rows(t.constant([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.value, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_softmax_1_2_3():
    # independent exp-normalize evaluation
    x = np.array([1.0, 2.0, 3.0])
    want = np.exp(x) / np.exp(x).sum()
    t = Tape()
    out = t.softmax_rows(t.constant(x[None, :]))
    np.testing.assert_allclose(out.value[0], want, atol=1e-12)
    np.testing.assert_allclose(out.value[0], [0.0900, 0.2447, 0.6652], atol=1e-4)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
def test_softmax_rows_sum_to_one(seed, r, c):
    rng = np.random.default_rng(seed)
    t = Tape()
    out = t.softmax_rows(t.constant(10.0 * rand(rng, r, c)))
    np.testing.assert_allclose(out.value.sum(axis=1), np.ones(r), atol=1e-9)
    assert np.all(out.value > 0.0) and np.all(out.value <= 1.0)


# ---------------------------------------------------------------- backward


def test_backward_sum_gives_ones():
    t = Tape()
    w = t.param(rand(np.random.default_rng(4), 3, 2))
    grads = t.backward(t.sum(w))
    np.testing.assert_array_equal(grads[w], np.ones((3, 2)))


def test_backward_unreachable_param_gets_zero():
    t = Tape()
    w = t.param(rand(np.random.default_rng(5), 2, 2))
    p = t.param(rand(np.random.default_rng(6), 2, 2))
    grads = t.backward(t.sum(w))
    np.testing.assert_array_equal(grads[p], np.zeros((2, 2)))


def test_backward_rejects_non_scalar_loss():
    t = Tape()
    w = t.param(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        t.backward(t.add(w, w))


def test_backward_runs_once_and_frees_what_it_consumed():
    t = Tape()
    w = t.param(rand(np.random.default_rng(7), 3, 2))
    h = t.tanh(t.matmul(t.constant(np.ones((4, 3))), w))
    loss = t.sum(t.mul(h, h))
    grads = t.backward(loss)
    assert grads[w].shape == (3, 2) and w.grad is grads[w]
    others = [node for node in t.nodes if not node.is_param]
    assert all(node.grad is None and node.backward_rule is None for node in others)
    assert h.value.shape == (4, 2)  # values stay readable
    # A second pass would find no rules left and return zeros; it raises.
    with pytest.raises(ValueError, match="backward already ran"):
        t.backward(loss)
    assert w.grad is grads[w]


def test_backward_composite_bilinear_sigmoid():
    # loss = sigmoid(x^T W y); gradient on W vs finite differences
    rng = np.random.default_rng(7)
    x = rand(rng, 4, 1)
    y = rand(rng, 3, 1)
    w0 = rand(rng, 4, 3)

    def run(arrs):
        t = Tape()
        w = t.param(arrs[0])
        s = t.matmul(t.matmul(t.constant(x.T), w), t.constant(y))
        return t.sigmoid(s).value[0, 0]

    def run_grad(arrs):
        t = Tape()
        w = t.param(arrs[0])
        s = t.matmul(t.matmul(t.constant(x.T), w), t.constant(y))
        return [t.backward(t.sigmoid(s))[w]]

    assert_grads_close(run_grad([w0]), finite_diff_grads(run, [w0]))


def test_backward_accumulates_over_reuse():
    # z = w*w + w -> dz/dw = 2w + 1
    w0 = np.array([[1.5, -0.5]])
    t = Tape()
    w = t.param(w0)
    loss = t.sum(t.add(t.mul(w, w), w))
    grads = t.backward(loss)
    np.testing.assert_allclose(grads[w], 2 * w0 + 1, atol=1e-12)


# ------------------------------------------------- finite-difference suite

# Each entry builds the op under test inside a scalar loss
# sum(op(...) * C) with a fixed random weighting C so gradients are
# non-uniform. ``positive`` shifts inputs into the op's domain.


def _loss_for(op_name, t, inputs, extras):
    x = [t.param(a) for a in inputs]
    if op_name in ("matmul", "matmul_col"):
        y = t.matmul(x[0], x[1])
    elif op_name == "add":
        y = t.add(x[0], x[1])
    elif op_name == "mul":
        y = t.mul(x[0], x[1])
    elif op_name == "div":
        y = t.div(x[0], x[1])
    elif op_name == "neg":
        y = t.neg(x[0])
    elif op_name == "scale":
        y = t.scale(x[0], 1.7)
    elif op_name == "sigmoid":
        y = t.sigmoid(x[0])
    elif op_name == "tanh":
        y = t.tanh(x[0])
    elif op_name == "leaky_relu":
        y = t.leaky_relu(x[0])
    elif op_name == "log":
        y = t.log(x[0])
    elif op_name == "exp":
        y = t.exp(x[0])
    elif op_name == "sqrt":
        y = t.sqrt(x[0])
    elif op_name == "softplus":
        y = t.softplus(x[0])
    elif op_name == "softmax_rows":
        y = t.softmax_rows(x[0])
    elif op_name == "transpose":
        y = t.transpose(x[0])
    elif op_name == "reshape":
        y = t.reshape(x[0], 1, x[0].value.size)
    elif op_name == "sum":
        y = t.sum(x[0])
    elif op_name == "take_rows":
        y = t.take_rows(x[0], extras["idx"])
    elif op_name == "take_rows_range":
        y = t.take_rows(x[0], range(1, 3))
    elif op_name == "repeat_rows":
        y = t.repeat_rows(x[0], 2)
    elif op_name == "repeat_rows_shift":
        y = t.repeat_rows(x[0], 2, shift=1)
    elif op_name == "block_diag_matmul_node":
        y = t.block_diag_matmul(x[0], x[1])
    elif op_name == "rowblock_weighted_sum":
        y = t.rowblock_weighted_sum(x[0], x[1])
    elif op_name == "dropout":
        y = t.dropout(x[0], 0.4, np.random.default_rng(extras["seed"]))
    elif op_name == "rowdot":
        y = t.rowdot(x[0], x[1])
    elif op_name == "l2_penalty":
        y = t.l2_penalty(x, 0.3)
    elif op_name == "vote_nll":
        y = t.vote_nll(x[0], [2, 0, 1], 2)
    elif op_name.startswith(("add_", "mul_", "div_")):
        y = getattr(t, op_name[:3])(x[0], x[1])
    else:
        raise AssertionError(op_name)
    c = t.constant(extras["weighting"][: y.value.shape[0], : y.value.shape[1]])
    return t.sum(t.mul(y, c)), x


def _inputs_for(op_name, rng):
    if op_name == "matmul":
        return [rand(rng, 4, 5), rand(rng, 5, 3)]
    if op_name == "matmul_col":
        return [rand(rng, 4, 5), rand(rng, 5, 1)]
    if op_name in ("add", "mul", "rowblock_weighted_sum"):
        if op_name == "rowblock_weighted_sum":
            return [rand(rng, 3, 2), rand(rng, 6, 4)]
        return [rand(rng, 3, 4), rand(rng, 3, 4)]
    if op_name == "div":
        return [rand(rng, 3, 4), np.abs(rand(rng, 3, 4)) + 0.5]
    if op_name in ("log", "sqrt"):
        return [np.abs(rand(rng, 3, 4)) + 0.5]
    if op_name == "block_diag_matmul_node":
        return [rand(rng, 6, 2), rand(rng, 6, 4)]  # three 2x2 blocks
    if op_name == "rowdot":
        return [rand(rng, 3, 4), rand(rng, 3, 4)]
    if op_name == "l2_penalty":
        return [rand(rng, 3, 4), rand(rng, 2, 1), rand(rng, 1, 5)]
    if op_name == "vote_nll":
        return [2.0 * rand(rng, 6, 3)]  # three graphs of two rows, three classes
    if op_name.endswith(("_row", "_col")):
        # Second operand: one row repeated down, or one column repeated across.
        shape = (1, 4) if op_name.endswith("_row") else (3, 1)
        b = rand(rng, *shape)
        return [rand(rng, 3, 4), np.abs(b) + 0.5 if op_name.startswith("div") else b]
    return [rand(rng, 3, 4)]


DIFFERENTIABLE_OPS = [
    "matmul", "add", "mul", "div", "neg", "scale", "sigmoid", "tanh",
    "leaky_relu", "log", "exp", "sqrt", "softplus", "softmax_rows",
    "transpose", "reshape", "sum", "take_rows", "block_diag_matmul_node",
    "rowblock_weighted_sum", "dropout", "rowdot",
    "l2_penalty", "add_row", "add_col", "mul_row", "mul_col", "div_row",
    "div_col", "vote_nll", "matmul_col", "take_rows_range", "repeat_rows",
    "repeat_rows_shift",
]


@pytest.mark.parametrize("op_name", DIFFERENTIABLE_OPS)
def test_gradients_match_finite_differences(op_name):
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        inputs = _inputs_for(op_name, rng)
        extras = {
            "weighting": rand(rng, 16, 16),
            "idx": [2, 0, 2],
            "seed": seed,
        }

        def f(arrs):
            loss, _ = _loss_for(op_name, Tape(), [a.copy() for a in arrs], extras)
            return loss.value[0, 0]

        t = Tape()
        loss, xs = _loss_for(op_name, t, [a.copy() for a in inputs], extras)
        grads = t.backward(loss)
        assert_grads_close([grads[x] for x in xs], finite_diff_grads(f, inputs))


def test_block_diag_matmul_node_matches_dense_block_diagonal():
    rng = np.random.default_rng(4)
    blocks = rand(rng, 6, 2)  # three 2x2 blocks stacked by rows
    h = rand(rng, 6, 3)
    dense = np.zeros((6, 6))
    for i in range(3):
        dense[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = blocks[2 * i : 2 * i + 2]
    t = Tape()
    out = t.block_diag_matmul(t.constant(blocks), t.constant(h))
    np.testing.assert_allclose(out.value, dense @ h, atol=1e-14)


def test_block_diag_matmul_shape_errors():
    t = Tape()
    with pytest.raises(ValueError, match="block_diag_matmul mismatch"):
        t.block_diag_matmul(t.constant(np.ones((5, 2))), t.constant(np.ones((5, 3))))
    with pytest.raises(ValueError, match="block_diag_matmul mismatch"):
        t.block_diag_matmul(t.constant(np.ones((6, 2))), t.constant(np.ones((4, 3))))
    with pytest.raises(ValueError, match="block_diag_matmul mismatch"):
        t.block_diag_matmul(t.constant(np.ones((6, 0))), t.constant(np.ones((6, 3))))


# ------------------------------------------------ broadcasts, rowdot, L2


@pytest.mark.parametrize("op", ["add", "mul", "div"])
@pytest.mark.parametrize("shape", [(1, 3), (4, 1), (1, 1), (4, 3), (2, 3)])
def test_binary_ops_reject_shapes_that_are_not_a_row_or_column(op, shape):
    t = Tape()
    a = t.constant(np.ones((3, 4)))
    with pytest.raises(ValueError, match=rf"{op} shape mismatch: \(3, 4\) vs"):
        getattr(t, op)(a, t.constant(np.ones(shape)))


def test_binary_ops_broadcast_only_the_second_operand():
    t = Tape()
    with pytest.raises(ValueError, match="add shape mismatch"):
        t.add(t.constant(np.ones((1, 4))), t.constant(np.ones((3, 4))))


@pytest.mark.parametrize("shape", [(3, 4), (1, 4), (3, 1)])
def test_div_rejects_a_zero_denominator_in_every_layout(shape):
    t = Tape()
    b = np.full(shape, 2.0)
    b[-1, -1] = 0.0
    with pytest.raises(ValueError, match="div: zero entry in denominator"):
        t.div(t.constant(np.ones((3, 4))), t.constant(b))


@pytest.mark.parametrize("op", ["add", "mul", "div"])
@pytest.mark.parametrize("layout", ["row", "col", "scalar_row"])
def test_broadcasts_match_ones_matmul_bit_for_bit(op, layout):
    # A broadcast stands for a ones-matrix matmul: ones(r, 1) @ row, or
    # column @ ones(1, d).  Values and both gradients must carry the same
    # bits as that explicit form.
    rng = np.random.default_rng(["add", "mul", "div"].index(op))
    r, d = (37, 1) if layout == "scalar_row" else (37, 7)
    shape = (r, 1) if layout == "col" else (1, d)
    a0 = rng.standard_normal((r, d)) * 10.0 ** rng.integers(-6, 6, size=(r, d))
    b0 = np.abs(rng.standard_normal(shape)) + 0.25
    weight = rng.standard_normal((r, d)) * 10.0 ** rng.integers(-6, 6, size=(r, d))

    def run(broadcast):
        t = Tape()
        a, b = t.param(a0), t.param(b0)
        if broadcast:
            y = getattr(t, op)(a, b)
        elif layout == "col":
            y = getattr(t, op)(a, t.matmul(b, t.constant(np.ones((1, d)))))
        else:
            y = getattr(t, op)(a, t.matmul(t.constant(np.ones((r, 1))), b))
        grads = t.backward(t.sum(t.mul(y, t.constant(weight))))
        return y.value, grads[a], grads[b]

    for got, want in zip(run(True), run(False)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_rowdot_values_and_shape_errors():
    rng = np.random.default_rng(11)
    a, b = rand(rng, 6, 5), rand(rng, 6, 5)
    t = Tape()
    out = t.rowdot(t.constant(a), t.constant(b))
    assert out.shape == (6, 1)
    want = np.array([[np.dot(a[i], b[i])] for i in range(6)])
    np.testing.assert_allclose(out.value, want, rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError, match=r"rowdot shape mismatch: \(6, 5\) vs \(6, 4\)"):
        t.rowdot(t.constant(a), t.constant(b[:, :4]))
    with pytest.raises(ValueError, match="rowdot shape mismatch"):
        t.rowdot(t.constant(a), t.constant(b[:1]))


def test_l2_penalty_matches_chain_of_square_sums_bit_for_bit():
    # Recorded last on a tape where the parameters also feed another term,
    # the fused node must reproduce the unfused chain's value and every
    # accumulated gradient exactly.
    rng = np.random.default_rng(12)
    arrays = [rand(rng, 4, 3) * 10.0 ** e for e in (-3, 0, 4)] + [rand(rng, 1, 3)]

    def run(fused):
        t = Tape()
        params = [t.param(a) for a in arrays]
        other = t.sum(t.tanh(t.matmul(t.matmul(params[0], t.transpose(params[1])), params[2])))
        other = t.add(other, t.sum(t.mul(params[3], params[3])))
        if fused:
            reg = t.l2_penalty(params, 0.01)
        else:
            total = None
            for p in params:
                term = t.sum(t.mul(p, p))
                total = term if total is None else t.add(total, term)
            reg = t.scale(total, 0.01)
        loss = t.add(other, reg)
        grads = t.backward(loss)
        return [loss.value] + [grads[p] for p in params]

    for got, want in zip(run(True), run(False)):
        assert got.tobytes() == want.tobytes()


def test_l2_penalty_of_no_parameters_is_zero():
    t = Tape()
    assert t.l2_penalty([], 0.5).value.tolist() == [[0.0]]


@pytest.mark.parametrize("classes", [2, 3])
@pytest.mark.parametrize("m", [1, 6, 15])
@pytest.mark.parametrize("b", [1, 3, 32])
def test_vote_nll_matches_probability_space_chain(b, m, classes):
    rng = np.random.default_rng(100 * b + 10 * m + classes)
    logits = 3.0 * rand(rng, b * m, classes)
    labels = rng.integers(0, classes, size=b).tolist()

    def run(op):
        t = Tape()
        z = t.param(logits)
        loss = op(z, labels, m, t)
        return loss.value, t.backward(loss)[z]

    got = run(lambda z, y, m, t: t.vote_nll(z, y, m))
    want = run(vote_loss_chain)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert max_rel_err(g, w) <= 1e-12


def test_vote_nll_rejects_rows_that_do_not_fit_the_graphs():
    t = Tape()
    z = t.constant(np.zeros((6, 2)))
    with pytest.raises(ValueError, match=r"vote_nll: \(6, 2\) logits for 2x4 rows"):
        t.vote_nll(z, [0, 1], 4)
    with pytest.raises(ValueError, match="vote_nll"):
        t.vote_nll(t.constant(np.zeros((0, 2))), [], 0)


# ---------------------------------------------------------------- misc


@pytest.mark.parametrize("idx", [[2, 0, 2, 2, 1, 2], [4, 4], [], range(1, 4), range(5)])
def test_take_rows_backward_matches_add_at_bit_for_bit(idx):
    # Duplicates sum in index order; rows never picked get exact zeros.
    rng = np.random.default_rng(len(idx))
    t = Tape()
    x = t.param(rng.standard_normal((5, 3)))
    y = t.take_rows(x, idx)
    g = rng.standard_normal(y.shape) * 10.0 ** rng.integers(-8, 8, size=y.shape)
    got = t.backward(t.sum(t.mul(y, t.constant(g))))[x]
    want = np.zeros((5, 3))
    np.add.at(want, np.asarray(idx, dtype=np.intp), g)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "rows, reps, cols, shift",
    [(4, 3, 5, 0), (4, 3, 5, 1), (3, 1, 2, 1), (1, 9, 2, 1), (32, 15, 15, 0),
     (32, 15, 96, 1), (32, 30, 2, 1), (2, 16, 1, 1)],
)
def test_repeat_rows_matches_gather_and_add_at(rows, reps, cols, shift):
    # Each run's rows add in order, as a scatter-add of the same indices;
    # only one-column inputs may round differently (pairwise summation).
    rng = np.random.default_rng(rows * reps + cols)
    t = Tape()
    x = t.param(rng.standard_normal((rows, cols)))
    y = t.repeat_rows(x, reps, shift)
    idx = (np.repeat(np.arange(rows), reps) - shift) % rows
    assert y.value.tobytes() == x.value[idx].tobytes()
    g = rng.standard_normal(y.shape) * 10.0 ** rng.integers(-8, 8, size=y.shape)
    got = t.backward(t.sum(t.mul(y, t.constant(g))))[x]
    want = np.zeros((rows, cols))
    np.add.at(want, idx, g)
    if cols > 1:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_one_column_matmul_and_tanh_backward_match_their_formulas_bit_for_bit():
    rng = np.random.default_rng(12)
    t = Tape()
    a, b = t.param(rand(rng, 7, 5)), t.param(rand(rng, 5, 1))
    y = t.tanh(t.matmul(a, b))
    g = rand(rng, 7, 1)
    grads = t.backward(t.sum(t.mul(y, t.constant(g))))
    gz = g * (1.0 - y.value * y.value)
    assert grads[a].tobytes() == (gz @ b.value.T).tobytes()
    assert grads[b].tobytes() == (a.value.T @ gz).tobytes()


def test_tape_determinism():
    def run():
        rng = np.random.default_rng(42)
        t = Tape()
        a = t.param(rand(rng, 4, 4))
        b = t.param(rand(rng, 4, 4))
        h = t.tanh(t.matmul(a, b))
        h = t.dropout(h, 0.5, np.random.default_rng(7))
        loss = t.sum(t.softmax_rows(h))
        grads = t.backward(loss)
        return loss.value.copy(), grads[a].copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


def test_forward_values_stay_finite():
    rng = np.random.default_rng(9)
    t = Tape()
    x = t.param(100.0 * rand(rng, 5, 5))
    for node in (t.sigmoid(x), t.tanh(x), t.softplus(x), t.softmax_rows(x),
                 t.leaky_relu(x), t.exp(t.tanh(x))):
        assert np.all(np.isfinite(node.value))


def test_dropout_eval_mode_is_identity():
    t = Tape(training=False)
    x = t.constant(np.ones((4, 4)))
    assert t.dropout(x, 0.5, np.random.default_rng(0)) is x


def test_dropout_train_mode_scales_kept_entries():
    t = Tape()
    x = t.constant(np.ones((50, 50)))
    out = t.dropout(x, 0.5, np.random.default_rng(0))
    vals = np.unique(out.value)
    assert set(vals.tolist()) <= {0.0, 2.0}
    assert abs(out.value.mean() - 1.0) < 0.1


def test_max_rel_err_helper():
    assert max_rel_err(np.array([1.0]), np.array([1.0])) == 0.0
    assert max_rel_err(np.array([1.1]), np.array([1.0])) == pytest.approx(0.1)
