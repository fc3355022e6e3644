"""Autodiff core: forward oracles, gradient checks, tape semantics."""

import numpy as np
import pytest

import lmdistill.tensor as T
from lmdistill.errors import ContractError, NumericError, ShapeError
from lmdistill.tensor import Tape, Tensor, backward, grad_check, grad_check_params


def rnd(rng, *shape):
    return Tensor(rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# forward oracles


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 6))
    b = rng.standard_normal((6, 3))
    got = T.matmul(Tensor(a), Tensor(b)).data
    want = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            acc = 0.0
            for k in range(6):
                acc += a[i, k] * b[k, j]
            want[i, j] = acc
    assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_matmul_hand_case():
    got = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]),
                   Tensor([[5.0, 6.0], [7.0, 8.0]])).data
    assert np.array_equal(got, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_add_bias_broadcast_forward_and_backward():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.array([10.0, 20.0, 30.0]), requires_grad=True)
    with Tape() as tape:
        out = T.sum_all(T.add(a, b))
    backward(out, tape)
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, np.full(3, 2.0))  # summed over the 2 rows


def test_add_shape_error():
    with pytest.raises(ShapeError):
        T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


def test_softmax_matches_extended_precision_oracle():
    import mpmath
    mpmath.mp.dps = 50
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 7)) * 3
    got = T.log_softmax_rows(Tensor(x)).data
    for i in range(5):
        exps = [mpmath.exp(mpmath.mpf(float(v))) for v in x[i]]
        total = mpmath.fsum(exps)
        for j in range(7):
            want = float(mpmath.log(exps[j] / total))
            assert got[i, j] == pytest.approx(want, rel=1e-14, abs=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 6))
    base = T.log_softmax_rows(Tensor(x)).data
    for c in (1.0, 100.0, 1000.0):
        shifted = T.log_softmax_rows(Tensor(x + c)).data
        assert np.allclose(shifted, base, rtol=1e-12, atol=1e-12)


def test_softmax_extreme_logits_stay_finite():
    x = np.array([[1000.0, 0.0, -1000.0], [-700.0, 700.0, 0.0]])
    y = T.log_softmax_rows(Tensor(x)).data
    assert np.all(np.isfinite(y))
    assert np.allclose(np.exp(y).sum(axis=1), 1.0, atol=1e-12)


def test_softmax_rejects_nan():
    with pytest.raises(NumericError):
        T.log_softmax_rows(Tensor(np.array([[np.nan, 0.0]])))


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 9))
    a = T.log_softmax_rows(Tensor(x)).data
    e = np.exp(x)
    b = np.log(e / e.sum(axis=1, keepdims=True))
    assert np.allclose(a, b, atol=1e-12)


def test_log_softmax_wide_range_finite():
    x = np.array([[0.0, -745.0, 745.0]])
    y = T.log_softmax_rows(Tensor(x)).data
    assert np.all(np.isfinite(y))
    # dominant entry has log-prob ~0, the smallest ~ -1490
    assert y[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert y[0, 1] == pytest.approx(-1490.0, abs=1e-6)


def test_log_mix_matches_direct_mixture():
    # K=3 experts over n=4 rows, stacked expert-major: rows k*n .. (k+1)*n - 1
    rng = np.random.default_rng(4)
    n, v, k = 4, 7, 3
    pis = rng.dirichlet(np.ones(k), size=n)
    comps = [rng.dirichlet(np.ones(v), size=n) for _ in range(k)]
    block = np.log(np.concatenate(comps))
    got = np.exp(T.log_mix(Tensor(np.log(pis)), Tensor(block)).data)
    want = sum(pis[:, j:j + 1] * comps[j] for j in range(k))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def test_log_mix_shape_errors():
    with pytest.raises(ShapeError, match="K >= 1"):
        T.log_mix(Tensor(np.zeros((4, 0))), Tensor(np.zeros((0, 5))))
    with pytest.raises(ShapeError):
        T.log_mix(Tensor(np.zeros(4)), Tensor(np.zeros((4, 5))))
    with pytest.raises(ShapeError):
        T.log_mix(Tensor(np.zeros((4, 3))), Tensor(np.zeros(12)))
    # rows != K*n
    with pytest.raises(ShapeError, match=r"expected \(12, V\)"):
        T.log_mix(Tensor(np.zeros((4, 3))), Tensor(np.zeros((8, 5))))
    with pytest.raises(ShapeError):
        T.log_mix(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 5))))


def test_embedding_rows_gather_and_scatter_with_duplicates():
    table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    ids = np.array([0, 1, 0])
    with Tape() as tape:
        out = T.sum_all(T.embedding_rows(table, ids))
    assert np.array_equal(out.data, np.sum(table.data[ids]))
    backward(out, tape)
    # row 0 gathered twice, row 2 never
    assert np.array_equal(table.grad, [[2.0, 2.0], [1.0, 1.0], [0.0, 0.0]])


def test_embedding_rows_id_range_error():
    with pytest.raises(ShapeError, match="out of range"):
        T.embedding_rows(Tensor(np.zeros((3, 2))), np.array([0, 3]))


def test_pick_cols_forward_and_backward():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ids = np.array([2, 0])
    with Tape() as tape:
        out = T.sum_all(T.pick_cols(a, ids))
    assert np.array_equal(T.pick_cols(a, ids).data, [2.0, 3.0])
    backward(out, tape)
    assert np.array_equal(a.grad, [[0, 0, 1], [1, 0, 0]])


def test_slice_cols_bounds_error():
    with pytest.raises(ShapeError):
        T.slice_cols(Tensor(np.ones((2, 4))), 2, 5)


def test_concat_rows_backward_splits():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((1, 3)), requires_grad=True)
    with Tape() as tape:
        out = T.sum_all(T.mul(T.concat_rows([a, b]),
                              Tensor(np.arange(9.0).reshape(3, 3))))
    backward(out, tape)
    assert np.array_equal(a.grad, np.arange(6.0).reshape(2, 3))
    assert np.array_equal(b.grad, [[6.0, 7.0, 8.0]])


def test_mean_all_empty_error():
    with pytest.raises(ShapeError):
        T.mean_all(Tensor(np.zeros((0, 3))))


def test_transpose_round_trip():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 5))
    assert np.array_equal(T.transpose(T.transpose(Tensor(x))).data, x)


def test_sigmoid_extreme_inputs_finite_and_bounded():
    x = np.array([-1000.0, -20.0, 0.0, 20.0, 1000.0])
    y = T.sigmoid(Tensor(x)).data
    assert np.all(np.isfinite(y))
    assert np.all((y >= 0) & (y <= 1))
    assert y[2] == 0.5


# ---------------------------------------------------------------------------
# gradient checks per op, several seeds each


def _weighted(rng, shape):
    # reduce through fixed random weights so every element's gradient matters
    w = Tensor(rng.standard_normal(shape))
    return lambda t: T.sum_all(T.mul(t, w))


def _op_case(name, rng):
    if name == "matmul_left":
        b, w = rnd(rng, 5, 3), rnd(rng, 4, 3)
        return lambda x: T.sum_all(T.mul(T.matmul(x, b), w)), rnd(rng, 4, 5)
    if name == "matmul_right":
        a, w = rnd(rng, 4, 5), rnd(rng, 4, 3)
        return lambda x: T.sum_all(T.mul(T.matmul(a, x), w)), rnd(rng, 5, 3)
    if name == "add":
        b, w = rnd(rng, 3, 4), rnd(rng, 3, 4)
        return lambda x: T.sum_all(T.mul(T.add(x, b), w)), rnd(rng, 3, 4)
    if name == "add_bias":
        a, w = rnd(rng, 4, 5), rnd(rng, 4, 5)
        return lambda x: T.sum_all(T.mul(T.add(a, x), w)), rnd(rng, 5)
    if name == "sub":
        b, w = rnd(rng, 3, 4), rnd(rng, 3, 4)
        return lambda x: T.sum_all(T.mul(T.sub(x, b), w)), rnd(rng, 3, 4)
    if name == "mul":
        b, w = rnd(rng, 3, 4), rnd(rng, 3, 4)
        return lambda x: T.sum_all(T.mul(T.mul(x, b), w)), rnd(rng, 3, 4)
    if name == "scale":
        w = _weighted(rng, (3, 4))
        return lambda x: w(T.scale(x, -2.5)), rnd(rng, 3, 4)
    if name == "transpose":
        w = _weighted(rng, (4, 3))
        return lambda x: w(T.transpose(x)), rnd(rng, 3, 4)
    if name == "sigmoid":
        w = _weighted(rng, (3, 4))
        return lambda x: w(T.sigmoid(x)), rnd(rng, 3, 4)
    if name == "tanh":
        w = _weighted(rng, (3, 4))
        return lambda x: w(T.tanh(x)), rnd(rng, 3, 4)
    if name == "log_softmax_rows":
        w = _weighted(rng, (3, 5))
        return lambda x: w(T.log_softmax_rows(x)), rnd(rng, 3, 5)
    # log_mix: K=3 experts stacked expert-major over n=4 rows
    if name == "log_mix_priors":
        block = Tensor(np.log(rng.dirichlet(np.ones(5), size=3 * 4)))
        w = _weighted(rng, (4, 5))
        return (lambda x: w(T.log_mix(T.log_softmax_rows(x), block)),
                rnd(rng, 4, 3))
    if name == "log_mix_component":
        pi = Tensor(np.log(rng.dirichlet(np.ones(3), size=4)))
        w = _weighted(rng, (4, 5))
        return (lambda x: w(T.log_mix(pi, T.log_softmax_rows(x))),
                rnd(rng, 3 * 4, 5))
    if name == "embedding_rows":
        ids = rng.integers(0, 6, size=8)
        w = _weighted(rng, (8, 3))
        return lambda x: w(T.embedding_rows(x, ids)), rnd(rng, 6, 3)
    if name == "pick_cols":
        ids = rng.integers(0, 5, size=4)
        w = _weighted(rng, (4,))
        return lambda x: w(T.pick_cols(x, ids)), rnd(rng, 4, 5)
    if name == "slice_cols":
        w = _weighted(rng, (3, 2))
        return lambda x: w(T.slice_cols(x, 1, 3)), rnd(rng, 3, 5)
    if name == "concat_rows":
        other = rnd(rng, 2, 4)
        w = _weighted(rng, (5, 4))
        return lambda x: w(T.concat_rows([x, other])), rnd(rng, 3, 4)
    if name == "sum_all":
        return lambda x: T.sum_all(x), rnd(rng, 3, 4)
    if name == "mean_all":
        return lambda x: T.mean_all(x), rnd(rng, 3, 4)
    raise AssertionError(name)


OP_NAMES = ["matmul_left", "matmul_right", "add", "add_bias", "sub", "mul", "scale",
            "transpose", "sigmoid", "tanh", "log_softmax_rows", "log_mix_priors",
            "log_mix_component", "embedding_rows", "pick_cols", "slice_cols",
            "concat_rows", "sum_all", "mean_all"]


@pytest.mark.parametrize("name", OP_NAMES)
def test_op_gradient_matches_finite_differences(name):
    for seed in range(10):
        f, x = _op_case(name, np.random.default_rng(seed))
        report = grad_check(f, x)
        assert report.passed, f"{name} seed {seed}: {report}"


def test_grad_check_params_composed():
    rng = np.random.default_rng(7)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)

    def loss_fn():
        return T.mean_all(T.tanh(T.matmul(a, b)))

    reports = grad_check_params(loss_fn, [("a", a), ("b", b)])
    assert all(r.passed for r in reports.values())


def test_grad_check_fails_on_corrupted_backward():
    # negative control: an op recorded with a wrong derivative must be caught
    def bad_tanh(a):
        y = np.tanh(a.data)
        out = Tensor(y)

        def back(g):
            T._accum(a, g * y)  # wrong: correct rule is g * (1 - y*y)

        return T._record(out, (a,), back)

    rng = np.random.default_rng(8)
    w = Tensor(rng.standard_normal((3, 3)))
    f = lambda x: T.sum_all(T.mul(bad_tanh(x), w))
    report = grad_check(f, Tensor(rng.standard_normal((3, 3))))
    assert not report.passed


def test_grad_check_rejects_non_scalar_and_restores_x():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ContractError, match="scalar"):
        grad_check(lambda t: T.mul(t, t), x)
    assert x.requires_grad is False and x.grad is None
    report = grad_check(lambda t: T.sum_all(T.mul(t, t)), x)
    assert report.passed
    assert x.requires_grad is False and x.grad is None


# ---------------------------------------------------------------------------
# tape semantics


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, x)
    with pytest.raises(ContractError):
        backward(y, tape)


def test_backward_is_bitwise_deterministic():
    rng = np.random.default_rng(9)
    xd = rng.standard_normal((4, 5))
    wd = rng.standard_normal((5, 3))

    def run():
        x = Tensor(xd.copy(), requires_grad=True)
        w = Tensor(wd.copy(), requires_grad=True)
        with Tape() as tape:
            h = T.tanh(T.matmul(x, w))
            loss = T.mean_all(T.mul(h, h))
        backward(loss, tape)
        return x.grad.copy(), w.grad.copy(), float(loss.data)

    g1x, g1w, l1 = run()
    g2x, g2w, l2 = run()
    assert l1 == l2
    assert np.array_equal(g1x, g2x)
    assert np.array_equal(g1w, g2w)


def test_no_tape_records_nothing():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = T.mul(x, x)  # no tape active
    assert y._from_op is False
    assert x.grad is None


def test_constants_carry_no_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.full(3, 2.0))
    with Tape() as tape:
        out = T.sum_all(T.mul(x, c))
    backward(out, tape)
    assert np.array_equal(x.grad, c.data)
    assert c.grad is None


def test_grad_accumulates_across_reuse():
    x = Tensor(np.full(3, 2.0), requires_grad=True)
    with Tape() as tape:
        out = T.sum_all(T.add(T.mul(x, x), T.mul(x, x)))
    backward(out, tape)
    # d/dx of 2x^2 = 4x
    assert np.array_equal(x.grad, np.full(3, 8.0))


def test_detach_blocks_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, x)
        out = T.sum_all(T.mul(y.detach(), Tensor(np.ones(3))))
    backward(out, tape)
    assert x.grad is None


def test_nested_tapes_restore_outer():
    x = Tensor(np.ones(()), requires_grad=True)
    with Tape() as outer:
        _ = T.scale(x, 2.0)
        with Tape() as inner:
            _ = T.scale(x, 3.0)
        y = T.scale(x, 4.0)
    assert len(inner.nodes) == 1
    assert len(outer.nodes) == 2
    assert y._from_op


def test_item_requires_scalar():
    with pytest.raises(ShapeError):
        Tensor(np.ones(2)).item()
