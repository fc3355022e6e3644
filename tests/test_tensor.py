"""The taped autograd the oracles are built from (tests/tape.py): forward oracles,
gradient checks, tape semantics; and the package's public surface."""

import ast
from pathlib import Path

import numpy as np
import pytest

import lmdistill
import tape as T
from lmdistill.errors import ContractError, NumericError, ShapeError
from oracles import pick_cols, scale, sum_all
from tape import Tape, Tensor, backward, grad_check_params


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
        out = sum_all(T.add(a, b))
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


def test_embedding_rows_gather_and_scatter_with_duplicates():
    table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    ids = np.array([0, 1, 0])
    with Tape() as tape:
        out = sum_all(T.embedding_rows(table, ids))
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
        out = sum_all(pick_cols(a, ids))
    assert np.array_equal(pick_cols(a, ids).data, [2.0, 3.0])
    backward(out, tape)
    assert np.array_equal(a.grad, [[0, 0, 1], [1, 0, 0]])


def test_concat_rows_backward_splits():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((1, 3)), requires_grad=True)
    with Tape() as tape:
        out = sum_all(T.mul(T.concat_rows([a, b]),
                            Tensor(np.arange(9.0).reshape(3, 3))))
    backward(out, tape)
    assert np.array_equal(a.grad, np.arange(6.0).reshape(2, 3))
    assert np.array_equal(b.grad, [[6.0, 7.0, 8.0]])


# ---------------------------------------------------------------------------
# gradient checks per op, several seeds each


def _weighted(rng, shape):
    # reduce through fixed random weights so every element's gradient matters
    w = Tensor(rng.standard_normal(shape))
    return lambda t: sum_all(T.mul(t, w))


def _op_case(name, rng):
    if name == "matmul_left":
        b, w = rnd(rng, 5, 3), rnd(rng, 4, 3)
        return lambda x: sum_all(T.mul(T.matmul(x, b), w)), rnd(rng, 4, 5)
    if name == "matmul_right":
        a, w = rnd(rng, 4, 5), rnd(rng, 4, 3)
        return lambda x: sum_all(T.mul(T.matmul(a, x), w)), rnd(rng, 5, 3)
    if name == "add":
        b, w = rnd(rng, 3, 4), rnd(rng, 3, 4)
        return lambda x: sum_all(T.mul(T.add(x, b), w)), rnd(rng, 3, 4)
    if name == "add_bias":
        a, w = rnd(rng, 4, 5), rnd(rng, 4, 5)
        return lambda x: sum_all(T.mul(T.add(a, x), w)), rnd(rng, 5)
    if name == "mul":
        b, w = rnd(rng, 3, 4), rnd(rng, 3, 4)
        return lambda x: sum_all(T.mul(T.mul(x, b), w)), rnd(rng, 3, 4)
    if name == "scale":
        w = _weighted(rng, (3, 4))
        return lambda x: w(scale(x, -2.5)), rnd(rng, 3, 4)
    if name == "tanh":
        w = _weighted(rng, (3, 4))
        return lambda x: w(T.tanh(x)), rnd(rng, 3, 4)
    if name == "log_softmax_rows":
        w = _weighted(rng, (3, 5))
        return lambda x: w(T.log_softmax_rows(x)), rnd(rng, 3, 5)
    if name == "embedding_rows":
        ids = rng.integers(0, 6, size=8)
        w = _weighted(rng, (8, 3))
        return lambda x: w(T.embedding_rows(x, ids)), rnd(rng, 6, 3)
    if name == "pick_cols":
        ids = rng.integers(0, 5, size=4)
        w = _weighted(rng, (4,))
        return lambda x: w(pick_cols(x, ids)), rnd(rng, 4, 5)
    if name == "concat_rows":
        other = rnd(rng, 2, 4)
        w = _weighted(rng, (5, 4))
        return lambda x: w(T.concat_rows([x, other])), rnd(rng, 3, 4)
    if name == "sum_all":
        return lambda x: sum_all(x), rnd(rng, 3, 4)
    if name == "fused":
        # sin x, its backward g * cos x written by hand
        w = _weighted(rng, (3, 4))
        return lambda x: w(T.fused(np.sin(x.data), (x,), lambda g: [g * np.cos(x.data)])), \
            rnd(rng, 3, 4)
    if name == "precomputed":
        # sum(sin x) with its gradient cos x handed over, then scaled downstream
        return (lambda x: scale(T.precomputed(float(np.sin(x.data).sum()),
                                              [(x, np.cos(x.data))]), -2.5),
                rnd(rng, 3, 4))
    raise AssertionError(name)


# scale, pick_cols and sum_all are the test-local ops from oracles.py, which
# the loss and AR/TAR oracles are built from
OP_NAMES = ["matmul_left", "matmul_right", "add", "add_bias", "mul", "scale", "tanh",
            "log_softmax_rows", "embedding_rows", "pick_cols", "concat_rows", "sum_all",
            "fused", "precomputed"]


@pytest.mark.parametrize("name", OP_NAMES)
def test_op_gradient_matches_finite_differences(name):
    for seed in range(10):
        f, x = _op_case(name, np.random.default_rng(seed))
        x.requires_grad = True
        report = grad_check_params(lambda: f(x), [("x", x)])["x"]
        assert report.passed, f"{name} seed {seed}: {report}"


def test_grad_check_params_composed():
    rng = np.random.default_rng(7)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)

    def loss_fn():
        return sum_all(T.tanh(T.matmul(a, b)))

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
    f = lambda x: sum_all(T.mul(bad_tanh(x), w))
    x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    report = grad_check_params(lambda: f(x), [("x", x)])["x"]
    assert not report.passed


def test_grad_check_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError, match="scalar"):
        grad_check_params(lambda: T.mul(x, x), [("x", x)])
    assert grad_check_params(lambda: sum_all(T.mul(x, x)), [("x", x)])["x"].passed


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
            loss = sum_all(T.mul(h, h))
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
        out = sum_all(T.mul(x, c))
    backward(out, tape)
    assert np.array_equal(x.grad, c.data)
    assert c.grad is None


def test_grad_accumulates_across_reuse():
    x = Tensor(np.full(3, 2.0), requires_grad=True)
    with Tape() as tape:
        out = sum_all(T.add(T.mul(x, x), T.mul(x, x)))
    backward(out, tape)
    # d/dx of 2x^2 = 4x
    assert np.array_equal(x.grad, np.full(3, 8.0))


def test_precomputed_records_one_node_and_nothing_without_tape():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    c = Tensor(np.ones(3))
    assert not T.precomputed(1.0, [(x, np.ones((2, 3)))])._from_op
    with Tape() as tape:
        out = T.precomputed(2.0, [(x, np.full((2, 3), 0.5)), (c, np.ones(3))])
    assert len(tape.nodes) == 1 and out.item() == 2.0
    backward(out, tape)
    assert np.array_equal(x.grad, np.full((2, 3), 0.5))
    assert c.grad is None  # constants take no gradient


def test_nested_tapes_restore_outer():
    x = Tensor(np.ones(()), requires_grad=True)
    with Tape() as outer:
        _ = scale(x, 2.0)
        with Tape() as inner:
            _ = scale(x, 3.0)
        y = scale(x, 4.0)
    assert len(inner.nodes) == 1
    assert len(outer.nodes) == 2
    assert y._from_op


def test_item_requires_scalar():
    with pytest.raises(ShapeError):
        Tensor(np.ones(2)).item()


# ---------------------------------------------------------------------------
# public surface


def _names_read_by(path: Path) -> set[str]:
    """Every name a module reads: loaded identifiers and attribute names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _public_names(path: Path) -> list[str]:
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_public_name_has_a_caller_in_src():
    # a re-export from __init__ is not a caller; code only tests use belongs in tests/
    modules = [p for p in Path(lmdistill.__file__).parent.glob("*.py")
               if p.name != "__init__.py"]
    used = set().union(*(_names_read_by(p) for p in modules))
    unused = [f"{p.stem}.{name}" for p in modules for name in _public_names(p)
              if name not in used]
    assert unused == []
