"""Distillation losses: hand-arithmetic oracles, identities, gradient checks.

The losses take log-probabilities, so hand-computed cases pass np.log(P).
"""

import math

import numpy as np
import pytest

import lmdistill.tensor as T
from lmdistill.errors import ConfigError, DataError, ShapeError
from lmdistill.losses import (TRUST_CLAMP, DistillLossSpec, SoftLabelBatch,
                              ce_loss, distill_loss, fixed_interp_loss, kl_loss,
                              tr_loss, trust_weights)
from lmdistill.tensor import Tape, Tensor, backward, grad_check


def log_rows(*data):
    return Tensor(np.log(np.array(data, dtype=np.float64)))


def random_dist(rng, n, v):
    return rng.dirichlet(np.ones(v), size=n)


# ---------------------------------------------------------------------------
# cross entropy


def test_ce_uniform_is_log_v():
    log_p = Tensor(np.log(np.full((3, 10), 0.1)))
    y = np.array([0, 5, 9])
    assert ce_loss(log_p, y).item() == pytest.approx(math.log(10), abs=1e-15)


def test_ce_hand_case():
    log_p = log_rows([0.7, 0.2, 0.1])
    assert ce_loss(log_p, np.array([1])).item() == pytest.approx(-math.log(0.2),
                                                             abs=1e-15)


def test_ce_on_certain_correct_predictions_is_zero():
    with np.errstate(divide="ignore"):
        log_p = Tensor(np.log(np.eye(4)))
    assert ce_loss(log_p, np.array([0, 1, 2, 3])).item() == 0.0


def test_ce_averages_over_positions():
    log_p = log_rows([0.5, 0.5], [0.25, 0.75])
    y = np.array([0, 1])
    want = (-math.log(0.5) - math.log(0.75)) / 2
    assert ce_loss(log_p, y).item() == pytest.approx(want, rel=1e-15)


def test_ce_rejects_empty_and_wrong_shapes():
    with pytest.raises(ShapeError):
        ce_loss(Tensor(np.zeros((0, 4))), np.array([], dtype=np.int64))
    with pytest.raises(ShapeError):
        ce_loss(Tensor(np.zeros(4)), np.array([0]))


# ---------------------------------------------------------------------------
# KL / soft-label loss


def test_kl_minus_teacher_entropy_equals_direct_kl():
    rng = np.random.default_rng(0)
    q = random_dist(rng, 6, 8)
    p = random_dist(rng, 6, 8)
    got = kl_loss(Tensor(np.log(p)), q).item()
    h_q = -np.mean(np.sum(q * np.log(q), axis=1))
    direct_kl = np.mean(np.sum(q * np.log(q / p), axis=1))
    assert got - h_q == pytest.approx(direct_kl, abs=1e-12)


def test_kl_equals_ce_for_one_hot_teacher():
    rng = np.random.default_rng(1)
    p = random_dist(rng, 5, 7)
    y = rng.integers(0, 7, size=5)
    q = np.zeros((5, 7))
    q[np.arange(5), y] = 1.0
    assert kl_loss(Tensor(np.log(p)), q).item() == pytest.approx(
        ce_loss(Tensor(np.log(p)), y).item(), abs=1e-12)


def test_kl_gradient_equals_ce_gradient_for_one_hot_teacher():
    # through the log-softmax: both paths must push logits identically, bitwise
    rng = np.random.default_rng(2)
    logits_data = rng.standard_normal((4, 6))
    y = rng.integers(0, 6, size=4)
    q = np.zeros((4, 6))
    q[np.arange(4), y] = 1.0

    def grad_of(loss_fn):
        logits = Tensor(logits_data.copy(), requires_grad=True)
        with Tape() as tape:
            loss = loss_fn(T.log_softmax_rows(logits))
        backward(loss, tape)
        return logits.grad.copy()

    g_ce = grad_of(lambda p: ce_loss(p, y))
    g_kl = grad_of(lambda p: kl_loss(p, q))
    assert np.array_equal(g_ce, g_kl)


def test_kl_is_minimized_at_teacher():
    # moving P toward Q lowers the loss
    rng = np.random.default_rng(3)
    q = random_dist(rng, 4, 5)
    p_far = random_dist(rng, 4, 5)
    p_near = 0.5 * (p_far + q)
    p_near /= p_near.sum(axis=1, keepdims=True)
    assert kl_loss(Tensor(np.log(q)), q).item() \
        < kl_loss(Tensor(np.log(p_near)), q).item() \
        < kl_loss(Tensor(np.log(p_far)), q).item()


def test_kl_shape_mismatch():
    with pytest.raises(ShapeError):
        kl_loss(Tensor(np.log(np.full((2, 3), 1 / 3))), np.full((3, 3), 1 / 3))


# ---------------------------------------------------------------------------
# trust weighting


def trust_weight(q_row, y, alpha):
    return trust_weights(np.asarray(q_row)[None], np.array([y]), alpha)[0]


def test_trust_weight_exact_at_one_minus_inv_e():
    alpha = 0.37
    q = np.array([0.1, 1.0 - math.exp(-1.0), 0.2])
    q[0] = 1.0 - q[1] - q[2]
    assert trust_weight(q, 1, alpha) == pytest.approx(alpha, abs=1e-12)


def test_trust_weight_zero_confidence_gives_zero_weight():
    q = np.array([1.0, 0.0, 0.0])
    assert trust_weight(q, 1, 2.0) == 0.0


def test_trust_weight_monotone_on_grid():
    alpha = 0.8
    grid = np.linspace(0.0, 1.0 - 2e-8, 1000)
    q = np.stack([1.0 - grid, grid], axis=1)
    vals = trust_weights(q, np.ones(grid.size, dtype=np.int64), alpha)
    diffs = np.diff(vals)
    assert np.all(diffs > 0)


def test_trust_weight_clamps_certain_teacher():
    q = np.array([0.0, 1.0])
    w = trust_weight(q, 1, 1.0)
    assert math.isfinite(w)
    assert w == pytest.approx(-math.log(TRUST_CLAMP), rel=1e-6)


def test_trust_weights_vectorized_matches_scalar():
    rng = np.random.default_rng(5)
    q = random_dist(rng, 8, 6)
    y = rng.integers(0, 6, size=8)
    vec = trust_weights(q, y, 0.25)
    for i in range(8):
        qy = min(float(q[i, y[i]]), 1.0 - TRUST_CLAMP)
        assert vec[i] == pytest.approx(-0.25 * math.log(1.0 - qy), abs=1e-15)


def test_trust_weight_validation():
    for alpha in (0.0, -1.0):
        with pytest.raises(ConfigError):
            trust_weights(np.array([[0.5, 0.5]]), np.array([0]), alpha)


def test_tr_loss_hand_arithmetic():
    p = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
    q = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
    y = np.array([0, 1])
    alpha = 0.5
    r0 = -alpha * math.log(1 - 0.6)
    r1 = -alpha * math.log(1 - 0.5)
    weighted_ce = (r0 * -math.log(0.5) + r1 * -math.log(0.6)) / 2
    soft = -(
        (0.6 * math.log(0.5) + 0.3 * math.log(0.3) + 0.1 * math.log(0.2))
        + (0.2 * math.log(0.1) + 0.5 * math.log(0.6) + 0.3 * math.log(0.3))
    ) / 2
    want = weighted_ce + soft
    assert tr_loss(Tensor(np.log(p)), q, y, alpha).item() == pytest.approx(
        want, rel=1e-12)


def test_tr_loss_weight_is_constant_in_backward():
    # gradient wrt log P of the weighted CE term must use R as data, no extra term
    rng = np.random.default_rng(6)
    logits_data = rng.standard_normal((3, 5))
    q = random_dist(rng, 3, 5)
    y = rng.integers(0, 5, size=3)
    alpha = 0.7
    r = trust_weights(q, y, alpha)

    def manual(log_p):
        nll = T.scale(T.pick_cols(log_p, y), -1.0)
        weighted = T.scale(T.sum_all(T.mul(nll, Tensor(r))), 1.0 / 3)
        return T.add(weighted, kl_loss(log_p, Tensor(q)))

    def grad_of(loss_fn):
        logits = Tensor(logits_data.copy(), requires_grad=True)
        with Tape() as tape:
            loss = loss_fn(T.log_softmax_rows(logits))
        backward(loss, tape)
        return logits.grad.copy()

    assert np.array_equal(grad_of(lambda p: tr_loss(p, q, y, alpha)),
                          grad_of(manual))


def test_tr_loss_gradient_check():
    rng = np.random.default_rng(7)
    q = random_dist(rng, 3, 5)
    y = rng.integers(0, 5, size=3)

    def f(logits):
        return tr_loss(T.log_softmax_rows(logits), q, y, 0.5)

    report = grad_check(f, Tensor(rng.standard_normal((3, 5))))
    assert report.passed, report


# ---------------------------------------------------------------------------
# fixed interpolation


def test_fixed_interp_endpoints_bitwise():
    rng = np.random.default_rng(8)
    p_data = random_dist(rng, 4, 6)
    q = random_dist(rng, 4, 6)
    y = rng.integers(0, 6, size=4)
    p = Tensor(np.log(p_data))
    assert fixed_interp_loss(p, q, y, 1.0).item() == ce_loss(p, y).item()
    assert fixed_interp_loss(p, q, y, 0.0).item() == kl_loss(p, q).item()


def test_fixed_interp_endpoint_gradients_bitwise():
    rng = np.random.default_rng(9)
    logits_data = rng.standard_normal((3, 4))
    q = random_dist(rng, 3, 4)
    y = rng.integers(0, 4, size=3)

    def grad_of(loss_fn):
        logits = Tensor(logits_data.copy(), requires_grad=True)
        with Tape() as tape:
            loss = loss_fn(T.log_softmax_rows(logits))
        backward(loss, tape)
        return logits.grad.copy()

    assert np.array_equal(grad_of(lambda p: fixed_interp_loss(p, q, y, 1.0)),
                          grad_of(lambda p: ce_loss(p, y)))
    assert np.array_equal(grad_of(lambda p: fixed_interp_loss(p, q, y, 0.0)),
                          grad_of(lambda p: kl_loss(p, q)))


def test_fixed_interp_midpoint_value():
    rng = np.random.default_rng(10)
    p = Tensor(np.log(random_dist(rng, 5, 7)))
    q = random_dist(rng, 5, 7)
    y = rng.integers(0, 7, size=5)
    for alpha in (0.25, 0.5, 0.9):
        want = alpha * ce_loss(p, y).item() + (1 - alpha) * kl_loss(p, q).item()
        assert fixed_interp_loss(p, q, y, alpha).item() == pytest.approx(
            want, rel=1e-14)


def test_fixed_interp_alpha_range():
    p = Tensor(np.log(np.full((1, 2), 0.5)))
    with pytest.raises(ConfigError):
        fixed_interp_loss(p, np.full((1, 2), 0.5), np.array([0]), 1.5)


# ---------------------------------------------------------------------------
# DistillLossSpec validation and dispatch


def test_spec_validation():
    with pytest.raises(ConfigError):
        DistillLossSpec(variant="bogus")
    with pytest.raises(ConfigError):
        DistillLossSpec(variant="fixed_interp", alpha=1.5)
    with pytest.raises(ConfigError):
        DistillLossSpec(variant="trust_reg", alpha=0.0)
    assert not DistillLossSpec(variant="ce_only").needs_teacher
    for v in ("kl_only", "fixed_interp", "trust_reg"):
        assert DistillLossSpec(variant=v).needs_teacher


def test_distill_loss_dispatch_matches_direct_calls():
    rng = np.random.default_rng(11)
    p = Tensor(np.log(random_dist(rng, 4, 5)))
    q = random_dist(rng, 4, 5)
    y = rng.integers(0, 5, size=4)
    assert distill_loss(DistillLossSpec("ce_only"), p, y).item() == \
        ce_loss(p, y).item()
    assert distill_loss(DistillLossSpec("kl_only"), p, y, q).item() == \
        kl_loss(p, q).item()
    assert distill_loss(DistillLossSpec("fixed_interp", alpha=0.3), p, y, q).item() == \
        fixed_interp_loss(p, q, y, 0.3).item()
    assert distill_loss(DistillLossSpec("trust_reg", alpha=0.3), p, y, q).item() == \
        tr_loss(p, q, y, 0.3).item()


def test_distill_loss_teacher_presence_contract():
    p = Tensor(np.log(np.full((2, 2), 0.5)))
    y = np.array([0, 1])
    q = np.full((2, 2), 0.5)
    with pytest.raises(ConfigError):
        distill_loss(DistillLossSpec("kl_only"), p, y)  # missing teacher
    with pytest.raises(ConfigError):
        distill_loss(DistillLossSpec("ce_only"), p, y, q)  # unwanted teacher


def test_soft_label_batch_validation():
    q = np.full((2, 3), 1 / 3)
    SoftLabelBatch(q, np.array([0, 2]))
    with pytest.raises(DataError):
        SoftLabelBatch(q, np.array([0, 3]))  # id out of range
    bad = q.copy()
    bad[1, 0] += 0.01
    with pytest.raises(DataError):
        SoftLabelBatch(bad, np.array([0, 1]))  # row does not sum to 1
    with pytest.raises(ShapeError):
        SoftLabelBatch(np.full(3, 1 / 3), np.array([0]))


def test_loss_gradient_checks_through_softmax():
    rng = np.random.default_rng(12)
    q = random_dist(rng, 3, 5)
    y = rng.integers(0, 5, size=3)
    cases = [
        lambda p: ce_loss(p, y),
        lambda p: kl_loss(p, q),
        lambda p: fixed_interp_loss(p, q, y, 0.4),
        lambda p: tr_loss(p, q, y, 0.6),
    ]
    for f in cases:
        report = grad_check(lambda x: f(T.log_softmax_rows(x)),
                            Tensor(rng.standard_normal((3, 5))))
        assert report.passed, report


# ---------------------------------------------------------------------------
# oracle: the probability-space composition the losses used to be written in


def _prob_space_loss_and_grad(variant, alpha, x, q, y):
    """softmax -> log (clamped at 1e-300) -> loss, value and d/dlogits, in numpy.

    Every loss is -(1/n) sum_ix W[i, x] log P[i, x] for a constant weight
    matrix W, so one backward covers all four variants.
    """
    n = x.shape[0]
    e = np.exp(x - x.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    clamped = np.maximum(p, 1e-300)
    onehot = np.zeros_like(p)
    onehot[np.arange(n), y] = 1.0
    if variant == "ce_only":
        w = onehot
    elif variant == "kl_only":
        w = q
    elif variant == "fixed_interp":
        w = alpha * onehot + (1.0 - alpha) * q
    else:
        qy = np.minimum(q[np.arange(n), y], 1.0 - TRUST_CLAMP)
        w = (-alpha * np.log(1.0 - qy))[:, None] * onehot + q
    value = -np.sum(w * np.log(clamped)) / n
    g_p = -w / (n * clamped)  # backward of the mean and of log
    g_x = p * (g_p - np.sum(g_p * p, axis=1, keepdims=True))  # softmax J^T g
    return value, g_x


@pytest.mark.parametrize("variant", ["ce_only", "kl_only", "fixed_interp", "trust_reg"])
def test_log_space_losses_match_probability_space_composition(variant):
    rng = np.random.default_rng(13)
    n, v = 7, 11
    for _ in range(5):
        x = 3.0 * rng.standard_normal((n, v))
        q = random_dist(rng, n, v)
        y = rng.integers(0, v, size=n)
        spec = DistillLossSpec(variant, alpha=0.3)
        want_value, want_grad = _prob_space_loss_and_grad(variant, 0.3, x, q, y)

        logits = Tensor(x.copy(), requires_grad=True)
        with Tape() as tape:
            loss = distill_loss(spec, T.log_softmax_rows(logits), y,
                                q if spec.needs_teacher else None)
        backward(loss, tape)
        assert abs(loss.item() - want_value) <= 1e-12
        assert np.max(np.abs(logits.grad - want_grad)) <= 1e-12
