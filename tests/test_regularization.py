"""Dropout masks, DropConnect, embedding dropout, and AR/TAR penalties."""

import numpy as np
import pytest

import lmdistill.tensor as T
from lmdistill.errors import ConfigError
from lmdistill.regularization import (DropoutSpec, RegContext, activation_reg,
                                      drop_connect, embedding_dropout,
                                      variational_mask)
from lmdistill.tensor import Tape, Tensor, backward


def test_dropout_spec_validation():
    with pytest.raises(ConfigError):
        DropoutSpec(input_rate=1.0)
    with pytest.raises(ConfigError):
        DropoutSpec(hidden_rate=-0.1)
    with pytest.raises(ConfigError):
        DropoutSpec(ar_weight=-1.0)


def test_reg_context_mode_validation():
    with pytest.raises(ConfigError):
        RegContext("predict")
    assert RegContext("train").training
    assert not RegContext("eval").training


def test_mask_values_and_scaling():
    ctx = RegContext("train", seed=0)
    rate = 0.4
    m = variational_mask((200, 50), rate, ctx, "x").data
    keep = 1.0 / (1.0 - rate)
    vals = np.unique(m)
    assert set(vals) <= {0.0, keep}
    # law of large numbers: mean stays near 1 with 10k samples
    assert abs(m.mean() - 1.0) < 0.05


def test_mask_cached_within_sequence_and_fresh_after():
    ctx = RegContext("train", seed=1)
    a = variational_mask((4, 8), 0.5, ctx, ("out", 0))
    b = variational_mask((4, 8), 0.5, ctx, ("out", 0))
    assert a is b  # exact same tensor reused every step
    other = variational_mask((4, 8), 0.5, ctx, ("out", 1))
    assert not np.array_equal(a.data, other.data)
    ctx.new_sequence()
    c = variational_mask((4, 8), 0.5, ctx, ("out", 0))
    assert c is not a
    assert not np.array_equal(c.data, a.data)


def test_mask_eval_mode_is_all_ones():
    ctx = RegContext("eval")
    m = variational_mask((3, 5), 0.9, ctx, "x")
    assert np.array_equal(m.data, np.ones((3, 5)))


def test_mask_rate_zero_is_all_ones_in_train():
    ctx = RegContext("train", seed=2)
    m = variational_mask((3, 5), 0.0, ctx, "x")
    assert np.array_equal(m.data, np.ones((3, 5)))


def test_mask_determinism_under_seed():
    m1 = variational_mask((6, 6), 0.3, RegContext("train", seed=7), "r").data
    m2 = variational_mask((6, 6), 0.3, RegContext("train", seed=7), "r").data
    assert np.array_equal(m1, m2)


def test_mask_same_role_new_shape_gets_own_mask():
    # shape is part of the cache key, so batch-size changes never collide
    ctx = RegContext("train", seed=3)
    a = variational_mask((4, 8), 0.5, ctx, "r")
    b = variational_mask((2, 8), 0.5, ctx, "r")
    assert a.shape == (4, 8) and b.shape == (2, 8)
    assert variational_mask((4, 8), 0.5, ctx, "r") is a


def test_drop_connect_eval_is_identity():
    w = Tensor(np.ones((4, 4)), requires_grad=True)
    assert drop_connect(w, 0.5, RegContext("eval"), "wh") is w
    assert drop_connect(w, 0.0, RegContext("train", seed=0), "wh") is w


def test_drop_connect_masks_entries_and_caches_node():
    ctx = RegContext("train", seed=4)
    w = Tensor(np.full((10, 10), 3.0), requires_grad=True)
    rate = 0.5
    a = drop_connect(w, rate, ctx, ("wh", 0))
    b = drop_connect(w, rate, ctx, ("wh", 0))
    assert a is b  # one tape node shared by all steps of the sequence
    vals = np.unique(a.data)
    assert set(vals) <= {0.0, 3.0 / (1.0 - rate)}
    assert 0.0 in vals and 3.0 / (1.0 - rate) in vals


def test_drop_connect_gradient_only_through_kept_entries():
    ctx = RegContext("train", seed=5)
    w = Tensor(np.ones((6, 6)), requires_grad=True)
    with Tape() as tape:
        masked = drop_connect(w, 0.5, ctx, "wh")
        loss = T.sum_all(masked)
    backward(loss, tape)
    dropped = masked.data == 0.0
    assert np.all(w.grad[dropped] == 0.0)
    assert np.all(w.grad[~dropped] == 2.0)  # 1/(1-rate)


def test_embedding_dropout_zeroes_whole_rows():
    ctx = RegContext("train", seed=6)
    table = Tensor(np.arange(1.0, 41.0).reshape(20, 2), requires_grad=True)
    rate = 0.4
    out = embedding_dropout(table, rate, ctx)
    scale = 1.0 / (1.0 - rate)
    zero_rows = 0
    for i in range(20):
        row = out.data[i]
        if np.all(row == 0.0):
            zero_rows += 1
        else:
            assert np.array_equal(row, table.data[i] * scale)
    assert 0 < zero_rows < 20


def test_embedding_dropout_eval_identity():
    table = Tensor(np.ones((5, 3)), requires_grad=True)
    assert embedding_dropout(table, 0.7, RegContext("eval")) is table


def test_activation_reg_hand_case():
    # dropped = raw = h over 2 steps of [[1]], [[3]]:
    # AR = mean(1^2, 3^2) = 5, TAR = (3-1)^2 = 4, total 9
    h0, h1 = Tensor(np.array([[1.0]])), Tensor(np.array([[3.0]]))
    total = activation_reg([h0, h1], [h0, h1], ar_weight=1.0, tar_weight=1.0)
    assert total.item() == 9.0


def test_activation_reg_ar_only_and_tar_only():
    h0, h1 = Tensor(np.array([[1.0]])), Tensor(np.array([[3.0]]))
    assert activation_reg([h0, h1], [h0, h1], 2.0, 0.0).item() == 10.0
    assert activation_reg([h0, h1], [h0, h1], 0.0, 3.0).item() == 12.0
    assert activation_reg([h0, h1], [h0, h1], 0.0, 0.0).item() == 0.0


def test_activation_reg_single_step_has_no_tar():
    h = Tensor(np.array([[2.0]]))
    assert activation_reg([h], [h], 0.0, 5.0).item() == 0.0
    assert activation_reg([h], [h], 1.0, 5.0).item() == 4.0


def test_activation_reg_batch_mean():
    # mean over all elements, not per-lane sums
    h = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    want = (1 + 4 + 9 + 16) / 4
    assert activation_reg([h], [h], 1.0, 0.0).item() == want


def test_activation_reg_weight_validation():
    h = Tensor(np.ones((1, 1)))
    with pytest.raises(ConfigError):
        activation_reg([h], [h], -1.0, 0.0)


def test_activation_reg_gradients():
    from lmdistill.tensor import grad_check

    def f(x):
        a = T.slice_cols(x, 0, 2)
        b = T.slice_cols(x, 2, 4)
        return activation_reg([a, b], [a, b], 0.7, 1.3)

    rng = np.random.default_rng(11)
    report = grad_check(f, Tensor(rng.standard_normal((3, 4))))
    assert report.passed, report
