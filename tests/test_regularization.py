"""Dropout masks, DropConnect, embedding dropout, and AR/TAR penalties."""

import math

import numpy as np
import pytest

from lmdistill.cli import grad_check_params
from lmdistill.errors import ConfigError
from lmdistill.losses import DistillLossSpec, distill_loss
from lmdistill.model import ModelConfig, build_model, model_forward, mos_log_probs
from lmdistill.regularization import DropoutSpec, activation_reg, variational_mask


def test_dropout_spec_validation():
    with pytest.raises(ConfigError):
        DropoutSpec(input_rate=1.0)
    with pytest.raises(ConfigError):
        DropoutSpec(hidden_rate=-0.1)
    with pytest.raises(ConfigError):
        DropoutSpec(ar_weight=-1.0)
    with pytest.raises(ConfigError):
        DropoutSpec(tar_weight=-1.0)
    for name in ("ar_weight", "tar_weight"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match=f"{name} must be a finite number"):
                DropoutSpec(**{name: bad})


def test_mask_values_and_scaling():
    rate = 0.4
    m = variational_mask((200, 50), rate, np.random.default_rng(0))
    keep = 1.0 / (1.0 - rate)
    vals = np.unique(m)
    assert set(vals) <= {0.0, keep}
    # law of large numbers: mean stays near 1 with 10k samples
    assert abs(m.mean() - 1.0) < 0.05


def test_mask_is_none_in_eval():
    assert variational_mask((3, 5), 0.9, None) is None


def test_mask_rate_zero_is_none_and_draws_nothing():
    rng = np.random.default_rng(2)
    assert variational_mask((3, 5), 0.0, rng) is None
    assert rng.random() == np.random.default_rng(2).random()


def test_mask_determinism_under_seed():
    m1 = variational_mask((6, 6), 0.3, np.random.default_rng(7))
    m2 = variational_mask((6, 6), 0.3, np.random.default_rng(7))
    assert np.array_equal(m1, m2)
    rng = np.random.default_rng(7)
    variational_mask((6, 6), 0.3, rng)
    assert not np.array_equal(variational_mask((6, 6), 0.3, rng), m1)


def _only(**rates):
    # 1-layer untied model whose only nonzero dropout is the one given
    config = ModelConfig(vocab_size=12, embed_dim=4, lstm_layers=1, hidden_dim=6,
                         bottleneck_dim=4, num_experts=2, tie_embeddings=False,
                         dropout=DropoutSpec(**rates))
    return build_model(config, seed=3)


TOKENS = np.arange(12).reshape(2, 6)  # every word once


def _eval_log_probs(model):
    return model_forward(model, TOKENS, model.init_state(2)).log_probs.data


def _assert_eval_and_rate_zero_are_identities(rate_name):
    plain = _eval_log_probs(_only())
    assert np.array_equal(_eval_log_probs(_only(**{rate_name: 0.5})), plain)
    off = _only(**{rate_name: 0.0})
    train_off = model_forward(off, TOKENS, off.init_state(2), np.random.default_rng(0))
    assert np.array_equal(mos_log_probs(off, train_off.log_probs.hidden), plain)


def test_drop_connect_eval_is_identity():
    _assert_eval_and_rate_zero_are_identities("hidden_rate")


def test_embedding_dropout_eval_identity():
    _assert_eval_and_rate_zero_are_identities("embed_rate")


def test_drop_connect_gradient_only_through_kept_entries():
    rate = 0.5
    model = _only(hidden_rate=rate)
    out = model_forward(model, TOKENS, model.init_state(2), np.random.default_rng(5))
    y = np.random.default_rng(6).integers(0, 12, size=TOKENS.size)
    _, d_hidden, _ = distill_loss(DistillLossSpec(), out.log_probs, y)
    grad = out.backward(d_hidden)["lstm0.wh"]
    # the recurrent-weight mask is the only draw
    kept = np.random.default_rng(5).random(grad.shape) >= rate
    assert 0 < kept.sum() < kept.size
    assert np.all(grad[~kept] == 0.0)
    assert np.all(grad[kept] != 0.0)


def test_embedding_dropout_zeroes_whole_rows():
    rate = 0.4
    model = _only(embed_rate=rate)
    got = model_forward(model, TOKENS, model.init_state(2), np.random.default_rng(6))
    got = mos_log_probs(model, got.log_probs.hidden)
    # the embedding-row mask is the only draw; it keeps or drops whole rows
    kept = np.random.default_rng(6).random((12, 1)) >= rate
    assert 0 < kept.sum() < kept.size
    model.params["embedding"] *= kept / (1.0 - rate)
    assert np.array_equal(got, _eval_log_probs(model))


def test_activation_reg_hand_case():
    # dropped = raw = h over 2 steps of [[1]], [[3]]:
    # AR = mean(1^2, 3^2) = 5, TAR = (3-1)^2 = 4, total 9
    h = np.array([[1.0], [3.0]])
    total, _, _ = activation_reg(h, h, batch=1, ar_weight=1.0, tar_weight=1.0)
    assert total == 9.0


def test_activation_reg_ar_only_and_tar_only():
    block = np.array([[1.0], [3.0]])
    assert activation_reg(block, block, 1, 2.0, 0.0)[0] == 10.0
    assert activation_reg(block, block, 1, 0.0, 3.0)[0] == 12.0
    assert activation_reg(block, block, 1, 0.0, 0.0)[0] == 0.0


def test_activation_reg_single_step_has_no_tar():
    h = np.array([[2.0]])
    assert activation_reg(h, h, 1, 0.0, 5.0)[0] == 0.0
    assert activation_reg(h, h, 1, 1.0, 5.0)[0] == 4.0
    # two lanes, one step: no row is a step after another
    two = np.array([[1.0], [3.0]])
    assert activation_reg(two, two, 2, 0.0, 5.0)[0] == 0.0


def test_activation_reg_batch_mean():
    # mean over all elements, not per-lane sums
    h = np.array([[1.0, 2.0], [3.0, 4.0]])
    want = (1 + 4 + 9 + 16) / 4
    assert activation_reg(h, h, 2, 1.0, 0.0)[0] == want


def test_activation_reg_gradients():
    # 2 lanes x 3 steps; TAR pairs rows t*2+b and (t+1)*2+b
    rng = np.random.default_rng(11)
    params = {"dropped": rng.standard_normal((6, 4)), "raw": rng.standard_normal((6, 4))}

    def loss_fn():
        total, d_dropped, d_raw = activation_reg(params["dropped"], params["raw"], 2, 0.7, 1.3)
        return total, {"dropped": d_dropped, "raw": d_raw}

    reports = grad_check_params(loss_fn, params)
    assert all(r.passed for r in reports.values()), reports

