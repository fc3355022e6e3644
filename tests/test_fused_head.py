"""The chunked, fused MoS head against the per-step head and taped loss it replaced.

train-mode model_forward hands the head's input rows to distill_loss, which
runs the head, the loss and their backward chunk by chunk; eval mode walks the
same chunks. tests/oracles.py keeps the per-step taped head and the taped loss
as they ran before.
"""

import tracemalloc

import numpy as np
import pytest

import lmdistill.model as model_module
import tape as T
from lmdistill import training
from lmdistill.data import BpttBatch
from lmdistill.errors import NumericError
from lmdistill.losses import LOSS_VARIANTS, DistillLossSpec, distill_loss
from lmdistill.model import ModelConfig, build_model, flatten_targets, model_forward
from lmdistill.regularization import DropoutSpec
from oracles import oracle_activation_reg, oracle_distill_loss, oracle_forward

RATES = DropoutSpec(input_rate=0.2, output_rate=0.25, hidden_rate=0.3, embed_rate=0.1,
                    other_rate=0.15, ar_weight=2.0, tar_weight=1.0)


def _config(tied, **kw):
    base = dict(vocab_size=11, embed_dim=4, lstm_layers=2, hidden_dim=6,
                bottleneck_dim=5, num_experts=3, tie_embeddings=tied, dropout=RATES)
    if not tied:
        base.update(last_hidden_dim=5, expert_dim=3)
    base.update(kw)
    return ModelConfig(**base)


def _chunks_of(monkeypatch, config, rows):
    monkeypatch.setattr(model_module, "CHUNK_ELEMENTS",
                        rows * config.num_experts * config.vocab_size)


@pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
@pytest.mark.parametrize("variant", LOSS_VARIANTS)
def test_fused_step_matches_per_step_oracle(variant, tied, monkeypatch):
    config = _config(tied)
    model = build_model(config, seed=1)
    rng = np.random.default_rng(2)
    batch = BpttBatch(rng.integers(0, 11, size=(3, 5)), rng.integers(0, 11, size=(3, 5)))
    spec = DistillLossSpec(variant, alpha=0.3)
    q = rng.dirichlet(np.ones(11), size=15) if spec.needs_teacher else None
    _chunks_of(monkeypatch, config, 4)  # N = 15 rows: chunks of 4, 4, 4, 3

    params = T.leaves(model.params)

    def oracle():
        log_p, _, raw, dropped = oracle_forward(model, params, batch.inputs, model.init_state(3),
                                                np.random.default_rng(9))
        loss = oracle_distill_loss(spec, log_p, flatten_targets(batch.targets), q)
        return T.add(loss, oracle_activation_reg(T.concat_rows(dropped), raw,
                                                 RATES.ar_weight, RATES.tar_weight))

    got, got_grads, _ = training.step_loss(model, batch, model.init_state(3), spec, q,
                                           np.random.default_rng(9))
    want = T.backprop(oracle)
    assert abs(got - want) <= 1e-12 * abs(want)
    for name, p in params.items():
        g = p.grad
        err = np.max(np.abs(got_grads[name] - g)) / np.max(np.abs(g))
        assert err <= 1e-10, f"{name}: relative error {err:.3e}"


@pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
def test_eval_forward_matches_per_step_oracle(tied, monkeypatch):
    config = _config(tied)
    model = build_model(config, seed=3)
    tokens = np.random.default_rng(4).integers(0, 11, size=(2, 7))
    _chunks_of(monkeypatch, config, 3)  # N = 14 rows: chunks of 3, ..., 3, 2
    got = model_forward(model, tokens, model.init_state(2))
    want = oracle_forward(model, T.leaves(model.params), tokens, model.init_state(2))[0]
    assert np.max(np.abs(got.log_probs.data - want.data)) <= 1e-12


def test_fused_step_peak_memory_is_a_fraction_of_the_expert_block():
    # K*N*V*8 = 8 * 640 * 5000 * 8 B = 205 MB would be one [K*N x V] block;
    # the fused step holds a few chunk-sized blocks at a time instead
    config = ModelConfig(vocab_size=5000, embed_dim=16, lstm_layers=1, hidden_dim=16,
                         bottleneck_dim=16, num_experts=8, tie_embeddings=True,
                         dropout=DropoutSpec(other_rate=0.1, ar_weight=1.0))
    model = build_model(config, seed=5)
    rng = np.random.default_rng(6)
    batch = BpttBatch(rng.integers(0, 5000, size=(8, 80)), rng.integers(0, 5000, size=(8, 80)))
    q = rng.dirichlet(np.ones(5000), size=640)
    block = config.num_experts * q.size * 8
    assert block >= 100e6
    tracemalloc.start()
    try:
        loss, _, _ = training.step_loss(model, batch, model.init_state(8),
                                        DistillLossSpec("trust_reg", alpha=0.5), q,
                                        np.random.default_rng(7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss)
    assert peak < block / 4, f"peak {peak / 1e6:.1f} MB against a {block / 1e6:.1f} MB block"


def test_nan_reaching_the_head_raises_numeric_error():
    config = _config(True, dropout=DropoutSpec())
    model = build_model(config, seed=8)
    model.params["out.b"][3] = np.nan
    tokens = np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(NumericError, match="MoS head"):
        model_forward(model, tokens, model.init_state(2))
    rows = model_forward(model, tokens, model.init_state(2), np.random.default_rng(0)).log_probs
    with pytest.raises(NumericError, match="MoS head"):
        distill_loss(DistillLossSpec(), rows, np.zeros(6, dtype=np.int64))
