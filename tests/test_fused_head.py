"""The chunked, fused MoS head against the per-step head and taped loss it replaced.

train-mode model_forward hands the head's input rows to distill_loss, which
runs the head, the loss and their backward chunk by chunk; eval mode reads each
target's log P from the target-only head (every (row, id) of it for the whole
log P). tests/oracles.py keeps the per-step taped head and the taped loss as
they ran before.
"""

import threading
import tracemalloc

import numpy as np
import pytest

import lmdistill.model as model_module
import tape as T
from lmdistill import training
from lmdistill.data import BpttBatch, TokenStream, build_vocab
from lmdistill.errors import NumericError
from lmdistill.losses import LOSS_VARIANTS, DistillLossSpec, distill_loss
from lmdistill.model import (ModelConfig, build_model, flatten_targets, model_forward,
                             mos_log_probs)
from lmdistill.regularization import DropoutSpec
from lmdistill.rescore import score_utterance
from oracles import (oracle_activation_reg, oracle_distill_loss, oracle_forward,
                     oracle_mos_log_probs, out_matrix)

RATES = DropoutSpec(input_rate=0.2, output_rate=0.25, hidden_rate=0.3, embed_rate=0.1,
                    other_rate=0.15, ar_weight=2.0, tar_weight=1.0)


def _config(**kw):
    base = dict(vocab_size=11, embed_dim=4, lstm_layers=2, hidden_dim=6,
                bottleneck_dim=5, num_experts=3, dropout=RATES)
    base.update(kw)
    return ModelConfig(**base)


def _chunks_of(monkeypatch, config, rows):
    monkeypatch.setattr(model_module, "CHUNK_ELEMENTS",
                        rows * config.num_experts * config.vocab_size)


def _pick_chunks_of(monkeypatch, config, rows):
    """Target-only head chunks of `rows` rows (8 at least); returns a list that gets, for each
    chunk _pick_rows walks, whether the calling thread walked it and the chunk's hidden rows,
    so a test can see which chunks the helper thread got."""
    monkeypatch.setattr(model_module, "_PICK_ELEMENTS",
                        rows * config.num_experts * config.vocab_size)
    chunks, real = [], model_module._head_inputs

    def counted(model, hidden):
        chunks.append((threading.current_thread() is threading.main_thread(), hidden))
        return real(model, hidden)

    monkeypatch.setattr(model_module, "_head_inputs", counted)
    return chunks


def _underflow(model):
    # word 3's logit 2000 below the rest in every expert: its P (about e^-2000) underflows
    # float64, so S does too, and the loss takes log space for that chunk
    model.params["out.b"][3] = -2000.0


@pytest.mark.parametrize("underflow, experts", [(False, 3), (True, 3), (False, 1), (True, 1)],
                         ids=["", "underflow", "K1", "underflow-K1"])
@pytest.mark.parametrize("bottleneck", [5, 4], ids=["rect", "square"])
@pytest.mark.parametrize("variant", LOSS_VARIANTS)
def test_fused_step_matches_per_step_oracle(variant, bottleneck, underflow, experts,
                                            monkeypatch):
    config = _config(num_experts=experts, bottleneck_dim=bottleneck)
    model = build_model(config, seed=1)
    if underflow:
        _underflow(model)
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
        diff = np.max(np.abs(got_grads[name] - g))
        err = diff / np.max(np.abs(g)) if diff else 0.0  # one expert's prior gradient is 0
        assert err <= 1e-10, f"{name}: relative error {err:.3e}"


@pytest.mark.parametrize("underflow", [False, True], ids=["", "underflow"])
@pytest.mark.parametrize("bottleneck", [5, 4], ids=["rect", "square"])
def test_eval_forward_matches_per_step_oracle(bottleneck, underflow):
    config = _config(bottleneck_dim=bottleneck)
    model = build_model(config, seed=3)
    if underflow:
        _underflow(model)
    tokens = np.random.default_rng(4).integers(0, 11, size=(2, 7))  # N = 14 rows
    got = model_forward(model, tokens, model.init_state(2))
    want = oracle_forward(model, T.leaves(model.params), tokens, model.init_state(2))[0]
    assert np.max(np.abs(got.log_probs.data - want.data)) <= 1e-12
    assert np.all(got.log_probs.data[:, 3] < -1900) == underflow


def test_fused_step_peak_memory_is_a_fraction_of_the_expert_block():
    # K*N*V*8 = 8 * 640 * 5000 * 8 B = 205 MB would be one [K*N x V] block;
    # the fused step holds a few chunk-sized blocks at a time instead
    config = ModelConfig(vocab_size=5000, embed_dim=16, lstm_layers=1, hidden_dim=16,
                         bottleneck_dim=16, num_experts=8,
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


def test_soft_labels_peak_memory_is_the_output_and_one_chunk_workspace(monkeypatch):
    # n = 400 rows in 25 chunks of 16; each member's P is added into the output chunk by
    # chunk, so no member holds an [n x V] array of its own
    config = ModelConfig(vocab_size=1000, embed_dim=8, lstm_layers=1, hidden_dim=8,
                         bottleneck_dim=8, num_experts=3)
    _chunks_of(monkeypatch, config, 16)
    ensemble = training.TeacherEnsemble([build_model(config, seed=s) for s in (1, 2)])
    tokens = np.random.default_rng(3).integers(0, 1000, size=(4, 100))
    out, block, rows = 400 * 1000 * 8, 3 * 16 * 1000 * 8, 16 * 1000 * 8
    tracemalloc.start()
    try:
        q = ensemble.soft_labels(tokens, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert q.shape == (400, 1000)
    assert peak < out + block + 4 * rows, f"peak {peak / 1e6:.2f} MB, output {out / 1e6} MB"


def test_nan_reaching_the_head_raises_numeric_error():
    config = _config(dropout=DropoutSpec())
    model = build_model(config, seed=8)
    model.params["out.b"][3] = np.nan
    tokens = np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(NumericError, match="MoS head"):
        model_forward(model, tokens, model.init_state(2)).log_probs.data
    rows = model_forward(model, tokens, model.init_state(2), np.random.default_rng(0)).log_probs
    with pytest.raises(NumericError, match="MoS head"):
        distill_loss(DistillLossSpec(), rows, np.zeros(6, dtype=np.int64))


def _picks(n, v, rng):
    # every row once, most of them again with another id (a trie node's several
    # targets), the picks out of row order
    rows = np.concatenate([np.arange(n), rng.integers(0, n, size=n)])
    ids = rng.integers(0, v, size=rows.size)
    order = rng.permutation(rows.size)
    return rows[order], ids[order]


@pytest.mark.parametrize("n, experts, underflow", [(1, 3, False), (5, 3, False), (5, 1, False),
                                                   (40, 3, False), (40, 3, True)],
                         ids=["n1", "one-chunk", "K1", "multi-chunk", "underflow"])
@pytest.mark.parametrize("bottleneck", [5, 4], ids=["rect", "square"])
def test_target_only_head_matches_the_full_head(bottleneck, n, experts, underflow):
    config = _config(num_experts=experts, bottleneck_dim=bottleneck)
    model = build_model(config, seed=12)
    if underflow:
        _underflow(model)
    rng = np.random.default_rng(13)
    hidden = rng.normal(size=(n, config.bottleneck_dim))
    rows, ids = _picks(n, config.vocab_size, rng)
    ids[::2] = 3  # the word whose P underflows under _underflow
    params = T.leaves(model.params)
    want = oracle_mos_log_probs(model, params, T.Tensor(hidden),
                                out_matrix(model, params)).data[rows, ids]
    got = mos_log_probs(model, hidden, (rows, ids))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    assert np.all(got[ids == 3] < -1900) == underflow


@pytest.mark.parametrize("experts", [3, 1], ids=["K3", "K1"])
def test_target_only_alternating_chunks_equal_one_thread_bitwise(experts, monkeypatch):
    # 41 rows in chunks of 10, 10, 10, 10, 1: the caller walks chunks 0, 2 and 4, the
    # helper thread 1 and 3. BLAS may round a row differently in a block of another height
    # (a one-row block is a matrix-vector product), so a chunk off the grid can change bits;
    # every (row, id) is picked, so a logit that moves shows
    config = _config(num_experts=experts, vocab_size=300, embed_dim=32, bottleneck_dim=16)
    model = build_model(config, seed=14)
    rng = np.random.default_rng(15)
    hidden = rng.normal(size=(41, config.bottleneck_dim))
    every = rng.permutation(41 * config.vocab_size)
    rows, ids = every // config.vocab_size, every % config.vocab_size
    order = np.argsort(rows, kind="stable")
    one_thread = np.empty(rows.size)
    chunks = _pick_chunks_of(monkeypatch, config, 10)
    args = (model, np.ascontiguousarray(model_module._out_matrix(model)), hidden, rows[order],
            ids[order], one_thread)
    model_module._pick_rows(*args, 0)
    model_module._pick_rows(*args, 1)
    assert [len(h) for _, h in chunks] == [10, 10, 1, 10, 10]
    chunks.clear()
    assert np.array_equal(mos_log_probs(model, hidden, (rows, ids))[order], one_thread)
    assert sorted(len(h) for caller, h in chunks if caller) == [1, 10, 10]
    assert sorted(len(h) for caller, h in chunks if not caller) == [10, 10]


@pytest.mark.parametrize("row", [0, 12], ids=["caller-chunk", "helper-chunk"])
def test_nan_in_either_thread_raises_numeric_error(row, monkeypatch):
    # 40 rows in chunks of 8: the caller walks chunks 0, 2 and 4 (rows 0-7, 16-23, 32-39),
    # the helper thread 1 and 3 (rows 8-15, 24-31)
    config = _config()
    model = build_model(config, seed=16)
    hidden = np.random.default_rng(17).normal(size=(40, config.bottleneck_dim))
    hidden[row, 2] = np.nan
    chunks = _pick_chunks_of(monkeypatch, config, 8)
    before = threading.active_count()
    with pytest.raises(NumericError, match="MoS head"):
        mos_log_probs(model, hidden, (np.arange(40), np.zeros(40, dtype=np.int64)))
    assert threading.active_count() == before
    assert [caller for caller, h in chunks if np.isnan(h).any()] == [row == 0]
    assert {caller for caller, _ in chunks} == {False, True}


def test_eval_leaves_no_thread_behind():
    config = _config(dropout=DropoutSpec())
    model = build_model(config, seed=18)
    stream = TokenStream(np.random.default_rng(19).integers(0, 11, size=70))
    vocab = build_vocab(["a b c d e f g h"], cap=11)
    hypotheses = [["a", "b", "c", "d", "e"], ["a", "c", "e", "g"], ["b", "d", "f", "h", "a"],
                  ["h", "g", "f", "e", "d", "c"], []]
    before = threading.active_count()
    assert np.isfinite(training.perplexity(model, stream))
    assert threading.active_count() == before
    assert all(np.isfinite(score_utterance(model, vocab, hypotheses)))
    assert threading.active_count() == before
