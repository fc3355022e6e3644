"""Training loop, teacher ensembles, perplexity, and checkpoints."""

import math
import multiprocessing
import os
import re
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import tape as T
import lmdistill.model as model_module
from lmdistill import training
from lmdistill.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from lmdistill.data import TokenStream, bptt_batches, build_vocab, encode
from lmdistill.errors import (ConfigError, DataError, FormatError,
                              NumericError, ShapeError, TrainingError)
from lmdistill.losses import LOSS_VARIANTS, DistillLossSpec, distill_loss
from lmdistill.model import ModelConfig, build_model, flatten_targets, model_forward
from lmdistill.regularization import DropoutSpec, activation_reg
from lmdistill.training import (EpochLog, TeacherEnsemble, TrainConfig, clip_gradients,
                                perplexity, train)
from oracles import InProcessLabels, OneHotOracle, in_process_train, taped_step_loss


def tiny_corpus(seed=7, n_lines=8, n_words=6, line_len=8):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    lines = [" ".join(rng.choice(words, size=line_len)) for _ in range(n_lines)]
    vocab = build_vocab(lines, cap=20)
    return vocab, encode(lines, vocab)


def tiny_config(vocab_size, **kw):
    base = dict(vocab_size=vocab_size, embed_dim=8, lstm_layers=1,
                hidden_dim=12, bottleneck_dim=8, num_experts=2)
    base.update(kw)
    return ModelConfig(**base)


def params_of(model):
    return [p.copy() for p in model.params.values()]


# ---------------------------------------------------------------------------
# TrainConfig and EpochLog


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(grad_clip=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(asgd_trigger_patience=-1)
    for name in ("lr", "grad_clip"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match=f"{name} must be a finite number"):
                TrainConfig(**{name: bad})


def test_epoch_log_line_format():
    log = EpochLog(epoch=3, train_loss=1.23456, valid_ppl=7.12345, lr=0.5)
    assert log.line() == "epoch=3 train_loss=1.234560 valid_ppl=7.123450 lr=0.5"


# ---------------------------------------------------------------------------
# Gradient clipping


def test_clip_returns_preclip_norm_and_caps():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}  # global norm 5
    norm = clip_gradients(grads, 1.0)
    assert norm == 5.0
    assert grads["a"][0] == pytest.approx(0.6)
    assert grads["b"][0] == pytest.approx(0.8)
    clipped = math.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values()))
    assert clipped == pytest.approx(1.0)


def test_clip_below_limit_is_untouched():
    grads = {"a": np.array([0.3]), "b": np.array([0.4])}  # norm 0.5
    norm = clip_gradients(grads, 1.0)
    assert norm == 0.5
    assert grads["a"][0] == 0.3  # bitwise, no rescale applied
    assert grads["b"][0] == 0.4


# ---------------------------------------------------------------------------
# Teacher ensembles


def eval_probs(model, tokens, state):
    """Eval mode's P for tokens, the head's own (no log P), and the state to carry on."""
    p = np.zeros((tokens.size, model.config.vocab_size))
    return p, model_module.add_probs(model, tokens, state, p)


@pytest.mark.parametrize("underflow", [False, True], ids=["", "underflow"])
def test_eval_probs_are_exp_of_eval_log_probs(underflow):
    vocab, stream = tiny_corpus()
    model = build_model(tiny_config(vocab.size, num_experts=3), 1)
    if underflow:  # word 3's P, about e^-2000, underflows S: P space still gives its rows
        model.params["out.b"][3] = -2000.0
    tokens = np.stack([stream.ids[0:6], stream.ids[8:14]])
    p, state = eval_probs(model, tokens, model.init_state(2))
    out = model_forward(model, tokens, model.init_state(2))
    np.testing.assert_allclose(p, np.exp(out.log_probs.data), rtol=1e-14, atol=0)
    assert np.all(p[:, 3] == 0) == underflow
    assert np.all(np.isfinite(p)) and np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert all(np.array_equal(a, b) for pair, out_pair in zip(state.layers, out.state.layers)
               for a, b in zip(pair, out_pair))


def test_ensemble_mean_matches_manual():
    vocab, stream = tiny_corpus()
    m1 = build_model(tiny_config(vocab.size), 1)
    m2 = build_model(tiny_config(vocab.size, hidden_dim=10), 2)
    ens = TeacherEnsemble([m1, m2])
    tokens = stream.ids[None, :5]
    q = ens.soft_labels(tokens, None)
    p1 = eval_probs(m1, tokens, m1.init_state(1))[0]
    p2 = eval_probs(m2, tokens, m2.init_state(1))[0]
    assert np.array_equal(q, (p1 + p2) / 2)
    assert q.shape == (5, vocab.size)
    # rows are distributions
    np.testing.assert_allclose(q.sum(axis=1), 1.0, rtol=1e-12)


def test_ensemble_carries_member_state_across_batches():
    vocab, stream = tiny_corpus()
    m1 = build_model(tiny_config(vocab.size), 1)
    m2 = build_model(tiny_config(vocab.size, hidden_dim=10), 2)
    ens = TeacherEnsemble([m1, m2])
    b1 = np.stack([stream.ids[0:4], stream.ids[8:12]])
    b2 = np.stack([stream.ids[4:8], stream.ids[12:16]])
    ens.reset_state(2)
    q1 = ens.soft_labels(b1, None)
    q2 = ens.soft_labels(b2, None)

    total1 = total2 = None
    for m in (m1, m2):
        p1, state = eval_probs(m, b1, m.init_state(2))
        p2, _ = eval_probs(m, b2, state)
        total1 = p1 if total1 is None else total1 + p1
        total2 = p2 if total2 is None else total2 + p2
    assert np.array_equal(q1, total1 / 2)
    assert np.array_equal(q2, total2 / 2)


def test_ensemble_batch_size_change_needs_reset_state():
    # member state starts on first use and is never dropped behind the caller's back
    vocab, stream = tiny_corpus()
    ens = TeacherEnsemble([build_model(tiny_config(vocab.size), 1)])
    ens.soft_labels(stream.ids[None, :4].repeat(2, axis=0), None)
    with pytest.raises(ShapeError, match=r"state batch 2 != tokens batch 1"):
        ens.soft_labels(stream.ids[None, :4], None)  # narrower batch
    ens.reset_state(1)
    assert ens.soft_labels(stream.ids[None, :4], None).shape == (4, vocab.size)


def test_ensemble_validation():
    vocab, _ = tiny_corpus()
    with pytest.raises(ConfigError):
        TeacherEnsemble([])
    m1 = build_model(tiny_config(vocab.size), 1)
    m2 = build_model(tiny_config(vocab.size + 1), 2)
    with pytest.raises(ConfigError, match="disagree"):
        TeacherEnsemble([m1, m2])


def test_one_hot_oracle_rows():
    oracle = OneHotOracle(5)
    targets = np.array([[1, 4], [0, 2]])
    q = oracle.soft_labels(None, targets)
    # time-major rows: (t0,b0), (t0,b1), (t1,b0), (t1,b1)
    want = np.zeros((4, 5))
    for i, y in enumerate([1, 0, 4, 2]):
        want[i, y] = 1.0
    assert np.array_equal(q, want)


# ---------------------------------------------------------------------------
# Training behavior


def force_trunk(monkeypatch, pipelined, chunk_steps=2):
    """Make the pipelining rule say yes (in chunks of chunk_steps) or no for every model."""
    monkeypatch.setattr(model_module, "_PIPELINE_ELEMENTS", 0 if pipelined else 10 ** 15)
    monkeypatch.setattr(model_module, "_CHUNK_STEPS", chunk_steps)


@pytest.mark.parametrize("layers, pipelined", [(2, False), (2, True), (3, False), (3, True)],
                         ids=["2-inline", "2-pipelined", "3-inline", "3-pipelined"])
@pytest.mark.parametrize("chunk_rows", [64, 4], ids=["one-chunk", "chunks"])
@pytest.mark.parametrize("embed_rate", [0.1, 0.0], ids=["embed-mask", "no-embed-mask"])
@pytest.mark.parametrize("ar, tar", [(2.0, 1.0), (0.0, 0.0)], ids=["ar-tar", "no-ar-tar"])
@pytest.mark.parametrize("bottleneck", [8, 5], ids=["square", "rect"])
@pytest.mark.parametrize("variant", LOSS_VARIANTS)
def test_step_loss_equals_the_taped_step_bitwise(variant, bottleneck, ar, tar, embed_rate,
                                                 chunk_rows, layers, pipelined, monkeypatch):
    # The hand-written backward sums in the tape's order, so the value and every
    # parameter's gradient are the taped step's bit for bit; that is what keeps
    # trained files byte-identical. Output dropout on and off: off, AR and TAR
    # land on one block. Pipelined, the trunk runs 5 steps as chunks of 2, 2 and 1 steps on
    # two threads (3 layers: layer 0 against layers 1-2), and the tape runs each layer whole.
    # The experts map bottleneck_dim to embed_dim: square as in the tiny configs, or not as
    # in the PTB configs.
    force_trunk(monkeypatch, pipelined)
    vocab, stream = tiny_corpus()
    batch = bptt_batches(stream, 2, 5)[0]
    spec = DistillLossSpec(variant, alpha=0.3)
    q = (np.random.default_rng(5).dirichlet(np.ones(vocab.size), size=batch.inputs.size)
         if spec.needs_teacher else None)
    for output_rate in (0.25, 0.0):
        rates = DropoutSpec(input_rate=0.2, output_rate=output_rate, hidden_rate=0.3,
                            embed_rate=embed_rate, other_rate=0.15, ar_weight=ar,
                            tar_weight=tar)
        config = tiny_config(vocab.size, lstm_layers=layers, last_hidden_dim=6, num_experts=3,
                             bottleneck_dim=bottleneck, dropout=rates)
        model = build_model(config, 4)
        monkeypatch.setattr(model_module, "CHUNK_ELEMENTS",
                            chunk_rows * config.num_experts * vocab.size)

        got, got_grads, _ = training.step_loss(model, batch, model.init_state(2), spec, q,
                                               np.random.default_rng(9))
        params = T.leaves(model.params)
        want = T.backprop(lambda: taped_step_loss(model, params, batch, model.init_state(2),
                                                  spec, q, np.random.default_rng(9)))
        assert got == want
        assert list(got_grads) == list(model.params)
        assert all(g.shape == model.params[name].shape for name, g in got_grads.items())
        for name, g in got_grads.items():
            assert np.array_equal(g, params[name].grad), (output_rate, name)


def test_step_loss_gradients_do_not_carry_over_between_calls():
    # nothing of one call's gradients reaches the next: two calls with the same masks
    # return equal gradients
    vocab, stream = tiny_corpus()
    rates = DropoutSpec(input_rate=0.2, output_rate=0.25, hidden_rate=0.3, embed_rate=0.1,
                        other_rate=0.15, ar_weight=2.0, tar_weight=1.0)
    model = build_model(tiny_config(vocab.size, lstm_layers=2, last_hidden_dim=6,
                                    dropout=rates), 4)
    batch = bptt_batches(stream, 2, 5)[0]

    def grads():
        return training.step_loss(model, batch, model.init_state(2), DistillLossSpec(), None,
                                  np.random.default_rng(9))[1]

    first, second = grads(), grads()
    assert list(first) == list(second) == list(model.params)
    for name in model.params:
        assert np.array_equal(first[name], second[name]), name


@pytest.mark.parametrize("ar, tar", [(0.0, 0.0), (2.0, 1.0)])
def test_step_loss_is_forward_plus_distill_plus_reg(ar, tar, monkeypatch):
    vocab, stream = tiny_corpus()
    rates = DropoutSpec(input_rate=0.2, output_rate=0.25, hidden_rate=0.3,
                        embed_rate=0.1, other_rate=0.15, ar_weight=ar, tar_weight=tar)
    model = build_model(tiny_config(vocab.size, lstm_layers=2, last_hidden_dim=6,
                                    dropout=rates), 4)
    batch = bptt_batches(stream, 2, 5)[0]
    q = np.random.default_rng(5).dirichlet(np.ones(vocab.size), size=batch.inputs.size)
    spec = DistillLossSpec("trust_reg", alpha=0.3)

    calls = []

    def explicit(rng):
        # the step's pieces in order: forward, loss, AR/TAR, then the trunk's backward
        out = model_forward(model, batch.inputs, model.init_state(2), rng)
        value, d_hidden, head = distill_loss(spec, out.log_probs,
                                             flatten_targets(batch.targets), q)
        d_dropped = d_raw = None
        if ar or tar:
            reg, d_dropped, d_raw = activation_reg(out.dropped, out.raw, 2, ar, tar)
            value += reg
        trunk = out.backward(d_hidden, d_dropped, d_raw, head.pop("embedding"))
        return value, trunk | head

    def counted(*args):
        calls.append(args)
        return activation_reg(*args)

    monkeypatch.setattr(training, "activation_reg", counted)
    got = training.step_loss(model, batch, model.init_state(2), spec, q,
                             np.random.default_rng(9))
    want = explicit(np.random.default_rng(9))
    assert np.array_equal(got[0], want[0])
    assert got[1].keys() == want[1].keys()
    assert all(np.array_equal(g, want[1][name]) for name, g in got[1].items())
    # with AR/TAR off, not even a zero penalty is computed
    assert len(calls) == (1 if ar or tar else 0)


def test_train_teacher_presence_contract():
    vocab, stream = tiny_corpus()
    model = build_model(tiny_config(vocab.size), 0)
    with pytest.raises(ConfigError, match="needs a teacher"):
        train(model, stream, stream,
              TrainConfig(loss=DistillLossSpec("kl_only"), epochs=1))
    with pytest.raises(ConfigError, match="no teacher"):
        train(model, stream, stream,
              TrainConfig(loss=DistillLossSpec("ce_only"), epochs=1),
              labels=OneHotOracle(vocab.size))


def test_fixed_interp_at_alpha_one_runs_without_teacher():
    # s = 1 - alpha = 0: the loss never reads Q, so no teacher is run for it
    vocab, stream = tiny_corpus()
    spec = DistillLossSpec("fixed_interp", alpha=1.0)
    assert not spec.needs_teacher
    assert DistillLossSpec("fixed_interp", alpha=0.999).needs_teacher
    cfg = TrainConfig(loss=spec, epochs=1, batch_size=2, bptt_len=6)
    with pytest.raises(ConfigError, match="alpha = 1 reads no teacher"):
        train(build_model(tiny_config(vocab.size), 0), stream, stream, cfg,
              labels=OneHotOracle(vocab.size))
    a = build_model(tiny_config(vocab.size), 0)
    b = build_model(tiny_config(vocab.size), 0)
    train(a, stream, stream, cfg)
    train(b, stream, stream, TrainConfig(loss=DistillLossSpec("ce_only"), epochs=1,
                                         batch_size=2, bptt_len=6))
    assert all(np.array_equal(p, b.params[name]) for name, p in a.params.items())


def test_train_zero_lr_leaves_params_bitwise():
    vocab, stream = tiny_corpus()
    model = build_model(tiny_config(vocab.size), 0)
    before = params_of(model)
    result = train(model, stream, stream,
                   TrainConfig(loss=DistillLossSpec("ce_only"), lr=0.0, epochs=3))
    for arr, p in zip(before, model.params.values()):
        assert np.array_equal(arr, p)
    # identical params every epoch -> identical validation every epoch
    ppls = [l.valid_ppl for l in result.logs]
    assert ppls[0] == ppls[1] == ppls[2]
    assert result.best_epoch == 1


def test_train_is_deterministic(monkeypatch):
    # two layers with every dropout and AR/TAR on, run twice with the trunk inline and
    # twice pipelined (chunks of 2 steps): all four runs end bitwise alike
    vocab, stream = tiny_corpus()
    rates = DropoutSpec(input_rate=0.2, output_rate=0.25, hidden_rate=0.3, embed_rate=0.1,
                        other_rate=0.15, ar_weight=2.0, tar_weight=1.0)

    def run(pipelined):
        force_trunk(monkeypatch, pipelined)
        model = build_model(tiny_config(vocab.size, lstm_layers=2, dropout=rates), 0)
        result = train(model, stream, stream,
                       TrainConfig(loss=DistillLossSpec("ce_only"), lr=2.0,
                                   epochs=4, batch_size=2, bptt_len=6, seed=9))
        return [l.line() for l in result.logs], params_of(model)

    lines1, params1 = run(False)
    for pipelined in (False, True, True):
        lines2, params2 = run(pipelined)
        assert lines1 == lines2
        for a, b in zip(params1, params2):
            assert np.array_equal(a, b)


def test_train_loss_decreases_on_memorizable_text():
    vocab, stream = tiny_corpus()
    model = build_model(tiny_config(vocab.size), 0)
    result = train(model, stream, stream,
                   TrainConfig(loss=DistillLossSpec("ce_only"), lr=2.0,
                               epochs=5, batch_size=2, bptt_len=6))
    assert result.logs[-1].train_loss < result.logs[0].train_loss
    assert result.best_valid_ppl < math.exp(result.logs[0].train_loss)


def test_train_restores_best_params():
    # lr=8 overshoots: validation worsens at epoch 3, so best is epoch 2
    vocab, stream = tiny_corpus()
    model = build_model(tiny_config(vocab.size), 3)
    result = train(model, stream, stream,
                   TrainConfig(loss=DistillLossSpec("ce_only"), lr=8.0,
                               epochs=3, batch_size=2, bptt_len=6, seed=3))
    ppls = [l.valid_ppl for l in result.logs]
    assert result.best_epoch == int(np.argmin(ppls)) + 1
    assert result.best_epoch < len(ppls)  # last epoch must not be best here
    assert result.best_valid_ppl == min(ppls)
    # the model now holds the best epoch's params
    assert perplexity(model, stream) == result.best_valid_ppl


def test_huge_asgd_patience_equals_disabled():
    vocab, stream = tiny_corpus()

    def run(patience):
        model = build_model(tiny_config(vocab.size), 3)
        result = train(model, stream, stream,
                       TrainConfig(loss=DistillLossSpec("ce_only"), lr=4.0,
                                   epochs=6, batch_size=2, bptt_len=6, seed=3,
                                   asgd_trigger_patience=patience))
        return [l.line() for l in result.logs], params_of(model)

    lines0, params0 = run(0)
    lines_big, params_big = run(1000)
    assert lines0 == lines_big
    for a, b in zip(params0, params_big):
        assert np.array_equal(a, b)


def test_asgd_averaging_changes_validation_after_trigger():
    # lr=8 plateaus at epoch 3; patience=1 arms the averager there, so
    # later validation scores diverge while the training losses stay equal.
    vocab, stream = tiny_corpus()

    def run(patience):
        model = build_model(tiny_config(vocab.size), 3)
        return train(model, stream, stream,
                     TrainConfig(loss=DistillLossSpec("ce_only"), lr=8.0,
                                 epochs=6, batch_size=2, bptt_len=6, seed=3,
                                 asgd_trigger_patience=patience)), model

    res0, _ = run(0)
    res1, model1 = run(1)
    assert [l.train_loss for l in res0.logs] == [l.train_loss for l in res1.logs]
    assert [l.valid_ppl for l in res0.logs] != [l.valid_ppl for l in res1.logs]
    # restored averaged params still reproduce the reported best score
    assert perplexity(model1, stream) == res1.best_valid_ppl


def test_train_reports_non_finite_loss_with_location():
    vocab, stream = tiny_corpus()
    model = build_model(tiny_config(vocab.size), 3)
    # a one-hot teacher drives Q[y] to 1, so the trust weight hits the clamp
    # at -log(1e-8); an absurd alpha then overflows the weighted loss to inf
    cfg = TrainConfig(loss=DistillLossSpec("trust_reg", alpha=1e308),
                      lr=1.0, epochs=1, batch_size=2, bptt_len=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingError, match=r"epoch 1, batch 0"):
            train(model, stream, stream, cfg, labels=OneHotOracle(vocab.size))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_train_reports_non_finite_gradient_norm_at_its_batch(monkeypatch, bad):
    vocab, stream = tiny_corpus()
    model = build_model(tiny_config(vocab.size), 3)
    steps = []

    def poisoned_step_loss(*args):
        value, grads, state = step_loss(*args)
        steps.append(None)
        if len(steps) == 2:
            grads["embedding"][0, 0] = bad
        return value, grads, state

    step_loss = training.step_loss
    monkeypatch.setattr(training, "step_loss", poisoned_step_loss)
    cfg = TrainConfig(loss=DistillLossSpec("ce_only"), epochs=1, batch_size=2, bptt_len=6)
    with pytest.raises(TrainingError,
                       match=r"non-finite gradient norm (inf|nan) at epoch 1, batch 1"):
        train(model, stream, stream, cfg)
    # the bad gradient was never applied
    assert all(np.all(np.isfinite(p)) for p in model.params.values())


def test_train_rejects_corrupt_teacher_rows():
    vocab, stream = tiny_corpus()

    class BadTeacher:
        vocab_size = vocab.size
        stream = TeacherEnsemble.stream

        def reset_state(self, batch_size):
            pass

        def soft_labels(self, inputs, targets):
            n = inputs.shape[0] * inputs.shape[1]
            return np.full((n, vocab.size), 2.0)  # rows sum to 2V

    model = build_model(tiny_config(vocab.size), 0)
    cfg = TrainConfig(loss=DistillLossSpec("kl_only"), epochs=1,
                      batch_size=2, bptt_len=6)
    with pytest.raises(DataError, match="sums to"):
        train(model, stream, stream, cfg, labels=BadTeacher())

    class WrongShapeTeacher(BadTeacher):
        def soft_labels(self, inputs, targets):
            return np.ones((3, 3, 3))

    model = build_model(tiny_config(vocab.size), 0)
    with pytest.raises(ShapeError):
        train(model, stream, stream, cfg, labels=WrongShapeTeacher())


def test_nan_parameter_surfaces_as_numeric_error():
    vocab, stream = tiny_corpus()
    model = build_model(tiny_config(vocab.size), 0)
    model.params["embedding"][0, 0] = math.nan
    with pytest.raises(NumericError):
        train(model, stream, stream,
              TrainConfig(loss=DistillLossSpec("ce_only"), epochs=1,
                          batch_size=2, bptt_len=6))


def test_distillation_with_real_teacher_runs_and_improves():
    vocab, stream = tiny_corpus()
    teacher = build_model(tiny_config(vocab.size), 50)
    train(teacher, stream, stream,
          TrainConfig(loss=DistillLossSpec("ce_only"), lr=2.0, epochs=8,
                      batch_size=2, bptt_len=6))
    student = build_model(tiny_config(vocab.size, hidden_dim=8), 0)
    before = perplexity(student, stream)
    result = train(student, stream, stream,
                   TrainConfig(loss=DistillLossSpec("trust_reg", alpha=0.1),
                               lr=1.0, epochs=8, batch_size=2, bptt_len=6),
                   labels=TeacherEnsemble([teacher]))
    assert result.best_valid_ppl < before


# ---------------------------------------------------------------------------
# Perplexity


def test_perplexity_matches_manual_mean_nll():
    vocab, stream = tiny_corpus()
    model = build_model(tiny_config(vocab.size), 4)
    # 71 targets: 32-step windows of 32, 32 and 7, the state carried across them
    state, nll = model.init_state(1), 0.0
    for lo in range(0, len(stream) - 1, 32):
        hi = min(lo + 32, len(stream) - 1)
        out = model_forward(model, stream.ids[None, lo:hi], state)
        y = stream.ids[lo + 1:hi + 1]
        nll -= out.log_probs.data[np.arange(len(y)), y].sum()
        state = out.state
    assert perplexity(model, stream) == pytest.approx(math.exp(nll / (len(stream) - 1)),
                                                      rel=1e-12)


def test_perplexity_window_clamps_to_short_streams():
    vocab, stream = tiny_corpus()
    model = build_model(tiny_config(vocab.size), 4)
    short = TokenStream(stream.ids[:12])
    # the 32-step window exceeds the stream; the clamp must cover all 11 targets
    ppl = perplexity(model, short)
    out = model_forward(model, short.ids[None, :-1], model.init_state(1))
    y = short.ids[1:]
    nll = -out.log_probs.data[np.arange(len(y)), y].mean()
    assert ppl == pytest.approx(math.exp(nll), rel=1e-12)


def test_perplexity_scores_trailing_partial_window():
    vocab, stream = tiny_corpus(n_lines=12)
    stream = TokenStream(stream.ids[:100])
    model = build_model(tiny_config(vocab.size), 4)
    # brute force: one token at a time, state carried, every one of the 99 targets
    state = model.init_state(1)
    nll = 0.0
    for t in range(99):
        out = model_forward(model, stream.ids[None, t:t + 1], state)
        nll -= out.log_probs.data[0, stream.ids[t + 1]]
        state = out.state
    assert perplexity(model, stream) == pytest.approx(math.exp(nll / 99), rel=1e-12)


def test_perplexity_rejects_tiny_streams():
    vocab, _ = tiny_corpus()
    model = build_model(tiny_config(vocab.size), 4)
    with pytest.raises(DataError):
        perplexity(model, TokenStream(np.array([1])))


def test_perplexity_of_uniform_model_is_vocab_size():
    vocab, stream = tiny_corpus()
    model = build_model(tiny_config(vocab.size), 4)
    for p in model.params.values():
        p[:] = 0.0
    assert perplexity(model, stream) == pytest.approx(vocab.size, rel=1e-12)


def _layer_threads(monkeypatch, model, fail=None):
    """Record (layer index, ran on the main thread) per lstm_layer call, in call order; the
    call for which fail(layer, calls so far) is true raises NumericError instead."""
    calls, layer = [], model_module.lstm_layer
    index = {id(model.params[f"lstm{i}.wh"]): i for i in range(model.config.lstm_layers)}

    def recorded(xs, h0, c0, wx, wh, b):
        i = index[id(wh)]
        calls.append((i, threading.current_thread() is threading.main_thread()))
        if fail is not None and fail(i, len(calls)):
            raise NumericError(f"layer {i}")
        return layer(xs, h0, c0, wx, wh, b)

    monkeypatch.setattr(model_module, "lstm_layer", recorded)
    return calls


def _stack(layers, bottleneck=5):
    # a last layer narrower than the others, as in the reference configs; 3 layers split as
    # layer 0 against layers 1-2
    return build_model(ModelConfig(vocab_size=30, embed_dim=6, lstm_layers=layers,
                                   hidden_dim=10, last_hidden_dim=8, bottleneck_dim=bottleneck,
                                   num_experts=3), seed=layers)


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("bottleneck", [5, 6], ids=["rect", "square"])
def test_perplexity_pipelined_and_inline_match_windowed_model_forward(layers, bottleneck,
                                                                      monkeypatch):
    model = _stack(layers, bottleneck)
    # 75 tokens: 74 targets in windows of 32, 32 and a short 10
    stream = TokenStream(np.random.default_rng(layers).integers(0, 30, size=75))
    # the loop perplexity ran before its stages: model_forward per window, one head call
    state, rows, total = model.init_state(1), [], 0.0
    for lo in range(0, 74, 32):
        out = model_forward(model, stream.ids[None, lo:min(lo + 32, 74)], state)
        rows.append(out.log_probs.hidden)
        state = out.state
    picked = model_module.MosRows(model, np.concatenate(rows)).picked(np.arange(74),
                                                                      stream.ids[1:])
    for window in np.split(picked, [32, 64]):
        total += float(-window.sum())
    want = math.exp(total / 74)

    calls = _layer_threads(monkeypatch, model)
    for pipelined, elements in ((True, 0), (False, 10 ** 12)):
        monkeypatch.setattr(model_module, "_PIPELINE_ELEMENTS", elements)
        calls.clear()
        assert perplexity(model, stream) == want
        assert len(calls) == 3 * layers
        on_pool = {i for i, main in calls if not main}
        assert on_pool == (set(range(1, layers)) if pipelined else set())


@pytest.mark.parametrize("stage", ["a", "b"])
def test_perplexity_stage_error_reaches_caller(stage, monkeypatch):
    # two layers: layer 0 is stage A on the caller, layer 1 stage B on the pool thread; the
    # failing layer raises at its first call after the first two lstm_layer calls
    model = _stack(2)
    monkeypatch.setattr(model_module, "_PIPELINE_ELEMENTS", 0)
    failing = {"a": 0, "b": 1}[stage]
    calls = _layer_threads(monkeypatch, model, lambda i, n: i == failing and n > 2)
    before = threading.active_count()
    with pytest.raises(NumericError, match=f"layer {failing}"):
        perplexity(model, TokenStream(np.random.default_rng(4).integers(0, 30, size=129)))
    assert threading.active_count() == before
    assert (failing, stage == "a") in calls[2:]  # it ran, and failed, on its stage's thread


@pytest.mark.parametrize("stage", ["a", "b"])
@pytest.mark.parametrize("phase", ["forward", "backward"])
def test_train_stage_error_reaches_caller(stage, phase, monkeypatch):
    # two layers, pipelined in chunks of 2 steps: stage A is layer 0, stage B layer 1. The
    # forward runs stage A on the caller and stage B on the pool thread; the backward runs
    # layer 1 on the caller and layer 0 on the pool thread. The failing layer raises at its
    # second chunk, in its forward or in its backward
    model = _stack(2)
    force_trunk(monkeypatch, True)
    failing = {"a": 0, "b": 1}[stage]
    index = {id(model.params[f"lstm{i}.wx"]): i for i in range(2)}
    calls, layer = [], model_module.lstm_layer

    def fails_second(i, what):
        calls.append((i, what, threading.current_thread() is threading.main_thread()))
        if i == failing and what == phase and sum(c[:2] == (i, what) for c in calls) == 2:
            raise NumericError(f"layer {i} {what}")

    def recorded(xs, h0, c0, wx, *rest):
        fails_second(index[id(wx)], "forward")
        *out, backward = layer(xs, h0, c0, wx, *rest)

        def checked(*args, **kw):
            fails_second(index[id(wx)], "backward")
            return backward(*args, **kw)

        return (*out, checked)

    monkeypatch.setattr(model_module, "lstm_layer", recorded)
    stream = TokenStream(np.random.default_rng(4).integers(0, 30, size=61))
    before = threading.active_count()
    with pytest.raises(NumericError, match=f"layer {failing} {phase}"):
        train(model, stream, stream, TrainConfig(loss=DistillLossSpec("ce_only"),
                                                 batch_size=2, bptt_len=6))
    assert threading.active_count() == before
    on_caller = (stage == "a") == (phase == "forward")
    assert (failing, phase, on_caller) in calls  # it ran, and failed, on its stage's thread
    assert (1 - failing, phase, not on_caller) in calls  # the other stage ran beside it


def test_one_step_forwards_make_no_pool(monkeypatch):
    # rescoring runs batch-[nodes] forwards of one step: one chunk, so even with the rule
    # forced on, no pool is made and no thread starts; a 40-step one makes its pool
    force_trunk(monkeypatch, True)
    made = []

    class Counted(model_module.ThreadPoolExecutor):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(model_module, "ThreadPoolExecutor", Counted)
    model = _stack(3)
    tokens = np.random.default_rng(5).integers(0, 30, size=(7, 1))
    model_forward(model, tokens, model.init_state(7))
    model_forward(model, tokens, model.init_state(7), np.random.default_rng(1))
    assert made == []
    model_forward(model, np.tile(tokens, 40), model.init_state(7))
    assert made == [(1,)]


# ---------------------------------------------------------------------------
# Checkpoints


def _trained_model(seed=5):
    vocab, stream = tiny_corpus()
    cfg = tiny_config(vocab.size,
                      dropout=DropoutSpec(input_rate=0.1, output_rate=0.2,
                                          ar_weight=1.5, tar_weight=0.25))
    model = build_model(cfg, seed)
    return vocab, stream, model


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    vocab, stream, model = _trained_model()
    path = tmp_path / "m.dlm"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert list(loaded.params) == list(model.params)
    for name, p in model.params.items():
        assert np.array_equal(p, loaded.params[name])
    tokens = stream.ids[None, :6]
    out_a = model_forward(model, tokens, model.init_state(1))
    out_b = model_forward(loaded, tokens, loaded.init_state(1))
    assert np.array_equal(out_a.log_probs.data, out_b.log_probs.data)


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    _, _, model = _trained_model()
    p1, p2 = tmp_path / "a.dlm", tmp_path / "b.dlm"
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_loads_writable_arrays_that_own_their_memory(tmp_path):
    # each payload is copied once, out of the file's bytes, into its own array
    _, _, model = _trained_model()
    path = tmp_path / "m.dlm"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for name, got in loaded.params.items():
        want = model.params[name]
        flags = got.flags
        assert flags.owndata and flags.writeable and flags.c_contiguous, name
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name
        got += 1.0  # writable in place, as SGD updates it


def test_checkpoint_save_failing_midway_keeps_the_previous_file(tmp_path):
    vocab, _ = tiny_corpus()
    path = tmp_path / "model.dlm"
    save_checkpoint(build_model(tiny_config(vocab.size), 0), path)
    before = path.read_bytes()
    model = build_model(tiny_config(vocab.size), 1)
    # the last parameter cannot be written, after every other one was
    model.params["out.b"] = np.array([object()] * vocab.size)
    with pytest.raises(TypeError):
        save_checkpoint(model, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.dlm"]


def test_checkpoint_truncation_names_path_and_offset(tmp_path):
    _, _, model = _trained_model()
    path = tmp_path / "m.dlm"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    vocab_size = model.config.vocab_size
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    msg = str(err.value)
    assert msg.startswith(f"{path}: truncated checkpoint")
    assert f"needed {8 * vocab_size} bytes for out.b payload" in msg
    assert f"at offset {len(blob) - 8 * vocab_size}, file has {len(blob) - 10}" in msg


def test_checkpoint_bad_magic(tmp_path):
    _, _, model = _trained_model()
    path = tmp_path / "m.dlm"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    path.write_bytes(b"XLM1\n" + blob[len(MAGIC):])
    with pytest.raises(FormatError, match="bad magic"):
        load_checkpoint(path)


def test_checkpoint_truncation_mid_payload(tmp_path):
    _, _, model = _trained_model()
    path = tmp_path / "m.dlm"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_truncation_missing_parameter(tmp_path):
    _, _, model = _trained_model()
    path = tmp_path / "m.dlm"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    end = blob.find(b"\n\n") + 2
    path.write_bytes(blob[:end])
    with pytest.raises(FormatError, match="missing parameter"):
        load_checkpoint(path)


def test_checkpoint_trailing_junk(tmp_path):
    _, _, model = _trained_model()
    path = tmp_path / "m.dlm"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes() + b"JUNKJUN")
    with pytest.raises(FormatError, match="7 trailing bytes"):
        load_checkpoint(path)


def test_checkpoint_metadata_shape_mismatch(tmp_path):
    _, _, model = _trained_model()
    path = tmp_path / "m.dlm"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    assert blob.count(b"hidden_dim=12\n") == 1
    path.write_bytes(blob.replace(b"hidden_dim=12\n", b"hidden_dim=13\n"))
    with pytest.raises(FormatError, match="config implies"):
        load_checkpoint(path)


def test_checkpoint_metadata_missing_key(tmp_path):
    _, _, model = _trained_model()
    path = tmp_path / "m.dlm"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"num_experts=", b"nom_experts="))
    with pytest.raises(FormatError, match="num_experts"):
        load_checkpoint(path)


def test_checkpoint_metadata_bad_value(tmp_path):
    _, _, model = _trained_model()
    path = tmp_path / "m.dlm"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"embed_dim=8\n", b"embed_dim=z\n"))
    with pytest.raises(FormatError, match="bad checkpoint metadata"):
        load_checkpoint(path)


@pytest.mark.parametrize("line", [b"hidden_dim=0", b"input_rate=1.5", b"ar_weight=nan"])
def test_checkpoint_metadata_out_of_range_names_the_file(tmp_path, line):
    # each parses, but the model config refuses it; among several teachers the path
    # tells which file is bad
    _, _, model = _trained_model()
    path = tmp_path / "m.dlm"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    key = line.split(b"=")[0] + b"="
    start = blob.index(b"\n" + key) + 1
    path.write_bytes(blob[:start] + line + blob[blob.index(b"\n", start):])
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: bad checkpoint metadata: "
                                          rf"{line.split(b'=')[0].decode()}"):
        load_checkpoint(path)


def test_checkpoint_unterminated_metadata(tmp_path):
    path = tmp_path / "m.dlm"
    path.write_bytes(MAGIC + b"vocab_size=5")
    with pytest.raises(FormatError, match="unterminated"):
        load_checkpoint(path)


def test_ensemble_from_checkpoints(tmp_path):
    vocab, stream = tiny_corpus()
    m1 = build_model(tiny_config(vocab.size), 1)
    m2 = build_model(tiny_config(vocab.size, hidden_dim=10), 2)
    for m, name in ((m1, "a.dlm"), (m2, "b.dlm")):
        save_checkpoint(m, tmp_path / name)
    ens = TeacherEnsemble([load_checkpoint(tmp_path / n) for n in ("a.dlm", "b.dlm")])
    assert len(ens.members) == 2
    live = TeacherEnsemble([m1, m2])
    batch = stream.ids[None, :5]
    ens.reset_state(1)
    live.reset_state(1)
    assert np.array_equal(ens.soft_labels(batch, None), live.soft_labels(batch, None))


def test_ensemble_from_checkpoints_vocab_mismatch(tmp_path):
    vocab, _ = tiny_corpus()
    m1 = build_model(tiny_config(vocab.size), 1)
    m2 = build_model(tiny_config(vocab.size + 2), 2)
    save_checkpoint(m1, tmp_path / "a.dlm")
    save_checkpoint(m2, tmp_path / "b.dlm")
    with pytest.raises(ConfigError, match="disagree"):
        TeacherEnsemble([load_checkpoint(tmp_path / n) for n in ("a.dlm", "b.dlm")])


# ---------------------------------------------------------------------------
# The soft-label worker


def two_teachers(vocab):
    return TeacherEnsemble([build_model(tiny_config(vocab.size), 1),
                            build_model(tiny_config(vocab.size, hidden_dim=10), 2)])


def test_worker_trains_bitwise_as_the_in_process_teacher():
    vocab, stream = tiny_corpus()
    cfg = TrainConfig(loss=DistillLossSpec("trust_reg", alpha=0.5), lr=20.0, epochs=4,
                      batch_size=2, bptt_len=6, seed=3, asgd_trigger_patience=1)
    # an odd count: epoch 2's batch 0 overwrites epoch 1's last Q in the receive array
    assert len(bptt_batches(stream, cfg.batch_size, cfg.bptt_len)) % 2 == 1
    a = build_model(tiny_config(vocab.size), 0)
    b = build_model(tiny_config(vocab.size), 0)
    res = train(a, stream, stream, cfg, labels=two_teachers(vocab))
    want = in_process_train(b, stream, stream, cfg, two_teachers(vocab))
    # a plateau after epoch 2: ASGD averaged through epochs 3 and 4
    assert res.averager.steps > 1
    assert res.logs == want
    assert all(np.array_equal(p, b.params[name]) for name, p in a.params.items())


def test_in_process_labels_train_bitwise_as_the_worker(monkeypatch):
    vocab, stream = tiny_corpus()
    cfg = TrainConfig(loss=DistillLossSpec("trust_reg", alpha=0.5), lr=20.0, epochs=4,
                      batch_size=2, bptt_len=6, seed=3, asgd_trigger_patience=1)
    a = build_model(tiny_config(vocab.size), 0)
    b = build_model(tiny_config(vocab.size), 0)
    forked = train(a, stream, stream, cfg, labels=two_teachers(vocab))

    def no_fork():
        raise AssertionError("train() forked a worker")

    monkeypatch.setattr(os, "fork", no_fork)
    got = train(b, stream, stream, cfg, labels=InProcessLabels(two_teachers(vocab)))
    assert got.logs == forked.logs
    assert (got.bad_epochs, got.best_epoch) == (forked.bad_epochs, forked.best_epoch)
    assert all(np.array_equal(p, b.params[name]) for name, p in a.params.items())


def test_train_returns_its_run_state_after_a_plateau():
    # lr=8 plateaus at epoch 3, the last: patience 1 arms the averager there, and the
    # model goes back to epoch 2's params
    vocab, stream = tiny_corpus()
    cfg = TrainConfig(loss=DistillLossSpec("ce_only"), lr=8.0, epochs=3, batch_size=2,
                      bptt_len=6, seed=3, asgd_trigger_patience=1)
    model = build_model(tiny_config(vocab.size), 3)
    run = train(model, stream, stream, cfg)
    ppls = [l.valid_ppl for l in run.logs]
    best = [p < min(ppls[:i], default=math.inf) for i, p in enumerate(ppls)]
    assert run.epoch == len(run.logs) == cfg.epochs
    assert best == [True, True, False]
    assert (run.best_epoch, run.bad_epochs) == (2, 1)
    assert run.best_valid_ppl == ppls[1]
    assert run.averager.steps == 1  # armed at the end of epoch 3, not yet updated
    assert isinstance(run.dropout_rng, np.random.Generator)
    assert run.best_params.keys() == model.params.keys()
    assert all(np.array_equal(run.best_params[name], p) for name, p in model.params.items())


def test_worker_never_overwrites_a_q_in_use(monkeypatch):
    vocab, stream = tiny_corpus()
    oracle = OneHotOracle(vocab.size)
    seen = []

    def slow_step_loss(model, batch, state, spec, q, rng):
        before = q.copy()
        time.sleep(0.05)  # the teacher is far faster; a Q received early would land here now
        out = step_loss(model, batch, state, spec, q, rng)
        seen.append(np.array_equal(q, before)
                    and np.array_equal(q, oracle.soft_labels(None, batch.targets)))
        return out

    step_loss = training.step_loss
    monkeypatch.setattr(training, "step_loss", slow_step_loss)
    cfg = TrainConfig(loss=DistillLossSpec("kl_only"), epochs=2, batch_size=2, bptt_len=6)
    train(build_model(tiny_config(vocab.size), 0), stream, stream, cfg, labels=oracle)
    assert seen == [True] * 10


def test_teacher_error_in_worker_is_raised_by_train():
    vocab, stream = tiny_corpus()

    class FailingTeacher(OneHotOracle):
        calls = 0

        def soft_labels(self, inputs, targets):
            self.calls += 1
            if self.calls == 3:
                raise NumericError("teacher log-probs are nan at call 3")
            return super().soft_labels(inputs, targets)

    cfg = TrainConfig(loss=DistillLossSpec("kl_only"), epochs=1, batch_size=2, bptt_len=6)
    with pytest.raises(NumericError, match=r"^teacher log-probs are nan at call 3$"):
        train(build_model(tiny_config(vocab.size), 0), stream, stream, cfg,
              labels=FailingTeacher(vocab.size))


def test_worker_death_is_raised_naming_its_exit_code(monkeypatch):
    vocab, stream = tiny_corpus()
    teacher = OneHotOracle(vocab.size)
    calls = []

    def dying(inputs, targets):
        calls.append(None)
        if len(calls) == 3:
            os._exit(3)
        return OneHotOracle.soft_labels(teacher, inputs, targets)

    monkeypatch.setattr(teacher, "soft_labels", dying)
    cfg = TrainConfig(loss=DistillLossSpec("kl_only"), epochs=1, batch_size=2, bptt_len=6)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=r"exited with code 3 before epoch 1, batch 2"):
        train(build_model(tiny_config(vocab.size), 0), stream, stream, cfg, labels=teacher)
    assert time.monotonic() - start < 10


def test_error_mid_run_stops_the_worker_promptly(monkeypatch):
    vocab, stream = tiny_corpus()
    calls = []

    def stopping_step_loss(*args):
        calls.append(None)
        if len(calls) == 7:  # epoch 2, batch 1: the worker maybe blocked sending the next Q
            raise TrainingError("stop at step 7")
        return step_loss(*args)

    step_loss = training.step_loss
    monkeypatch.setattr(training, "step_loss", stopping_step_loss)
    cfg = TrainConfig(loss=DistillLossSpec("kl_only"), epochs=3, batch_size=2, bptt_len=6)
    assert len(bptt_batches(stream, cfg.batch_size, cfg.bptt_len)) == 5
    start = time.monotonic()
    with pytest.raises(TrainingError, match=r"^stop at step 7$"):
        train(build_model(tiny_config(vocab.size), 0), stream, stream, cfg,
              labels=OneHotOracle(vocab.size))
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []


def test_closing_the_labels_while_the_worker_is_blocked_in_send_stops_it_promptly():
    vocab, stream = tiny_corpus()
    labels = OneHotOracle(50_000).stream(bptt_batches(stream, 2, 6), 2)
    next(labels)  # 12 x 50,000: 4.8 MB, more than the socket's buffer holds
    time.sleep(0.2)  # the worker is blocked sending batch 1's Q
    assert len(multiprocessing.active_children()) == 1
    start = time.monotonic()
    labels.close()
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []


def test_teacher_vocab_mismatch_is_a_config_error_before_any_fork(monkeypatch):
    vocab, stream = tiny_corpus()

    def no_fork():
        raise AssertionError("train() forked a worker")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = TrainConfig(loss=DistillLossSpec("kl_only"), epochs=1, batch_size=2, bptt_len=6)
    with pytest.raises(ConfigError, match=rf"teacher vocab size {vocab.size + 1} != "
                                          rf"model vocab size {vocab.size}"):
        train(build_model(tiny_config(vocab.size), 0), stream, stream, cfg,
              labels=OneHotOracle(vocab.size + 1))


@pytest.mark.parametrize("extra", [1, -1], ids=["one-row-too-many", "one-row-too-few"])
def test_wrong_shaped_q_is_a_shape_error_raised_promptly(extra):
    # without the worker's check, one row too many would shift every later Q by a row,
    # and each shifted Q would still be rows of distributions
    vocab, stream = tiny_corpus()

    class RowShiftTeacher(OneHotOracle):
        def soft_labels(self, inputs, targets):
            q = super().soft_labels(inputs, targets)
            return np.concatenate([q, q[:1]]) if extra > 0 else q[:-1]

    cfg = TrainConfig(loss=DistillLossSpec("kl_only"), epochs=2, batch_size=2, bptt_len=6)
    start = time.monotonic()
    rows = cfg.batch_size * cfg.bptt_len
    with pytest.raises(ShapeError, match=rf"^teacher soft labels \({rows + extra}, {vocab.size}\) "
                                         rf"!= \({rows}, {vocab.size}\)"):
        train(build_model(tiny_config(vocab.size), 0), stream, stream, cfg,
              labels=RowShiftTeacher(vocab.size))
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []


def test_soft_labels_fork_at_the_first_next_only():
    vocab, stream = tiny_corpus()
    batches = bptt_batches(stream, 2, 6)
    labels = OneHotOracle(vocab.size).stream(batches, 1)
    assert multiprocessing.active_children() == []
    np.testing.assert_array_equal(next(labels),
                                  OneHotOracle(vocab.size).soft_labels(None, batches[0].targets))
    assert len(multiprocessing.active_children()) == 1
    labels.close()
    assert multiprocessing.active_children() == []

    unstarted = OneHotOracle(vocab.size).stream(batches, 1)
    unstarted.close()
    assert multiprocessing.active_children() == []
    with pytest.raises(StopIteration):
        next(unstarted)


def test_receiving_q_allocates_nothing_per_batch():
    # each Q is read into the array the previous one was read into
    vocab, stream = tiny_corpus()
    batches = bptt_batches(stream, 2, 6)
    labels = OneHotOracle(50_000).stream(batches, 2)
    first = next(labels)  # 12 x 50,000: 4.8 MB
    tracemalloc.start()
    try:
        for i in range(1, 2 * len(batches)):
            q = next(labels)
            y = flatten_targets(batches[i % len(batches)].targets)
            assert np.shares_memory(q, first) and q[np.arange(12), y].sum() == q.sum() == 12
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        labels.close()
    assert peak < first.nbytes / 100, f"peak {peak} B against a {first.nbytes} B Q"

