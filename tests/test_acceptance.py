"""End-to-end acceptance checks, one criterion per test.

Each test prints a single [acceptance] PASS/FAIL line (visible under
pytest -s) and then asserts, so the suite stays honest either way.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from lmdistill.cli import CONFIG_KEYS, TEACHER_KEYS, dispatch, grad_check_rows, load_config
from lmdistill.data import build_vocab, encode
from lmdistill.losses import (LOSS_VARIANTS, DistillLossSpec, distill_loss,
                              trust_weights)
from lmdistill.model import (ModelConfig, build_model, model_forward,
                             param_count)
from lmdistill.rescore import edit_ops
from lmdistill.training import TeacherEnsemble, TrainConfig, perplexity, train
from oracles import OneHotOracle
from tape import LogProbRows, Tape, Tensor, backward, log_softmax_rows

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(num, name, ok, detail=""):
    line = f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_checks():
    # the full training loss (dropouts, AR/TAR, every parameter) per variant;
    # per-op checks live in test_tensor.py and test_model.py
    t0 = time.time()
    rows = grad_check_rows()
    elapsed = time.time() - t0
    worst = max(r.max_rel_err for _, r in rows)
    failed = [name for name, r in rows if not r.passed]
    variants = [name.split()[0] for name, _ in rows]
    ok = not failed and variants == list(LOSS_VARIANTS) and elapsed < 60.0
    report(1, "finite-difference gradients", ok,
           f"{len(rows)} loss variants, worst rel err {worst:.2e}, {elapsed:.1f}s"
           + (f", failed: {failed}" if failed else ""))


def test_criterion_2_loss_identities():
    rng = np.random.default_rng(2)
    n, v = 6, 9
    y = rng.integers(0, v, size=n)
    q_onehot = np.zeros((n, v))
    q_onehot[np.arange(n), y] = 1.0
    ce = DistillLossSpec("ce_only")
    kl = DistillLossSpec("kl_only")

    def loss_and_grad(loss_of_log_p):
        x = Tensor(rng.standard_normal((n, v)).copy(), requires_grad=True)
        with Tape() as tape:
            backward(loss_of_log_p(LogProbRows(log_softmax_rows(x))), tape)
        return x

    rng = np.random.default_rng(2)  # same logits for every loss below
    ce_x = loss_and_grad(lambda log_p: distill_loss(ce, log_p, y))
    rng = np.random.default_rng(2)
    kl_x = loss_and_grad(lambda log_p: distill_loss(kl, log_p, y, q_onehot))
    grads_match = np.array_equal(ce_x.grad, kl_x.grad)

    x = Tensor(np.random.default_rng(3).standard_normal((n, v)))
    log_p = LogProbRows(log_softmax_rows(x))
    ce_v = float(distill_loss(ce, log_p, y).data)
    kl_v = float(distill_loss(kl, log_p, y, q_onehot).data)
    values_match = math.isclose(ce_v, kl_v, rel_tol=1e-12)

    q = np.random.default_rng(4).uniform(0.1, 1.0, (n, v))
    q /= q.sum(axis=1, keepdims=True)
    ends_match = (  # at alpha 1 fixed_interp reads no teacher, so it takes none
        float(distill_loss(DistillLossSpec("fixed_interp", 1.0), log_p, y).data) == ce_v
        and float(distill_loss(DistillLossSpec("fixed_interp", 0.0), log_p, y, q).data)
        == float(distill_loss(kl, log_p, y, q).data))

    row = np.full(v, 0.01)
    row[2] = 1.0 - math.exp(-1.0)
    alpha = 0.7
    anchor = math.isclose(trust_weights(row[None], np.array([2]), alpha)[0], alpha,
                          rel_tol=1e-12)
    row[2] = 1.0
    clamp_want = -alpha * np.log(1.0 - (1.0 - 1e-8))
    clamped = trust_weights(row[None], np.array([2]), alpha)[0] == clamp_want
    vec = np.array([trust_weights(np.stack([row, row]), np.array([2, 2]), alpha)])
    vectorized = bool(np.all(vec == clamp_want))

    ok = grads_match and values_match and ends_match and anchor and clamped and vectorized
    report(2, "loss identities", ok,
           f"one-hot CE/KL grads bitwise={grads_match}, values 1e-12={values_match}, "
           f"interp endpoints={ends_match}, trust anchor/clamp={anchor}/{clamped}")


def test_criterion_3_memorization():
    lines = ["aa bb cc dd ee ff gg hh"] * 8
    vocab = build_vocab(lines, cap=20)
    stream = encode(lines, vocab)
    model = build_model(ModelConfig(vocab_size=vocab.size, embed_dim=16,
                                    lstm_layers=1, hidden_dim=32,
                                    bottleneck_dim=16, num_experts=2), 3)
    cfg = TrainConfig(loss=DistillLossSpec("ce_only"), lr=2.0, grad_clip=0.25,
                      epochs=200, batch_size=2, bptt_len=9, seed=0)
    t0 = time.time()
    train(model, stream, stream, cfg)
    elapsed = time.time() - t0
    ppl = perplexity(model, stream)
    ok = ppl < 1.5 and elapsed < 300.0
    report(3, "memorizes a tiny corpus", ok,
           f"train ppl {ppl:.4f} (< 1.5) in {elapsed:.1f}s (< 300s)")


def _markov_lines(rng, n_lines, line_len, n_words, n_succ):
    # Sparse-successor text: structured enough for a small model to learn.
    words = [f"w{i}" for i in range(n_words)]
    succ = {w: rng.choice(n_words, size=n_succ, replace=False) for w in words}
    lines = []
    for _ in range(n_lines):
        cur = int(rng.integers(n_words))
        toks = [words[cur]]
        for _ in range(line_len - 1):
            cur = int(rng.choice(succ[words[cur]]))
            toks.append(words[cur])
        lines.append(" ".join(toks))
    return lines


def _mean_kl(teacher, student, stream):
    inputs = stream.ids[None, :-1]
    tout = model_forward(teacher, inputs, teacher.init_state(1))
    sout = model_forward(student, inputs, student.init_state(1))
    q = np.exp(tout.log_probs.data)
    return float(np.mean(np.sum(
        q * (tout.log_probs.data - sout.log_probs.data), axis=1)))


def test_criterion_4_distillation_fidelity():
    rng = np.random.default_rng(12345)
    train_lines = _markov_lines(rng, 30, 9, 8, 3)
    held_lines = _markov_lines(rng, 8, 9, 8, 3)
    vocab = build_vocab(train_lines, cap=30)
    train_stream = encode(train_lines, vocab)
    held_stream = encode(held_lines, vocab)

    t0 = time.time()
    kls = []
    for seed in (0, 1, 2):
        teacher = build_model(ModelConfig(vocab_size=vocab.size, embed_dim=16,
                                          lstm_layers=1, hidden_dim=32,
                                          bottleneck_dim=16, num_experts=2),
                              seed + 50)
        train(teacher, train_stream, train_stream,
              TrainConfig(loss=DistillLossSpec("ce_only"), lr=2.0, epochs=20,
                          batch_size=2, bptt_len=8, seed=seed + 50))
        # student at half the teacher's hidden width
        student = build_model(ModelConfig(vocab_size=vocab.size, embed_dim=16,
                                          lstm_layers=1, hidden_dim=16,
                                          bottleneck_dim=16, num_experts=2), seed)
        train(student, train_stream, train_stream,
              TrainConfig(loss=DistillLossSpec("kl_only"), lr=2.0, epochs=120,
                          batch_size=2, bptt_len=8, seed=seed),
              labels=TeacherEnsemble([teacher]))
        kls.append(_mean_kl(teacher, student, held_stream))
    elapsed = time.time() - t0
    ok = all(k < 0.05 for k in kls) and elapsed < 600.0
    report(4, "distilled student tracks its teacher", ok,
           f"held-out KL per seed {[f'{k:.4f}' for k in kls]} (each < 0.05), "
           f"{elapsed:.0f}s (< 600s)")


def test_criterion_5_one_hot_kl_equals_ce_training():
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(6)]
    lines = [" ".join(rng.choice(words, size=6)) for _ in range(12)]
    vocab = build_vocab(lines, cap=20)
    stream = encode(lines, vocab)
    lane = len(stream) // 2
    assert (lane - 1) // 4 == 10  # exactly ten optimizer updates below

    def run(variant, teacher):
        model = build_model(ModelConfig(vocab_size=vocab.size, embed_dim=8,
                                        lstm_layers=1, hidden_dim=12,
                                        bottleneck_dim=8, num_experts=2), 7)
        train(model, stream, stream,
              TrainConfig(loss=DistillLossSpec(variant), lr=1.0, epochs=1,
                          batch_size=2, bptt_len=4, seed=7),
              labels=teacher)
        return model

    m_ce = run("ce_only", None)
    m_kl = run("kl_only", OneHotOracle(vocab.size))
    diffs = [name for name, a in m_ce.params.items()
             if not np.array_equal(a, m_kl.params[name])]
    report(5, "one-hot distillation equals CE training", not diffs,
           "10 updates, every parameter bitwise equal" if not diffs
           else f"parameters diverged: {diffs}")


def _levenshtein(ref, hyp):
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    step = 0 if ref[0] == hyp[0] else 1
    return min(_levenshtein(ref[1:], hyp[1:]) + step,
               _levenshtein(ref[1:], hyp) + 1,
               _levenshtein(ref, hyp[1:]) + 1)


def test_criterion_6_wer_against_brute_force():
    rng = np.random.default_rng(6)
    bad = 0
    for _ in range(60):
        ref = [f"t{i}" for i in rng.integers(0, 3, size=rng.integers(0, 7))]
        hyp = [f"t{i}" for i in rng.integers(0, 3, size=rng.integers(0, 7))]
        s, i, d = edit_ops(ref, hyp)
        if (s + i + d != _levenshtein(ref, hyp)
                or i - d != len(hyp) - len(ref)
                or min(s, i, d) < 0):
            bad += 1
    report(6, "edit distance matches exhaustive search", bad == 0,
           f"60 random alignments, {bad} disagreements")


def test_criterion_7_rescoring_beats_first_pass(tmp_path, capsys):
    # 20 utterances: the acoustically preferred rank-1 hypothesis always has
    # one corrupted word; the correct sentence sits at rank 2, 0.3 behind.
    patterns = [f"w{2*i} w{2*i+1} w{(2*i+2) % 10} w{(2*i+3) % 10}".split()
                for i in range(5)]
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.txt").write_text(
        "\n".join(" ".join(p) for p in patterns for _ in range(20)) + "\n")
    (data / "valid.txt").write_text(
        "\n".join(" ".join(p) for p in patterns) + "\n")
    rc = dispatch(["train-teacher", "--data-dir", str(data),
                   "--out", str(tmp_path / "lm"),
                   "--set", "embed_dim=16", "--set", "hidden_dim=32",
                   "--set", "bottleneck_dim=16", "--set", "num_experts=2",
                   "--set", "epochs=30", "--set", "lr=2.0",
                   "--set", "batch_size=2", "--set", "bptt_len=8",
                   "--set", "vocab_cap=20"])
    assert rc == 0

    nbest, refs = [], []
    first_pass = {}
    for j in range(20):
        true = patterns[j % 5]
        corrupted = list(true)
        corrupted[1] = patterns[(j + 1) % 5][1]
        utt = f"utt{j:02d}"
        nbest.append(f"{utt}\t1\t-5.0\t0.0\t{' '.join(corrupted)}")
        nbest.append(f"{utt}\t2\t-5.3\t0.0\t{' '.join(true)}")
        refs.append(f"{utt}\t{' '.join(true)}")
        first_pass[utt] = " ".join(corrupted)
    (tmp_path / "nbest.tsv").write_text("\n".join(nbest) + "\n")
    (tmp_path / "refs.tsv").write_text("\n".join(refs) + "\n")
    capsys.readouterr()

    def run_wer(lm_weight):
        rc = dispatch(["rescore", "--model", str(tmp_path / "lm" / "model.dlm"),
                       "--nbest", str(tmp_path / "nbest.tsv"),
                       "--refs", str(tmp_path / "refs.tsv"),
                       "--set", f"lm_weight={lm_weight}"])
        assert rc == 0
        out = capsys.readouterr().out
        picks = dict(l.split("\t") for l in out.splitlines() if l.startswith("utt"))
        wer_line = [l for l in out.splitlines() if l.startswith("WER=")][0]
        return picks, float(wer_line.split("%")[0][len("WER="):])

    picks0, wer0 = run_wer(0)
    picks1, wer1 = run_wer(1)
    reproduces_first_pass = picks0 == first_pass
    ok = reproduces_first_pass and wer1 < wer0
    report(7, "LM rescoring beats the first pass", ok,
           f"lm_weight=0 reproduces rank 1: {reproduces_first_pass}; "
           f"WER {wer0:.2f}% -> {wer1:.2f}%")


def test_criterion_8_parameter_counts():
    published = {
        "ptb-teacher.cfg": (21_875_495, 22_000_000),
        "ptb-student.cfg": (7_097_655, 7_000_000),
        "wsj-teacher.cfg": (65_270_807, 65_000_000),
        "wsj-student.cfg": (12_046_757, 12_000_000),
    }
    details = []
    ok = True
    for name, (exact, approx) in published.items():
        cfg = load_config(CONFIGS / name, keys=TEACHER_KEYS if "teacher" in name else CONFIG_KEYS)
        config = cfg.model_config(vocab_size=cfg["vocab_cap"])
        count = param_count(config)
        within = abs(count / approx - 1.0) <= 0.10
        ok &= count == exact and within
        details.append(f"{name.split('.')[0]}={count:,}")
    # instantiating one of them proves the closed form matches allocation
    student_cfg = load_config(CONFIGS / "ptb-student.cfg", keys=CONFIG_KEYS)
    config = student_cfg.model_config(vocab_size=student_cfg["vocab_cap"])
    model = build_model(config, 0)
    allocated = sum(p.size for p in model.params.values())
    ok &= allocated == 7_097_655
    report(8, "parameter budgets", ok,
           "; ".join(details) + f"; allocated={allocated:,}")


def test_criterion_9_cli_determinism(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(9)
    words = [f"w{i}" for i in range(8)]
    for name, n in (("train.txt", 10), ("valid.txt", 4)):
        lines = [" ".join(rng.choice(words, size=8)) for _ in range(n)]
        (data / name).write_text("\n".join(lines) + "\n")

    def run(out):
        rc = dispatch(["train-teacher", "--data-dir", str(data),
                       "--out", str(out),
                       "--set", "embed_dim=8", "--set", "hidden_dim=10",
                       "--set", "bottleneck_dim=8", "--set", "epochs=3",
                       "--set", "batch_size=2", "--set", "bptt_len=6",
                       "--set", "vocab_cap=30", "--set", "seed=4"])
        assert rc == 0
        return out

    a = run(tmp_path / "run_a")
    b = run(tmp_path / "run_b")
    same_model = (a / "model.dlm").read_bytes() == (b / "model.dlm").read_bytes()
    same_log = (a / "train.log").read_bytes() == (b / "train.log").read_bytes()
    same_vocab = (a / "vocab.txt").read_bytes() == (b / "vocab.txt").read_bytes()
    ok = same_model and same_log and same_vocab
    report(9, "repeated runs are byte-identical", ok,
           f"model={same_model} log={same_log} vocab={same_vocab}")
