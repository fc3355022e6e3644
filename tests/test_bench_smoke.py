"""The benchmark still runs against this tree: its smoke mode, end to end.

The benchmark wraps library call sites by name (e.g. lmdistill.model.mos_log_probs),
so a refactor that renames one shows up here. Smoke mode checks the result schema
and the output checks, never timings; it writes only under bench/work and bench/out.
"""

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import lmdistill.model as model_module
from lmdistill import rescore, training
from lmdistill.data import TokenStream, build_vocab
from lmdistill.model import ModelConfig, build_model

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import spans  # noqa: E402

# Sites the tracer skips because the functions are gone (dropout masks have
# come from variational_mask since the per-call generator replaced them;
# rescoring scores each utterance as one prefix trie, not per hypothesis;
# each LSTM layer is one lstm_layer op per window, not a cell per step; a
# training step's backward is written by hand, with no tape to walk).
KNOWN_ABSENT = {("lmdistill.model", "drop_connect"), ("lmdistill.model", "embedding_dropout"),
                ("lmdistill.rescore", "score_hypothesis"), ("lmdistill.model", "lstm_step"),
                ("lmdistill.training", "backward")}


SITES = [site[:2] for site in spans.ENTRY_SITES + spans.CALL_SITES]


@pytest.mark.parametrize("owner, attr", SITES, ids=lambda part: part)
def test_bench_call_site_exists(owner, attr):
    # the tracer skips a missing site silently, which would zero its metric
    present = attr in vars(spans._resolve(owner))
    assert present != ((owner, attr) in KNOWN_ABSENT), f"{owner}.{attr}"


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert lines and lines[-1] == "smoke: ok", proc.stdout[-2000:]


def _install_tracer(monkeypatch):
    sites = spans.ENTRY_SITES + spans.CALL_SITES
    for owner_name, attr, *_ in sites:
        owner = spans._resolve(owner_name)
        if attr in vars(owner):
            monkeypatch.setattr(owner, attr, getattr(owner, attr))  # undone after the test
    tracer = spans.Tracer()
    tracer.install(sites)
    return tracer


def test_traced_eval_spans_nest(monkeypatch):
    # --smoke traces only tiny shapes, whose eval heads never reach the helper thread;
    # here, with head chunks of 8 rows, each head call has four chunks or more, so the
    # caller and the helper thread walk two chunks or more each
    monkeypatch.setattr(model_module, "_PICK_ELEMENTS", 8 * 2 * 40)
    calls, pick_rows = [], model_module._pick_rows

    def counted(model, out_matrix, hidden, *rest):
        calls.append((threading.current_thread() is threading.main_thread(), len(hidden)))
        return pick_rows(model, out_matrix, hidden, *rest)

    monkeypatch.setattr(model_module, "_pick_rows", counted)
    tracer = _install_tracer(monkeypatch)
    model = build_model(ModelConfig(vocab_size=40, embed_dim=8, lstm_layers=1, hidden_dim=8,
                                    bottleneck_dim=8, num_experts=2), seed=1)
    training.perplexity(model, TokenStream(np.random.default_rng(2).integers(0, 40, size=65)))
    words = [f"w{i}" for i in range(20)]
    vocab = build_vocab([" ".join(words)], cap=40)
    hypotheses = [words[i:i + 7] for i in range(0, 14, 2)]  # 50 trie nodes
    rescore.score_utterance(model, vocab, hypotheses)
    metrics = spans.summarize(tracer.take(), 0, 0.0)
    assert metrics["model.mos_head_calls"] >= 1
    assert calls and min(rows for _, rows in calls) > 3 * 8
    assert sorted({main for main, _ in calls}) == [False, True]  # the helper thread got rows


def test_traced_eval_spans_nest_with_stage_b_on_the_pool(monkeypatch):
    # a 2-layer model with the trunk's pipeline forced on: perplexity's windows are its
    # chunks, and layer 1 runs on the pool thread, calling nothing the tracer wraps
    monkeypatch.setattr(model_module, "_PIPELINE_ELEMENTS", 0)
    calls, layer = [], model_module.lstm_layer

    def counted(xs, h0, c0, wx, wh, b):
        calls.append((threading.current_thread() is threading.main_thread(), wh.shape[0]))
        return layer(xs, h0, c0, wx, wh, b)

    monkeypatch.setattr(model_module, "lstm_layer", counted)
    tracer = _install_tracer(monkeypatch)
    model = build_model(ModelConfig(vocab_size=40, embed_dim=8, lstm_layers=2, hidden_dim=8,
                                    last_hidden_dim=6, bottleneck_dim=8, num_experts=2), seed=1)
    ppl = training.perplexity(model, TokenStream(np.random.default_rng(2).integers(0, 40, 129)))
    metrics = spans.summarize(tracer.take(), 0, 0.0)  # raises if spans break nesting
    assert np.isfinite(ppl) and metrics["model.mos_head_calls"] == 1
    assert sorted(set(calls)) == [(False, 6), (True, 8)]  # layer 1 on the pool, layer 0 not


def test_traced_train_spans_nest_with_stage_b_on_the_pool(monkeypatch):
    # train() of a 2-layer model with the trunk's wavefront forced on (chunks of 2 steps):
    # layer 1's forward chunks run on the pool thread and call nothing the tracer wraps
    monkeypatch.setattr(model_module, "_PIPELINE_ELEMENTS", 0)
    monkeypatch.setattr(model_module, "_CHUNK_STEPS", 2)
    calls, layer = [], model_module.lstm_layer

    def counted(xs, h0, c0, wx, wh, b):
        calls.append((threading.current_thread() is threading.main_thread(), wh.shape[0]))
        return layer(xs, h0, c0, wx, wh, b)

    monkeypatch.setattr(model_module, "lstm_layer", counted)
    tracer = _install_tracer(monkeypatch)
    model = build_model(ModelConfig(vocab_size=40, embed_dim=8, lstm_layers=2, hidden_dim=8,
                                    last_hidden_dim=6, bottleneck_dim=8, num_experts=2), seed=1)
    stream = TokenStream(np.random.default_rng(3).integers(0, 40, 61))
    result = training.train(model, stream, stream,
                            training.TrainConfig(batch_size=2, bptt_len=6, lr=1.0))
    metrics = spans.summarize(tracer.take(), 0, 0.0)  # raises if spans break nesting
    assert np.isfinite(result.best_valid_ppl) and metrics["training.valid_ppl_s"] > 0
    assert metrics["model.forward_calls"] == 4  # one per training batch
    assert sorted(set(calls)) == [(False, 6), (True, 8)]  # layer 1 on the pool, layer 0 not
