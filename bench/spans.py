"""Spans recorded around calls into lmdistill's modules, from outside them.

A Tracer replaces module attributes (the names each caller looks up at call
time) with wrappers that record [name, start, end, parent, value]. The spans
stay in memory until the run ends. Nothing in `src/` knows about this.

Every run wraps ENTRY_SITES, whose spans give the end-to-end timings; a
traced run also wraps CALL_SITES, whose spans give the per-layer metrics.
"""

from __future__ import annotations

import importlib
import math
import os
import statistics
from time import perf_counter


def _stub_train():
    from lmdistill.training import TrainResult
    return TrainResult([], math.nan, 0)


# (module, attribute, span name, stub). The stub stands in for the call when
# the Tracer is stubbed: that is how a run repeats a command's set-up without
# its work. train()'s per-epoch validation has no stub; it is never reached
# while train() is stubbed.
ENTRY_SITES = [
    ("lmdistill.cli", "train", "training.train", _stub_train),
    ("lmdistill.cli", "perplexity", "training.perplexity", lambda: 1.0),
    ("lmdistill.cli", "rescore_nbest", "rescore.rescore_nbest", lambda: {}),
    ("lmdistill.training", "perplexity", "training.valid_ppl", None),
]
# A command's set-up ends at its first call into one of these.
SETUP_ENDS = {name for _, _, name, stub in ENTRY_SITES if stub}

# (module, attribute, span name). The attribute is the one the caller looks
# up, e.g. train() calls lmdistill.training.model_forward, and model_forward
# calls lmdistill.model.mos_log_probs. Missing attributes are skipped, so a
# layer that a later change removes reads as zero instead of failing the run.
CALL_SITES = [
    ("lmdistill.cli", "parse_nbest", "rescore.parse_nbest"),
    ("lmdistill.cli", "wer", "rescore.wer"),
    ("lmdistill.cli", "load_checkpoint", "checkpoint.load"),
    ("lmdistill.cli", "save_checkpoint", "checkpoint.save"),
    ("lmdistill.cli", "build_vocab", "data.build_vocab"),
    ("lmdistill.cli", "encode", "data.encode"),
    ("lmdistill.data.Vocabulary", "load", "data.load_vocab"),
    ("lmdistill.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("lmdistill.training.TeacherEnsemble", "soft_labels", "training.teacher"),
    ("lmdistill.training", "clip_gradients", "training.clip"),
    ("lmdistill.training", "model_forward", "model.forward"),
    ("lmdistill.training", "distill_loss", "losses.distill_loss"),
    ("lmdistill.training", "activation_reg", "regularization.activation_reg"),
    ("lmdistill.training", "backward", "tensor.backward"),
    ("lmdistill.model", "lstm_step", "model.lstm_step"),
    ("lmdistill.model", "mos_log_probs", "model.mos_head"),
    ("lmdistill.model", "variational_mask", "regularization.masks"),
    ("lmdistill.model", "drop_connect", "regularization.masks"),
    ("lmdistill.model", "embedding_dropout", "regularization.masks"),
    ("lmdistill.rescore", "model_forward", "model.forward"),
    ("lmdistill.rescore", "score_hypothesis", "rescore.score_hypothesis"),
    ("lmdistill.rescore", "combine_and_select", "rescore.combine"),
]


def _head_bytes(model, h, *_):
    # Each of the K experts materialises an [n x V] float64 array per call.
    return model.config.num_experts * h.shape[0] * model.config.vocab_size * 8


# Span name -> function of the call's arguments giving the span's value.
VALUES = {
    "model.mos_head": _head_bytes,
    "tensor.backward": lambda loss, tape: len(tape.nodes),
    "checkpoint.load": lambda path: os.path.getsize(path),
    # Ids fed in, padding included: what the rescoring path actually scores.
    "model.forward": lambda model, tokens, *_, **__: tokens.size,
}

SUBCOMMANDS = ("train-student", "train-teacher", "eval-ppl", "rescore")

# Per-layer metric -> unit. summarize() says how each is computed.
LAYER_METRICS = {
    "cli.command_s": "s", "cli.self_s": "s",
    **{f"cli.{c}_s": "s" for c in SUBCOMMANDS},
    "training.train_s": "s", "training.self_s": "s", "training.teacher_s": "s",
    "training.valid_ppl_s": "s", "training.clip_s": "s", "training.steps": "count",
    "training.perplexity_s": "s",
    "model.forward_s": "s", "model.forward_calls": "count",
    "model.mos_head_s": "s", "model.mos_head_calls": "count", "model.mos_head_bytes": "bytes",
    "model.lstm_step_s": "s", "model.lstm_step_calls": "count",
    "tensor.backward_s": "s", "tensor.tape_nodes_per_step": "count",
    "losses.distill_loss_s": "s",
    "regularization.masks_s": "s", "regularization.activation_reg_s": "s",
    "rescore.rescore_nbest_s": "s", "rescore.parse_nbest_s": "s",
    "rescore.score_hypothesis_s": "s", "rescore.score_calls": "count",
    "rescore.tokens_scored": "count", "rescore.useful_token_frac": "ratio",
    "rescore.combine_s": "s", "rescore.wer_s": "s",
    "checkpoint.load_s": "s", "checkpoint.bytes_read": "bytes", "checkpoint.save_s": "s",
    "data.build_vocab_s": "s", "data.encode_s": "s", "data.load_vocab_s": "s",
    "trace.overhead_frac": "ratio", "trace.spans": "count",
}


def _resolve(dotted: str):
    """Module or class named by a dotted path."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, cls = dotted.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """In-memory span recorder around the call sites it installs."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.stubbed = False

    def wrap(self, name: str, fn, value=None, stub=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          value(*args, **kwargs) if value else None])
            stack.append(idx)
            spans[idx][1] = perf_counter()
            try:
                return stub() if stub and self.stubbed else fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()

        return traced

    def install(self, sites) -> None:
        """Wrap each (module, attribute, span name[, stub]) site that exists."""
        for owner_name, attr, name, *stub in sites:
            owner = _resolve(owner_name)
            if attr in vars(owner):
                setattr(owner, attr, self.wrap(name, getattr(owner, attr),
                                               VALUES.get(name), *stub))

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def roots(spans: list[list]) -> list[int]:
    """Index of each span's root span; parents always precede children."""
    out: list[int] = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        out.append(i if parent < 0 else out[parent])
    return out


def per_call_cost(calls: int = 20000) -> float:
    """Seconds one Tracer wrapper adds to a call, measured on a no-op."""
    def noop():
        return None

    traced = Tracer().wrap("probe", noop)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        traced()
    t2 = perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def summarize(spans: list[list], useful_tokens: int, per_call: float) -> dict:
    """Per-layer metrics of one iteration's spans.

    Times are inclusive (a span's whole duration), summed per span name.
    Self time is a span's duration minus the time its direct children cover;
    training.self_s and cli.self_s are the self times of train() and of the
    subcommands. Raises ValueError if a child lies outside its parent or two
    siblings overlap, because then self times would not add up.
    """
    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    values: dict[str, float] = {}
    covered = [0.0] * len(spans)
    last_child_end = [None] * len(spans)
    root = roots(spans)
    rescore_tokens = 0
    for i, (name, t0, t1, parent, value) in enumerate(spans):
        if name == "model.forward" and spans[root[i]][0] == "cli.rescore":
            rescore_tokens += value
        incl[name] = incl.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        if value is not None:
            values[name] = values.get(name, 0) + value
        if parent >= 0:
            _, p0, p1, _, _ = spans[parent]
            prev = last_child_end[parent]
            if t0 < p0 or t1 > p1 or (prev is not None and t0 < prev):
                raise ValueError(f"span {name} [{t0}, {t1}] breaks nesting under "
                                 f"{spans[parent][0]} [{p0}, {p1}]")
            last_child_end[parent] = t1
            covered[parent] += t1 - t0
    self_time: dict[str, float] = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (t1 - t0 - covered[i])

    commands = [s for s in spans if s[3] < 0]
    command = sum(t1 - t0 for _, t0, t1, _, _ in commands)
    accounted = sum(self_time.values())
    if abs(accounted - command) > 1e-6 * max(command, 1.0):
        raise ValueError(f"self times sum to {accounted} s but commands took {command} s")

    def s(name):
        return incl.get(name, 0.0)

    steps = calls.get("tensor.backward", 0)
    overhead = len(spans) * per_call
    out = {
        "cli.command_s": command,
        "cli.self_s": sum(self_time.get(f"cli.{c}", 0.0) for c in SUBCOMMANDS),
        **{f"cli.{c}_s": s(f"cli.{c}") for c in SUBCOMMANDS},
        "training.train_s": s("training.train"),
        "training.self_s": self_time.get("training.train", 0.0),
        "training.teacher_s": s("training.teacher"),
        "training.valid_ppl_s": s("training.valid_ppl"),
        "training.clip_s": s("training.clip"),
        "training.steps": steps,
        "training.perplexity_s": s("training.perplexity"),
        "model.forward_s": s("model.forward"),
        "model.forward_calls": calls.get("model.forward", 0),
        "model.mos_head_s": s("model.mos_head"),
        "model.mos_head_calls": calls.get("model.mos_head", 0),
        "model.mos_head_bytes": values.get("model.mos_head", 0),
        "model.lstm_step_s": s("model.lstm_step"),
        "model.lstm_step_calls": calls.get("model.lstm_step", 0),
        "tensor.backward_s": s("tensor.backward"),
        "tensor.tape_nodes_per_step": values.get("tensor.backward", 0) / steps if steps else 0,
        "losses.distill_loss_s": s("losses.distill_loss"),
        "regularization.masks_s": s("regularization.masks"),
        "regularization.activation_reg_s": s("regularization.activation_reg"),
        "rescore.rescore_nbest_s": s("rescore.rescore_nbest"),
        "rescore.parse_nbest_s": s("rescore.parse_nbest"),
        "rescore.score_hypothesis_s": s("rescore.score_hypothesis"),
        "rescore.score_calls": calls.get("rescore.score_hypothesis", 0),
        "rescore.tokens_scored": rescore_tokens,
        "rescore.useful_token_frac": useful_tokens / rescore_tokens if rescore_tokens else 0,
        "rescore.combine_s": s("rescore.combine"),
        "rescore.wer_s": s("rescore.wer"),
        "checkpoint.load_s": s("checkpoint.load"),
        "checkpoint.bytes_read": values.get("checkpoint.load", 0),
        "checkpoint.save_s": s("checkpoint.save"),
        "data.build_vocab_s": s("data.build_vocab"),
        "data.encode_s": s("data.encode"),
        "data.load_vocab_s": s("data.load_vocab"),
        "trace.overhead_frac": overhead / (command - overhead) if command > overhead else 0,
        "trace.spans": len(spans),
    }
    assert set(out) == set(LAYER_METRICS)
    return out


def median_metrics(per_iteration: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in per_iteration) for k in per_iteration[0]}
