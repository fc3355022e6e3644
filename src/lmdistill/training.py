"""Training loop, the step loss, teacher ensembling, and perplexity evaluation.

step_loss is one step's loss and gradients (train-mode forward, distill_loss
running the MoS head, the loss and their backward as one chunked op, AR/TAR,
then the forward's backward through the trunk, which for wide layers runs its
forward and BPTT on two threads, model._trunk), for train() and the
grad-check alike; the gradients come back as one array per parameter, keyed
and ordered as model.params. Optimization is plain SGD at a fixed learning rate with
global-norm gradient clipping, and optional ASGD-style parameter averaging that arms
after a configurable number of non-improving validation epochs. Everything is
deterministic per (config, seed).

train() reads the teacher's distributions Q from a label source (vocab_size, and
stream(batches, epochs) yielding each batch's Q for every epoch in train()'s order)
and returns its run state, TrainResult. TeacherEnsemble.stream, the training
commands' source, runs the teacher in one forked worker process (POSIX fork), ahead
of the student, over the same batches in the same order, from
reset_state(batch_size) each epoch, so teacher state is carried across the same
token lanes the student sees and Q is bitwise what an in-process call would give.
Every Q is [batch_size*bptt_len x V], fixed before the fork; the worker checks each
Q's shape and writes only its raw float64 bytes to a socket, whose send blocks once
its buffer is full. The stream reads each Q straight into one array (no pickle, no
per-batch allocation), so a Q is valid until the next one is read. A teacher's
exception, a wrong shape's ShapeError included, comes back through a pipe.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import socket
from dataclasses import dataclass, field
from multiprocessing.pool import ExceptionWithTraceback

import numpy as np

from .data import BpttBatch, TokenStream, bptt_batches
from .errors import ConfigError, DataError, ShapeError, TrainingError, require_finite
from .losses import DistillLossSpec, distill_loss
from .model import (CHUNK_ELEMENTS, LmModel, LmState, MosRows, _trunk, add_probs,
                    flatten_targets, model_forward)
from .regularization import activation_reg

__all__ = ["TrainConfig", "EpochLog", "TrainResult", "TeacherEnsemble",
           "step_loss", "train", "perplexity",
           "clip_gradients"]

EVAL_WINDOW = 32  # perplexity()'s window length, in steps


@dataclass
class TrainConfig:
    loss: DistillLossSpec = field(default_factory=DistillLossSpec)
    lr: float = 1.0
    grad_clip: float = 0.25
    epochs: int = 1
    batch_size: int = 2
    bptt_len: int = 8
    seed: int = 0
    asgd_trigger_patience: int = 0  # 0 disables averaging

    def __post_init__(self):
        require_finite(self, "lr", "grad_clip")
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.grad_clip <= 0:
            raise ConfigError(f"grad_clip must be > 0, got {self.grad_clip}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.asgd_trigger_patience < 0:
            raise ConfigError(f"asgd_trigger_patience must be >= 0, "
                              f"got {self.asgd_trigger_patience}")


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    valid_ppl: float
    lr: float

    def line(self) -> str:
        return (f"epoch={self.epoch} train_loss={self.train_loss:.6f} "
                f"valid_ppl={self.valid_ppl:.6f} lr={self.lr:.6g}")


@dataclass
class TrainResult:
    """train()'s run state, which it mutates epoch by epoch and returns; epoch = len(logs)."""
    logs: list[EpochLog]
    best_valid_ppl: float
    best_epoch: int
    best_params: dict[str, np.ndarray] | None = None
    bad_epochs: int = 0
    averager: _Averager | None = None
    dropout_rng: np.random.Generator | None = None

    @property
    def epoch(self) -> int:
        return len(self.logs)


class TeacherEnsemble:
    """Frozen teacher models combined by an arithmetic mean of distributions."""

    def __init__(self, members: list[LmModel]):
        if not members:
            raise ConfigError("teacher ensemble needs at least one member")
        v = members[0].config.vocab_size
        for m in members[1:]:
            if m.config.vocab_size != v:
                raise ConfigError(
                    f"ensemble members disagree on vocab size: {v} vs "
                    f"{m.config.vocab_size}")
        self.members = members
        self._states: list[LmState] | None = None

    @property
    def vocab_size(self) -> int:
        return self.members[0].config.vocab_size

    def reset_state(self, batch_size: int) -> None:
        self._states = [m.init_state(batch_size) for m in self.members]

    def soft_labels(self, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Mean of member next-word distributions for one batch, carrying member state forward.

        Rows are time-major, matching model_forward's log_probs layout. Each
        member's P is added into the result chunk by chunk (add_probs), in a
        fixed member order, so the result is deterministic. Member state starts at
        the first call's batch size; another batch size needs reset_state first.
        """
        if self._states is None:
            self.reset_state(inputs.shape[0])
        total = np.zeros((np.size(inputs), self.vocab_size))
        for i, member in enumerate(self.members):
            self._states[i] = add_probs(member, inputs, self._states[i], total)
        total /= len(self.members)
        return total

    def stream(self, batches: list[BpttBatch], epochs: int):
        """Q for every batch of every epoch, in train()'s order, from a worker forked at
        the first next(). Each next() reads one Q into the one [B*T x V] array, so a Q
        is valid until the next next(); close() stops the worker."""
        total = epochs * len(batches)
        q = np.empty((batches[0].inputs.size, self.vocab_size))

        def worker(child_end, child_sock):
            conn.close()  # the main process's ends: its death then fails the send here
            sock.close()
            try:
                for i in range(total):
                    if i % len(batches) == 0:
                        self.reset_state(batches[0].inputs.shape[0])
                    batch = batches[i % len(batches)]
                    got = np.ascontiguousarray(self.soft_labels(batch.inputs, batch.targets),
                                               dtype=np.float64)
                    if got.shape != q.shape:  # else every later Q would arrive shifted
                        raise ShapeError(f"teacher soft labels {got.shape} != {q.shape}")
                    child_sock.sendall(got)
            except Exception as exc:
                child_end.send(ExceptionWithTraceback(exc, exc.__traceback__))

        ctx = multiprocessing.get_context("fork")
        conn, child_end = ctx.Pipe()
        sock, child_sock = socket.socketpair()
        proc = ctx.Process(target=worker, args=(child_end, child_sock))
        proc.start()
        child_end.close()
        child_sock.close()
        try:
            for i in range(total):
                epoch, bi = divmod(i, len(batches))
                yield _await_q(sock, conn, proc, q, epoch + 1, bi)
        finally:
            proc.terminate()
            proc.join()
            proc.close()
            conn.close()
            sock.close()


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is at most max_norm.

    Sums in the dict's order, canonical parameter order for step_loss's.
    Returns the pre-clip norm. A non-finite norm leaves the gradients as they
    are, for the caller to reject. max_norm > 0 is TrainConfig.grad_clip's check.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = math.sqrt(total)
    if math.isfinite(norm) and norm > max_norm:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


class _Averager:
    """Running arithmetic mean of parameters, started at the ASGD trigger."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.avg = _snapshot(params)
        self.steps = 1

    def update(self, params: dict[str, np.ndarray]) -> None:
        self.steps += 1
        for name, acc in self.avg.items():
            acc += (params[name] - acc) / self.steps


def _snapshot(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: p.copy() for name, p in params.items()}


def _restore(params: dict[str, np.ndarray], snap: dict[str, np.ndarray]) -> None:
    # in place: a view of a parameter (the tied output matrix) stays valid
    for name, p in params.items():
        np.copyto(p, snap[name])


def step_loss(model: LmModel, batch: BpttBatch, state: LmState, spec: DistillLossSpec,
              q: np.ndarray | None, rng: np.random.Generator
              ) -> tuple[float, dict[str, np.ndarray], LmState]:
    """Train-mode forward, distill_loss, plus AR/TAR when either weight is > 0.

    Returns the loss value, every parameter's gradient (keyed and ordered as
    model.params) and the state to carry on. train() and the grad-check both
    call this, so the check covers the loss and gradient that training runs.
    """
    out = model_forward(model, batch.inputs, state, rng)
    value, d_hidden, head = distill_loss(spec, out.log_probs, flatten_targets(batch.targets), q)
    d_dropped = d_raw = None
    rates = model.config.dropout
    if rates.ar_weight > 0 or rates.tar_weight > 0:
        reg, d_dropped, d_raw = activation_reg(out.dropped, out.raw, batch.inputs.shape[0],
                                               rates.ar_weight, rates.tar_weight)
        value += reg
    # the head's gradient in the tied embedding is the one the trunk's gather adds onto
    grads = out.backward(d_hidden, d_dropped, d_raw, head.pop("embedding")) | head
    return float(value), {name: grads[name] for name in model.params}, out.state


def _await_q(sock, conn, proc, q: np.ndarray, epoch: int, batch: int) -> np.ndarray:
    """The worker's Q for one batch, its float64 bytes read into q's memory; returns q.
    Raises the teacher's own exception, or RuntimeError if the worker died."""
    view = memoryview(q).cast("B")
    try:
        while view:
            got = sock.recv_into(view)
            if not got:  # the worker ended
                break
            view = view[got:]
    except OSError:  # the worker reset mid-Q
        pass
    if not view:
        return q
    try:
        exc = conn.recv()  # the teacher's exception, if it sent one before it ended
    except (EOFError, OSError):
        proc.join()
        raise RuntimeError(f"teacher worker exited with code {proc.exitcode} "
                           f"before epoch {epoch}, batch {batch}'s soft labels") from None
    raise exc


def train(model: LmModel, train_stream: TokenStream, valid_stream: TokenStream,
          cfg: TrainConfig, labels=None, log_fn=None) -> TrainResult:
    """Train the model in place, ending on the best-validation params; return the run state.

    labels, a label source (module docstring), must be present exactly when the loss
    reads soft labels (cfg.loss.needs_teacher) and have the model's vocab_size, else
    ConfigError before its stream starts; train() closes the stream on every exit.
    Raises TrainingError naming the batch if the loss or the gradient norm goes
    non-finite, and what the stream raises: for TeacherEnsemble.stream the teacher's
    own exception (ShapeError for a wrong-shaped Q), or RuntimeError if the worker dies.
    """
    if cfg.loss.needs_teacher and labels is None:
        raise ConfigError(f"loss variant {cfg.loss.variant!r} needs a teacher")
    if not cfg.loss.needs_teacher and labels is not None:
        raise ConfigError(f"loss variant {cfg.loss.variant!r} at alpha = {cfg.loss.alpha:g} "
                          f"reads no teacher distributions; pass no teacher")
    if labels is not None and labels.vocab_size != model.config.vocab_size:
        raise ConfigError(f"teacher vocab size {labels.vocab_size} != "
                          f"model vocab size {model.config.vocab_size}")

    batches = bptt_batches(train_stream, cfg.batch_size, cfg.bptt_len)
    params = model.params
    run = TrainResult([], math.inf, 0, dropout_rng=np.random.default_rng(cfg.seed))
    # a teacher's stream forks at its first next(), not here: set-up ends at train()'s entry
    qs = itertools.repeat(None) if labels is None else labels.stream(batches, cfg.epochs)
    try:
        for epoch in range(run.epoch + 1, cfg.epochs + 1):
            state = model.init_state(cfg.batch_size)
            loss_sum = 0.0
            for bi, batch in enumerate(batches):
                value, grads, state = step_loss(model, batch, state, cfg.loss, next(qs),
                                                run.dropout_rng)
                if not math.isfinite(value):
                    raise TrainingError(f"non-finite loss {value} at epoch {epoch}, batch {bi}")
                norm = clip_gradients(grads, cfg.grad_clip)
                if not math.isfinite(norm):
                    raise TrainingError(
                        f"non-finite gradient norm {norm} at epoch {epoch}, batch {bi}")
                for name, g in grads.items():
                    params[name] -= cfg.lr * g
                del grads  # not held through the next step's forward and backward
                if run.averager is not None:
                    run.averager.update(params)
                loss_sum += value

            train_loss = loss_sum / len(batches)
            scored = model if run.averager is None else LmModel(model.config, run.averager.avg)
            valid_ppl = perplexity(scored, valid_stream)

            entry = EpochLog(epoch, train_loss, valid_ppl, cfg.lr)
            run.logs.append(entry)
            if log_fn is not None:
                log_fn(entry.line())

            if valid_ppl < run.best_valid_ppl:
                run.best_valid_ppl = valid_ppl
                run.best_epoch = epoch
                run.best_params = _snapshot(params if run.averager is None else run.averager.avg)
                run.bad_epochs = 0
            else:
                run.bad_epochs += 1
                if (cfg.asgd_trigger_patience > 0 and run.averager is None
                        and run.bad_epochs >= cfg.asgd_trigger_patience):
                    run.averager = _Averager(params)
    finally:
        if labels is not None:
            qs.close()

    if run.best_params is not None:
        _restore(params, run.best_params)
    return run


def perplexity(model: LmModel, stream: TokenStream) -> float:
    """exp of the mean natural-log NLL over every target token (eos included); inf where
    that overflows a float64.

    One lane in EVAL_WINDOW-step windows, state carried; the last window may be
    shorter, so no target is dropped. The windows are the trunk's time chunks
    (model._trunk): where the layers are wide enough to pipeline, one pool thread runs
    the upper layers of a window while the caller runs the lower layers of the next and
    scores earlier rows. Rows are scored by one target-only head call (MosRows.picked)
    per CHUNK_ELEMENTS / bottleneck rows, so the result does not depend on which thread
    ran which layer.
    """
    n = len(stream)
    if n < 2:
        raise DataError(f"stream of {n} tokens too short to evaluate")
    total, hidden, done = 0.0, [], 0  # done: targets scored so far

    def score(rows):
        nonlocal total, done
        hidden.append(rows)
        held = sum(map(len, hidden))
        if done + held == n - 1 or held * rows.shape[1] >= CHUNK_ELEMENTS:
            y = stream.ids[done + 1:done + 1 + held]
            picked = MosRows(model, np.concatenate(hidden)).picked(np.arange(held), y)
            for window in np.split(picked, np.cumsum([len(h) for h in hidden[:-1]])):
                total += float(-window.sum())
            done += held
            hidden.clear()

    _trunk(model, stream.ids[None, :-1], model.init_state(1), None, EVAL_WINDOW, score)
    try:
        return math.exp(total / (n - 1))
    except OverflowError:  # a mean NLL past ~709.8 nats
        return math.inf
