"""Training loop, the step loss, teacher ensembling, and perplexity evaluation.

step_loss is one step's loss and gradients (train-mode forward, distill_loss
running the MoS head, the loss and their backward as one chunked op, AR/TAR,
then the forward's backward through the trunk), for train() and the
grad-check alike; the gradients come back as one array per parameter, keyed
and ordered as model.params. Optimization is plain SGD with global-norm gradient
clipping, optional plateau LR decay, and optional ASGD-style parameter
averaging that arms after a configurable number of non-improving validation
epochs. Everything is deterministic per (config, seed).

Teacher soft labels come from one forked worker process (POSIX fork), one
batch ahead of the student. It runs the teacher over the same batches in the
same order, from reset_state(batch_size) each epoch, so teacher state is
carried across the same token lanes the student sees and Q is bitwise what an
in-process call would give. It writes batch i's Q into slot i % 2 of a shared
two-slot [2 x B*T x V] buffer; train() runs step_loss on a view of that slot
and hands the slot back when step_loss returns. The worker waits for slot
i % 2 to come back (batch i - 2's step is done) before it computes batch i,
so it never overwrites a Q still in use.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import multiprocessing
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from multiprocessing.pool import ExceptionWithTraceback

import numpy as np

from .data import BpttBatch, TokenStream, bptt_batches
from .errors import ConfigError, DataError, TrainingError, require_finite
from .losses import DistillLossSpec, distill_loss
from .model import LmModel, LmState, flatten_targets, model_forward
from .regularization import activation_reg

__all__ = ["TrainConfig", "EpochLog", "TrainResult", "TeacherEnsemble",
           "step_loss", "train", "perplexity",
           "clip_gradients"]


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
    lr_decay_on_plateau: float = 1.0  # multiplier applied when validation stalls

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
        if not (0.0 < self.lr_decay_on_plateau <= 1.0):
            raise ConfigError(f"lr_decay_on_plateau must be in (0, 1], "
                              f"got {self.lr_decay_on_plateau}")


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
    logs: list[EpochLog]
    best_valid_ppl: float
    best_epoch: int


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

    @classmethod
    def from_checkpoints(cls, paths) -> "TeacherEnsemble":
        from .checkpoint import load_checkpoint
        return cls([load_checkpoint(p) for p in paths])

    def reset_state(self, batch_size: int) -> None:
        self._states = [m.init_state(batch_size) for m in self.members]

    def soft_labels(self, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Mean of member next-word distributions for one batch, carrying member state forward.

        Rows are time-major, matching model_forward's log_probs layout. Member
        order is fixed, so the result is deterministic.
        """
        if self._states is None or self._states[0].batch_size != inputs.shape[0]:
            self.reset_state(inputs.shape[0])
        total = None
        for i, member in enumerate(self.members):
            out = model_forward(member, inputs, self._states[i])  # eval mode
            p = np.exp(out.log_probs.data, out=out.log_probs.data)
            if total is None:
                total = p
            else:
                total += p
            self._states[i] = out.state
        total /= len(self.members)
        return total


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
    # a tied embedding's head gradient is the one the trunk's gather adds onto
    grads = out.backward(d_hidden, d_dropped, d_raw, head.pop("embedding", None)) | head
    return float(value), {name: grads[name] for name in model.params}, out.state


def _soft_label_worker(conn, parent_end, teacher, batches: list[BpttBatch], batch_size: int,
                       epochs: int, slots: np.ndarray) -> None:
    """The worker process: teacher's Q for every batch of every epoch, in train()'s order.

    Sends None once batch i's Q is in slot i % 2; a Q the slot cannot hold
    (wrong shape) goes whole, for distill_loss to reject; an exception goes
    as itself, with the worker's traceback as its cause, for train() to raise.
    """
    parent_end.close()
    try:
        i = 0
        for _ in range(epochs):
            teacher.reset_state(batch_size)
            for batch in batches:
                if i >= 2:
                    conn.recv()  # slot i % 2 handed back: batch i - 2's step is done
                q = np.asarray(teacher.soft_labels(batch.inputs, batch.targets),
                               dtype=np.float64)
                if q.shape == slots.shape[1:]:
                    slots[i % 2] = q
                    q = None
                conn.send(q)
                i += 1
    except Exception as exc:
        conn.send(ExceptionWithTraceback(exc, exc.__traceback__))


class _SoftLabelWorker:
    """Forks the worker above and hands its Q to train(), batch by batch."""

    def __init__(self, teacher, batches: list[BpttBatch], batch_size: int, epochs: int,
                 vocab_size: int):
        n = batches[0].inputs.size
        # anonymous and shared with the fork: no name to unlink, no pickle per batch
        buf = mmap.mmap(-1, 2 * n * vocab_size * 8)
        self._slots = np.frombuffer(buf, dtype=np.float64).reshape(2, n, vocab_size)
        self._per_epoch = len(batches)
        self._total = epochs * len(batches)
        self._received = 0
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self._proc = ctx.Process(target=_soft_label_worker,
                                 args=(child_end, self._conn, teacher, batches, batch_size,
                                       epochs, self._slots))
        self._proc.start()
        child_end.close()

    def next_q(self) -> np.ndarray:
        """The next batch's Q: a view of its slot, to be handed back after its step_loss."""
        try:
            if self._conn not in wait([self._conn, self._proc.sentinel]):
                raise EOFError
            msg = self._conn.recv()
        except (EOFError, OSError):  # closed, or reset with a hand-back unread
            self._proc.join()
            epoch, bi = divmod(self._received, self._per_epoch)
            raise RuntimeError(f"teacher worker exited with code {self._proc.exitcode} "
                               f"before epoch {epoch + 1}, batch {bi}'s soft labels") from None
        if isinstance(msg, Exception):
            raise msg
        i = self._received
        self._received += 1
        return self._slots[i % 2] if msg is None else msg

    def hand_back(self) -> None:
        """Frees the last Q's slot for batch i + 2, if there is one."""
        if self._received + 1 < self._total:
            with contextlib.suppress(OSError):  # a dead worker is reported by next_q
                self._conn.send(None)

    def close(self) -> None:
        self._proc.terminate()
        self._proc.join()
        self._proc.close()
        self._conn.close()


def train(model: LmModel, train_stream: TokenStream, valid_stream: TokenStream,
          cfg: TrainConfig, teacher=None, log_fn=None) -> TrainResult:
    """Train the model in place; on return it holds the best-validation params.

    teacher must be present exactly when the loss reads soft labels
    (cfg.loss.needs_teacher); it runs in a forked worker (module docstring).
    Raises TrainingError naming the batch if the loss or the gradient norm
    goes non-finite, the teacher's own exception if it raises, and
    RuntimeError naming the exit code if the worker dies.
    """
    if cfg.loss.needs_teacher and teacher is None:
        raise ConfigError(f"loss variant {cfg.loss.variant!r} needs a teacher")
    if not cfg.loss.needs_teacher and teacher is not None:
        raise ConfigError(f"loss variant {cfg.loss.variant!r} at alpha = {cfg.loss.alpha:g} "
                          f"reads no teacher distributions; pass no teacher")

    batches = bptt_batches(train_stream, cfg.batch_size, cfg.bptt_len)
    params = model.params
    dropout_rng = np.random.default_rng(cfg.seed)

    logs: list[EpochLog] = []
    lr = cfg.lr
    best_ppl = math.inf
    best_epoch = 0
    best_params: dict[str, np.ndarray] | None = None
    bad_epochs = 0
    averager: _Averager | None = None

    # forked here, not earlier: set-up ends at train()'s entry
    worker = (None if teacher is None else
              _SoftLabelWorker(teacher, batches, cfg.batch_size, cfg.epochs,
                               model.config.vocab_size))
    try:
        for epoch in range(1, cfg.epochs + 1):
            state = model.init_state(cfg.batch_size)
            loss_sum = 0.0
            for bi, batch in enumerate(batches):
                q = worker.next_q() if worker is not None else None
                value, grads, state = step_loss(model, batch, state, cfg.loss, q, dropout_rng)
                if worker is not None:
                    worker.hand_back()
                if not math.isfinite(value):
                    raise TrainingError(f"non-finite loss {value} at epoch {epoch}, batch {bi}")
                norm = clip_gradients(grads, cfg.grad_clip)
                if not math.isfinite(norm):
                    raise TrainingError(
                        f"non-finite gradient norm {norm} at epoch {epoch}, batch {bi}")
                for name, g in grads.items():
                    params[name] -= lr * g
                del grads  # not held through the next step's forward and backward
                if averager is not None:
                    averager.update(params)
                loss_sum += value

            train_loss = loss_sum / len(batches)
            if averager is None:
                valid_ppl = perplexity(model, valid_stream)
            else:
                raw = _snapshot(params)
                _restore(params, averager.avg)
                valid_ppl = perplexity(model, valid_stream)
                _restore(params, raw)

            entry = EpochLog(epoch, train_loss, valid_ppl, lr)
            logs.append(entry)
            if log_fn is not None:
                log_fn(entry.line())

            if valid_ppl < best_ppl:
                best_ppl = valid_ppl
                best_epoch = epoch
                best_params = _snapshot(params if averager is None else averager.avg)
                bad_epochs = 0
            else:
                bad_epochs += 1
                if cfg.lr_decay_on_plateau < 1.0:
                    lr *= cfg.lr_decay_on_plateau
                if (cfg.asgd_trigger_patience > 0 and averager is None
                        and bad_epochs >= cfg.asgd_trigger_patience):
                    averager = _Averager(params)
    finally:
        if worker is not None:
            worker.close()

    if best_params is not None:
        _restore(params, best_params)
    return TrainResult(logs, best_ppl, best_epoch)


def perplexity(model: LmModel, stream: TokenStream, batch_size: int = 1,
               bptt_len: int = 32) -> float:
    """exp of the mean natural-log NLL over every target token (eos included).

    The stream is cut into batch_size contiguous lanes, as for training; the
    last window of a lane may be shorter than bptt_len, so no target is
    dropped. Tokens past the last whole lane are not scored.
    """
    if bptt_len < 1:
        raise ConfigError(f"bptt_len must be >= 1, got {bptt_len}")
    lane_len = len(stream) // batch_size
    if lane_len < 2:
        raise DataError(f"stream of {len(stream)} tokens too short for "
                        f"{batch_size} evaluation lanes")
    lanes = stream.ids[: lane_len * batch_size].reshape(batch_size, lane_len)
    state = model.init_state(batch_size)
    total = 0.0
    for lo in range(0, lane_len - 1, bptt_len):
        hi = min(lo + bptt_len, lane_len - 1)
        out = model_forward(model, lanes[:, lo:hi], state)
        y = flatten_targets(lanes[:, lo + 1:hi + 1])
        total += float(-out.log_probs.data[np.arange(y.shape[0]), y].sum())
        state = out.state
    return math.exp(total / (batch_size * (lane_len - 1)))
