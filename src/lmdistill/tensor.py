"""Reverse-mode automatic differentiation over 64-bit numpy arrays.

Every operation computes its forward value eagerly and, when a Tape is active
and gradients can flow to it, records a node holding a backward closure. The
tape is a flat list in execution order, which is a valid topological order by
construction; backward() walks it once in reverse. All arithmetic is float64
and single-threaded numpy, so replaying the same tape gives bitwise-identical
gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericError, ShapeError

__all__ = [
    "Tensor", "Tape", "backward", "grad_check", "grad_check_params",
    "GradCheckReport", "matmul", "add", "sub", "mul", "scale",
    "transpose", "sigmoid", "tanh", "log_softmax_rows", "log_mix",
    "embedding_rows", "pick_cols", "slice_cols", "concat_rows", "sum_all",
    "mean_all",
]

class Tensor:
    """A float64 array plus an optional gradient of the same shape."""

    __slots__ = ("data", "requires_grad", "grad", "_from_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._from_op = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != ():
            raise ShapeError(f"item() needs a scalar tensor, got shape {self.data.shape}")
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


@dataclass
class TapeNode:
    inputs: tuple
    output: Tensor
    backward_fn: object  # callable(grad: np.ndarray) -> None


class Tape:
    """Execution-ordered record of operations, used as a context manager."""

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t._from_op


def _record(out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(_tracked(t) for t in inputs):
        out._from_op = True
        tape.nodes.append(TapeNode(inputs, out, backward_fn))
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    # Constants (plain data wrapped in a Tensor) never need storage.
    if not _tracked(t):
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(input) into .grad for every tensor on the tape.

    Gradients add onto whatever is already in .grad; callers zero parameter
    grads between steps. Visits each node exactly once, in reverse order.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss._from_op and not loss.requires_grad:
        return  # constant loss, nothing depends on it
    loss.grad = np.ones(())
    for node in reversed(tape.nodes):
        g = node.output.grad
        if g is not None:
            node.backward_fn(g)


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes do not compose: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def back(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _record(out, (a, b), back)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape == b.data.shape:
        out = Tensor(a.data + b.data)

        def back(g):
            _accum(a, g)
            _accum(b, g)

    elif a.data.ndim == 2 and b.data.shape == (a.data.shape[1],):
        # matrix + row-vector bias
        out = Tensor(a.data + b.data)

        def back(g):
            _accum(a, g)
            _accum(b, g.sum(axis=0))

    else:
        raise ShapeError(f"add shapes incompatible: {a.data.shape} + {b.data.shape}")
    return _record(out, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub shapes differ: {a.data.shape} - {b.data.shape}")
    out = Tensor(a.data - b.data)

    def back(g):
        _accum(a, g)
        _accum(b, -g)

    return _record(out, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shapes differ: {a.data.shape} * {b.data.shape}")
    out = Tensor(a.data * b.data)

    def back(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _record(out, (a, b), back)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)

    def back(g):
        _accum(a, g * c)

    return _record(out, (a,), back)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a matrix, got shape {a.data.shape}")
    out = Tensor(a.data.T.copy())

    def back(g):
        _accum(a, g.T)

    return _record(out, (a,), back)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])  # split form never exponentiates a positive value
    y[~pos] = ex / (1.0 + ex)
    out = Tensor(y)

    def back(g):
        _accum(a, g * y * (1.0 - y))

    return _record(out, (a,), back)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)

    def back(g):
        _accum(a, g * (1.0 - y * y))

    return _record(out, (a,), back)


# ---------------------------------------------------------------------------
# softmax family


def log_softmax_rows(a: Tensor) -> Tensor:
    """Row-wise log softmax, fused as x - max - log(sum(exp(x - max)))."""
    if a.data.ndim != 2:
        raise ShapeError(f"log_softmax_rows needs a matrix, got shape {a.data.shape}")
    if np.isnan(a.data).any():
        raise NumericError("log_softmax_rows received NaN input")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    y = shifted - lse
    out = Tensor(y)

    def back(g):
        _accum(a, g - np.exp(y) * g.sum(axis=1, keepdims=True))

    return _record(out, (a,), back)


def log_mix(log_pi: Tensor, log_probs: Tensor) -> Tensor:
    """log(sum_k pi_k * P_k) from log priors [n x K] and one stacked block of
    expert log-probs [K*n x V], expert-major: rows k*n .. (k+1)*n - 1 are
    expert k.

    Computed as a log-sum-exp over the mixture axis so a log never sees an
    underflowed probability.
    """
    if log_pi.data.ndim != 2 or log_pi.data.shape[1] == 0:
        raise ShapeError(f"log priors shaped {log_pi.data.shape}, expected (n, K) with K >= 1")
    n, k = log_pi.data.shape
    if log_probs.data.ndim != 2 or log_probs.data.shape[0] != k * n:
        raise ShapeError(
            f"stacked log-probs shaped {log_probs.data.shape}, expected ({k * n}, V) "
            f"for K={k} experts of n={n} rows")
    v = log_probs.data.shape[1]
    stacked = log_probs.data.reshape(k, n, v) + log_pi.data.T[:, :, None]
    m = stacked.max(axis=0)
    y = m + np.log(np.exp(stacked - m).sum(axis=0))
    out = Tensor(y)

    def back(g):
        gw = stacked - y
        np.exp(gw, out=gw)  # posterior responsibility of each expert
        gw *= g
        _accum(log_probs, gw.reshape(k * n, v))
        _accum(log_pi, gw.sum(axis=2).T)

    return _record(out, (log_pi, log_probs), back)


# ---------------------------------------------------------------------------
# indexing and stacking


def _check_ids(ids: np.ndarray, limit: int, what: str) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    bad = np.nonzero((ids < 0) | (ids >= limit))[0]
    if bad.size:
        i = int(bad[0])
        raise ShapeError(f"{what} id {int(ids[i])} at position {i} out of range [0, {limit})")
    return ids


def embedding_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of a [V x E] table; backward scatter-adds into the table."""
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be a matrix, got shape {table.data.shape}")
    ids = _check_ids(ids, table.data.shape[0], "embedding")
    out = Tensor(table.data[ids])

    def back(g):
        if _tracked(table):
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)

    return _record(out, (table,), back)


def pick_cols(a: Tensor, ids) -> Tensor:
    """out[i] = a[i, ids[i]] for a [n x m] matrix; returns a length-n vector."""
    if a.data.ndim != 2:
        raise ShapeError(f"pick_cols needs a matrix, got shape {a.data.shape}")
    n = a.data.shape[0]
    ids = _check_ids(ids, a.data.shape[1], "pick_cols")
    if ids.shape != (n,):
        raise ShapeError(f"pick_cols needs {n} ids, got shape {ids.shape}")
    rows = np.arange(n)
    out = Tensor(a.data[rows, ids])

    def back(g):
        full = np.zeros_like(a.data)
        full[rows, ids] = g  # row indices are distinct, no collisions
        _accum(a, full)

    return _record(out, (a,), back)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2 or not (0 <= start <= stop <= a.data.shape[1]):
        raise ShapeError(f"slice_cols [{start}:{stop}] invalid for shape {a.data.shape}")
    out = Tensor(a.data[:, start:stop].copy())

    def back(g):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        _accum(a, full)

    return _record(out, (a,), back)


def concat_rows(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_rows needs at least one part")
    width = parts[0].data.shape[1:]
    for p in parts:
        if p.data.ndim != parts[0].data.ndim or p.data.shape[1:] != width:
            raise ShapeError(
                f"concat_rows parts disagree: {p.data.shape} vs {parts[0].data.shape}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def back(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[lo:hi])

    return _record(out, tuple(parts), back)


# ---------------------------------------------------------------------------
# reductions


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.sum(a.data))

    def back(g):
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _record(out, (a,), back)


def mean_all(a: Tensor) -> Tensor:
    size = a.data.size
    if size == 0:
        raise ShapeError("mean_all of an empty tensor")
    out = Tensor(np.sum(a.data) / size)

    def back(g):
        _accum(a, np.broadcast_to(g / size, a.data.shape))

    return _record(out, (a,), back)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    tol: float
    step: float

    def __str__(self) -> str:
        verdict = "ok" if self.passed else "FAIL"
        return f"max_rel_err={self.max_rel_err:.3e} tol={self.tol:g} [{verdict}]"


# Relative-error denominator floor: absorbs central-difference noise when the
# true gradient is ~0 while still flagging real backward bugs at tol 1e-4.
_REL_FLOOR = 1e-4


def _scalar(out) -> Tensor:
    if not isinstance(out, Tensor) or out.data.shape != ():
        raise ContractError("grad_check function must return a scalar Tensor")
    return out


def grad_check(f, x: Tensor, step: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare the tape gradient of f at x against central finite differences.

    f must map the tensor x to a scalar Tensor using ops from this module.
    x.requires_grad is restored and x.grad cleared afterwards.
    """
    was = x.requires_grad
    x.requires_grad = True
    try:
        return grad_check_params(lambda: f(x), [("x", x)], step, tol)["x"]
    finally:
        x.requires_grad = was
        x.grad = None


def grad_check_params(loss_fn, params: list[tuple[str, Tensor]],
                      step: float = 1e-5, tol: float = 1e-4) -> dict[str, GradCheckReport]:
    """Tape gradient against central finite differences, per named parameter.

    loss_fn() recomputes the scalar loss from the params' current .data, so
    finite differences can perturb each parameter in place.
    """
    for _, p in params:
        p.grad = None
    with Tape() as tape:
        out = _scalar(loss_fn())
    backward(out, tape)
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params}
    for _, p in params:
        p.grad = None

    reports = {}
    for name, p in params:
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            plus = float(loss_fn().data)
            flat[i] = orig - step
            minus = float(loss_fn().data)
            flat[i] = orig
            nflat[i] = (plus - minus) / (2.0 * step)
        a = analytic[name]
        denom = np.maximum(np.abs(a) + np.abs(numeric), _REL_FLOOR)
        max_rel = float(np.max(np.abs(a - numeric) / denom)) if flat.size else 0.0
        reports[name] = GradCheckReport(max_rel, max_rel <= tol, tol, step)
    return reports

