"""Reverse-mode automatic differentiation over 64-bit numpy arrays: the taped
autograd training ran on before every backward in a step was written by hand.
The oracles in oracles.py, and the taped reference of a whole training step,
are composed from these ops.

Every operation computes its forward value eagerly and, when a Tape is active
and gradients can flow to it, records a node holding a backward closure. The
tape is a flat list in execution order, which is a valid topological order by
construction; backward() walks it once in reverse into each tracked
Tensor's .grad. A model's parameters enter as leaves() that share their arrays.
"""

from dataclasses import dataclass

import numpy as np

from lmdistill import cli, model as model_module
from lmdistill.errors import NumericError, ShapeError


class Tensor:
    """A float64 array, its gradient, and whether the tape tracks it."""

    __slots__ = ("data", "grad", "requires_grad", "_from_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._from_op = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != ():
            raise ShapeError(f"item() needs a scalar tensor, got shape {self.data.shape}")
        return float(self.data)

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


def leaves(params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """A model's parameters as tracked tape leaves, each sharing its array: a taped
    loss's gradients land in their .grad, and a parameter perturbed in place is
    seen by both the model and the tape."""
    return {name: Tensor(p, requires_grad=True) for name, p in params.items()}


def _tracked(t) -> bool:
    return t.requires_grad or t._from_op


def _record(out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(_tracked(t) for t in inputs):
        out._from_op = True
        tape.nodes.append(TapeNode(inputs, out, backward_fn))
    return out


def _accum(t, g: np.ndarray) -> None:
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
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not _tracked(loss):
        return  # constant loss, nothing depends on it
    loss.grad = np.ones(())
    for node in reversed(tape.nodes):
        g = node.output.grad
        if g is not None:
            node.backward_fn(g)


def backprop(loss_fn) -> float:
    """The value of the taped scalar loss_fn() returns, its gradients left in .grad."""
    with Tape() as tape:
        out = loss_fn()
    backward(out, tape)
    return float(out.data)


def grad_check_params(loss_fn, params: list[tuple[str, Tensor]], **kw):
    """lmdistill's finite-difference check of a taped scalar loss_fn() in the named
    Tensors it reads; one that takes no gradient has a zero one."""
    def value_and_grads():
        for _, t in params:
            t.grad = None
        value = backprop(loss_fn)
        return value, {name: np.zeros_like(t.data) if t.grad is None else t.grad
                       for name, t in params}

    return cli.grad_check_params(value_and_grads, {name: t.data for name, t in params}, **kw)


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shapes differ: {a.data.shape} * {b.data.shape}")
    out = Tensor(a.data * b.data)

    def back(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _record(out, (a, b), back)


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


# ---------------------------------------------------------------------------
# indexing and stacking


def embedding_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of a [V x E] table; backward scatter-adds into the table."""
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be a matrix, got shape {table.data.shape}")
    ids = np.asarray(ids, dtype=np.int64)
    bad = np.nonzero((ids < 0) | (ids >= table.data.shape[0]))[0]
    if bad.size:
        i = int(bad[0])
        raise ShapeError(f"embedding id {int(ids[i])} at position {i} "
                         f"out of range [0, {table.data.shape[0]})")
    out = Tensor(table.data[ids])

    def back(g):
        if _tracked(table):
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)

    return _record(out, (table,), back)


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
# fused ops: many array ops, one node


def fused(value: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """One tape node for an op whose backward is written by hand: backward_fn(g),
    g the gradient of the value, returns one gradient per input."""
    out = Tensor(value)

    def back(g):
        for t, d in zip(inputs, backward_fn(g)):
            _accum(t, d)

    return _record(out, inputs, back)


def precomputed(value: float, grads: list[tuple[Tensor, np.ndarray]]) -> Tensor:
    """A scalar, as one tape node, whose gradient in each input came with its value;
    a fused op that holds its gradients keeps none of its intermediates."""
    return fused(value, tuple(t for t, _ in grads), lambda g: [g * d for _, d in grads])


def lstm_layer(xs: Tensor, h0: Tensor, c0: Tensor, wx: Tensor, wh: Tensor, b: Tensor):
    """lmdistill's lstm_layer as one tape node: (hs, h_T, c_T), h_T and c_T constants."""
    hs, h, c, back = model_module.lstm_layer(xs.data, h0.data, c0.data, wx.data, wh.data,
                                             b.data)
    return fused(hs, (xs, h0, c0, wx, wh, b), back), Tensor(h), Tensor(c)


class LogProbRows:
    """A log-prob block as distill_loss's rows: the objective runs once over it, and the
    loss is one tape node holding its gradient."""

    def __init__(self, log_p: Tensor):
        self.log_p = log_p
        self.shape = log_p.shape

    def loss(self, objective) -> Tensor:
        value, g = objective(0, self.shape[0], self.log_p.data)
        return precomputed(value, [(self.log_p, g)])
