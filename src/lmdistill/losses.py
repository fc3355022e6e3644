"""The distillation objective over next-word distributions.

The trust-regularized loss and its three baselines are one objective over
model log-probabilities log P ([N x V], rows log-sum-exp to 0, N positions
flattened time-major), in natural log:

    L = -(1/N) * sum_i [ h * w_i * log P[i, y_i] + s * sum_x Q[i, x] * log P[i, x] ]

    variant       (h, s)
    ce_only       (1, 0)
    kl_only       (0, 1)
    fixed_interp  (alpha, 1 - alpha)   (Hinton et al. 2015)
    trust_reg     (1, 1), w_i = R_i = -alpha * log(1 - Q[i, y_i]); else w_i = 1

The soft term is KL(Q || P) plus the constant teacher entropy H(Q), so its
gradient in P is that of the KL divergence. Q, y and R are fixed data, never
differentiated through, so dL/dlog P = g = -(s*Q + h*w*onehot(y))/N. One
per-row objective computes L and g, and distill_loss hands it to a model's
train-mode rows (MosRows), whose head runs it chunk by chunk and returns L with
g carried on into the head's input rows and parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError, require_finite

__all__ = ["DistillLossSpec", "trust_weights", "distill_loss", "LOSS_VARIANTS"]

# variant -> (h, s) as a function of alpha, in the grad-check's row order
_WEIGHTS = {
    "ce_only": lambda alpha: (1.0, 0.0),
    "kl_only": lambda alpha: (0.0, 1.0),
    "fixed_interp": lambda alpha: (alpha, 1.0 - alpha),
    "trust_reg": lambda alpha: (1.0, 1.0),
}
LOSS_VARIANTS = tuple(_WEIGHTS)

# Q[y] is clamped below 1 by this margin so the trust weight stays finite on
# a fully confident teacher.
TRUST_CLAMP = 1e-8


@dataclass
class DistillLossSpec:
    variant: str = "ce_only"
    alpha: float = 0.1

    def __post_init__(self):
        if self.variant not in LOSS_VARIANTS:
            raise ConfigError(f"unknown loss variant {self.variant!r}; "
                              f"expected one of {', '.join(LOSS_VARIANTS)}")
        require_finite(self, "alpha")
        if self.variant == "fixed_interp" and not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"fixed_interp needs alpha in [0, 1], got {self.alpha}")
        if self.variant == "trust_reg" and not self.alpha > 0.0:
            raise ConfigError(f"trust_reg needs alpha > 0, got {self.alpha}")

    @property
    def needs_teacher(self) -> bool:
        """True when the loss reads Q: its soft weight s is not 0."""
        return _WEIGHTS[self.variant](self.alpha)[1] != 0.0


def trust_weights(q: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """Per-position CE weights R = -alpha * log(1 - Q[i, y[i]]), Q[y] clamped below 1; [N].

    alpha > 0 comes from a trust_reg DistillLossSpec, which admits no other."""
    qy = np.minimum(q[np.arange(q.shape[0]), y], 1.0 - TRUST_CLAMP)
    return -alpha * np.log(1.0 - qy)


def distill_loss(spec: DistillLossSpec, log_p, y: np.ndarray,
                 q: np.ndarray | None = None):
    """The objective above over log_p, a model's train-mode rows (MosRows); q iff
    needs_teacher. Returns log_p.loss(objective): for MosRows the value,
    dL/dhidden and the head parameters' gradients by name.

    A term whose weight is 0 is not built, so fixed_interp at alpha 1 or 0 is
    ce_only or kl_only bitwise, and the hard term reads only log P[i, y_i].
    """
    if spec.needs_teacher and q is None:
        raise ConfigError(f"loss variant {spec.variant!r} needs teacher distributions")
    if not spec.needs_teacher and q is not None:
        raise ConfigError(f"loss variant {spec.variant!r} at alpha = {spec.alpha:g} "
                          f"takes no teacher distributions")
    if len(log_p.shape) != 2:
        raise ShapeError(f"distill_loss needs [N x V] log-probs, got shape {log_p.shape}")
    n, v = log_p.shape
    if n == 0:
        raise ShapeError("distill_loss needs at least one position")
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (n,) or np.any((y < 0) | (y >= v)):
        raise ShapeError(f"distill_loss needs {n} target ids in [0, {v}), got {y.shape} "
                         f"ids in [{y.min(initial=0)}, {y.max(initial=0)}]")
    if q is not None:
        q = np.asarray(q, dtype=np.float64)
        if q.shape != log_p.shape:
            raise ShapeError(f"teacher shaped {q.shape}, model shaped {log_p.shape}")
        sums = q.sum(axis=1)
        off = np.nonzero(~(np.abs(sums - 1.0) <= 1e-6))[0]  # NaN and inf rows too
        if off.size:
            i = int(off[0])
            raise DataError(f"teacher row {i} sums to {sums[i]!r}, expected 1 within 1e-6")

    h, s = _WEIGHTS[spec.variant](spec.alpha)
    w = trust_weights(q, y, spec.alpha) if spec.variant == "trust_reg" else np.ones(n)

    def objective(lo: int, hi: int, log_p_rows: np.ndarray):
        """L's share from rows lo:hi, and g = dL/dlog P over those rows."""
        rows, ids, wy = np.arange(hi - lo), y[lo:hi], w[lo:hi]
        # s/n and h/n are one division each, as training has always rounded them
        g = q[lo:hi] * (-s / n) if s != 0.0 else np.zeros_like(log_p_rows)
        g[rows, ids] -= wy * (h / n)
        value = 0.0
        if h != 0.0:
            value = np.sum(log_p_rows[rows, ids] * wy) * (-1.0 / n) * h
        if s != 0.0:
            value += np.sum(q[lo:hi] * log_p_rows) * (-1.0 / n) * s
        return value, g

    return log_p.loss(objective)
