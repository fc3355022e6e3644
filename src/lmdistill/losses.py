"""Distillation objectives over next-word distributions.

All losses take model log-probabilities log P ([N x V], rows log-sum-exp to
0, N positions flattened time-major), as the model head produces them, and
average over positions in natural log.
The teacher distribution Q and target ids y are fixed data, never
differentiated through; the per-position trust weight R = -alpha*log(1 - Q[y])
is likewise a constant during backprop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, ShapeError
from .tensor import Tensor

__all__ = ["DistillLossSpec", "SoftLabelBatch", "ce_loss", "kl_loss",
           "fixed_interp_loss", "trust_weights", "tr_loss", "distill_loss",
           "LOSS_VARIANTS"]

LOSS_VARIANTS = ("ce_only", "kl_only", "fixed_interp", "trust_reg")

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
        if self.variant == "fixed_interp" and not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"fixed_interp needs alpha in [0, 1], got {self.alpha}")
        if self.variant == "trust_reg" and not self.alpha > 0.0:
            raise ConfigError(f"trust_reg needs alpha > 0, got {self.alpha}")

    @property
    def needs_teacher(self) -> bool:
        return self.variant != "ce_only"


@dataclass
class SoftLabelBatch:
    """Teacher distributions Q [N x V] and target ids y [N] for one batch."""

    q: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.q.ndim != 2:
            raise ShapeError(f"Q must be [N x V], got shape {self.q.shape}")
        n, v = self.q.shape
        if self.y.shape != (n,):
            raise ShapeError(f"y shaped {self.y.shape}, expected ({n},)")
        bad = np.nonzero((self.y < 0) | (self.y >= v))[0]
        if bad.size:
            i = int(bad[0])
            raise DataError(f"target id {int(self.y[i])} at position {i} out of range [0, {v})")
        sums = self.q.sum(axis=1)
        off = np.nonzero(np.abs(sums - 1.0) > 1e-6)[0]
        if off.size:
            i = int(off[0])
            raise DataError(f"teacher row {i} sums to {sums[i]!r}, expected 1 within 1e-6")


def _check_dist(log_p: Tensor, what: str) -> int:
    if log_p.data.ndim != 2:
        raise ShapeError(f"{what} needs [N x V] log-probabilities, got shape {log_p.data.shape}")
    n = log_p.data.shape[0]
    if n == 0:
        raise ShapeError(f"{what} needs at least one position")
    return n


def ce_loss(log_p: Tensor, y: np.ndarray) -> Tensor:
    """Mean over positions of -log P[i, y[i]]."""
    n = _check_dist(log_p, "ce_loss")
    return T.scale(T.sum_all(T.pick_cols(log_p, y)), -1.0 / n)


def kl_loss(log_p: Tensor, q) -> Tensor:
    """Teacher-weighted cross entropy: mean over positions of -sum_x Q[x] log P[x].

    Equals KL(Q || P) plus the constant teacher entropy H(Q), so its gradient
    in P is the gradient of the KL divergence.
    """
    n = _check_dist(log_p, "kl_loss")
    q = q if isinstance(q, Tensor) else Tensor(q)
    if q.shape != log_p.shape:
        raise ShapeError(f"teacher shaped {q.shape}, model shaped {log_p.shape}")
    return T.scale(T.sum_all(T.mul(q, log_p)), -1.0 / n)


def trust_weights(q: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """Per-position CE weights R = -alpha * log(1 - Q[i, y[i]]), Q[y] clamped below 1; [N]."""
    if alpha <= 0.0:
        raise ConfigError(f"trust weighting needs alpha > 0, got {alpha}")
    qy = np.minimum(q[np.arange(q.shape[0]), y], 1.0 - TRUST_CLAMP)
    return -alpha * np.log(1.0 - qy)


def tr_loss(log_p: Tensor, q: np.ndarray, y: np.ndarray, alpha: float) -> Tensor:
    """Trust-regularized objective: mean_i [ R_i * (-log P[i,y_i]) ] + kl_loss.

    R_i is the teacher's confidence in the ground truth mapped through
    -alpha*log(1-q); a confident teacher re-weights the hard-label CE term up,
    an unsure one leaves the soft KL term in charge. R is a constant in the
    backward pass (no gradient flows into it).
    """
    n = _check_dist(log_p, "tr_loss")
    q = np.asarray(q, dtype=np.float64)
    r = trust_weights(q, np.asarray(y, dtype=np.int64), alpha)
    weighted = T.scale(T.sum_all(T.mul(T.pick_cols(log_p, y), Tensor(r))), -1.0 / n)
    return T.add(weighted, kl_loss(log_p, Tensor(q)))


def fixed_interp_loss(log_p: Tensor, q: np.ndarray, y: np.ndarray, alpha: float) -> Tensor:
    """alpha * ce_loss + (1 - alpha) * kl_loss with alpha in [0, 1].

    The endpoints are explicit branches so alpha=1 is ce_loss and alpha=0 is
    kl_loss bitwise, not merely up to rounding of a 0-weighted term.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError(f"fixed_interp needs alpha in [0, 1], got {alpha}")
    if alpha == 1.0:
        return ce_loss(log_p, y)
    if alpha == 0.0:
        return kl_loss(log_p, Tensor(np.asarray(q, dtype=np.float64)))
    return T.add(T.scale(ce_loss(log_p, y), alpha),
                 T.scale(kl_loss(log_p, Tensor(np.asarray(q, dtype=np.float64))), 1.0 - alpha))


def distill_loss(spec: DistillLossSpec, log_p: Tensor, y: np.ndarray,
                 q: np.ndarray | None = None) -> Tensor:
    """Dispatch on the configured variant. q is required unless ce_only."""
    if spec.needs_teacher:
        if q is None:
            raise ConfigError(f"loss variant {spec.variant!r} needs teacher distributions")
    elif q is not None:
        raise ConfigError("ce_only takes no teacher distributions")
    if spec.variant == "ce_only":
        return ce_loss(log_p, y)
    if spec.variant == "kl_only":
        return kl_loss(log_p, Tensor(np.asarray(q, dtype=np.float64)))
    if spec.variant == "fixed_interp":
        return fixed_interp_loss(log_p, q, y, spec.alpha)
    return tr_loss(log_p, q, y, spec.alpha)
