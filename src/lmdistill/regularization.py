"""Dropout variants and activation regularizers for recurrent LMs.

All masks are "variational": drawn once per model_forward call and reused at
every time step of that call, with inverted scaling 1/(1-rate) so expectations
match eval mode. Eval mode draws no mask, so every regularizer is an identity.
Masks and the AR/TAR penalty's gradients are plain float64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_finite

__all__ = ["DropoutSpec", "variational_mask", "activation_reg"]


@dataclass(frozen=True)
class DropoutSpec:
    """Dropout rates and activation-regularizer weights; a hashable value.

    input_rate / output_rate: variational masks on LSTM layer inputs/outputs.
    hidden_rate: DropConnect on the recurrent (hidden-to-hidden) weights.
    embed_rate: whole-row dropout on the embedding table.
    other_rate: mask on the bottleneck output feeding the softmax head.
    ar_weight / tar_weight: L2 activation penalty and temporal difference
    penalty on the final LSTM layer's outputs.
    """

    input_rate: float = 0.0
    output_rate: float = 0.0
    hidden_rate: float = 0.0
    embed_rate: float = 0.0
    other_rate: float = 0.0
    ar_weight: float = 0.0
    tar_weight: float = 0.0

    def __post_init__(self):
        for name in ("input_rate", "output_rate", "hidden_rate", "embed_rate", "other_rate"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ConfigError(f"{name} must be in [0, 1), got {v}")
        require_finite(self, "ar_weight", "tar_weight")
        for name in ("ar_weight", "tar_weight"):
            v = getattr(self, name)
            if v < 0.0:
                raise ConfigError(f"{name} must be >= 0, got {v}")


def variational_mask(shape: tuple[int, ...], rate: float,
                     rng: np.random.Generator | None) -> np.ndarray | None:
    """Bernoulli keep-mask scaled by 1/(1-rate); None in eval (rng None) or at rate 0."""
    if rng is None or rate == 0.0:
        return None
    keep = (rng.random(shape) >= rate).astype(np.float64)
    return keep / (1.0 - rate)


def activation_reg(dropped: np.ndarray, raw: np.ndarray, batch: int, ar_weight: float,
                   tar_weight: float) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """AR/TAR penalty over the final LSTM layer's time-major [batch*T x H]
    blocks: dropped feeds the bottleneck, raw is the same before dropout.

    AR  = ar_weight  * mean over all elements of dropped^2
    TAR = tar_weight * mean over all elements of (raw[t+1] - raw[t])^2
    Step t of raw is rows t*batch..(t+1)*batch, so TAR's differences are the
    block less itself shifted by batch rows; a single step has no TAR term.
    Returns the penalty, its gradient in dropped (AR's) and in raw (TAR's); a
    term whose weight is 0 contributes 0 and a None gradient. The weights come
    from a DropoutSpec, which keeps them finite and >= 0.
    """
    total, d_dropped, d_raw = 0.0, None, None
    if ar_weight > 0 and dropped.size:
        total += np.sum(dropped * dropped) / dropped.size * ar_weight
        d_dropped = dropped * (2.0 * ar_weight / dropped.size)
    if tar_weight > 0 and raw.shape[0] > batch:
        diff = raw[batch:] - raw[:-batch]
        total += np.sum(diff * diff) / diff.size * tar_weight
        diff *= 2.0 * tar_weight / diff.size
        d_raw = np.zeros_like(raw)
        d_raw[batch:] += diff
        d_raw[:-batch] -= diff
    return total, d_dropped, d_raw
