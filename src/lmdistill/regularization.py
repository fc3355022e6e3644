"""Dropout variants and activation regularizers for recurrent LMs.

All masks are "variational": drawn once per model_forward call and reused at
every time step of that call, with inverted scaling 1/(1-rate) so expectations
match eval mode. Eval mode draws no mask, so every regularizer is an identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_finite
from .tensor import Tensor

__all__ = ["DropoutSpec", "variational_mask", "activation_reg"]


@dataclass
class DropoutSpec:
    """Dropout rates and activation-regularizer weights.

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
                     rng: np.random.Generator | None) -> Tensor | None:
    """Bernoulli keep-mask scaled by 1/(1-rate); None in eval (rng None) or at rate 0."""
    if rng is None or rate == 0.0:
        return None
    keep = (rng.random(shape) >= rate).astype(np.float64)
    return Tensor(keep / (1.0 - rate))


def activation_reg(dropped: Tensor, raw: Tensor, batch: int,
                   ar_weight: float, tar_weight: float) -> tuple[float, list]:
    """AR/TAR penalty over the final LSTM layer's time-major [batch*T x H]
    blocks: dropped feeds the bottleneck, raw is the same before dropout.

    AR  = ar_weight  * mean over all elements of dropped^2
    TAR = tar_weight * mean over all elements of (raw[t+1] - raw[t])^2
    Step t of raw is rows t*batch..(t+1)*batch, so TAR's differences are the
    block less itself shifted by batch rows; a single step has no TAR term.
    Returns the penalty and its gradients as (tensor, gradient) pairs, AR's
    first; a term whose weight is 0 contributes neither. The weights come from
    a DropoutSpec, which keeps them finite and >= 0.
    """
    total, grads = 0.0, []
    if ar_weight > 0 and dropped.data.size:
        d = dropped.data
        total += np.sum(d * d) / d.size * ar_weight
        grads.append((dropped, d * (2.0 * ar_weight / d.size)))
    if tar_weight > 0 and raw.shape[0] > batch:
        diff = raw.data[batch:] - raw.data[:-batch]
        total += np.sum(diff * diff) / diff.size * tar_weight
        diff *= 2.0 * tar_weight / diff.size
        g = np.zeros_like(raw.data)
        g[batch:] += diff
        g[:-batch] -= diff
        grads.append((raw, g))
    return total, grads
