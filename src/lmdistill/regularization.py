"""Dropout variants and activation regularizers for recurrent LMs.

All masks are "variational": drawn once per model_forward call and reused at
every time step of that call, with inverted scaling 1/(1-rate) so expectations
match eval mode. Eval mode draws no mask, so every regularizer is an identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
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


def activation_reg(dropped: Tensor, raw: list[Tensor],
                   ar_weight: float, tar_weight: float) -> Tensor:
    """AR/TAR penalty over final-layer activations: dropped is the time-major
    [batch*T x H] block model_forward feeds the bottleneck, raw the per-step
    [batch x H] outputs before dropout.

    AR  = ar_weight  * mean over all elements of dropped^2
    TAR = tar_weight * mean over all elements of (raw[t+1] - raw[t])^2
    TAR is one mean over the steps stacked into one block; every step has the
    same shape, so that equals the mean of per-step means. Weights must be
    >= 0; a single step contributes no TAR term.
    """
    if ar_weight < 0 or tar_weight < 0:
        raise ConfigError(f"activation reg weights must be >= 0, got {ar_weight}, {tar_weight}")
    total = Tensor(0.0)
    if ar_weight > 0 and dropped.data.size:
        total = T.add(total, T.scale(T.mean_all(T.mul(dropped, dropped)), ar_weight))
    if tar_weight > 0 and len(raw) > 1:
        d = T.sub(T.concat_rows(raw[1:]), T.concat_rows(raw[:-1]))
        total = T.add(total, T.scale(T.mean_all(T.mul(d, d)), tar_weight))
    return total
