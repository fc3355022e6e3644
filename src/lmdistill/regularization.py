"""Dropout variants and activation regularizers for recurrent LMs.

All masks are "variational": sampled once per sequence (one BPTT segment) and
reused at every time step, with inverted scaling 1/(1-rate) so expectations
match eval mode. Eval mode is a strict identity for every regularizer here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor

__all__ = ["DropoutSpec", "RegContext", "variational_mask", "drop_connect",
           "embedding_dropout", "activation_reg"]


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


class RegContext:
    """Carries train/eval mode, the dropout RNG, and the per-sequence mask cache.

    Keys in the cache are caller-chosen roles (e.g. ("out", layer_index)), so
    the same mask tensor is returned for every step of the current sequence.
    new_sequence() must be called at each segment boundary.
    """

    def __init__(self, mode: str = "eval", seed: int = 0):
        if mode not in ("train", "eval"):
            raise ConfigError(f"RegContext mode must be 'train' or 'eval', got {mode!r}")
        self.mode = mode
        self.rng = np.random.default_rng(seed)
        self._cache: dict[object, Tensor] = {}

    @property
    def training(self) -> bool:
        return self.mode == "train"

    def new_sequence(self) -> None:
        self._cache.clear()

    def cached(self, role, make):
        got = self._cache.get(role)
        if got is None:
            got = self._cache[role] = make()
        return got


def variational_mask(shape: tuple[int, ...], rate: float, ctx: RegContext, role) -> Tensor:
    """Bernoulli keep-mask scaled by 1/(1-rate), cached per sequence under role."""
    if not ctx.training or rate == 0.0:
        return ctx.cached(("ones", role, shape), lambda: Tensor(np.ones(shape)))

    def make():
        keep = (ctx.rng.random(shape) >= rate).astype(np.float64)
        return Tensor(keep / (1.0 - rate))

    mask = ctx.cached(("mask", role, shape), make)
    if mask.shape != tuple(shape):
        raise ConfigError(f"mask role {role!r} reused with shape {shape}, cached {mask.shape}")
    return mask


def drop_connect(weights: Tensor, rate: float, ctx: RegContext, role) -> Tensor:
    """Mask entries of a weight matrix, once per sequence. Identity in eval."""
    if not ctx.training or rate == 0.0:
        return weights
    # Cache the masked node itself so every step shares one tape entry.
    def make():
        keep = (ctx.rng.random(weights.shape) >= rate).astype(np.float64)
        return T.mul(weights, Tensor(keep / (1.0 - rate)))

    return ctx.cached(("drop_connect", role), make)


def embedding_dropout(embedding: Tensor, rate: float, ctx: RegContext) -> Tensor:
    """Zero whole word rows of the embedding table, scaling kept rows by 1/(1-rate)."""
    if not ctx.training or rate == 0.0:
        return embedding

    def make():
        v = embedding.shape[0]
        keep = (ctx.rng.random((v, 1)) >= rate).astype(np.float64) / (1.0 - rate)
        return T.mul(embedding, Tensor(np.broadcast_to(keep, embedding.shape).copy()))

    return ctx.cached(("embed_drop",), make)


def activation_reg(dropped: list[Tensor], raw: list[Tensor],
                   ar_weight: float, tar_weight: float) -> Tensor:
    """AR/TAR penalty over a sequence of [batch x H] activations (time-major).

    AR  = ar_weight  * mean over all elements of dropped[t]^2
    TAR = tar_weight * mean over all elements of (raw[t+1] - raw[t])^2
    Each is one mean over the steps stacked into one block; every step has the
    same shape, so that equals the mean of per-step means. Weights must be
    >= 0; a single step contributes no TAR term.
    """
    if ar_weight < 0 or tar_weight < 0:
        raise ConfigError(f"activation reg weights must be >= 0, got {ar_weight}, {tar_weight}")
    total = Tensor(0.0)
    if ar_weight > 0 and dropped:
        d = T.concat_rows(dropped)
        total = T.add(total, T.scale(T.mean_all(T.mul(d, d)), ar_weight))
    if tar_weight > 0 and len(raw) > 1:
        d = T.sub(T.concat_rows(raw[1:]), T.concat_rows(raw[:-1]))
        total = T.add(total, T.scale(T.mean_all(T.mul(d, d)), tar_weight))
    return total
