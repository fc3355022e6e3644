"""LSTM language model with a mixture-of-softmaxes output head.

Architecture: embedding -> stacked LSTM -> linear bottleneck -> K softmax
experts mixed by a learned prior. The final LSTM layer's width defaults to
hidden_dim but may be set separately (reference configs narrow it to the
bottleneck width, which is how the published parameter counts come out).

All next-word distributions are computed and returned in log space, so a log
of an underflowed softmax entry can never occur downstream. The K expert
contexts are stacked expert-major into one [K*n x E] block, so one output
matmul and one log-softmax run over all experts; a log-sum-exp over the
experts then mixes the block's K row groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .regularization import DropoutSpec, RegContext, drop_connect, embedding_dropout, variational_mask
from .tensor import Tensor

__all__ = ["ModelConfig", "LmModel", "LmState", "LstmLayer", "ForwardResult",
           "build_model", "param_count", "lstm_step", "mos_log_probs", "model_forward"]

EMBED_INIT_RANGE = 0.1


@dataclass
class ModelConfig:
    vocab_size: int
    embed_dim: int
    lstm_layers: int
    hidden_dim: int
    bottleneck_dim: int
    num_experts: int
    tie_embeddings: bool = True
    last_hidden_dim: int | None = None  # width of the final LSTM layer; None = hidden_dim
    expert_dim: int | None = None  # per-expert context width; None = embed_dim
    dropout: DropoutSpec = field(default_factory=DropoutSpec)

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "lstm_layers", "hidden_dim",
                     "bottleneck_dim", "num_experts"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        for name in ("last_hidden_dim", "expert_dim"):
            v = getattr(self, name)
            if v is not None and (not isinstance(v, int) or v < 1):
                raise ConfigError(f"{name} must be a positive integer or None, got {v!r}")
        if self.tie_embeddings and self.expert_width != self.embed_dim:
            raise ConfigError(
                f"tie_embeddings needs expert_dim == embed_dim "
                f"({self.expert_width} != {self.embed_dim}); the output matrix is the "
                f"transposed embedding")

    @property
    def expert_width(self) -> int:
        return self.embed_dim if self.expert_dim is None else self.expert_dim

    @property
    def layer_widths(self) -> list[int]:
        last = self.hidden_dim if self.last_hidden_dim is None else self.last_hidden_dim
        return [self.hidden_dim] * (self.lstm_layers - 1) + [last]

    @property
    def layer_input_widths(self) -> list[int]:
        return [self.embed_dim] + self.layer_widths[:-1]


def param_count(config: ModelConfig) -> int:
    """Analytic parameter count; closed form over the config, no allocation."""
    widths = config.layer_widths
    ins = config.layer_input_widths
    n = config.vocab_size * config.embed_dim  # embedding
    for w_in, h in zip(ins, widths):
        n += w_in * 4 * h + h * 4 * h + 4 * h  # input weights, recurrent weights, bias
    last = widths[-1]
    b = config.bottleneck_dim
    e = config.expert_width
    k = config.num_experts
    n += last * b + b  # bottleneck projection
    n += b * k + k  # mixture prior
    n += k * (b * e + e)  # per-expert context projections
    if not config.tie_embeddings:
        n += e * config.vocab_size  # free output matrix
    n += config.vocab_size  # output bias
    return n


@dataclass
class LstmLayer:
    wx: Tensor  # [in x 4H]
    wh: Tensor  # [H x 4H]
    b: Tensor   # [4H]


@dataclass
class LmState:
    """Per-layer (h, c) pairs, each [batch x H_layer]."""

    layers: list[tuple[Tensor, Tensor]]

    @property
    def batch_size(self) -> int:
        return self.layers[0][0].shape[0]

    def detach(self) -> "LmState":
        return LmState([(h.detach(), c.detach()) for h, c in self.layers])


class LmModel:
    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.embedding = tensors["embedding"]
        self.layers = [
            LstmLayer(tensors[f"lstm{i}.wx"], tensors[f"lstm{i}.wh"], tensors[f"lstm{i}.b"])
            for i in range(config.lstm_layers)
        ]
        self.bottleneck_w = tensors["bottleneck.w"]
        self.bottleneck_b = tensors["bottleneck.b"]
        self.prior_w = tensors["prior.w"]
        self.prior_b = tensors["prior.b"]
        self.expert_w = [tensors[f"expert{k}.w"] for k in range(config.num_experts)]
        self.expert_b = [tensors[f"expert{k}.b"] for k in range(config.num_experts)]
        self.out_w = tensors.get("out.w")  # None when tied
        self.out_b = tensors["out.b"]

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Named parameters in canonical (checkpoint) order."""
        out = [("embedding", self.embedding)]
        for i, layer in enumerate(self.layers):
            out += [(f"lstm{i}.wx", layer.wx), (f"lstm{i}.wh", layer.wh), (f"lstm{i}.b", layer.b)]
        out += [("bottleneck.w", self.bottleneck_w), ("bottleneck.b", self.bottleneck_b),
                ("prior.w", self.prior_w), ("prior.b", self.prior_b)]
        for k in range(self.config.num_experts):
            out += [(f"expert{k}.w", self.expert_w[k]), (f"expert{k}.b", self.expert_b[k])]
        if self.out_w is not None:
            out.append(("out.w", self.out_w))
        out.append(("out.b", self.out_b))
        return out

    @property
    def param_count(self) -> int:
        return sum(p.data.size for _, p in self.parameters())

    def init_state(self, batch_size: int) -> LmState:
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        return LmState([(Tensor(np.zeros((batch_size, h))), Tensor(np.zeros((batch_size, h))))
                        for h in self.config.layer_widths])

    def zero_grad(self) -> None:
        for _, p in self.parameters():
            p.grad = None


def _param_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("embedding", (config.vocab_size, config.embed_dim))]
    for i, (w_in, h) in enumerate(zip(config.layer_input_widths, config.layer_widths)):
        shapes += [(f"lstm{i}.wx", (w_in, 4 * h)), (f"lstm{i}.wh", (h, 4 * h)),
                   (f"lstm{i}.b", (4 * h,))]
    last = config.layer_widths[-1]
    shapes += [("bottleneck.w", (last, config.bottleneck_dim)),
               ("bottleneck.b", (config.bottleneck_dim,)),
               ("prior.w", (config.bottleneck_dim, config.num_experts)),
               ("prior.b", (config.num_experts,))]
    for k in range(config.num_experts):
        shapes += [(f"expert{k}.w", (config.bottleneck_dim, config.expert_width)),
                   (f"expert{k}.b", (config.expert_width,))]
    if not config.tie_embeddings:
        shapes.append(("out.w", (config.expert_width, config.vocab_size)))
    shapes.append(("out.b", (config.vocab_size,)))
    return shapes


def build_model(config: ModelConfig, seed: int) -> LmModel:
    """Allocate and initialize a model.

    Embedding entries are uniform in +-0.1; every other parameter is uniform
    in +-1/sqrt(hidden_dim). Draws happen in canonical parameter order from a
    single seeded generator, so (config, seed) pins the model bitwise.
    """
    rng = np.random.default_rng(seed)
    r = 1.0 / np.sqrt(config.hidden_dim)
    tensors: dict[str, Tensor] = {}
    for name, shape in _param_shapes(config):
        lim = EMBED_INIT_RANGE if name == "embedding" else r
        tensors[name] = Tensor(rng.uniform(-lim, lim, size=shape), requires_grad=True)
    model = LmModel(config, tensors)
    expected = param_count(config)
    actual = model.param_count
    if actual != expected:
        raise AssertionError(f"allocated {actual} params but formula gives {expected}")
    return model


def lstm_step(x: Tensor, h: Tensor, c: Tensor, wx: Tensor, wh: Tensor, b: Tensor
              ) -> tuple[Tensor, Tensor]:
    """One LSTM cell step; gate order in the fused matrices is [i, f, g, o].

    i, f, o are sigmoid gates, g is the tanh candidate:
    c' = f*c + i*g, h' = o*tanh(c').
    """
    hid = wh.shape[0]
    if wx.shape[1] != 4 * hid or wh.shape[1] != 4 * hid or b.shape != (4 * hid,):
        raise ShapeError(
            f"inconsistent LSTM weights: wx {wx.shape}, wh {wh.shape}, b {b.shape}")
    gates = T.add(T.add(T.matmul(x, wx), T.matmul(h, wh)), b)
    i = T.sigmoid(T.slice_cols(gates, 0, hid))
    f = T.sigmoid(T.slice_cols(gates, hid, 2 * hid))
    g = T.tanh(T.slice_cols(gates, 2 * hid, 3 * hid))
    o = T.sigmoid(T.slice_cols(gates, 3 * hid, 4 * hid))
    c2 = T.add(T.mul(f, c), T.mul(i, g))
    h2 = T.mul(o, T.tanh(c2))
    return h2, c2


def _output_matrix(model: LmModel) -> Tensor:
    # Tied: the (raw, undropped) embedding transposed. Untied: a free matrix.
    if model.config.tie_embeddings:
        return T.transpose(model.embedding)
    return model.out_w


def mos_log_probs(model: LmModel, h_bottleneck: Tensor,
                  out_matrix: Tensor | None = None) -> Tensor:
    """Log of the mixture-of-softmaxes distribution, [n x V].

    log P = logsumexp_k(log pi_k + log softmax(tanh(h W_k + b_k) W_out + b_out)).
    """
    if h_bottleneck.data.ndim != 2 or h_bottleneck.shape[1] != model.config.bottleneck_dim:
        raise ShapeError(
            f"bottleneck input shaped {h_bottleneck.shape}, expected "
            f"(n, {model.config.bottleneck_dim})")
    if out_matrix is None:
        out_matrix = _output_matrix(model)
    log_pi = T.log_softmax_rows(T.add(T.matmul(h_bottleneck, model.prior_w), model.prior_b))
    contexts = T.concat_rows([T.tanh(T.add(T.matmul(h_bottleneck, w), b))
                              for w, b in zip(model.expert_w, model.expert_b)])
    logits = T.add(T.matmul(contexts, out_matrix), model.out_b)
    return T.log_mix(log_pi, T.log_softmax_rows(logits))


@dataclass
class ForwardResult:
    """Output of one forward pass over a [batch x T] id block.

    log_probs rows are time-major: row t*batch + b is position t of lane b.
    raw/dropped hold the final LSTM layer's per-step outputs (for TAR/AR).
    """

    log_probs: Tensor  # [(batch*T) x V]
    state: LmState
    raw_outputs: list[Tensor]
    dropped_outputs: list[Tensor]


def flatten_targets(targets: np.ndarray) -> np.ndarray:
    """[batch x T] target ids -> time-major [batch*T], matching log_probs rows."""
    return np.asarray(targets, dtype=np.int64).ravel(order="F")


def model_forward(model: LmModel, tokens: np.ndarray, state: LmState,
                  ctx: RegContext | None = None) -> ForwardResult:
    """Run the model over tokens [batch x T], threading state across steps.

    ctx=None means eval mode (all regularizers are identities). In train mode
    each dropout mask is sampled once for this call's sequence role and reused
    at every time step.
    """
    cfg = model.config
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2:
        raise ShapeError(f"tokens must be [batch x T], got shape {tokens.shape}")
    batch, steps = tokens.shape
    if state.batch_size != batch:
        raise ShapeError(f"state batch {state.batch_size} != tokens batch {batch}")
    bad = np.nonzero((tokens < 0) | (tokens >= cfg.vocab_size))
    if bad[0].size:
        b, t = int(bad[0][0]), int(bad[1][0])
        raise ShapeError(
            f"token id {int(tokens[b, t])} at (lane {b}, step {t}) out of range "
            f"[0, {cfg.vocab_size})")

    if ctx is None:
        ctx = RegContext("eval")
    rates = cfg.dropout
    training = ctx.training

    table = embedding_dropout(model.embedding, rates.embed_rate, ctx)
    masked_wh = [drop_connect(layer.wh, rates.hidden_rate, ctx, ("wh", i))
                 for i, layer in enumerate(model.layers)]
    out_matrix = _output_matrix(model)

    hs = [h for h, _ in state.layers]
    cs = [c for _, c in state.layers]
    raw_outputs: list[Tensor] = []
    dropped_outputs: list[Tensor] = []
    step_log_probs: list[Tensor] = []

    for t in range(steps):
        x = T.embedding_rows(table, tokens[:, t])
        if training and rates.input_rate > 0:
            x = T.mul(x, variational_mask(x.shape, rates.input_rate, ctx, ("in", 0)))
        for i, layer in enumerate(model.layers):
            h2, c2 = lstm_step(x, hs[i], cs[i], layer.wx, masked_wh[i], layer.b)
            hs[i], cs[i] = h2, c2
            if i == len(model.layers) - 1:
                raw_outputs.append(h2)
            if training and rates.output_rate > 0:
                h2 = T.mul(h2, variational_mask(h2.shape, rates.output_rate, ctx, ("out", i)))
            if i == len(model.layers) - 1:
                dropped_outputs.append(h2)
            x = h2
        bott = T.add(T.matmul(x, model.bottleneck_w), model.bottleneck_b)
        if training and rates.other_rate > 0:
            bott = T.mul(bott, variational_mask(bott.shape, rates.other_rate, ctx, ("other",)))
        step_log_probs.append(mos_log_probs(model, bott, out_matrix))

    if steps == 0:
        log_probs = Tensor(np.zeros((0, cfg.vocab_size)))
    else:
        log_probs = step_log_probs[0] if steps == 1 else T.concat_rows(step_log_probs)
    new_state = LmState(list(zip(hs, cs)))
    return ForwardResult(log_probs, new_state, raw_outputs, dropped_outputs)
