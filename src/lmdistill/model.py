"""LSTM language model with a mixture-of-softmaxes output head.

Architecture: embedding -> stacked LSTM -> linear bottleneck -> K softmax
experts mixed by a learned prior. The final LSTM layer's width defaults to
hidden_dim but may be set separately (reference configs narrow it to the
bottleneck width, which is how the published parameter counts come out).

model_forward runs layer-major over whole windows: each LSTM layer is one op
over the time-major [T*B x in] block (lstm_layer, its backward a hand-written
BPTT). The head runs once per window over all B*T rows, in chunks of
CHUNK_ELEMENTS / (K*V) rows: one output matmul over the K expert contexts
stacked expert-major, and a log-sum-exp over the experts' log-softmaxes (no log
of an underflowed entry). Eval mode returns log P. In train mode the loss runs
the head and its backward per chunk (MosRows), and the result's backward takes
the gradient on down through the trunk. Parameters are plain float64 arrays in
one dict in checkpoint order; every backward is written by hand, takes the
gradients of its outputs as arguments and returns those of its inputs, and sums
in one fixed order, so a step's gradients are bitwise reproducible.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .regularization import DropoutSpec, variational_mask

__all__ = ["ModelConfig", "LmModel", "LmState", "ForwardResult", "LogProbs", "MosRows",
           "build_model", "param_count", "lstm_layer", "mos_log_probs", "model_forward"]

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
class LmState:
    """Per-layer (h, c) pairs, each [batch x H_layer]."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    @property
    def batch_size(self) -> int:
        return self.layers[0][0].shape[0]


def _param_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter's name and shape, in canonical (checkpoint) order."""
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


class LmModel:
    """A config and its parameters: params maps each name to its float64 array, in
    canonical (checkpoint) order. Training updates the arrays in place."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = {name: params[name] for name, _ in _param_shapes(config)}

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def init_state(self, batch_size: int) -> LmState:
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        return LmState([(np.zeros((batch_size, h)), np.zeros((batch_size, h)))
                        for h in self.config.layer_widths])


def build_model(config: ModelConfig, seed: int) -> LmModel:
    """Allocate and initialize a model.

    Embedding entries are uniform in +-0.1; every other parameter is uniform
    in +-1/sqrt(hidden_dim). Draws happen in canonical parameter order from a
    single seeded generator, so (config, seed) pins the model bitwise.
    """
    rng = np.random.default_rng(seed)
    r = 1.0 / np.sqrt(config.hidden_dim)
    params = {}
    for name, shape in _param_shapes(config):
        lim = EMBED_INIT_RANGE if name == "embedding" else r
        params[name] = rng.uniform(-lim, lim, size=shape)
    model = LmModel(config, params)
    expected = param_count(config)
    actual = model.param_count
    if actual != expected:
        raise AssertionError(f"allocated {actual} params but formula gives {expected}")
    return model


def _sigmoid(z: np.ndarray) -> None:
    """Logistic function in place; the split form never exponentiates a positive value."""
    e = np.exp(-np.abs(z))
    np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=z)


def lstm_layer(xs: np.ndarray, h0: np.ndarray, c0: np.ndarray, wx: np.ndarray,
               wh: np.ndarray, b: np.ndarray):
    """One LSTM layer over a time-major [T*B x in] block: (hs [T*B x H], h_T, c_T, backward).

    Gate order in the fused matrices is [i, f, g, o]; i, f, o are sigmoid gates,
    g is the tanh candidate: c' = f*c + i*g, h' = o*tanh(c'). The input GEMM
    for all T steps runs before the recurrence, which keeps only the gates and
    the cells. backward(dL/dhs) runs the reverse recurrence, ends in one
    weight-gradient GEMM each for wx and wh, and returns the gradients in
    (xs, h0, c0, wx, wh, b). model_forward carries h_T and c_T on as constants,
    so a window's gradient stops at the state it was handed.
    """
    batch, hid = c0.shape
    if (wx.shape[1] != 4 * hid or wh.shape != (hid, 4 * hid) or b.shape != (4 * hid,)
            or h0.shape != c0.shape or xs.shape[1] != wx.shape[0] or xs.shape[0] % batch):
        raise ShapeError(f"inconsistent LSTM layer: xs {xs.shape}, h0 {h0.shape}, "
                         f"c0 {c0.shape}, wx {wx.shape}, wh {wh.shape}, b {b.shape}")
    steps = xs.shape[0] // batch
    gates = (xs @ wx).reshape(steps, batch, 4 * hid)
    hs = np.empty((steps + 1, batch, hid))  # hs[0] = h0; hs[t + 1]: step t's output
    cells = np.empty((steps + 1, batch, hid))
    hs[0], cells[0] = h0, c0
    for t, z in enumerate(gates):  # z becomes the gate activations in place
        z += hs[t] @ wh
        z += b
        _sigmoid(z[:, :2 * hid])
        np.tanh(z[:, 2 * hid:3 * hid], out=z[:, 2 * hid:3 * hid])
        _sigmoid(z[:, 3 * hid:])
        i, f, g, o = np.split(z, 4, axis=1)
        np.multiply(f, cells[t], out=cells[t + 1])
        cells[t + 1] += i * g
        np.multiply(o, np.tanh(cells[t + 1]), out=hs[t + 1])

    def backward(d_hs):
        i, f, g, o = np.split(gates, 4, axis=2)
        tanh_c = np.tanh(cells[1:])
        dc_from_dh = o * (1.0 - tanh_c * tanh_c)
        # dz = [dc*g*i(1-i), dc*c_prev*f(1-f), dc*i*(1-g^2), dh*tanh(c)*o(1-o)]
        dz = np.concatenate([g * i * (1.0 - i), cells[:-1] * f * (1.0 - f),
                             i * (1.0 - g * g), tanh_c * o * (1.0 - o)], axis=2)
        d_hs, dz4 = d_hs.reshape(steps, batch, hid), dz.reshape(steps, batch, 4, hid)
        dh, dc = np.zeros((batch, hid)), np.zeros((batch, hid))
        for t in reversed(range(steps)):  # dh, dc: the gradients in h_t, c_t
            dh += d_hs[t]
            dc += dh * dc_from_dh[t]
            dz4[t, :, :3] *= dc[:, None, :]
            dz4[t, :, 3] *= dh
            dh = dz[t] @ wh.T
            dc *= f[t]
        dz = dz.reshape(steps * batch, 4 * hid)
        return (dz @ wx.T, dh, dc, xs.T @ dz,
                hs[:-1].reshape(steps * batch, hid).T @ dz, dz.sum(axis=0))

    return hs[1:].reshape(steps * batch, hid), hs[-1].copy(), cells[-1].copy(), backward


# A head chunk's [K*rows x V] block holds about this many float64s (16 MB).
CHUNK_ELEMENTS = 1 << 21


def _head_inputs(model: LmModel, hidden: np.ndarray):
    """log pi [n x K] and the expert contexts tanh(h W_k + b_k), expert-major [K*n x E],
    from the [n x bottleneck] rows h; and their backward, (dL/dlog pi, dL/dcontexts) ->
    (dL/dh, the prior's and the experts' gradients by parameter name)."""
    if hidden.ndim != 2 or hidden.shape[1] != model.config.bottleneck_dim:
        raise ShapeError(f"bottleneck input shaped {hidden.shape}, expected "
                         f"(n, {model.config.bottleneck_dim})")
    p, experts = model.params, range(model.config.num_experts)
    logits = hidden @ p["prior.w"] + p["prior.b"]
    if np.isnan(logits).any():
        raise NumericError("MoS head received NaN input")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_pi = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    ctx = np.concatenate([np.tanh(hidden @ p[f"expert{k}.w"] + p[f"expert{k}.b"])
                          for k in experts])
    n = hidden.shape[0]

    def backward(d_log_pi, d_ctx):
        # experts last to first, then the prior: the order dL/dh has always summed in
        d_hidden, grads = np.zeros_like(hidden), {}
        for k in reversed(experts):
            y = ctx[k * n:(k + 1) * n]
            d = d_ctx[k * n:(k + 1) * n] * (1.0 - y * y)
            grads[f"expert{k}.b"], grads[f"expert{k}.w"] = d.sum(axis=0), hidden.T @ d
            d_hidden += d @ p[f"expert{k}.w"].T
        d = d_log_pi - np.exp(log_pi) * d_log_pi.sum(axis=1, keepdims=True)
        grads["prior.b"], grads["prior.w"] = d.sum(axis=0), hidden.T @ d
        d_hidden += d @ p["prior.w"].T
        return d_hidden, grads

    return log_pi, ctx, backward


def _out_matrix(model: LmModel) -> np.ndarray:
    """The [E x V] output matrix: the transposed embedding (a view) when tied."""
    p = model.params
    return p["embedding"].T if model.config.tie_embeddings else p["out.w"]


def _chunks(model: LmModel, log_pi: np.ndarray, ctx: np.ndarray):
    """(lo, hi, log pi rows, their contexts [K*c x E]) per chunk of the n rows."""
    n, k = log_pi.shape
    rows = max(1, CHUNK_ELEMENTS // (k * model.config.vocab_size))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        yield lo, hi, log_pi[lo:hi], ctx.reshape(k, n, -1)[:, lo:hi].reshape(k * (hi - lo), -1)


def _head_chunk(model: LmModel, out_matrix: np.ndarray, log_pi: np.ndarray,
                ctx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """stacked [K x c x V] = log pi_k + log softmax_k, and log P [c x V], using [c x V] temps."""
    stacked = (ctx @ out_matrix).reshape(log_pi.shape[1], log_pi.shape[0], -1)
    stacked += model.params["out.b"]
    for z in stacked:  # log softmax of each expert's rows, in place
        top = z.max(axis=1, keepdims=True)
        if np.isnan(top).any():
            raise NumericError("MoS head received NaN input")
        z -= top
        z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    stacked += log_pi.T[:, :, None]
    top = stacked.max(axis=0)
    total, e = np.zeros_like(top), np.empty_like(top)
    for z in stacked:  # the same order as a sum over the expert axis
        np.exp(np.subtract(z, top, out=e), out=e)
        total += e
    log_p = np.log(total, out=total)
    log_p += top
    return stacked, log_p


def _head_loss(model: LmModel, log_pi: np.ndarray, ctx: np.ndarray, objective):
    """Sum over row chunks of objective(lo, hi, log_p) -> (value, g = dL/dlog P), and dL/dlog pi,
    dL/dcontexts, dL/d(output matrix) and dL/d(output bias).

    With r_k = exp(stacked_k - log P), dL/dlog pi_k = sum_v r_k*g and
    dL/dlogits_k = r_k*g - softmax_k * dL/dlog pi_k."""
    out_matrix = _out_matrix(model)
    d_log_pi, d_ctx = np.zeros_like(log_pi), np.zeros_like(ctx)
    d_out, d_out_b = np.zeros_like(out_matrix), np.zeros_like(model.params["out.b"])
    n, k = log_pi.shape

    def chunk(lo, hi, log_pi_rows, ctx_rows) -> float:
        stacked, log_p = _head_chunk(model, out_matrix, log_pi_rows, ctx_rows)
        value, g = objective(lo, hi, log_p)
        r = np.empty_like(log_p)
        for j, z in enumerate(stacked):  # z becomes dL/dlogits_j
            np.exp(np.subtract(z, log_p, out=r), out=r)
            r *= g
            d_log_pi[lo:hi, j] = r.sum(axis=1)
            z -= log_pi_rows[:, j:j + 1]
            np.exp(z, out=z)  # softmax_j
            z *= d_log_pi[lo:hi, j:j + 1]
            np.subtract(r, z, out=z)
        d_z = stacked.reshape(len(ctx_rows), -1)
        d_out_b[:] += d_z.sum(axis=0)
        d_out[:] += ctx_rows.T @ d_z
        d_ctx.reshape(k, n, -1)[:, lo:hi] = (d_z @ out_matrix.T).reshape(k, hi - lo, -1)
        return value

    total = sum(chunk(*rows) for rows in _chunks(model, log_pi, ctx))
    return total, d_log_pi, d_ctx, d_out, d_out_b


def mos_log_probs(model: LmModel, hidden: np.ndarray) -> np.ndarray:
    """log P = logsumexp_k(log pi_k + log softmax(tanh(h W_k + b_k) W_out + b_out)),
    [n x V], chunk by chunk over the rows of hidden."""
    log_pi, ctx, _ = _head_inputs(model, hidden)
    out_matrix = _out_matrix(model)
    out = np.empty((hidden.shape[0], model.config.vocab_size))
    for lo, hi, log_pi_rows, ctx_rows in _chunks(model, log_pi, ctx):
        out[lo:hi] = _head_chunk(model, out_matrix, log_pi_rows, ctx_rows)[1]
    return out


@dataclass
class MosRows:
    """Train mode's head input rows, for distill_loss to run the head and loss over (loss())."""

    model: LmModel
    hidden: np.ndarray  # [N x bottleneck], time-major

    @property
    def shape(self) -> tuple[int, int]:
        return self.hidden.shape[0], self.model.config.vocab_size

    def loss(self, objective) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
        """Sum over row chunks of objective(lo, hi, log_p) -> (value, g = dL/dlog P).

        Returns that sum, dL/dhidden, and the gradient of every head parameter by
        name: g carried on through the head, the prior log-softmax and the K
        expert projections."""
        model = self.model
        log_pi, ctx, head_inputs_backward = _head_inputs(model, self.hidden)
        total, d_log_pi, d_ctx, d_out, d_out_b = _head_loss(model, log_pi, ctx, objective)
        d_hidden, grads = head_inputs_backward(d_log_pi, d_ctx)
        grads["out.b"] = d_out_b
        if model.config.tie_embeddings:
            # C order: clip_gradients sums over it, and a transposed view sums in another order
            grads["embedding"] = d_out.T.copy()
        else:
            grads["out.w"] = d_out
        return total, d_hidden, grads


# bench/run.py reads an eval forward's log-probs as `.log_probs.data` and
# fancy-indexes them; a bare ndarray's .data is a memoryview, which cannot be.
@dataclass(frozen=True)
class LogProbs:
    """Eval mode's log P [n x V]."""

    data: np.ndarray


@dataclass
class ForwardResult:
    """Output of one forward pass over a [batch x T] id block.

    log_probs rows are time-major: row t*batch + b is position t of lane b;
    in train mode they are MosRows, for a loss to evaluate.
    raw is the final LSTM layer's output block [batch*T x H], time-major
    (for TAR); dropped is the same after its output dropout, the block that
    feeds the bottleneck (for AR); with no output dropout they are one array.
    backward, in train mode, takes dL/dhidden (the loss's, for log_probs.hidden),
    dL/ddropped and dL/draw (AR's and TAR's, or None) and the head's gradient in the
    tied embedding (or None), carries them on through the bottleneck, the LSTM
    layers, the masks and the embedding gather, and returns the gradient of every
    parameter below the head by name; eval mode has none.
    """

    log_probs: LogProbs | MosRows
    state: LmState
    raw: np.ndarray
    dropped: np.ndarray
    backward: Callable[..., dict[str, np.ndarray]] | None = None


def flatten_targets(targets: np.ndarray) -> np.ndarray:
    """[batch x T] target ids -> time-major [batch*T], matching log_probs rows."""
    return np.asarray(targets, dtype=np.int64).ravel(order="F")


def _masked(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return x if mask is None else x * mask


def _tiled(mask: np.ndarray | None, steps: int) -> np.ndarray | None:
    """A per-lane [batch x n] mask repeated for every step of a time-major block."""
    return None if mask is None else np.tile(mask, (steps, 1))


def _plus(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    return b if a is None else a if b is None else a + b


def model_forward(model: LmModel, tokens: np.ndarray, state: LmState,
                  rng: np.random.Generator | None = None) -> ForwardResult:
    """Run the model over tokens [batch x T], threading state across steps.

    rng=None means eval mode: no mask is drawn and every regularizer is an
    identity. In train mode each dropout mask is drawn from rng once, at the
    top of this call, and reused at every time step. The draw order is the
    embedding rows [V x 1], each layer's hidden-to-hidden weights, the input
    [batch x E], each layer's output [batch x H_i], then the bottleneck
    [batch x bottleneck_dim]; a mask whose rate is 0 is not drawn.
    """
    cfg, p = model.config, model.params
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

    rates = cfg.dropout
    layers = range(cfg.lstm_layers)
    embed_mask = variational_mask((cfg.vocab_size, 1), rates.embed_rate, rng)
    wh_masks = [variational_mask(p[f"lstm{i}.wh"].shape, rates.hidden_rate, rng)
                for i in layers]
    in_mask = _tiled(variational_mask((batch, cfg.embed_dim), rates.input_rate, rng), steps)
    out_masks = [_tiled(variational_mask((batch, h), rates.output_rate, rng), steps)
                 for h in cfg.layer_widths]
    other_mask = _tiled(variational_mask((batch, cfg.bottleneck_dim), rates.other_rate, rng),
                        steps)

    ids = tokens.ravel(order="F")
    table = p["embedding"]
    if embed_mask is not None:  # whole word rows
        row_mask = np.broadcast_to(embed_mask, table.shape)
        table = table * row_mask
    x = _masked(table[ids], in_mask)
    new_state, backwards = [], []
    for i, wh_mask, out_mask, (h0, c0) in zip(layers, wh_masks, out_masks, state.layers):
        raw, h, c, layer_backward = lstm_layer(x, h0, c0, p[f"lstm{i}.wx"],
                                               _masked(p[f"lstm{i}.wh"], wh_mask),
                                               p[f"lstm{i}.b"])
        x = _masked(raw, out_mask)
        new_state.append((h, c))
        if rng is not None:
            backwards.append(layer_backward)
    hidden = _masked(x @ p["bottleneck.w"] + p["bottleneck.b"], other_mask)
    if rng is None:
        return ForwardResult(LogProbs(mos_log_probs(model, hidden)), LmState(new_state), raw, x)

    def backward(d_hidden, d_dropped=None, d_raw=None, d_embedding=None):
        if out_masks[-1] is None:  # dropped is raw: AR's and TAR's gradients, summed first
            d_dropped, d_raw = _plus(d_dropped, d_raw), None
        d = _masked(d_hidden, other_mask)
        grads = {"bottleneck.b": d.sum(axis=0), "bottleneck.w": x.T @ d}
        d = d @ p["bottleneck.w"].T
        if d_dropped is not None:
            d += d_dropped
        for i in reversed(layers):
            if out_masks[i] is not None:
                d = d * out_masks[i]
                if d_raw is not None and i == layers[-1]:
                    d += d_raw
            d, _, _, grads[f"lstm{i}.wx"], d_wh, grads[f"lstm{i}.b"] = backwards[i](d)
            grads[f"lstm{i}.wh"] = _masked(d_wh, wh_masks[i])
        d = _masked(d, in_mask)
        if embed_mask is None:  # onto the tied output matrix's gradient, if any
            d_table = np.zeros_like(table) if d_embedding is None else d_embedding
            np.add.at(d_table, ids, d)
        else:
            d_table = np.zeros_like(table)
            np.add.at(d_table, ids, d)
            d_table *= row_mask
            d_table = _plus(d_embedding, d_table)
        grads["embedding"] = d_table
        return grads

    return ForwardResult(MosRows(model, hidden), LmState(new_state), raw, x, backward)
