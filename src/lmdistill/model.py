"""LSTM language model with a mixture-of-softmaxes output head.

Architecture: embedding -> stacked LSTM -> linear bottleneck -> K softmax
experts mixed by a learned prior. The final LSTM layer's width defaults to
hidden_dim but may be set separately (reference configs narrow it to the
bottleneck width, which is how the published parameter counts come out).

model_forward runs the trunk (_trunk) and stops at the head's B*T input rows (MosRows).
The trunk runs the LSTM layers (lstm_layer, its backward a hand-written BPTT) in time
chunks as two stages over contiguous layers; where the layers are wide enough
(_PIPELINE_ELEMENTS), the upper stage runs on a second thread a chunk behind the lower one,
forward and backward, with the bits of one thread. Eval (perplexity, rescoring) reads only
each target's log P, in chunks of _PICK_ELEMENTS / (K*V) rows (1 MB, at least 8 rows) that
alternate between the calling thread and one helper thread, against a C-ordered copy of
the output matrix, with nothing [n x V] formed (mos_log_probs with picks; with none, the
same arithmetic scores every (row, id)). perplexity's 32-step windows are the trunk's
chunks, scored as they come.
Teachers' P (add_probs) and the train-mode loss run in chunks of CHUNK_ELEMENTS / (K*V)
rows, through one [K*c x V] workspace per call laid out (row, expert)-major: one output
matmul over the K expert contexts, one exp per expert, and the mixture in P space, S =
sum_k a_k e_k as a batched matmul, with P = S e^M for a per-row shift M. Only the loss
takes log S: it runs a chunk where an entry of S falls below the smallest normal float64
in log space instead, and its backward reuses the forward's exps. Parameters are plain
float64 arrays in one dict in checkpoint order; every backward is written by hand, takes
the gradients of its outputs as arguments and returns those of its inputs, and sums in
one fixed order, so a step's gradients are bitwise reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .regularization import DropoutSpec, variational_mask

__all__ = ["ModelConfig", "LmModel", "LmState", "ForwardResult", "MosRows", "build_model",
           "param_count", "lstm_layer", "mos_log_probs", "model_forward", "add_probs"]

EMBED_INIT_RANGE = 0.1
# ModelConfig's int fields, and its optional one, where None picks a default width
_INT_KEYS = ("vocab_size", "embed_dim", "lstm_layers", "hidden_dim", "bottleneck_dim",
             "num_experts")
_OPT_INT_KEYS = ("last_hidden_dim",)


@dataclass
class ModelConfig:
    vocab_size: int
    embed_dim: int
    lstm_layers: int
    hidden_dim: int
    bottleneck_dim: int
    num_experts: int
    last_hidden_dim: int | None = None  # width of the final LSTM layer; None = hidden_dim
    dropout: DropoutSpec = field(default_factory=DropoutSpec)

    def __post_init__(self):
        for name in _INT_KEYS:
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        for name in _OPT_INT_KEYS:
            v = getattr(self, name)
            if v is not None and (not isinstance(v, int) or v < 1):
                raise ConfigError(f"{name} must be a positive integer or None, got {v!r}")

    @property
    def layer_widths(self) -> list[int]:
        last = self.hidden_dim if self.last_hidden_dim is None else self.last_hidden_dim
        return [self.hidden_dim] * (self.lstm_layers - 1) + [last]

    @property
    def layer_input_widths(self) -> list[int]:
        return [self.embed_dim] + self.layer_widths[:-1]


def param_count(config: ModelConfig) -> int:
    """Parameter count from the shapes alone, no allocation."""
    return sum(math.prod(shape) for _, shape in _param_shapes(config))


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
        shapes += [(f"expert{k}.w", (config.bottleneck_dim, config.embed_dim)),
                   (f"expert{k}.b", (config.embed_dim,))]
    shapes.append(("out.b", (config.vocab_size,)))
    return shapes


class LmModel:
    """A config and its parameters: params maps each name to its float64 array, in
    canonical (checkpoint) order. Training updates the arrays in place."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = {name: params[name] for name, _ in _param_shapes(config)}

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
    return LmModel(config, params)


def _sigmoid(z: np.ndarray, e: np.ndarray, den: np.ndarray, pos: np.ndarray) -> None:
    """Logistic function in place, through buffers e, den (float) and pos (bool) shaped as z.
    The split form never exponentiates a positive value; as e = exp(-|z|) <= 1, its numerator
    max(e, z >= 0) is np.where(z >= 0, 1, e) bit for bit. An lstm_layer step runs it once
    over all four gate blocks, the tanh block included."""
    np.exp(np.negative(np.abs(z, out=e), out=e), out=e)
    np.add(e, 1.0, out=den)
    np.maximum(e, np.greater_equal(z, 0.0, out=pos), out=e)
    np.divide(e, den, out=z)


def lstm_layer(xs: np.ndarray, h0: np.ndarray, c0: np.ndarray, wx: np.ndarray,
               wh: np.ndarray, b: np.ndarray):
    """One LSTM layer over a time-major [T*B x in] block of steps from (h0, c0):
    (hs [T*B x H], h_T, c_T, backward).

    Gate order in the fused matrices is [i, f, g, o]; i, f, o are sigmoid gates,
    g is the tanh candidate: c' = f*c + i*g, h' = o*tanh(c'). The input GEMM
    for all T steps runs before the recurrence, which keeps only the gates and
    the cells. A step holds the tanh candidate aside, makes one logistic pass over
    all four gate blocks and writes the candidate back into g; its tanh(c) is kept for the
    backward, and its other intermediates, and the reverse recurrence's, go into buffers
    allocated once per call. backward(d_hs, dh, dc, dz) runs the reverse recurrence
    from dh and dc, the gradients in h_T and c_T, writes the gates' pre-activation
    gradients into the caller's dz [T*B x 4H] and returns the gradients in h0 and c0. The
    caller makes the GEMMs over dz: dz @ wx.T, the gradient in xs, and _lstm_weight_grads.
    _trunk runs a window as chunks of steps, each from the (h, c) the chunk before ended
    in, each backward from the (dh, dc) of the chunk after: bitwise the window run whole,
    as all but the input GEMMs (xs @ wx, dz @ wx.T) is per step or per element, and those
    split by rows as the whole GEMM does at the trunk's shapes (tests check it).
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
    i, f, g, o = (gates[:, :, j * hid:(j + 1) * hid] for j in range(4))
    tanh_c = np.empty((steps, batch, hid))  # tanh(c) of each step, for h and the backward
    cand = np.empty((batch, hid))  # step t's tanh candidate, held aside from the logistic pass
    tmp = np.empty((batch, hid))  # i*g; dh*dc_from_dh in the backward
    zh, e, den = (np.empty((batch, 4 * hid)) for _ in range(3))  # h @ wh; the logistic's
    pos = np.empty((batch, 4 * hid), dtype=bool)
    for t, z in enumerate(gates):  # z becomes the gate activations in place
        z += np.matmul(hs[t], wh, out=zh)
        z += b
        np.tanh(g[t], out=cand)
        _sigmoid(z, e, den, pos)
        g[t] = cand
        np.multiply(f[t], cells[t], out=cells[t + 1])
        cells[t + 1] += np.multiply(i[t], cand, out=tmp)
        np.multiply(o[t], np.tanh(cells[t + 1], out=tanh_c[t]), out=hs[t + 1])

    def backward(d_hs, dh, dc, dz):
        # dz = [dc*g*i(1-i), dc*c_prev*f(1-f), dc*i*(1-g^2), dh*tanh(c)*o(1-o)], each block
        # written in place by the ops, in the order, of the expression it spells out
        dz = dz.reshape(steps, batch, 4 * hid)
        dz_i, dz_f, dz_g, dz_o = (dz[:, :, j * hid:(j + 1) * hid] for j in range(4))
        dc_from_dh = np.empty((steps, batch, hid))  # scratch until its own value, last
        np.multiply(np.multiply(g, i, out=dz_i), np.subtract(1.0, i, out=dc_from_dh), out=dz_i)
        np.multiply(np.multiply(cells[:-1], f, out=dz_f), np.subtract(1.0, f, out=dc_from_dh),
                    out=dz_f)
        np.multiply(i, np.subtract(1.0, np.multiply(g, g, out=dz_g), out=dz_g), out=dz_g)
        np.multiply(np.multiply(tanh_c, o, out=dz_o), np.subtract(1.0, o, out=dc_from_dh),
                    out=dz_o)
        np.multiply(o, np.subtract(1.0, np.multiply(tanh_c, tanh_c, out=dc_from_dh),
                                   out=dc_from_dh), out=dc_from_dh)  # o*(1 - tanh(c)^2)
        d_hs, dz4 = d_hs.reshape(steps, batch, hid), dz.reshape(steps, batch, 4, hid)
        dh, dc = dh.copy(), dc.copy()
        for t in reversed(range(steps)):  # dh, dc: the gradients in h_t, c_t
            dh += d_hs[t]
            dc += np.multiply(dh, dc_from_dh[t], out=tmp)
            dz4[t, :, :3] *= dc[:, None, :]
            dz4[t, :, 3] *= dh
            np.matmul(dz[t], wh.T, out=dh)
            dc *= f[t]
        return dh, dc

    return hs[1:].reshape(steps * batch, hid), hs[-1].copy(), cells[-1].copy(), backward


def _lstm_weight_grads(xs: np.ndarray, h_in: np.ndarray, dz: np.ndarray):
    """(dL/dwx, dL/dwh, dL/db) of an lstm_layer window from its input rows xs, each step's
    incoming h (h0, then the outputs but the last) and backward's dz: one GEMM each over
    the whole window."""
    return xs.T @ dz, h_in.T @ dz, dz.sum(axis=0)


# A head chunk's [K*rows x V] block holds about this many float64s (16 MB).
CHUNK_ELEMENTS = 1 << 21
_PICK_ELEMENTS = 1 << 17  # the same for a target-only head (mos_log_probs): 1 MB, L2-sized
# The trunk's two stages run on two threads once the lighter one's recurrent matrices hold
# this many float64s, a 224-wide layer's 1.6 MB wh, at any batch. Against one thread at
# 2 x 224, perplexity (batch 1) ran 1.47x and a B=12 train trunk 1.45x faster; at 2 x 128,
# 0.62x and 1.36x. A narrow batch-1 step is mostly numpy call overhead under the GIL; a
# narrow B=12 one here is a --teacher student's, whose worker holds the second core (README).
_PIPELINE_ELEMENTS = 4 * 224 * 224
_CHUNK_STEPS = 10  # a pipelined train window's time chunk, in steps
_SMALLEST_NORMAL = np.finfo(np.float64).tiny


def _row_max(z: np.ndarray) -> np.ndarray:
    """z's maximum over its last axis, kept as an axis of 1."""
    top = z.max(axis=-1, keepdims=True)
    if np.isnan(top).any():  # max propagates a NaN anywhere in its row
        raise NumericError("MoS head received NaN input")
    return top


def _log_softmax_rows(z: np.ndarray) -> np.ndarray:
    """Each row of z replaced by its log softmax, in place; returns z."""
    z -= _row_max(z)
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    return z


def _head_inputs(model: LmModel, hidden: np.ndarray):
    """log pi [n x K] and the expert contexts tanh(h W_k + b_k), (row, expert)-major
    [n*K x E], from the [n x bottleneck] rows h; and their backward, (dL/dlog pi,
    dL/dcontexts) -> (dL/dh, the prior's and the experts' gradients by parameter name)."""
    if hidden.ndim != 2 or hidden.shape[1] != model.config.bottleneck_dim:
        raise ShapeError(f"bottleneck input shaped {hidden.shape}, expected "
                         f"(n, {model.config.bottleneck_dim})")
    p, experts = model.params, range(model.config.num_experts)
    log_pi = _log_softmax_rows(hidden @ p["prior.w"] + p["prior.b"])
    ctx = np.stack([np.tanh(hidden @ p[f"expert{k}.w"] + p[f"expert{k}.b"])
                    for k in experts], axis=1)  # [n x K x E]

    def backward(d_log_pi, d_ctx):
        # experts last to first, then the prior: the order dL/dh has always summed in
        d_hidden, grads = np.zeros_like(hidden), {}
        d_ctx = d_ctx.reshape(ctx.shape)
        for k in reversed(experts):
            y = ctx[:, k]
            d = d_ctx[:, k] * (1.0 - y * y)
            grads[f"expert{k}.b"], grads[f"expert{k}.w"] = d.sum(axis=0), hidden.T @ d
            d_hidden += d @ p[f"expert{k}.w"].T
        d = d_log_pi - np.exp(log_pi) * d_log_pi.sum(axis=1, keepdims=True)
        grads["prior.b"], grads["prior.w"] = d.sum(axis=0), hidden.T @ d
        d_hidden += d @ p["prior.w"].T
        return d_hidden, grads

    return log_pi, ctx.reshape(-1, ctx.shape[2]), backward


def _out_matrix(model: LmModel) -> np.ndarray:
    """The [E x V] output matrix: the transposed embedding (a view)."""
    return model.params["embedding"].T


def _chunks(model: LmModel, log_pi: np.ndarray, ctx: np.ndarray, buffers: int):
    """(lo, hi, log pi rows, their contexts [c*K x E], workspace) per chunk of the n rows.
    The workspace, a [K*c x V] block and `buffers` [c x V] arrays, is allocated once per
    call and sliced to each chunk's c rows."""
    n, k = log_pi.shape
    v = model.config.vocab_size
    rows = max(1, min(n, CHUNK_ELEMENTS // (k * v)))
    block, row_buffers = np.empty((rows * k, v)), [np.empty((rows, v)) for _ in range(buffers)]
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        yield (lo, hi, log_pi[lo:hi], ctx[lo * k:hi * k],
               [block[:(hi - lo) * k]] + [b[:hi - lo] for b in row_buffers])


def _logits(model: LmModel, out_matrix: np.ndarray, ctx: np.ndarray,
            block: np.ndarray) -> np.ndarray:
    """The experts' logits ctx W_out + b_out, in block."""
    z = np.matmul(ctx, out_matrix, out=block)
    z += model.params["out.b"]
    return z


def _mix(model: LmModel, out_matrix: np.ndarray, log_pi: np.ndarray, ctx: np.ndarray,
         block: np.ndarray, big_s: np.ndarray):
    """One chunk's head forward in P space, one exp per expert.

    block gets e_k = exp(z_k - max_v z_k) [c x K x V] and big_s S = sum_k a_k e_k [c x V],
    with s_k = sum_v e_k [c x K] and a_k = exp(log pi_k - log s_k - M), M [c x 1] the row
    shift that makes max_k a_k 1: P = S e^M. Returns (e, s, a, M). An entry of S below the
    smallest normal float64 has lost digits; _head_loss, the one caller that takes log S,
    checks for it."""
    c, k = log_pi.shape
    e = _logits(model, out_matrix, ctx, block).reshape(c, k, -1)
    e -= _row_max(e)
    np.exp(e, out=e)
    s = e.sum(axis=2)
    a = log_pi - np.log(s)
    shift = a.max(axis=1, keepdims=True)
    a -= shift
    np.exp(a, out=a)
    np.matmul(a.reshape(c, 1, k), e, out=big_s.reshape(c, 1, -1))
    return e, s, a, shift


def _mix_log(model: LmModel, out_matrix: np.ndarray, log_pi: np.ndarray, ctx: np.ndarray,
             block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One chunk's head forward in log space: block gets w_k = log pi_k + log softmax_k
    [c x K x V]; returns w and log P = logsumexp_k w_k [c x V], which never takes the log of
    an underflowed entry."""
    c, k = log_pi.shape
    w = _log_softmax_rows(_logits(model, out_matrix, ctx, block)).reshape(c, k, -1)
    w += log_pi[:, :, None]
    top = w.max(axis=1)
    log_p = np.log(np.exp(w - top[:, None]).sum(axis=1))
    log_p += top
    return w, log_p


def _head_loss(model: LmModel, log_pi: np.ndarray, ctx: np.ndarray, objective):
    """Sum over row chunks of objective(lo, hi, log_p) -> (value, g = dL/dlog P), and dL/dlog pi,
    dL/dcontexts, dL/d(output matrix) and dL/d(output bias).

    With r_k = pi_k softmax_k / P, expert k's share of P: dL/dlog pi_k = sum_v r_k*g and
    dL/dlogits_k = r_k*g - softmax_k * dL/dlog pi_k. In P space r_k = a_k e_k / S (_mix), so
    with t_k = sum_v e_k*g/S: dL/dlog pi_k = a_k t_k, dL/dlogits_k = a_k e_k (g/S - t_k/s_k),
    and the forward's e_k is the backward's only per-expert exp. The block keeps
    e_k (g/S - t_k/s_k); a_k scales the [c*K x E] contexts and dL/dcontexts instead, and the
    bias gradient sums the block's rows weighted by a. g is never written to."""
    out_matrix = _out_matrix(model)
    d_log_pi, d_ctx = np.zeros_like(log_pi), np.zeros_like(ctx)
    d_out, d_out_b = np.zeros(out_matrix.shape), np.zeros_like(model.params["out.b"])  # C order
    k = log_pi.shape[1]

    def chunk(lo, hi, log_pi_rows, ctx_rows, work) -> float:
        block, big_s, log_p = work
        e, s, a, shift = _mix(model, out_matrix, log_pi_rows, ctx_rows, block, big_s)
        if big_s.min() < _SMALLEST_NORMAL:  # S lost digits: no log of it, log space instead
            w, log_p = _mix_log(model, out_matrix, log_pi_rows, ctx_rows, block)
            value, g = objective(lo, hi, log_p)
            r = np.exp(w - log_p[:, None])
            r *= g[:, None]
            d_log_pi[lo:hi] = r.sum(axis=2)
            w -= log_pi_rows[:, :, None]
            np.exp(w, out=w)  # softmax_k
            w *= d_log_pi[lo:hi, :, None]
            np.subtract(r, w, out=w)
            scale = np.ones((len(ctx_rows), 1))
        else:
            np.log(big_s, out=log_p)
            log_p += shift
            value, g = objective(lo, hi, log_p)
            g_s = np.divide(g, big_s, out=big_s)  # log_p and g are read for the last time
            t = np.matmul(e, g_s.reshape(hi - lo, -1, 1)).reshape(hi - lo, k)
            np.multiply(a, t, out=d_log_pi[lo:hi])
            t /= s
            for j in range(k):  # e becomes dL/dlogits_j / a_j
                np.subtract(g_s, t[:, j:j + 1], out=log_p)
                e[:, j] *= log_p
            scale = a.reshape(-1, 1)
        d_out_b[:] += (scale.T @ block)[0]
        d_out[:] += (ctx_rows * scale).T @ block
        d_ctx[lo * k:hi * k] = (block @ out_matrix.T) * scale
        return value

    total = sum(chunk(*rows) for rows in _chunks(model, log_pi, ctx, 2))
    return total, d_log_pi, d_ctx, d_out, d_out_b


def _pick_chunk(model: LmModel) -> int:
    """Rows per chunk of a target-only head: _PICK_ELEMENTS / (K*V), at least 8."""
    return max(8, _PICK_ELEMENTS // (model.config.num_experts * model.config.vocab_size))


def _pick_rows(model: LmModel, out_matrix: np.ndarray, hidden: np.ndarray, rows, ids,
               out: np.ndarray, first: int) -> None:
    """out[j] = log P[rows[j], ids[j]] for picks sorted by row, over every other chunk of
    _pick_chunk rows of hidden from chunk `first` (0 or 1): each expert's target logit less its
    log normaliser (row max + log sum exp), then a K-way logsumexp against log pi. No mixture
    over V and no log of an underflowed entry. out_matrix is _out_matrix's, C-ordered, so BLAS
    does not repack it per chunk."""
    k, step = model.config.num_experts, _pick_chunk(model)
    block = np.empty((min(len(hidden), step) * k, model.config.vocab_size))
    for lo in range(first * step, len(hidden), 2 * step):
        hi = min(lo + step, len(hidden))
        a, b = np.searchsorted(rows, [lo, hi])
        log_pi, ctx, _ = _head_inputs(model, hidden[lo:hi])
        z = _logits(model, out_matrix, ctx, block[:(hi - lo) * k])
        top = _row_max(z)
        at = (rows[a:b, None] - lo) * k + np.arange(k)  # each pick's K rows of the block
        w = z[at, ids[a:b, None]] - top[at, 0]
        np.exp(np.subtract(z, top, out=z), out=z)
        w -= np.log(z.sum(axis=1))[at]
        w += log_pi[rows[a:b] - lo]
        m = w.max(axis=1)
        out[a:b] = np.log(np.exp(w - m[:, None]).sum(axis=1)) + m


def mos_log_probs(model: LmModel, hidden: np.ndarray, picks=None) -> np.ndarray:
    """log P[rows, ids] for picks = (rows, ids), shaped as rows, where log P = log sum_k pi_k
    softmax(tanh(h W_k + b_k) W_out + b_out) over the rows h of hidden; with no picks, every
    (row, id): the whole log P [n x V]. By _pick_rows, the even chunks on the calling thread
    and the odd ones on a helper thread (none if n is one chunk or less), both reading one
    C-ordered copy of the output matrix made per call (1 MB at V=2000, E=64)."""
    n, v = len(hidden), model.config.vocab_size
    if picks is None:
        picks = np.indices((n, v))
    rows, ids = (np.asarray(a, dtype=np.int64) for a in picks)
    if rows.shape != ids.shape or ((rows < 0) | (rows >= n) | (ids < 0) | (ids >= v)).any():
        raise ShapeError(f"picks must pair rows in [0, {n}) with ids in [0, {v}) one to one")
    shape, rows, ids = rows.shape, rows.ravel(), ids.ravel()
    order = np.argsort(rows, kind="stable")
    rows, ids, out = rows[order], ids[order], np.empty(len(rows))
    args = (model, np.ascontiguousarray(_out_matrix(model)), hidden, rows, ids, out)
    with ThreadPoolExecutor(1) as pool:  # joined on exit; result() raises the helper's error here
        second = pool.submit(_pick_rows, *args, 1) if n > _pick_chunk(model) else None
        _pick_rows(*args, 0)
        if second is not None:
            second.result()
    return out[np.argsort(order)].reshape(shape)  # back in the picks' order


@dataclass
class MosRows:
    """The head's input rows, for a train-mode loss (loss()) or eval's targets (picked())."""

    model: LmModel
    hidden: np.ndarray  # [N x bottleneck], time-major

    @property
    def shape(self) -> tuple[int, int]:
        return self.hidden.shape[0], self.model.config.vocab_size

    # The whole log P [N x V], every (row, id) picked: bench/run.py fancy-indexes an eval
    # forward's `.log_probs.data`, and tests compare whole rows.
    @property
    def data(self) -> np.ndarray:
        return mos_log_probs(self.model, self.hidden)

    def picked(self, rows, ids) -> np.ndarray:
        """log P[rows[j], ids[j]] for each j, with no [N x V] array."""
        return mos_log_probs(self.model, self.hidden, (rows, ids))

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
        # C order: clip_gradients sums over it, and a transposed view sums in another order
        grads["embedding"] = d_out.T.copy()
        return total, d_hidden, grads


@dataclass
class ForwardResult:
    """Output of one forward pass over a [batch x T] id block.

    log_probs holds the head's input rows (MosRows), time-major: row t*batch + b
    is position t of lane b; no head has run over them yet.
    raw is the final LSTM layer's output block [batch*T x H], time-major
    (for TAR); dropped is the same after its output dropout, the block that
    feeds the bottleneck (for AR); with no output dropout they are one array.
    backward, in train mode, takes dL/dhidden (the loss's, for log_probs.hidden),
    dL/ddropped and dL/draw (AR's and TAR's, or None) and the head's gradient in the
    tied embedding (or None), carries them on through the bottleneck, the LSTM
    layers, the masks and the embedding gather, and returns the gradient of every
    parameter below the head by name; eval mode has none.
    """

    log_probs: MosRows
    state: LmState
    raw: np.ndarray
    dropped: np.ndarray
    backward: Callable[..., dict[str, np.ndarray]] | None = None


def flatten_targets(targets: np.ndarray) -> np.ndarray:
    """[batch x T] target ids -> time-major [batch*T], matching log_probs rows."""
    return np.asarray(targets, dtype=np.int64).ravel(order="F")


def _masked(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """x * mask, the mask repeated down x's rows: a per-lane [batch x n] mask at every step
    of a time-major block, or a weight mask of x's own shape."""
    return x if mask is None else (x.reshape(-1, *mask.shape) * mask).reshape(x.shape)


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
    hidden, new_state, raw, dropped, backward = _trunk(model, tokens, state, rng)
    return ForwardResult(MosRows(model, hidden), new_state, raw, dropped, backward)


def add_probs(model: LmModel, tokens: np.ndarray, state: LmState, out: np.ndarray) -> LmState:
    """Add eval mode's next-word P for tokens [batch x T] into out [batch*T x V], rows as
    model_forward's, and return the state to carry on. Each chunk's P = S e^M (_mix) is added
    in P space: no log is taken, and there is no [batch*T x V] array but out. No chunk needs
    log space here: with M <= 0, an entry of S below the smallest normal float64 moves P by at
    most about (K+1) 2^-1074, absolute, far inside a teacher row's 1e-6 sum check."""
    hidden, new_state, *_ = _trunk(model, tokens, state, None)
    log_pi, ctx, _ = _head_inputs(model, hidden)
    out_matrix = _out_matrix(model)
    for lo, hi, log_pi_rows, ctx_rows, (block, big_s) in _chunks(model, log_pi, ctx, 1):
        shift = _mix(model, out_matrix, log_pi_rows, ctx_rows, block, big_s)[3]
        big_s *= np.exp(shift)
        out[lo:hi] += big_s
    return new_state


def _checked_ids(model: LmModel, tokens, batch: int) -> np.ndarray:
    """tokens as an int64 [batch x T] array; ShapeError naming the first id out of range."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2:
        raise ShapeError(f"tokens must be [batch x T], got shape {tokens.shape}")
    if tokens.shape[0] != batch:
        raise ShapeError(f"state batch {batch} != tokens batch {tokens.shape[0]}")
    bad = np.nonzero((tokens < 0) | (tokens >= model.config.vocab_size))
    if bad[0].size:
        b, t = int(bad[0][0]), int(bad[1][0])
        raise ShapeError(
            f"token id {int(tokens[b, t])} at (lane {b}, step {t}) out of range "
            f"[0, {model.config.vocab_size})")
    return tokens


def _stages(model: LmModel, steps: int, window: int | None):
    """How the trunk runs `steps` steps: (cut, pipelined, bounds).

    Its two stages are layers [0, cut) and [cut, L): cut balances their per-step GEMM bytes
    (their recurrent matrices' sizes), a tie going to stage B. pipelined is whether stage B
    runs on a second thread: two chunks or more, two layers or more, and the lighter
    stage's recurrent matrices hold _PIPELINE_ELEMENTS float64s or more. bounds are the
    chunks' first steps and the end: a caller's `window` gives chunks of that many steps, the
    last one shorter; else, where that pipelines, about _CHUNK_STEPS each, split evenly so
    that no chunk is a step or two (a GEMM over a block of one or two rows may round
    otherwise than the same rows in a taller block); else one chunk."""
    gemv = [4 * h * h for h in model.config.layer_widths]  # each layer's wh size
    cut = min(range(1, max(2, len(gemv))), key=lambda c: max(sum(gemv[:c]), sum(gemv[c:])))
    wide = len(gemv) > 1 and min(sum(gemv[:cut]), sum(gemv[cut:])) >= _PIPELINE_ELEMENTS
    if window:
        bounds = [*range(0, steps, window), steps]
    else:
        parts = max(1, -(-steps // _CHUNK_STEPS) if wide else 1)
        bounds = [steps * k // parts for k in range(parts + 1)]
    return cut, wide and len(bounds) > 2, bounds


def _wavefront(items, stage_a, stage_b, pipelined: bool, consume) -> None:
    """consume(stage_b(stage_a(item))) for each item, in order. Pipelined, stage_b runs on one
    pool thread an item behind stage_a on the calling thread, and consume of an item beside
    stage_b of the next; an error in any of them is raised here once the pool is joined.
    Otherwise all three run on the calling thread and no pool is made."""
    if not pipelined:
        for item in items:
            consume(stage_b(stage_a(item)))
        return
    with ThreadPoolExecutor(1) as pool:  # joined on exit, an error or not
        behind = None
        for item in items:
            ahead = pool.submit(stage_b, stage_a(item))
            if behind is not None:
                consume(behind.result())
            behind = ahead
        consume(behind.result())


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _trunk(model: LmModel, tokens: np.ndarray, state: LmState,
           rng: np.random.Generator | None, window: int | None = None, consume=None):
    """model_forward below the head: (the head's input rows, the new state, raw, dropped,
    the trunk's backward or None in eval mode).

    The layers run in time chunks (_stages) as two stages over contiguous layers: stage A
    gathers a chunk's embedding rows and runs the lower layers, stage B the upper ones, each
    layer carrying its (h, c) from chunk to chunk. Pipelined, stage B of chunk j runs on one
    pool thread beside stage A of chunk j+1 (_wavefront); the backward runs the same
    wavefront in reverse, the upper layers' chunk j on the calling thread beside the lower
    layers' chunk j+1. What needs every chunk runs once over the whole window: the
    bottleneck, each layer's weight gradients and layer 0's input gradient (one GEMM each),
    and the embedding gradient. Any chunking gives the bits of one chunk (lstm_layer).
    Eval mode may pass consume: each chunk's head input rows then go to consume(rows) on the
    calling thread as they come, and only the new state is returned.
    """
    cfg, p = model.config, model.params
    tokens = _checked_ids(model, tokens, state.batch_size)
    batch, steps = tokens.shape
    rates, n = cfg.dropout, cfg.lstm_layers
    embed_mask = variational_mask((cfg.vocab_size, 1), rates.embed_rate, rng)
    wh_masks = [variational_mask(p[f"lstm{i}.wh"].shape, rates.hidden_rate, rng)
                for i in range(n)]
    in_mask = variational_mask((batch, cfg.embed_dim), rates.input_rate, rng)
    out_masks = [variational_mask((batch, h), rates.output_rate, rng) for h in cfg.layer_widths]
    other_mask = variational_mask((batch, cfg.bottleneck_dim), rates.other_rate, rng)

    ids = tokens.ravel(order="F")
    table = p["embedding"]
    if embed_mask is not None:  # whole word rows
        row_mask = np.broadcast_to(embed_mask, table.shape)
        table = table * row_mask
    weights = [(p[f"lstm{i}.wx"], _masked(p[f"lstm{i}.wh"], wh_masks[i]), p[f"lstm{i}.b"])
               for i in range(n)]
    cut, pipelined, bounds = _stages(model, steps, window)
    spans = [slice(t0 * batch, t1 * batch) for t0, t1 in zip(bounds, bounds[1:])]
    carried, train, top = list(state.layers), rng is not None, []
    # train mode's per layer, per chunk: inputs, outputs and backwards
    ins, outs, backs = [[[] for _ in range(n)] for _ in range(3)] if train else [None] * 3

    def run(x, raw, layers):
        for i in layers:
            raw, h, c, back = lstm_layer(x, *carried[i], *weights[i])
            carried[i] = (h, c)
            if train:
                ins[i].append(x)
                outs[i].append(raw)
                backs[i].append(back)
            x = _masked(raw, out_masks[i])
        return x, raw

    def bottleneck(x):
        return _masked(x @ p["bottleneck.w"] + p["bottleneck.b"], other_mask)

    _wavefront(spans, lambda rows: run(_masked(table[ids[rows]], in_mask), None, range(cut)),
               lambda x_raw: run(*x_raw, range(cut, n)), pipelined,
               top.append if consume is None else lambda x_raw: consume(bottleneck(x_raw[0])))
    if consume is not None:
        return LmState(carried)
    x, raw = map(_joined, zip(*top))
    hidden = bottleneck(x)
    if not train:
        return hidden, LmState(carried), raw, x, None
    outs[-1] = [raw]  # the top layer's chunks, joined once

    def backward(d_hidden, d_dropped=None, d_raw=None, d_embedding=None):
        if out_masks[-1] is None:  # dropped is raw: AR's and TAR's gradients, summed first
            d_dropped, d_raw = _plus(d_dropped, d_raw), None
        d = _masked(d_hidden, other_mask)
        grads = {"bottleneck.b": d.sum(axis=0), "bottleneck.w": x.T @ d}
        d = d @ p["bottleneck.w"].T
        if d_dropped is not None:
            d += d_dropped
        d_state = [(np.zeros_like(h), np.zeros_like(c)) for h, c in state.layers]
        dzs, layer_grads = [np.empty((len(ids), w.shape[1])) for _, w, _ in weights], [None] * n
        d_in = []  # dL/d(layer 0's input rows), masked: one GEMM once all its chunks ran

        def back(j, layers):  # chunk j's reverse step, from the top layer down
            rows = spans[j]
            for i in reversed(layers):  # dL/d(layer i's output): the head's or layer i+1's
                d_rows = d[rows] if i == n - 1 else dzs[i + 1][rows] @ weights[i + 1][0].T
                if out_masks[i] is not None:
                    d_rows = _masked(d_rows, out_masks[i])
                    if d_raw is not None and i == n - 1:
                        d_rows += d_raw[rows]
                d_state[i] = backs[i][j](d_rows, *d_state[i], dz=dzs[i][rows])
                backs[i][j] = None  # the chunk's forward buffers go

        def weight_grads(layers):  # once every chunk of theirs has run; layer 0's d_in too
            for i in layers:  # (the layer below may still read dzs[i]: it stays)
                h_in = np.concatenate([state.layers[i][0], *outs[i]])[:len(ids)]
                layer_grads[i] = _lstm_weight_grads(_joined(ins[i]), h_in, dzs[i])
                if i == 0:
                    d_in.append(_masked(dzs[0] @ weights[0][0].T, in_mask))
                ins[i] = outs[i] = None

        def upper(j):  # j None: after the last chunk, beside the lower layers' last
            if j is None:
                weight_grads(range(cut, n))
            else:
                back(j, range(cut, n))
            return j

        def lower(j):
            if j is not None:
                back(j, range(cut))
                if j == 0:
                    weight_grads(range(cut))

        _wavefront([*reversed(range(len(spans))), None], upper, lower, pipelined,
                   lambda _: None)
        for i in reversed(range(n)):
            grads[f"lstm{i}.wx"], d_wh, grads[f"lstm{i}.b"] = layer_grads[i]
            grads[f"lstm{i}.wh"] = _masked(d_wh, wh_masks[i])
        d = d_in[0]
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

    return hidden, LmState(carried), raw, x, backward
