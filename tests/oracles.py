"""Test-only teachers; the tape ops, per-step LSTM cell, head, taped loss and
AR/TAR that the layer op and the fused ops replaced; the taped training step
that the hand-written step backward replaced; and the per-hypothesis scoring
the prefix-trie scorer replaced."""

import numpy as np

import tape as T
from lmdistill import model as model_module
from lmdistill.data import UNK
from lmdistill.errors import ShapeError
from lmdistill.losses import distill_loss
from lmdistill.model import LmState, flatten_targets, model_forward
from lmdistill.regularization import activation_reg, variational_mask
from tape import Tensor


class OneHotOracle:
    """Degenerate teacher that puts all mass on the true next token."""

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size

    def reset_state(self, batch_size: int) -> None:
        pass

    def soft_labels(self, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
        y = flatten_targets(targets)
        q = np.zeros((y.shape[0], self.vocab_size))
        q[np.arange(y.shape[0]), y] = 1.0
        return q


# ---------------------------------------------------------------------------
# Tape ops only tests use: the oracles below and the tests' own losses are
# composed from them.


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return T._record(Tensor(a.data * c), (a,), lambda g: T._accum(a, g * c))


def sum_all(a: Tensor) -> Tensor:
    return T._record(Tensor(np.sum(a.data)), (a,),
                     lambda g: T._accum(a, np.broadcast_to(g, a.data.shape)))


def pick_cols(a: Tensor, ids) -> Tensor:
    """out[i] = a[i, ids[i]] for a [n x m] matrix; returns a length-n vector."""
    rows = np.arange(a.data.shape[0])

    def back(g):
        full = np.zeros_like(a.data)
        full[rows, ids] = g  # row indices are distinct, no collisions
        T._accum(a, full)

    return T._record(Tensor(a.data[rows, ids]), (a,), back)


# ---------------------------------------------------------------------------
# The LSTM as it ran before lstm_layer: one cell step at a time from small tape
# ops, about 17 nodes per layer-step. lstm_layer must agree with it on values
# and gradients.


def oracle_sigmoid(a: Tensor) -> Tensor:
    x = a.data
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])  # split form never exponentiates a positive value
    y[~pos] = ex / (1.0 + ex)
    return T._record(Tensor(y), (a,), lambda g: T._accum(a, g * y * (1.0 - y)))


def oracle_slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    def back(g):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        T._accum(a, full)

    return T._record(Tensor(a.data[:, start:stop].copy()), (a,), back)


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
    i = oracle_sigmoid(oracle_slice_cols(gates, 0, hid))
    f = oracle_sigmoid(oracle_slice_cols(gates, hid, 2 * hid))
    g = T.tanh(oracle_slice_cols(gates, 2 * hid, 3 * hid))
    o = oracle_sigmoid(oracle_slice_cols(gates, 3 * hid, 4 * hid))
    c2 = T.add(T.mul(f, c), T.mul(i, g))
    h2 = T.mul(o, T.tanh(c2))
    return h2, c2


def oracle_activation_reg(dropped: Tensor, raw: list[Tensor],
                          ar_weight: float, tar_weight: float) -> Tensor:
    """AR/TAR from tape ops: raw is the list of per-step [batch x H] outputs."""
    mean = lambda a: scale(sum_all(a), 1.0 / a.data.size)
    total = Tensor(0.0)
    if ar_weight > 0 and dropped.data.size:
        total = T.add(total, scale(mean(T.mul(dropped, dropped)), ar_weight))
    if tar_weight > 0 and len(raw) > 1:
        d = T.add(T.concat_rows(raw[1:]), scale(T.concat_rows(raw[:-1]), -1.0))
        total = T.add(total, scale(mean(T.mul(d, d)), tar_weight))
    return total


# ---------------------------------------------------------------------------
# The head and loss as they ran before the fused, chunked head: one taped MoS
# head per time step and the loss built from tape ops over the whole [N x V]
# block. The fused path must agree with these on values and gradients.


def oracle_transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T.copy())
    return T._record(out, (a,), lambda g: T._accum(a, g.T))


def oracle_log_mix(log_pi: Tensor, block: Tensor) -> Tensor:
    # log sum_k pi_k P_k over a [K*n x V] expert-major block of log-probs
    n, k = log_pi.data.shape
    v = block.data.shape[1]
    stacked = block.data.reshape(k, n, v) + log_pi.data.T[:, :, None]
    m = stacked.max(axis=0)
    y = m + np.log(np.exp(stacked - m).sum(axis=0))

    def back(g):
        gw = np.exp(stacked - y) * g
        T._accum(block, gw.reshape(k * n, v))
        T._accum(log_pi, gw.sum(axis=2).T)

    return T._record(Tensor(y), (log_pi, block), back)


def oracle_mos_log_probs(model, h: Tensor, out_matrix: Tensor) -> Tensor:
    log_pi = T.log_softmax_rows(T.add(T.matmul(h, model.prior_w), model.prior_b))
    contexts = T.concat_rows([T.tanh(T.add(T.matmul(h, w), b))
                              for w, b in zip(model.expert_w, model.expert_b)])
    logits = T.add(T.matmul(contexts, out_matrix), model.out_b)
    return oracle_log_mix(log_pi, T.log_softmax_rows(logits))


def oracle_forward(model, tokens: np.ndarray, state, rng=None):
    """Taped log-probs [(batch*T) x V] and the new state, the head run per step.

    Masks are drawn in model_forward's order, so the same rng gives the same
    masks; returns (log_probs, state, raw_outputs, dropped_outputs).
    """
    cfg, rates = model.config, model.config.dropout
    batch, steps = tokens.shape
    embed_mask = variational_mask((cfg.vocab_size, 1), rates.embed_rate, rng)
    wh_masks = [variational_mask(layer.wh.shape, rates.hidden_rate, rng)
                for layer in model.layers]
    in_mask = variational_mask((batch, cfg.embed_dim), rates.input_rate, rng)
    out_masks = [variational_mask((batch, h), rates.output_rate, rng)
                 for h in cfg.layer_widths]
    other_mask = variational_mask((batch, cfg.bottleneck_dim), rates.other_rate, rng)
    masked = lambda x, m: x if m is None else T.mul(x, m)

    table = model.embedding
    if embed_mask is not None:
        table = T.mul(table, Tensor(np.broadcast_to(embed_mask.data, table.shape)))
    wh = [masked(layer.wh, m) for layer, m in zip(model.layers, wh_masks)]
    out_matrix = oracle_transpose(model.embedding) if model.out_w is None else model.out_w
    hs = [h for h, _ in state.layers]
    cs = [c for _, c in state.layers]
    raw, dropped, rows = [], [], []
    for t in range(steps):
        x = masked(T.embedding_rows(table, tokens[:, t]), in_mask)
        for i, layer in enumerate(model.layers):
            hs[i], cs[i] = lstm_step(x, hs[i], cs[i], layer.wx, wh[i], layer.b)
            x = masked(hs[i], out_masks[i])
        raw.append(hs[-1])
        dropped.append(x)
        bott = masked(T.add(T.matmul(x, model.bottleneck_w), model.bottleneck_b), other_mask)
        rows.append(oracle_mos_log_probs(model, bott, out_matrix))
    log_probs = rows[0] if steps == 1 else T.concat_rows(rows)
    return log_probs, LmState(list(zip(hs, cs))), raw, dropped


def oracle_distill_loss(spec, log_p: Tensor, y: np.ndarray, q=None) -> Tensor:
    """-(1/N) sum_i [h w_i log P[i, y_i] + s sum_x Q[i, x] log P[i, x]] from tape ops."""
    n = log_p.data.shape[0]
    h, s = {"ce_only": (1.0, 0.0), "kl_only": (0.0, 1.0),
            "fixed_interp": (spec.alpha, 1.0 - spec.alpha),
            "trust_reg": (1.0, 1.0)}[spec.variant]
    hard = pick_cols(log_p, y)
    if spec.variant == "trust_reg":
        qy = np.minimum(q[np.arange(n), y], 1.0 - 1e-8)
        hard = T.mul(hard, Tensor(-spec.alpha * np.log(1.0 - qy)))
    loss = scale(sum_all(hard), -h / n)
    if s != 0.0:
        loss = T.add(loss, scale(sum_all(T.mul(Tensor(q), log_p)), -s / n))
    return loss


# ---------------------------------------------------------------------------
# The training step as it ran on the tape: the trunk (masks, gather, LSTM
# layers, bottleneck) and the head's inputs (prior, experts) as tape ops, the
# LSTM layers, the head and loss, and AR/TAR as one node each. The hand-written
# step backward must equal it bitwise.


class TapedRows:
    """MosRows as it was: the head, the loss and their backward are one tape node over
    log pi, the expert contexts and the output matrix and bias."""

    def __init__(self, model, hidden: Tensor):
        self.model, self.hidden = model, hidden
        self.shape = (hidden.shape[0], model.config.vocab_size)

    def loss(self, objective) -> Tensor:
        model = self.model
        log_pi = T.log_softmax_rows(T.add(T.matmul(self.hidden, model.prior_w), model.prior_b))
        ctx = T.concat_rows([T.tanh(T.add(T.matmul(self.hidden, w), b))
                             for w, b in zip(model.expert_w, model.expert_b)])
        total, d_log_pi, d_ctx, d_out, d_out_b = model_module._head_loss(
            model, log_pi.data, ctx.data, objective)
        return T.precomputed(total, [(log_pi, d_log_pi), (ctx, d_ctx), (model.out_b, d_out_b),
                                     (model.embedding, d_out.T) if model.out_w is None
                                     else (model.out_w, d_out)])


def taped_step_loss(model, batch, state, spec, q, rng) -> Tensor:
    """training.step_loss's loss as a taped scalar; masks are drawn in model_forward's order."""
    cfg, rates = model.config, model.config.dropout
    tokens = batch.inputs
    lanes, steps = tokens.shape
    const = lambda m: None if m is None else Tensor(m.data)
    tiled = lambda m: None if m is None else Tensor(np.tile(m.data, (steps, 1)))
    embed_mask = const(variational_mask((cfg.vocab_size, 1), rates.embed_rate, rng))
    wh_masks = [const(variational_mask(layer.wh.shape, rates.hidden_rate, rng))
                for layer in model.layers]
    in_mask = tiled(variational_mask((lanes, cfg.embed_dim), rates.input_rate, rng))
    out_masks = [tiled(variational_mask((lanes, h), rates.output_rate, rng))
                 for h in cfg.layer_widths]
    other_mask = tiled(variational_mask((lanes, cfg.bottleneck_dim), rates.other_rate, rng))
    masked = lambda x, m: x if m is None else T.mul(x, m)

    table = model.embedding
    if embed_mask is not None:
        table = T.mul(table, Tensor(np.broadcast_to(embed_mask.data, table.shape)))
    x = masked(T.embedding_rows(table, tokens.ravel(order="F")), in_mask)
    for layer, wh_mask, out_mask, (h0, c0) in zip(model.layers, wh_masks, out_masks,
                                                  state.layers):
        raw, _, _ = T.lstm_layer(x, const(h0), const(c0), layer.wx, masked(layer.wh, wh_mask),
                                 layer.b)
        x = masked(raw, out_mask)
    hidden = masked(T.add(T.matmul(x, model.bottleneck_w), model.bottleneck_b), other_mask)
    loss = distill_loss(spec, TapedRows(model, hidden), flatten_targets(batch.targets), q)
    if rates.ar_weight > 0 or rates.tar_weight > 0:
        loss = T.add(loss, T.precomputed(*activation_reg(x, raw, lanes, rates.ar_weight,
                                                          rates.tar_weight)))
    return loss


# ---------------------------------------------------------------------------
# N-best scoring as it ran before the prefix trie: one batch-1 eval forward
# per hypothesis. The trie scorer must agree with it.


def oracle_hypothesis_score(model, vocab, words, oov_mode="rnn_unk", oov_penalty=-10.0):
    """Natural-log probability of words + eos, the hypothesis run alone from a zero state."""
    oov = [vocab.lookup(w) == vocab.unk_id and w != UNK for w in words]
    ids = [vocab.rnn_unk_id if o else vocab.lookup(w) for w, o in zip(words, oov)]
    inputs = np.asarray([[vocab.eos_id] + ids])
    targets = np.asarray(ids + [vocab.eos_id])
    out = model_forward(model, inputs, model.init_state(1))
    logp = out.log_probs.data[np.arange(targets.shape[0]), targets]
    oov = np.asarray(oov + [False])  # eos is always scored
    if oov_mode == "rnn_unk":
        return float(logp.sum())
    penalty = oov_penalty if oov_mode == "penalty" else 0.0
    return float(logp[~oov].sum()) + float(oov.sum()) * penalty
