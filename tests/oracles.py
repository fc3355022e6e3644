"""Test-only teachers; the tape ops, per-step LSTM cell, head, taped loss and
AR/TAR that the layer op and the fused ops replaced; the taped training step
that the hand-written step backward replaced; the per-hypothesis scoring
the prefix-trie scorer replaced; and the in-process training loop the
soft-label worker replaced."""

import math

import numpy as np

import tape as T
from lmdistill import model as model_module
from lmdistill import training
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


def expert_params(model, params):
    """Each expert's (w, b) from a model's parameter leaves, in expert order."""
    return [(params[f"expert{k}.w"], params[f"expert{k}.b"])
            for k in range(model.config.num_experts)]


def out_matrix(model, params) -> Tensor:
    """The [E x V] output matrix as a tape value: the embedding transposed when tied."""
    return (oracle_transpose(params["embedding"]) if model.config.tie_embeddings
            else params["out.w"])


def oracle_mos_log_probs(model, params, h: Tensor, out: Tensor) -> Tensor:
    log_pi = T.log_softmax_rows(T.add(T.matmul(h, params["prior.w"]), params["prior.b"]))
    contexts = T.concat_rows([T.tanh(T.add(T.matmul(h, w), b))
                              for w, b in expert_params(model, params)])
    logits = T.add(T.matmul(contexts, out), params["out.b"])
    return oracle_log_mix(log_pi, T.log_softmax_rows(logits))


def oracle_forward(model, params, tokens: np.ndarray, state, rng=None):
    """Taped log-probs [(batch*T) x V] and the new state, the head run per step, over
    params, the model's parameters as tape leaves (tape.leaves).

    Masks are drawn in model_forward's order, so the same rng gives the same
    masks; returns (log_probs, state, raw_outputs, dropped_outputs).
    """
    cfg, rates = model.config, model.config.dropout
    layers = range(cfg.lstm_layers)
    batch, steps = tokens.shape
    const = lambda m: None if m is None else Tensor(m)
    embed_mask = variational_mask((cfg.vocab_size, 1), rates.embed_rate, rng)
    wh_masks = [const(variational_mask(params[f"lstm{i}.wh"].shape, rates.hidden_rate, rng))
                for i in layers]
    in_mask = const(variational_mask((batch, cfg.embed_dim), rates.input_rate, rng))
    out_masks = [const(variational_mask((batch, h), rates.output_rate, rng))
                 for h in cfg.layer_widths]
    other_mask = const(variational_mask((batch, cfg.bottleneck_dim), rates.other_rate, rng))
    masked = lambda x, m: x if m is None else T.mul(x, m)

    table = params["embedding"]
    if embed_mask is not None:
        table = T.mul(table, Tensor(np.broadcast_to(embed_mask, table.shape)))
    wh = [masked(params[f"lstm{i}.wh"], m) for i, m in zip(layers, wh_masks)]
    out = out_matrix(model, params)
    hs = [Tensor(h) for h, _ in state.layers]
    cs = [Tensor(c) for _, c in state.layers]
    raw, dropped, rows = [], [], []
    for t in range(steps):
        x = masked(T.embedding_rows(table, tokens[:, t]), in_mask)
        for i in layers:
            hs[i], cs[i] = lstm_step(x, hs[i], cs[i], params[f"lstm{i}.wx"], wh[i],
                                     params[f"lstm{i}.b"])
            x = masked(hs[i], out_masks[i])
        raw.append(hs[-1])
        dropped.append(x)
        bott = masked(T.add(T.matmul(x, params["bottleneck.w"]), params["bottleneck.b"]),
                      other_mask)
        rows.append(oracle_mos_log_probs(model, params, bott, out))
    log_probs = rows[0] if steps == 1 else T.concat_rows(rows)
    return log_probs, LmState([(h.data, c.data) for h, c in zip(hs, cs)]), raw, dropped


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

    def __init__(self, model, params, hidden: Tensor):
        self.model, self.params, self.hidden = model, params, hidden
        self.shape = (hidden.shape[0], model.config.vocab_size)

    def loss(self, objective) -> Tensor:
        model, p = self.model, self.params
        log_pi = T.log_softmax_rows(T.add(T.matmul(self.hidden, p["prior.w"]), p["prior.b"]))
        ctx = T.concat_rows([T.tanh(T.add(T.matmul(self.hidden, w), b))
                             for w, b in expert_params(model, p)])
        total, d_log_pi, d_ctx, d_out, d_out_b = model_module._head_loss(
            model, log_pi.data, ctx.data, objective)
        return T.precomputed(total, [(log_pi, d_log_pi), (ctx, d_ctx), (p["out.b"], d_out_b),
                                     (p["embedding"], d_out.T) if model.config.tie_embeddings
                                     else (p["out.w"], d_out)])


def taped_step_loss(model, params, batch, state, spec, q, rng) -> Tensor:
    """training.step_loss's loss as a taped scalar over params, the model's parameters as
    tape leaves (tape.leaves); masks are drawn in model_forward's order."""
    cfg, rates = model.config, model.config.dropout
    layers = range(cfg.lstm_layers)
    tokens = batch.inputs
    lanes, steps = tokens.shape
    const = lambda m: None if m is None else Tensor(m)
    tiled = lambda m: None if m is None else Tensor(np.tile(m, (steps, 1)))
    embed_mask = const(variational_mask((cfg.vocab_size, 1), rates.embed_rate, rng))
    wh_masks = [const(variational_mask(params[f"lstm{i}.wh"].shape, rates.hidden_rate, rng))
                for i in layers]
    in_mask = tiled(variational_mask((lanes, cfg.embed_dim), rates.input_rate, rng))
    out_masks = [tiled(variational_mask((lanes, h), rates.output_rate, rng))
                 for h in cfg.layer_widths]
    other_mask = tiled(variational_mask((lanes, cfg.bottleneck_dim), rates.other_rate, rng))
    masked = lambda x, m: x if m is None else T.mul(x, m)

    table = params["embedding"]
    if embed_mask is not None:
        table = T.mul(table, Tensor(np.broadcast_to(embed_mask.data, table.shape)))
    x = masked(T.embedding_rows(table, tokens.ravel(order="F")), in_mask)
    for i, wh_mask, out_mask, (h0, c0) in zip(layers, wh_masks, out_masks, state.layers):
        raw, _, _ = T.lstm_layer(x, Tensor(h0), Tensor(c0), params[f"lstm{i}.wx"],
                                 masked(params[f"lstm{i}.wh"], wh_mask), params[f"lstm{i}.b"])
        x = masked(raw, out_mask)
    hidden = masked(T.add(T.matmul(x, params["bottleneck.w"]), params["bottleneck.b"]),
                    other_mask)
    loss = distill_loss(spec, TapedRows(model, params, hidden), flatten_targets(batch.targets), q)
    if rates.ar_weight > 0 or rates.tar_weight > 0:
        total, d_dropped, d_raw = activation_reg(x.data, raw.data, lanes, rates.ar_weight,
                                                 rates.tar_weight)
        loss = T.add(loss, T.precomputed(total, [(t, g) for t, g in ((x, d_dropped), (raw, d_raw))
                                                 if g is not None]))
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


# ---------------------------------------------------------------------------
# train() as it ran before the soft-label worker: the teacher's Q computed in
# process, right before each step. train() must equal it bitwise.


def in_process_train(model, train_stream, valid_stream, cfg, teacher):
    """Trains model in place, as train() does; returns the epoch logs."""
    batches = training.bptt_batches(train_stream, cfg.batch_size, cfg.bptt_len)
    params = model.params
    rng = np.random.default_rng(cfg.seed)
    logs, lr, best_ppl, best_params, bad_epochs, averager = [], cfg.lr, math.inf, None, 0, None
    for epoch in range(1, cfg.epochs + 1):
        state = model.init_state(cfg.batch_size)
        teacher.reset_state(cfg.batch_size)
        loss_sum = 0.0
        for batch in batches:
            q = teacher.soft_labels(batch.inputs, batch.targets)
            value, grads, state = training.step_loss(model, batch, state, cfg.loss, q, rng)
            training.clip_gradients(grads, cfg.grad_clip)
            for name, g in grads.items():
                params[name] -= lr * g
            if averager is not None:
                averager.update(params)
            loss_sum += value
        if averager is None:
            valid_ppl = training.perplexity(model, valid_stream)
        else:
            raw = training._snapshot(params)
            training._restore(params, averager.avg)
            valid_ppl = training.perplexity(model, valid_stream)
            training._restore(params, raw)
        logs.append(training.EpochLog(epoch, loss_sum / len(batches), valid_ppl, lr))
        if valid_ppl < best_ppl:
            best_ppl, bad_epochs = valid_ppl, 0
            best_params = training._snapshot(params if averager is None else averager.avg)
        else:
            bad_epochs += 1
            lr *= cfg.lr_decay_on_plateau
            if (cfg.asgd_trigger_patience > 0 and averager is None
                    and bad_epochs >= cfg.asgd_trigger_patience):
                averager = training._Averager(params)
    training._restore(params, best_params)
    return logs
