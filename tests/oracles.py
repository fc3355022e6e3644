"""Test-only teachers, the per-step head and taped loss the fused head replaced,
and the per-hypothesis scoring the prefix-trie scorer replaced."""

import numpy as np

import lmdistill.tensor as T
from lmdistill.data import UNK
from lmdistill.model import LmState, flatten_targets, lstm_step, model_forward
from lmdistill.regularization import variational_mask
from lmdistill.tensor import Tensor


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
    hard = T.pick_cols(log_p, y)
    if spec.variant == "trust_reg":
        qy = np.minimum(q[np.arange(n), y], 1.0 - 1e-8)
        hard = T.mul(hard, Tensor(-spec.alpha * np.log(1.0 - qy)))
    loss = T.scale(T.sum_all(hard), -h / n)
    if s != 0.0:
        loss = T.add(loss, T.scale(T.sum_all(T.mul(Tensor(q), log_p)), -s / n))
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
