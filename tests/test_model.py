"""Model architecture: parameter counts, LSTM layer, MoS head, forward pass."""

import numpy as np
import pytest

import lmdistill.model as model_module
import oracles
import tape as T
from lmdistill.errors import ConfigError, ShapeError
from lmdistill.model import (LmModel, ModelConfig, MosRows, build_model, flatten_targets,
                             model_forward, mos_log_probs, param_count)
from lmdistill.regularization import DropoutSpec
from tape import Tensor, grad_check_params, lstm_layer


def tiny_config(**kw):
    base = dict(vocab_size=10, embed_dim=4, lstm_layers=1, hidden_dim=8,
                bottleneck_dim=4, num_experts=2)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# parameter counts


def _allocated(model):
    return sum(p.size for p in model.params.values())


def test_param_count_tiny_hand_sum():
    # V=5 E=2 L=1 H=3 B=2 K=2, tied:
    #   embedding 5*2=10; lstm 2*12 + 3*12 + 12 = 72; bottleneck 3*2+2=8;
    #   prior 2*2+2=6; experts 2*(2*2+2)=12; out bias 5  -> 113
    cfg = ModelConfig(vocab_size=5, embed_dim=2, lstm_layers=1, hidden_dim=3,
                      bottleneck_dim=2, num_experts=2)
    assert param_count(cfg) == 113
    assert _allocated(build_model(cfg, seed=0)) == 113


def test_param_count_two_layer_narrow_final_hand_sum():
    # V=7 E=3 L=2 H=4 last=2 B=2 K=1:
    #   embedding 21
    #   lstm0: 3*16 + 4*16 + 16 = 128
    #   lstm1 (in 4, h 2): 4*8 + 2*8 + 8 = 56
    #   bottleneck: 2*2+2 = 6; prior: 2*1+1 = 3; expert: 1*(2*3+3) = 9
    #   out bias 7  -> 230
    cfg = ModelConfig(vocab_size=7, embed_dim=3, lstm_layers=2, hidden_dim=4,
                      bottleneck_dim=2, num_experts=1, last_hidden_dim=2)
    assert param_count(cfg) == 230
    assert _allocated(build_model(cfg, seed=1)) == 230


def test_param_count_formula_matches_allocation_random_configs():
    rng = np.random.default_rng(42)
    for _ in range(20):
        embed = int(rng.integers(2, 9))
        cfg = ModelConfig(
            vocab_size=int(rng.integers(5, 30)),
            embed_dim=embed,
            lstm_layers=int(rng.integers(1, 4)),
            hidden_dim=int(rng.integers(2, 12)),
            bottleneck_dim=int(rng.integers(2, 9)),
            num_experts=int(rng.integers(1, 5)),
            last_hidden_dim=int(rng.integers(2, 12)) if rng.integers(0, 2) else None,
        )
        model = build_model(cfg, seed=int(rng.integers(0, 1000)))
        assert _allocated(model) == param_count(cfg)


def test_layer_widths_resolution():
    cfg = ModelConfig(vocab_size=10, embed_dim=4, lstm_layers=3, hidden_dim=8,
                      bottleneck_dim=4, num_experts=2, last_hidden_dim=6)
    assert cfg.layer_widths == [8, 8, 6]
    assert cfg.layer_input_widths == [4, 8, 8]
    cfg2 = tiny_config(lstm_layers=2)
    assert cfg2.layer_widths == [8, 8]


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        tiny_config(vocab_size=0)
    with pytest.raises(ConfigError):
        tiny_config(lstm_layers=-1)
    with pytest.raises(ConfigError):
        tiny_config(last_hidden_dim=0)


def test_build_model_is_seed_deterministic():
    a = build_model(tiny_config(), seed=5)
    b = build_model(tiny_config(), seed=5)
    c = build_model(tiny_config(), seed=6)
    for (na, pa), pb, pc in zip(a.params.items(), b.params.values(), c.params.values()):
        assert np.array_equal(pa, pb), na
        if pa.size:
            assert not np.array_equal(pa, pc) or np.all(pa == 0)


def test_canonical_parameter_order():
    model = build_model(tiny_config(num_experts=2), seed=0)
    names = list(model.params)
    assert names == ["embedding", "lstm0.wx", "lstm0.wh", "lstm0.b",
                     "bottleneck.w", "bottleneck.b", "prior.w", "prior.b",
                     "expert0.w", "expert0.b", "expert1.w", "expert1.b",
                     "out.b"]


# ---------------------------------------------------------------------------
# LSTM layer: one step (T=1) by hand, and whole windows against the per-step cell


def _step(x, h, c, wx, wh, b):
    # one step of lstm_layer: (h', c')
    hs, _, c2 = lstm_layer(x, h, c, wx, wh, b)
    return hs, c2


def test_lstm_step_zero_weights_hand_case():
    # all weights and bias zero: i=f=o=sigmoid(0)=0.5, g=tanh(0)=0
    # c' = 0.5*c, h' = 0.5*tanh(c')
    h = Tensor(np.zeros((1, 1)))
    c = Tensor(np.ones((1, 1)))
    x = Tensor(np.array([[7.0]]))  # irrelevant: wx is zero
    wx = Tensor(np.zeros((1, 4)))
    wh = Tensor(np.zeros((1, 4)))
    b = Tensor(np.zeros(4))
    h2, c2 = _step(x, h, c, wx, wh, b)
    assert c2.data[0, 0] == 0.5
    assert h2.data[0, 0] == 0.5 * np.tanh(0.5)


def test_lstm_step_matches_numpy_oracle():
    rng = np.random.default_rng(3)
    B, E, H = 3, 4, 5
    x = rng.standard_normal((B, E))
    h = rng.standard_normal((B, H))
    c = rng.standard_normal((B, H))
    wx = rng.standard_normal((E, 4 * H))
    wh = rng.standard_normal((H, 4 * H))
    b = rng.standard_normal(4 * H)

    gates = x @ wx + h @ wh + b
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    i = sig(gates[:, 0:H])
    f = sig(gates[:, H:2 * H])
    g = np.tanh(gates[:, 2 * H:3 * H])
    o = sig(gates[:, 3 * H:4 * H])
    want_c = f * c + i * g
    want_h = o * np.tanh(want_c)

    h2, c2 = _step(Tensor(x), Tensor(h), Tensor(c), Tensor(wx), Tensor(wh), Tensor(b))
    assert np.allclose(c2.data, want_c, rtol=1e-12, atol=1e-14)
    assert np.allclose(h2.data, want_h, rtol=1e-12, atol=1e-14)


def test_lstm_step_gradients_match_finite_differences():
    # every input of one step: x, carried h and c, and the three weight tensors
    for seed in range(5):
        rng = np.random.default_rng(seed)
        B, E, H = 3, 5, 4
        shapes = {"x": (B, E), "h": (B, H), "c": (B, H),
                  "wx": (E, 4 * H), "wh": (H, 4 * H), "b": (4 * H,)}
        params = [(name, Tensor(rng.standard_normal(shape), requires_grad=True))
                  for name, shape in shapes.items()]
        w_h = Tensor(rng.standard_normal((B, H)))

        def loss_fn():
            h2, _ = _step(*(p for _, p in params))
            return oracles.sum_all(T.mul(h2, w_h))

        reports = grad_check_params(loss_fn, params)
        assert list(reports) == list(shapes)
        for name, report in reports.items():
            assert report.passed, f"seed {seed} {name}: {report}"


def test_lstm_step_weight_shape_error():
    with pytest.raises(ShapeError):
        _step(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))),
              Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 12))),
              Tensor(np.zeros((3, 12))), Tensor(np.zeros(13)))
    with pytest.raises(ShapeError):  # 3 rows do not split into lanes of 2
        lstm_layer(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 3))),
                   Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 12))),
                   Tensor(np.zeros((3, 12))), Tensor(np.zeros(12)))


def test_lstm_forget_gate_saturation_preserves_cell():
    # f ~ 1 and i ~ 0 keeps c almost unchanged over a step
    H = 2
    wx = Tensor(np.zeros((2, 4 * H)))
    wh = Tensor(np.zeros((H, 4 * H)))
    b = np.zeros(4 * H)
    b[0:H] = -30.0   # input gate shut
    b[H:2 * H] = 30.0  # forget gate open
    c = Tensor(np.array([[0.7, -0.4]]))
    _, c2 = _step(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, H))), c,
                  wx, wh, Tensor(b))
    assert np.allclose(c2.data, c.data, atol=1e-12)


def test_lstm_layer_extreme_gate_inputs_finite_and_bounded():
    # every gate sees the same pre-activation per unit: -1000, -20, 0, 20, 1000;
    # the sigmoid never overflows, and its saturated ends are exact
    z = np.array([-1000.0, -20.0, 0.0, 20.0, 1000.0])
    b = Tensor(np.tile(z, 4), requires_grad=True)
    c0 = Tensor(np.ones((1, 5)))
    with T.Tape() as tape:
        hs, _, c = lstm_layer(Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 5))), c0,
                              Tensor(np.zeros((1, 20))), Tensor(np.zeros((5, 20))), b)
        T.backward(oracles.sum_all(hs), tape)
    assert np.all(np.isfinite(hs.data)) and np.all(np.abs(hs.data) <= 1.0)
    assert np.all(np.isfinite(b.grad))
    assert c.data[0, 0] == 0.0 and c.data[0, 2] == 0.5 and c.data[0, 4] == 2.0
    assert hs.data[0, 2] == 0.5 * np.tanh(0.5) and hs.data[0, 4] == np.tanh(2.0)


def _layer_stack_grads(layer_fn, xs, states, weights, masks, w_out):
    # sum(w_out * last layer's outputs) through stacked layers with DropConnect'd
    # wh; returns that output and the gradient of every input
    params = [xs] + [t for pair in states for t in pair] + [t for ws in weights for t in ws]
    for p in params:
        p.grad = None
    with T.Tape() as tape:
        x = xs
        for (h0, c0), (wx, wh, b), m in zip(states, weights, masks):
            x = layer_fn(x, h0, c0, wx, T.mul(wh, m), b)
        T.backward(oracles.sum_all(T.mul(x, Tensor(w_out))), tape)
    return x.data, [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]


def _per_step_layer(lanes):
    def run(xs, h, c, wx, wh, b):
        outs = []
        for t in range(xs.shape[0] // lanes):
            x = T.embedding_rows(xs, np.arange(t * lanes, (t + 1) * lanes))
            h, c = oracles.lstm_step(x, h, c, wx, wh, b)
            outs.append(h)
        return T.concat_rows(outs) if outs else Tensor(np.zeros((0, h.shape[1])))
    return run


@pytest.mark.parametrize("lanes, steps, widths", [(3, 5, [6]), (1, 4, [6]), (2, 0, [6]),
                                                  (3, 5, [6, 4])],
                         ids=["B3", "B1", "T0", "two-layers-narrow-last"])
def test_lstm_layer_matches_per_step_oracle(lanes, steps, widths):
    rng = np.random.default_rng(40 + lanes + steps)
    rnd = lambda *shape: Tensor(rng.standard_normal(shape), requires_grad=True)
    ins = [5] + widths[:-1]
    xs = rnd(steps * lanes, 5)
    states = [(rnd(lanes, h), rnd(lanes, h)) for h in widths]
    weights = [(rnd(i, 4 * h), rnd(h, 4 * h), rnd(4 * h)) for i, h in zip(ins, widths)]
    masks = [Tensor((rng.random((h, 4 * h)) >= 0.3) / 0.7) for h in widths]
    w_out = rng.standard_normal((steps * lanes, widths[-1]))

    got, got_grads = _layer_stack_grads(lambda *a: lstm_layer(*a)[0], xs, states, weights,
                                        masks, w_out)
    want, want_grads = _layer_stack_grads(_per_step_layer(lanes), xs, states, weights, masks,
                                          w_out)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
    for k, (g, w) in enumerate(zip(got_grads, want_grads)):
        err = np.max(np.abs(g - w), initial=0.0)
        assert err <= 1e-10 * np.max(np.abs(w), initial=0.0), f"input {k}: {err:.3e}"


@pytest.mark.parametrize("chunk", [1, 3, 10, 23])
def test_lstm_layer_chunks_from_carried_state_equal_the_whole_window_bitwise(chunk):
    # 23 steps of 3 lanes in chunks: each forward from the (h, c) the chunk before ended in,
    # each backward, last chunk first, from the (dh, dc) of the chunk after, writing its
    # rows of one dz; the input gradient of each chunk's rows and the weight GEMMs over the
    # whole window, as the trunk runs them
    rng = np.random.default_rng(chunk)
    lanes, steps, hid = 3, 23, 7
    xs = rng.standard_normal((steps * lanes, 5))
    h0, c0 = rng.standard_normal((lanes, hid)), rng.standard_normal((lanes, hid))
    wx, wh, b = (rng.standard_normal(shape) for shape in ((5, 4 * hid), (hid, 4 * hid),
                                                          (4 * hid,)))
    d_hs = rng.standard_normal((steps * lanes, hid))
    whole = model_module.lstm_layer(xs, h0, c0, wx, wh, b)
    want = _window_grads(xs, h0, wx, whole, d_hs)

    spans = [slice(t * lanes, min(t + chunk, steps) * lanes) for t in range(0, steps, chunk)]
    parts, h, c = [], h0, c0
    for rows in spans:
        hs, h, c, backward = model_module.lstm_layer(xs[rows], h, c, wx, wh, b)
        parts.append((hs, backward))
    hs = np.concatenate([part[0] for part in parts])
    assert np.array_equal(hs, whole[0]) and np.array_equal(h, whole[1])
    assert np.array_equal(c, whole[2])
    dz, d_xs = np.empty((steps * lanes, 4 * hid)), np.empty_like(xs)
    dh, dc = np.zeros_like(h0), np.zeros_like(c0)
    for rows, (_, backward) in reversed(list(zip(spans, parts))):
        dh, dc = backward(d_hs[rows], dh, dc, dz=dz[rows])
        d_xs[rows] = dz[rows] @ wx.T
    h_in = np.concatenate([h0, hs])[:len(hs)]
    got = (d_xs, dh, dc, *model_module._lstm_weight_grads(xs, h_in, dz))
    for k, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), f"gradient {k}"


@pytest.mark.parametrize("rows", [12, 120, 240])
@pytest.mark.parametrize("a, b", [((840, 64), (64, 1024)), ((840, 256), (256, 1024)),
                                  ((840, 1024), (256, 1024))],
                         ids=["layer0-gates", "layer1-gates", "layer1-input-grad"])
def test_row_split_gemms_equal_the_whole_gemm_bitwise(a, b, rows):
    # A pipelined trunk runs xs @ wx and an upper layer's dz @ wx.T chunk by chunk where
    # a whole window ran one GEMM, so its bits rest on BLAS giving each row the same bits
    # either way. The shapes are a 2 x 256 trunk's (E=64) at 12 lanes and T=70, in chunks
    # of 1, 10 and 20 steps. A BLAS kernel that rounds a row by its block fails here.
    # (OpenBLAS 0.3.31 rounds some rows otherwise in a block of one or two rows, and in
    # layer 0's dz @ wx.T into E=64 columns in 12 or 36 rows: the trunk splits neither.)
    rng = np.random.default_rng(rows + a[1])
    x, w = rng.standard_normal(a), rng.standard_normal(b)
    w = w if a[1] == b[0] else w.T  # dz @ wx.T: wx is [in x 4H]
    whole = x @ w
    split = np.concatenate([x[lo:lo + rows] @ w for lo in range(0, len(x), rows)])
    assert np.array_equal(split, whole)


def test_sigmoid_bits_match_split_where_form():
    # max(e, z >= 0) for the numerator must be np.where(z >= 0, 1, e) bit for bit, at the
    # signed zeros, subnormals, saturation, underflow of exp, the infinities and NaN
    tiny = np.finfo(np.float64).tiny
    special = [0.0, -0.0, 5e-324, -5e-324, tiny / 4, -tiny / 4, 40.0, -40.0, 745.0, -745.0,
               800.0, -800.0, np.inf, -np.inf, np.nan]
    z = np.concatenate([special, np.random.default_rng(3).standard_normal(17)]).reshape(4, 8)
    want = z.copy()
    oracles._split_sigmoid(want)
    got = z.copy()
    model_module._sigmoid(got, np.empty_like(z), np.empty_like(z), np.empty(z.shape, dtype=bool))
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _window_grads(xs, h0, wx, layer, d_hs):
    """The six gradients, in (xs, h0, c0, wx, wh, b), of a window run as one lstm_layer call
    (its forward's result `layer`), from zero gradients in h_T and c_T."""
    hs, h, c, backward = layer
    dz = np.empty((len(hs), wx.shape[1]))
    d_h0, d_c0 = backward(d_hs, np.zeros_like(h), np.zeros_like(c), dz)
    h_in = np.concatenate([h0, hs])[:len(hs)]
    return dz @ wx.T, d_h0, d_c0, *model_module._lstm_weight_grads(xs, h_in, dz)


@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("hid", [1, 7, 32, 128])
@pytest.mark.parametrize("steps", [1, 5])
def test_lstm_layer_bits_match_split_gate_oracle(lanes, hid, steps):
    # Gate columns cycle through exact zeros (no weight reaches them), the
    # sigmoid's saturation at +-40 and +-800, and plain draws of either sign.
    # Every block, g included, passes through the one logistic pass, so its
    # extremes must raise no warning and the held-aside tanh must be the one kept.
    rng = np.random.default_rng(hid * 10 + lanes + steps)
    cols = 4 * hid
    xs = rng.standard_normal((steps * lanes, 5))
    h0, c0 = rng.standard_normal((lanes, hid)), 3.0 * rng.standard_normal((lanes, hid))
    wx, wh, b = rng.standard_normal((5, cols)), rng.standard_normal((hid, cols)), np.zeros(cols)
    kinds = [0.0, -0.0, 40.0, -40.0, 800.0, -800.0, None, None]
    for j in range(cols):
        kind = kinds[j % len(kinds)]
        if kind is None:
            b[j] = rng.standard_normal()
        elif kind == 0.0:
            wx[:, j], wh[:, j], b[j] = 0.0, 0.0, kind
        else:
            b[j] = kind
    d_hs = rng.standard_normal((steps * lanes, hid))

    got = model_module.lstm_layer(xs, h0, c0, wx, wh, b)
    want = oracles.oracle_lstm_layer(xs, h0, c0, wx, wh, b)
    for k in range(3):
        assert np.array_equal(got[k], want[k]), f"forward output {k}"
    for k, (g, w) in enumerate(zip(_window_grads(xs, h0, wx, got, d_hs), want[3](d_hs))):
        assert np.array_equal(g, w), f"backward output {k}"


# ---------------------------------------------------------------------------
# mixture-of-softmaxes head


def test_mos_single_expert_equals_plain_softmax():
    model = build_model(tiny_config(num_experts=1), seed=4)
    rng = np.random.default_rng(5)
    h = rng.standard_normal((6, 4))
    got = np.exp(mos_log_probs(model, h))

    p = model.params
    ctx = np.tanh(h @ p["expert0.w"] + p["expert0.b"])
    logits = ctx @ p["embedding"].T + p["out.b"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    want = e / e.sum(axis=1, keepdims=True)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def test_mos_matches_per_expert_loop_oracle():
    # K=3, V=5: mix the expert softmaxes explicitly, row by row
    cfg = ModelConfig(vocab_size=5, embed_dim=3, lstm_layers=1, hidden_dim=4,
                      bottleneck_dim=3, num_experts=3)
    model = build_model(cfg, seed=6)
    rng = np.random.default_rng(7)
    h = rng.standard_normal((4, 3))

    def softmax(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    p = model.params
    pi = softmax(h @ p["prior.w"] + p["prior.b"])
    want = np.zeros((4, 5))
    for k in range(3):
        ctx = np.tanh(h @ p[f"expert{k}.w"] + p[f"expert{k}.b"])
        logits = ctx @ p["embedding"].T + p["out.b"]
        want += pi[:, k:k + 1] * softmax(logits)

    got = np.exp(mos_log_probs(model, h))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def _per_expert_log_mix(log_pi, log_probs):
    # The list-based mixture the stacked head replaced, kept as a taped oracle:
    # K shifted copies stacked, and a backward that loops over experts.
    k = len(log_probs)
    stacked = np.stack([log_pi.data[:, j:j + 1] + log_probs[j].data for j in range(k)])
    m = stacked.max(axis=0)
    y = m + np.log(np.exp(stacked - m).sum(axis=0))

    def back(g):
        for j in range(k):
            gw = g * np.exp(stacked[j] - y)
            T._accum(log_probs[j], gw)
            col = np.zeros_like(log_pi.data)
            col[:, j] = gw.sum(axis=1)
            T._accum(log_pi, col)

    return T._record(Tensor(y), (log_pi, *log_probs), back)


def _per_expert_mos(model, params, h):
    # K output matmuls and K log-softmaxes over [n x V], one per expert
    out_matrix = oracles.out_matrix(model, params)
    log_pi = T.log_softmax_rows(T.add(T.matmul(h, params["prior.w"]), params["prior.b"]))
    comps = [T.log_softmax_rows(T.add(T.matmul(T.tanh(T.add(T.matmul(h, w), b)),
                                               out_matrix), params["out.b"]))
             for w, b in oracles.expert_params(model, params)]
    return _per_expert_log_mix(log_pi, comps)


def _linear_objective(w):
    # L = sum(w * log P): each chunk's share and its gradient w
    return lambda lo, hi, log_p: (float(np.sum(w[lo:hi] * log_p)), w[lo:hi])


@pytest.mark.parametrize("bottleneck", [2, 3], ids=["rect", "square"])
def test_mos_stacked_block_matches_per_expert_head(bottleneck, monkeypatch):
    # K=3 experts, n=5 rows: a row-order bug in the stacked block cannot hide
    cfg = ModelConfig(vocab_size=7, embed_dim=3, lstm_layers=1, hidden_dim=4,
                      bottleneck_dim=bottleneck, num_experts=3)
    model = build_model(cfg, seed=12)
    rng = np.random.default_rng(13)
    h = Tensor(rng.standard_normal((5, bottleneck)), requires_grad=True)
    w = rng.standard_normal((5, 7))
    params = T.leaves(model.params)

    # the fused loss over 2-row chunks (2, 2, 1) against one taped per-expert head
    monkeypatch.setattr(model_module, "CHUNK_ELEMENTS", 2 * 3 * 7)
    got, d_hidden, got_grads = MosRows(model, h.data).loss(_linear_objective(w))
    got_grads["h"] = d_hidden
    want = T.backprop(
        lambda: oracles.sum_all(T.mul(_per_expert_mos(model, params, h), Tensor(w))))
    want_grads = {name: p.grad for name, p in params.items() if p.grad is not None}
    want_grads["h"] = h.grad
    assert abs(got - want) <= 1e-12 * abs(want)
    assert np.max(np.abs(mos_log_probs(model, h.data)
                         - _per_expert_mos(model, params, h).data)) <= 1e-12
    head = {"prior.w", "prior.b", "expert0.w", "expert0.b", "expert1.w", "expert1.b",
            "expert2.w", "expert2.b", "embedding", "out.b", "h"}
    assert got_grads.keys() == want_grads.keys() == head
    for name, g in want_grads.items():
        err = np.max(np.abs(got_grads[name] - g)) / np.max(np.abs(g))
        assert err <= 1e-12, f"{name}: relative error {err:.3e}"


@pytest.mark.parametrize("k", [1, 2, 4])
def test_mos_loss_fills_head_grads_for_any_k(k):
    # the hand-written head backward returns a gradient for every head parameter and
    # the hidden rows, and for nothing below them
    v = 9
    model = build_model(tiny_config(vocab_size=v, num_experts=k), seed=3)
    h = np.random.default_rng(4).standard_normal((5, 4))
    _, d_hidden, grads = MosRows(model, h).loss(_linear_objective(np.ones((5, v))))
    head = {"prior.w", "prior.b", "embedding", "out.b"} | {
        f"expert{j}.{part}" for j in range(k) for part in "wb"}
    assert grads.keys() == head and d_hidden.shape == h.shape
    assert all(g.shape == model.params[name].shape for name, g in grads.items())


def test_mos_rows_are_distributions():
    model = build_model(tiny_config(num_experts=3), seed=8)
    rng = np.random.default_rng(9)
    p = np.exp(mos_log_probs(model, rng.standard_normal((10, 4))))
    assert np.all(p > 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_mos_input_width_check():
    model = build_model(tiny_config(), seed=0)
    with pytest.raises(ShapeError):
        mos_log_probs(model, np.zeros((2, 5)))


def test_tied_output_matrix_follows_embedding():
    # boosting one word's embedding row must shift tied-output probability
    # toward that word (a uniform shift of ALL rows would cancel in softmax)
    model = build_model(tiny_config(), seed=1)
    rng = np.random.default_rng(2)
    h = rng.standard_normal((3, 4))
    before = mos_log_probs(model, h)
    model.params["embedding"][3] += 5.0
    after = mos_log_probs(model, h)
    assert not np.allclose(before, after)
    assert np.all(after[:, 3] != before[:, 3])


# ---------------------------------------------------------------------------
# full forward pass


def test_forward_composition_matches_manual_pipeline():
    model = build_model(tiny_config(), seed=10)
    rng = np.random.default_rng(11)
    tokens = rng.integers(0, 10, size=(2, 3))
    out = model_forward(model, tokens, model.init_state(2))

    # manual replay of the same architecture in plain numpy
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    H = 8
    p = model.params
    wx, wh, bias = p["lstm0.wx"], p["lstm0.wh"], p["lstm0.b"]
    h = np.zeros((2, H))
    c = np.zeros((2, H))
    rows = []
    for t in range(3):
        x = p["embedding"][tokens[:, t]]
        gates = x @ wx + h @ wh + bias
        i, f = sig(gates[:, 0:H]), sig(gates[:, H:2 * H])
        g, o = np.tanh(gates[:, 2 * H:3 * H]), sig(gates[:, 3 * H:4 * H])
        c = f * c + i * g
        h = o * np.tanh(c)
        bott = h @ p["bottleneck.w"] + p["bottleneck.b"]

        def softmax(z):
            e = np.exp(z - z.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        pi = softmax(bott @ p["prior.w"] + p["prior.b"])
        mix = np.zeros((2, 10))
        for k in range(2):
            ctx = np.tanh(bott @ p[f"expert{k}.w"] + p[f"expert{k}.b"])
            mix += pi[:, k:k + 1] * softmax(ctx @ p["embedding"].T + p["out.b"])
        rows.append(mix)
    want = np.concatenate(rows, axis=0)  # time-major
    assert np.allclose(np.exp(out.log_probs.data), want, rtol=1e-10, atol=1e-13)


def test_forward_state_continuity():
    # one 10-step call == two 5-step calls with carried state
    model = build_model(tiny_config(), seed=12)
    rng = np.random.default_rng(13)
    tokens = rng.integers(0, 10, size=(2, 10))
    full = model_forward(model, tokens, model.init_state(2))

    first = model_forward(model, tokens[:, :5], model.init_state(2))
    second = model_forward(model, tokens[:, 5:], first.state)
    stitched = np.concatenate([first.log_probs.data, second.log_probs.data])
    assert np.array_equal(full.log_probs.data, stitched)
    for (h1, c1), (h2, c2) in zip(full.state.layers, second.state.layers):
        assert np.array_equal(h1, h2)
        assert np.array_equal(c1, c2)


def test_forward_zero_steps():
    model = build_model(tiny_config(), seed=14)
    state = model.init_state(3)
    out = model_forward(model, np.zeros((3, 0), dtype=np.int64), state)
    assert out.log_probs.data.shape == (0, 10)
    for (h, c), (h0, c0) in zip(out.state.layers, state.layers):
        assert np.array_equal(h, h0)
        assert np.array_equal(c, c0)


def test_forward_rejects_out_of_range_token():
    model = build_model(tiny_config(), seed=15)
    tokens = np.array([[0, 1], [2, 10]])
    with pytest.raises(ShapeError, match=r"lane 1, step 1"):
        model_forward(model, tokens, model.init_state(2))


def test_forward_rejects_batch_mismatch():
    model = build_model(tiny_config(), seed=16)
    with pytest.raises(ShapeError):
        model_forward(model, np.zeros((3, 2), dtype=np.int64), model.init_state(2))


def test_flatten_targets_is_time_major():
    targets = np.array([[1, 2], [3, 4]])
    # row t*batch + b: step 0 of both lanes, then step 1 of both lanes
    assert np.array_equal(flatten_targets(targets), [1, 3, 2, 4])


def test_forward_log_probs_row_layout():
    # feeding different tokens in lane 1 changes only that lane's rows
    model = build_model(tiny_config(), seed=17)
    a = np.array([[1, 2, 3], [4, 5, 6]])
    b = np.array([[1, 2, 3], [7, 8, 9]])
    pa = model_forward(model, a, model.init_state(2)).log_probs.data
    pb = model_forward(model, b, model.init_state(2)).log_probs.data
    batch = 2
    for t in range(3):
        assert np.array_equal(pa[t * batch + 0], pb[t * batch + 0])  # lane 0
        assert not np.array_equal(pa[t * batch + 1], pb[t * batch + 1])


def test_eval_forward_ignores_dropout_config():
    # rates in the config must not touch eval-mode outputs
    spec = DropoutSpec(input_rate=0.5, output_rate=0.5, hidden_rate=0.5,
                       embed_rate=0.5, other_rate=0.5)
    plain = build_model(tiny_config(), seed=18)
    drop = build_model(tiny_config(dropout=spec), seed=18)
    rng = np.random.default_rng(19)
    tokens = rng.integers(0, 10, size=(2, 4))
    p1 = model_forward(plain, tokens, plain.init_state(2)).log_probs.data
    p2 = model_forward(drop, tokens, drop.init_state(2)).log_probs.data
    assert np.array_equal(p1, p2)


def test_train_mode_all_zero_rates_matches_eval_bitwise():
    model = build_model(tiny_config(), seed=20)
    rng = np.random.default_rng(21)
    tokens = rng.integers(0, 10, size=(2, 4))
    pe = model_forward(model, tokens, model.init_state(2)).log_probs.data
    rows = model_forward(model, tokens, model.init_state(2),
                         np.random.default_rng(0)).log_probs
    assert np.array_equal(pe, mos_log_probs(model, rows.hidden))


def test_train_mode_dropout_changes_outputs_and_keeps_distributions():
    spec = DropoutSpec(input_rate=0.3, output_rate=0.3, hidden_rate=0.3,
                       embed_rate=0.2, other_rate=0.3)
    model = build_model(tiny_config(dropout=spec), seed=22)
    rng = np.random.default_rng(23)
    tokens = rng.integers(0, 10, size=(2, 4))
    out_t = model_forward(model, tokens, model.init_state(2), np.random.default_rng(1))
    out_e = model_forward(model, tokens, model.init_state(2))
    log_p = mos_log_probs(model, out_t.log_probs.hidden)
    assert not np.array_equal(log_p, out_e.log_probs.data)
    p = np.exp(log_p)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
    # raw final-layer activations and their dropped copy are time-major blocks
    assert out_t.raw.shape == out_t.dropped.shape == (2 * 4, 8)
    assert not np.array_equal(out_t.raw, out_t.dropped)


def _np_log_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _np_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@pytest.mark.parametrize("bottleneck", [4, 3], ids=["square", "rect"])
def test_train_forward_matches_numpy_with_masks_in_draw_order(bottleneck):
    # The masks come from one generator in a fixed order: embedding rows
    # [V x 1], each layer's recurrent weights, the input [B x E], each layer's
    # output [B x H_i], the bottleneck [B x bottleneck_dim]. That order is what
    # keeps trained bits reproducible per seed.
    r_in, r_out, r_hid, r_emb, r_oth = 0.2, 0.25, 0.3, 0.1, 0.15
    spec = DropoutSpec(input_rate=r_in, output_rate=r_out, hidden_rate=r_hid,
                       embed_rate=r_emb, other_rate=r_oth)
    cfg = tiny_config(lstm_layers=2, hidden_dim=6, last_hidden_dim=5, num_experts=3,
                      bottleneck_dim=bottleneck, dropout=spec)
    model = build_model(cfg, seed=26)
    batch, steps = 3, 4
    tokens = np.random.default_rng(27).integers(0, 10, size=(batch, steps))
    rng = np.random.default_rng(28)
    out = model_forward(model, tokens, model.init_state(batch), rng)

    draw = np.random.default_rng(28)
    mask = lambda shape, rate: (draw.random(shape) >= rate) / (1.0 - rate)
    p = model.params
    emb_m = mask((cfg.vocab_size, 1), r_emb)
    wh_m = [mask(p[f"lstm{i}.wh"].shape, r_hid) for i in range(cfg.lstm_layers)]
    in_m = mask((batch, cfg.embed_dim), r_in)
    out_m = [mask((batch, h), r_out) for h in cfg.layer_widths]
    oth_m = mask((batch, cfg.bottleneck_dim), r_oth)
    assert rng.random() == draw.random()  # no draw beyond these five kinds

    emb = p["embedding"] * emb_m
    out_w = p["embedding"].T
    hs = [np.zeros((batch, h)) for h in cfg.layer_widths]
    cs = [np.zeros((batch, h)) for h in cfg.layer_widths]
    rows, raw, dropped = [], [], []
    for t in range(steps):
        x = emb[tokens[:, t]] * in_m
        for i in range(cfg.lstm_layers):
            wx, wh, b = p[f"lstm{i}.wx"], p[f"lstm{i}.wh"], p[f"lstm{i}.b"]
            n = wh.shape[0]
            z = x @ wx + hs[i] @ (wh * wh_m[i]) + b
            ig, fg = _np_sigmoid(z[:, :n]), _np_sigmoid(z[:, n:2 * n])
            g, og = np.tanh(z[:, 2 * n:3 * n]), _np_sigmoid(z[:, 3 * n:])
            cs[i] = fg * cs[i] + ig * g
            hs[i] = og * np.tanh(cs[i])
            x = hs[i] * out_m[i]
        raw.append(hs[-1])
        dropped.append(x)
        bott = (x @ p["bottleneck.w"] + p["bottleneck.b"]) * oth_m
        log_pi = _np_log_softmax(bott @ p["prior.w"] + p["prior.b"])
        comps = [log_pi[:, [k]] + _np_log_softmax(
                     np.tanh(bott @ p[f"expert{k}.w"] + p[f"expert{k}.b"]) @ out_w + p["out.b"])
                 for k in range(cfg.num_experts)]
        rows.append(np.logaddexp.reduce(np.stack(comps), axis=0))

    np.testing.assert_allclose(mos_log_probs(model, out.log_probs.hidden),
                               np.concatenate(rows), rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.raw, np.concatenate(raw), rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.dropped, np.concatenate(dropped), rtol=0, atol=1e-12)
    for (h, c), h_want, c_want in zip(out.state.layers, hs, cs):
        np.testing.assert_allclose(h, h_want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c, c_want, rtol=0, atol=1e-12)


def test_masks_shared_within_call_and_fresh_across_calls():
    rate = 0.5
    model = build_model(tiny_config(dropout=DropoutSpec(output_rate=rate)), seed=29)
    tokens = np.random.default_rng(30).integers(0, 10, size=(2, 5))
    rng = np.random.default_rng(31)

    def step_masks():
        out = model_forward(model, tokens, model.init_state(2), rng)
        return np.split(out.dropped / out.raw, 5)

    first, second = step_masks(), step_masks()
    for masks in (first, second):
        assert set(np.unique(masks[0])) == {0.0, 1.0 / (1.0 - rate)}
        for m in masks[1:]:
            assert np.array_equal(m, masks[0])
    assert not np.array_equal(first[0], second[0])


def test_state_detach_blocks_cross_segment_gradient():
    from lmdistill.data import BpttBatch
    from lmdistill.losses import DistillLossSpec
    from lmdistill.training import step_loss

    model = build_model(tiny_config(), seed=24)
    rng = np.random.default_rng(25)
    tokens = rng.integers(0, 10, size=(1, 3))
    batch = BpttBatch(tokens, tokens)
    _, _, carried = step_loss(model, batch, model.init_state(1), DistillLossSpec(), None,
                              np.random.default_rng(0))
    # lstm_layer hands h_T and c_T back as copies, constants holding none of the
    # window's buffers; the next window's gradient stops at them
    _, grads, _ = step_loss(model, batch, carried, DistillLossSpec(), None,
                            np.random.default_rng(1))
    assert np.any(grads["lstm0.wh"] != 0.0)  # the gradient did reach the LSTM
    for h, c in carried.layers:
        assert h.base is None and c.base is None
