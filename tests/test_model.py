"""Model architecture: parameter counts, LSTM cell, MoS head, forward pass."""

import numpy as np
import pytest

import lmdistill.tensor as T
from lmdistill.errors import ConfigError, ShapeError
from lmdistill.model import (LmModel, ModelConfig, build_model, flatten_targets,
                             lstm_step, model_forward, mos_log_probs, param_count)
from lmdistill.regularization import DropoutSpec, RegContext
from lmdistill.tensor import Tensor, grad_check_params


def tiny_config(**kw):
    base = dict(vocab_size=10, embed_dim=4, lstm_layers=1, hidden_dim=8,
                bottleneck_dim=4, num_experts=2)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# parameter counts


def test_param_count_tiny_hand_sum():
    # V=5 E=2 L=1 H=3 B=2 K=2, tied:
    #   embedding 5*2=10; lstm 2*12 + 3*12 + 12 = 72; bottleneck 3*2+2=8;
    #   prior 2*2+2=6; experts 2*(2*2+2)=12; out bias 5  -> 113
    cfg = ModelConfig(vocab_size=5, embed_dim=2, lstm_layers=1, hidden_dim=3,
                      bottleneck_dim=2, num_experts=2)
    assert param_count(cfg) == 113
    assert build_model(cfg, seed=0).param_count == 113


def test_param_count_untied_hand_sum():
    # same as above plus a free 2x5 output matrix
    cfg = ModelConfig(vocab_size=5, embed_dim=2, lstm_layers=1, hidden_dim=3,
                      bottleneck_dim=2, num_experts=2, tie_embeddings=False)
    assert param_count(cfg) == 113 + 10
    model = build_model(cfg, seed=0)
    assert model.param_count == 123
    assert model.out_w is not None


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
    assert build_model(cfg, seed=1).param_count == 230


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
            tie_embeddings=bool(rng.integers(0, 2)),
            last_hidden_dim=int(rng.integers(2, 12)) if rng.integers(0, 2) else None,
        )
        model = build_model(cfg, seed=int(rng.integers(0, 1000)))
        assert model.param_count == param_count(cfg)


def test_layer_widths_resolution():
    cfg = ModelConfig(vocab_size=10, embed_dim=4, lstm_layers=3, hidden_dim=8,
                      bottleneck_dim=4, num_experts=2, last_hidden_dim=6)
    assert cfg.layer_widths == [8, 8, 6]
    assert cfg.layer_input_widths == [4, 8, 8]
    cfg2 = tiny_config(lstm_layers=2)
    assert cfg2.layer_widths == [8, 8]


def test_tie_requires_matching_expert_width():
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=10, embed_dim=4, lstm_layers=1, hidden_dim=8,
                    bottleneck_dim=4, num_experts=2, expert_dim=6)
    # untied is free to diverge
    cfg = ModelConfig(vocab_size=10, embed_dim=4, lstm_layers=1, hidden_dim=8,
                      bottleneck_dim=4, num_experts=2, expert_dim=6,
                      tie_embeddings=False)
    assert cfg.expert_width == 6


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
    for (na, pa), (_, pb), (_, pc) in zip(a.parameters(), b.parameters(),
                                          c.parameters()):
        assert np.array_equal(pa.data, pb.data), na
        if pa.data.size:
            assert not np.array_equal(pa.data, pc.data) or np.all(pa.data == 0)


def test_canonical_parameter_order():
    model = build_model(tiny_config(num_experts=2), seed=0)
    names = [n for n, _ in model.parameters()]
    assert names == ["embedding", "lstm0.wx", "lstm0.wh", "lstm0.b",
                     "bottleneck.w", "bottleneck.b", "prior.w", "prior.b",
                     "expert0.w", "expert0.b", "expert1.w", "expert1.b",
                     "out.b"]


# ---------------------------------------------------------------------------
# LSTM cell


def test_lstm_step_zero_weights_hand_case():
    # all weights and bias zero: i=f=o=sigmoid(0)=0.5, g=tanh(0)=0
    # c' = 0.5*c, h' = 0.5*tanh(c')
    h = Tensor(np.zeros((1, 1)))
    c = Tensor(np.ones((1, 1)))
    x = Tensor(np.array([[7.0]]))  # irrelevant: wx is zero
    wx = Tensor(np.zeros((1, 4)))
    wh = Tensor(np.zeros((1, 4)))
    b = Tensor(np.zeros(4))
    h2, c2 = lstm_step(x, h, c, wx, wh, b)
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

    h2, c2 = lstm_step(Tensor(x), Tensor(h), Tensor(c), Tensor(wx), Tensor(wh),
                       Tensor(b))
    assert np.allclose(c2.data, want_c, rtol=1e-12, atol=1e-14)
    assert np.allclose(h2.data, want_h, rtol=1e-12, atol=1e-14)


def test_lstm_step_gradients_match_finite_differences():
    # every input of the cell: x, carried h and c, and the three weight tensors
    for seed in range(5):
        rng = np.random.default_rng(seed)
        B, E, H = 3, 5, 4
        shapes = {"x": (B, E), "h": (B, H), "c": (B, H),
                  "wx": (E, 4 * H), "wh": (H, 4 * H), "b": (4 * H,)}
        params = [(name, Tensor(rng.standard_normal(shape), requires_grad=True))
                  for name, shape in shapes.items()]
        w_h = Tensor(rng.standard_normal((B, H)))
        w_c = Tensor(rng.standard_normal((B, H)))

        def loss_fn():
            h2, c2 = lstm_step(*(p for _, p in params))
            return T.add(T.sum_all(T.mul(h2, w_h)), T.sum_all(T.mul(c2, w_c)))

        reports = grad_check_params(loss_fn, params)
        assert list(reports) == list(shapes)
        for name, report in reports.items():
            assert report.passed, f"seed {seed} {name}: {report}"


def test_lstm_step_weight_shape_error():
    with pytest.raises(ShapeError):
        lstm_step(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))),
                  Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 12))),
                  Tensor(np.zeros((3, 12))), Tensor(np.zeros(13)))


def test_lstm_forget_gate_saturation_preserves_cell():
    # f ~ 1 and i ~ 0 keeps c almost unchanged over a step
    H = 2
    wx = Tensor(np.zeros((2, 4 * H)))
    wh = Tensor(np.zeros((H, 4 * H)))
    b = np.zeros(4 * H)
    b[0:H] = -30.0   # input gate shut
    b[H:2 * H] = 30.0  # forget gate open
    c = Tensor(np.array([[0.7, -0.4]]))
    _, c2 = lstm_step(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, H))), c,
                      wx, wh, Tensor(b))
    assert np.allclose(c2.data, c.data, atol=1e-12)


# ---------------------------------------------------------------------------
# mixture-of-softmaxes head


def test_mos_single_expert_equals_plain_softmax():
    model = build_model(tiny_config(num_experts=1), seed=4)
    rng = np.random.default_rng(5)
    h = Tensor(rng.standard_normal((6, 4)))
    got = np.exp(mos_log_probs(model, h).data)

    ctx = np.tanh(h.data @ model.expert_w[0].data + model.expert_b[0].data)
    logits = ctx @ model.embedding.data.T + model.out_b.data
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

    pi = softmax(h @ model.prior_w.data + model.prior_b.data)
    want = np.zeros((4, 5))
    for k in range(3):
        ctx = np.tanh(h @ model.expert_w[k].data + model.expert_b[k].data)
        logits = ctx @ model.embedding.data.T + model.out_b.data
        want += pi[:, k:k + 1] * softmax(logits)

    got = np.exp(mos_log_probs(model, Tensor(h)).data)
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


def _per_expert_mos(model, h):
    # K output matmuls and K log-softmaxes over [n x V], one per expert
    out_matrix = T.transpose(model.embedding) if model.out_w is None else model.out_w
    log_pi = T.log_softmax_rows(T.add(T.matmul(h, model.prior_w), model.prior_b))
    comps = [T.log_softmax_rows(T.add(T.matmul(T.tanh(T.add(T.matmul(h, w), b)),
                                               out_matrix), model.out_b))
             for w, b in zip(model.expert_w, model.expert_b)]
    return _per_expert_log_mix(log_pi, comps)


@pytest.mark.parametrize("tied", [True, False])
def test_mos_stacked_block_matches_per_expert_head(tied):
    # K=3 experts, n=5 rows: a row-order bug in the stacked block cannot hide
    cfg = ModelConfig(vocab_size=7, embed_dim=3, lstm_layers=1, hidden_dim=4,
                      bottleneck_dim=2, num_experts=3, tie_embeddings=tied)
    model = build_model(cfg, seed=12)
    rng = np.random.default_rng(13)
    h = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
    w = Tensor(rng.standard_normal((5, 7)))

    def run(head):
        model.zero_grad()
        h.grad = None
        with T.Tape() as tape:
            log_p = head(model, h)
            loss = T.sum_all(T.mul(log_p, w))
        T.backward(loss, tape)
        grads = {name: p.grad.copy() for name, p in model.parameters()
                 if p.grad is not None}
        grads["h"] = h.grad.copy()
        return log_p.data, grads

    got, got_grads = run(mos_log_probs)
    want, want_grads = run(_per_expert_mos)
    assert np.max(np.abs(got - want)) <= 1e-12
    head = {"prior.w", "prior.b", "expert0.w", "expert0.b", "expert1.w", "expert1.b",
            "expert2.w", "expert2.b", "embedding" if tied else "out.w", "out.b", "h"}
    assert got_grads.keys() == want_grads.keys() == head
    for name, g in want_grads.items():
        err = np.max(np.abs(got_grads[name] - g)) / np.max(np.abs(g))
        assert err <= 1e-12, f"{name}: relative error {err:.3e}"


@pytest.mark.parametrize("k", [1, 2, 4])
def test_mos_records_four_vocab_wide_nodes_for_any_k(k):
    # one output matmul, one bias add, one log-softmax over [K*n x V], one mix
    v = 9
    model = build_model(tiny_config(vocab_size=v, num_experts=k, tie_embeddings=False),
                        seed=3)
    h = Tensor(np.random.default_rng(4).standard_normal((5, 4)))
    with T.Tape() as tape:
        mos_log_probs(model, h)
    wide = [node for node in tape.nodes
            if node.output.data.ndim == 2 and node.output.data.shape[1] == v]
    assert len(wide) == 4


def test_mos_rows_are_distributions():
    model = build_model(tiny_config(num_experts=3), seed=8)
    rng = np.random.default_rng(9)
    p = np.exp(mos_log_probs(model, Tensor(rng.standard_normal((10, 4)))).data)
    assert np.all(p > 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_mos_input_width_check():
    model = build_model(tiny_config(), seed=0)
    with pytest.raises(ShapeError):
        mos_log_probs(model, Tensor(np.zeros((2, 5))))


def test_tied_output_matrix_follows_embedding():
    # boosting one word's embedding row must shift tied-output probability
    # toward that word (a uniform shift of ALL rows would cancel in softmax)
    model = build_model(tiny_config(), seed=1)
    rng = np.random.default_rng(2)
    h = Tensor(rng.standard_normal((3, 4)))
    before = mos_log_probs(model, h).data.copy()
    model.embedding.data[3] += 5.0
    after = mos_log_probs(model, h).data
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
    wx, wh, bias = (model.layers[0].wx.data, model.layers[0].wh.data,
                    model.layers[0].b.data)
    h = np.zeros((2, H))
    c = np.zeros((2, H))
    rows = []
    for t in range(3):
        x = model.embedding.data[tokens[:, t]]
        gates = x @ wx + h @ wh + bias
        i, f = sig(gates[:, 0:H]), sig(gates[:, H:2 * H])
        g, o = np.tanh(gates[:, 2 * H:3 * H]), sig(gates[:, 3 * H:4 * H])
        c = f * c + i * g
        h = o * np.tanh(c)
        bott = h @ model.bottleneck_w.data + model.bottleneck_b.data

        def softmax(z):
            e = np.exp(z - z.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        pi = softmax(bott @ model.prior_w.data + model.prior_b.data)
        p = np.zeros((2, 10))
        for k in range(2):
            ctx = np.tanh(bott @ model.expert_w[k].data + model.expert_b[k].data)
            p += pi[:, k:k + 1] * softmax(ctx @ model.embedding.data.T
                                          + model.out_b.data)
        rows.append(p)
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
        assert np.array_equal(h1.data, h2.data)
        assert np.array_equal(c1.data, c2.data)


def test_forward_zero_steps():
    model = build_model(tiny_config(), seed=14)
    state = model.init_state(3)
    out = model_forward(model, np.zeros((3, 0), dtype=np.int64), state)
    assert out.log_probs.shape == (0, 10)
    for (h, c), (h0, c0) in zip(out.state.layers, state.layers):
        assert np.array_equal(h.data, h0.data)
        assert np.array_equal(c.data, c0.data)


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
    p3 = model_forward(drop, tokens, drop.init_state(2),
                       RegContext("eval")).log_probs.data
    assert np.array_equal(p1, p3)


def test_train_mode_all_zero_rates_matches_eval_bitwise():
    model = build_model(tiny_config(), seed=20)
    rng = np.random.default_rng(21)
    tokens = rng.integers(0, 10, size=(2, 4))
    pe = model_forward(model, tokens, model.init_state(2)).log_probs.data
    pt = model_forward(model, tokens, model.init_state(2),
                       RegContext("train", seed=0)).log_probs.data
    assert np.array_equal(pe, pt)


def test_train_mode_dropout_changes_outputs_and_keeps_distributions():
    spec = DropoutSpec(input_rate=0.3, output_rate=0.3, hidden_rate=0.3,
                       embed_rate=0.2, other_rate=0.3)
    model = build_model(tiny_config(dropout=spec), seed=22)
    rng = np.random.default_rng(23)
    tokens = rng.integers(0, 10, size=(2, 4))
    ctx = RegContext("train", seed=1)
    ctx.new_sequence()
    out_t = model_forward(model, tokens, model.init_state(2), ctx)
    out_e = model_forward(model, tokens, model.init_state(2))
    assert not np.array_equal(out_t.log_probs.data, out_e.log_probs.data)
    p = np.exp(out_t.log_probs.data)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
    # raw and dropped final-layer activations are captured per step
    assert len(out_t.raw_outputs) == 4
    assert len(out_t.dropped_outputs) == 4
    assert not np.array_equal(out_t.raw_outputs[0].data,
                              out_t.dropped_outputs[0].data)


def test_state_detach_blocks_cross_segment_gradient():
    from lmdistill.losses import ce_loss
    from lmdistill.tensor import Tape, backward

    model = build_model(tiny_config(), seed=24)
    rng = np.random.default_rng(25)
    tokens = rng.integers(0, 10, size=(1, 3))
    with Tape() as tape:
        first = model_forward(model, tokens, model.init_state(1))
        carried = first.state.detach()
        second = model_forward(model, tokens, carried)
        loss = ce_loss(second.log_probs, flatten_targets(tokens))
        backward(loss, tape)
    for h, c in carried.layers:
        assert h.grad is None
        assert c.grad is None
