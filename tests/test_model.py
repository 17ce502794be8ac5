import errno
import hashlib
import json
import os
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from memattn import autograd as ag
from memattn import data as dat
from memattn import model as mdl
from memattn import train as trn
from memattn.autograd import DimensionError


def tiny_config(**overrides):
    kwargs = dict(w=3, h=3, d=8, b=6, t=3, fm_hidden=5,
                  dropout_rate=0.0, dropout_z=0.0, seed=0)
    kwargs.update(overrides)
    return mdl.ModelConfig(**kwargs)


def random_features(cfg, seed=0, n=1):
    """An (n, L, D) batch of feature grids."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, cfg.num_locations, cfg.d))


# --- init_params ------------------------------------------------------------

def test_init_params_deterministic():
    cfg = tiny_config()
    a = mdl.init_params(cfg)
    b = mdl.init_params(cfg)
    for pa, pb in zip(a.params(), b.params()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_param_views_tile_the_vectors():
    # each Param's data and grad are views of consecutive slices of the two
    # vectors, in _param_shapes order, the 0-d fm_b2 last
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    shapes = mdl._param_shapes(cfg)
    assert [(p.name, p.data.shape) for p in params.params()] == shapes
    assert shapes[-1] == ("fm_b2", ())
    for vector, attr in ((params.data, "data"), (params.grad, "grad")):
        base = vector.__array_interface__["data"][0]
        start = 0
        for p in params.params():
            view = getattr(p, attr)
            assert view.base is vector and view.shape == params[p.name].data.shape
            assert view.__array_interface__["data"][0] == base + 8 * start
            start += view.size
        assert start == vector.size


def test_writes_through_the_vector_show_in_each_param():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    params.data[...] = np.arange(params.data.size)
    start = 0
    for p in params.params():
        np.testing.assert_array_equal(
            p.data, np.arange(start, start + p.data.size).reshape(p.data.shape))
        start += p.data.size
    params["fm_b2"].data[...] = -1.0
    assert params.data[-1] == -1.0
    # backward accumulates into the grad vector through the views
    params = mdl.init_params(cfg)
    x = random_features(cfg, seed=3, n=2)
    trn.loss(x, [0.2, -0.4], params, trn.TrainConfig(penalty_weight=1e-2)).backward()
    assert all(np.any(p.grad != 0) for p in params.params())
    np.testing.assert_array_equal(
        params.grad, np.concatenate([p.grad.ravel() for p in params.params()]))


def test_float32_casts_float64_weights_afresh_and_gives_float32_weights_themselves(tmp_path):
    params = mdl.init_params(tiny_config())
    twin = params.float32()
    # the cast's weights are float32; its grads are the master's float64 vector
    assert twin.data.dtype == np.float32 and twin.grad is params.grad
    np.testing.assert_array_equal(twin.data, params.data.astype(np.float32))
    for p in twin.params():
        assert np.shares_memory(p.data, twin.data)
        # the same float64 slice of the master's grad: address, shape, strides, dtype
        assert p.grad.__array_interface__ == params[p.name].grad.__array_interface__
        np.testing.assert_array_equal(p.data, params[p.name].data.astype(np.float32))
    # the instance keeps no cast: each call makes a fresh one of the current weights
    params["fm_b2"].data[...] = 0.25
    again = params.float32()
    assert again is not twin and again.grad is params.grad
    np.testing.assert_array_equal(again.data, params.data.astype(np.float32))
    # float32 weights, as load_checkpoint gives them, are their own float32()
    assert twin.float32() is twin
    path = tmp_path / "model.amwt"
    mdl.save_checkpoint(path, params, norm=NORM)
    loaded, _ = mdl.load_checkpoint(path)
    assert loaded.float32() is loaded


def test_float32_copy_names_a_parameter_beyond_the_float32_range():
    params = mdl.init_params(tiny_config())
    params["lstm_Wf"].data[1, 2] = -1e39
    with pytest.raises(ag.NonFiniteError, match="lstm_Wf"):
        params.float32()


def test_init_params_zero_biases():
    params = mdl.init_params(tiny_config())
    for name in ("att_b", "init_h_b", "init_c_b", "lstm_bi", "lstm_bf",
                 "lstm_bo", "lstm_bg", "fm_b1", "fm_b2"):
        assert not np.any(params[name].data)


def test_init_params_weight_mean_near_zero():
    cfg = tiny_config(w=10, h=10, d=100)
    m = mdl.init_params(cfg)["att_M"].data  # 10000 draws
    limit = np.sqrt(6.0 / (m.shape[0] + m.shape[1]))
    sigma = limit / np.sqrt(3.0)  # uniform(-limit, limit)
    assert abs(m.mean()) < 3 * sigma / np.sqrt(m.size)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        tiny_config(t=0).validate()
    with pytest.raises(ValueError):
        tiny_config(dropout_rate=1.0).validate()


# --- init_state -------------------------------------------------------------

def test_init_state_zero_input_zero_weights():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    for name in ("init_h_W", "init_c_W"):
        params[name].data[...] = 0.0
    h0, c0 = mdl.init_state(np.zeros((1, cfg.num_locations, cfg.d)), params)
    np.testing.assert_array_equal(h0, np.zeros((1, cfg.b)))
    np.testing.assert_array_equal(c0, np.zeros((1, cfg.b)))


def test_init_state_mean_invariance():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    row = np.random.default_rng(1).normal(size=cfg.d)
    x_const = np.tile(row, (1, cfg.num_locations, 1))
    h_many, c_many = mdl.init_state(x_const, params)
    cfg_one = tiny_config(w=1, h=1)
    params_one = mdl.init_params(cfg_one)
    for name in ("init_h_W", "init_h_b", "init_c_W", "init_c_b"):
        params_one[name].data[...] = params[name].data
    h_one, c_one = mdl.init_state(row[None, None, :], params_one)
    np.testing.assert_allclose(h_many, h_one, atol=1e-12)
    np.testing.assert_allclose(c_many, c_one, atol=1e-12)


def test_init_state_direct_recomputation_oracle():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    x = random_features(cfg, seed=2, n=3)
    h0, c0 = mdl.init_state(x, params)
    for i in range(3):
        xbar = x[i].mean(axis=0)
        expected_h = np.tanh(params["init_h_W"].data @ xbar + params["init_h_b"].data)
        expected_c = np.tanh(params["init_c_W"].data @ xbar + params["init_c_b"].data)
        np.testing.assert_allclose(h0[i], expected_h, atol=1e-12)
        np.testing.assert_allclose(c0[i], expected_c, atol=1e-12)


def test_init_state_shape_mismatch():
    params = mdl.init_params(tiny_config())
    with pytest.raises(DimensionError):
        mdl.init_state(np.zeros((2, 2)), params)


# --- attention --------------------------------------------------------------

def test_attention_disabled_returns_ones():
    cfg = tiny_config(attention_enabled=False)
    params = mdl.init_params(cfg)
    keys = mdl.attention_keys(random_features(cfg), params)
    e, th = mdl.attention_scores(keys, np.zeros((1, cfg.b)), params)
    np.testing.assert_array_equal(e, np.ones((1, cfg.num_locations)))
    assert th is None


def test_attention_zero_projection_gives_zero_scores():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    params["att_M"].data[...] = 0.0
    keys = mdl.attention_keys(random_features(cfg), params)
    e, _ = mdl.attention_scores(keys, np.zeros((1, cfg.b)), params)
    np.testing.assert_array_equal(e, np.zeros((1, cfg.num_locations)))


def test_attention_scores_scalar_hand_expansion():
    cfg = mdl.ModelConfig(w=2, h=1, d=1, b=1, t=1, fm_hidden=1,
                          dropout_rate=0.0, dropout_z=0.0, seed=0)
    params = mdl.init_params(cfg)
    M, U, K, b = 0.7, -0.4, 1.3, 0.2
    params["att_M"].data[...] = [[M], [2 * M]]
    params["att_U"].data[...] = [[U]]
    params["att_K"].data[...] = [[K]]
    params["att_b"].data[...] = [b]
    x = np.array([[[0.5], [-1.1]]])
    h = 0.9
    e, th = mdl.attention_scores(mdl.attention_keys(x, params), np.array([[h]]), params)
    tanh_terms = [np.tanh(U * h + K * 0.5 + b), np.tanh(U * h + K * -1.1 + b)]
    np.testing.assert_allclose(e, [[M * tanh_terms[0], 2 * M * tanh_terms[1]]], atol=1e-12)
    np.testing.assert_allclose(th, [[[tanh_terms[0]], [tanh_terms[1]]]], atol=1e-12)


def test_attend_uniform_gives_mean():
    cfg = tiny_config()
    x = random_features(cfg, seed=3)
    L = cfg.num_locations
    z = mdl.attend(x, np.full((1, L), 1.0 / L))
    np.testing.assert_allclose(z, x.mean(axis=1), atol=1e-12)


def test_attend_one_hot_selects_location():
    cfg = tiny_config()
    x = random_features(cfg, seed=4)
    alpha = np.zeros((1, cfg.num_locations))
    alpha[0, 5] = 1.0
    z = mdl.attend(x, alpha)
    np.testing.assert_array_equal(z, x[:, 5])


def test_attend_naive_loop_oracle():
    cfg = tiny_config()
    x = random_features(cfg, seed=5, n=2)
    rng = np.random.default_rng(6)
    alpha = rng.random((2, cfg.num_locations))
    alpha /= alpha.sum(axis=1, keepdims=True)
    z = mdl.attend(x, alpha)
    expected = np.zeros((2, cfg.d))
    for n in range(2):
        for i in range(cfg.num_locations):
            expected[n] += alpha[n, i] * x[n, i]
    np.testing.assert_allclose(z, expected, atol=1e-12)


def test_attend_length_mismatch():
    with pytest.raises(DimensionError):
        mdl.attend(np.zeros((1, 4, 2)), np.ones((1, 3)) / 3)


# --- lstm -------------------------------------------------------------------

def test_lstm_zero_params_closed_form():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    for gate in ("i", "f", "o", "g"):
        params[f"lstm_W{gate}"].data[...] = 0.0
    rng = np.random.default_rng(7)
    z = rng.normal(size=(1, cfg.d))
    h_prev = rng.normal(size=(1, cfg.b))
    c_prev = rng.normal(size=(1, cfg.b))
    h, c, gates = mdl.lstm_step(z, h_prev, c_prev, params)
    np.testing.assert_allclose(c, 0.5 * c_prev, atol=1e-12)
    np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c_prev), atol=1e-12)
    np.testing.assert_array_equal(gates, [np.full((1, cfg.b), v) for v in (0.5, 0.5, 0.5, 0.0)])


def test_lstm_all_zero_inputs():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    for gate in ("i", "f", "o", "g"):
        params[f"lstm_W{gate}"].data[...] = 0.0
    h, c, _ = mdl.lstm_step(np.zeros((1, cfg.d)), np.zeros((1, cfg.b)),
                            np.zeros((1, cfg.b)), params)
    np.testing.assert_array_equal(h, np.zeros((1, cfg.b)))
    np.testing.assert_array_equal(c, np.zeros((1, cfg.b)))


def test_lstm_scalar_hand_expansion():
    cfg = mdl.ModelConfig(w=1, h=1, d=1, b=1, t=1, fm_hidden=1,
                          dropout_rate=0.0, dropout_z=0.0, seed=3)
    params = mdl.init_params(cfg)
    weights = {"i": [0.3, -0.2], "f": [0.5, 0.1], "o": [-0.4, 0.8], "g": [1.1, -0.7]}
    biases = {"i": 0.05, "f": -0.1, "o": 0.2, "g": 0.0}
    for gate, wv in weights.items():
        params[f"lstm_W{gate}"].data[...] = [wv]
        params[f"lstm_b{gate}"].data[...] = [biases[gate]]
    z_val, h_val, c_val = 0.6, -0.3, 0.9

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    def pre(gate):
        return weights[gate][0] * z_val + weights[gate][1] * h_val + biases[gate]

    i, f, o, g = sig(pre("i")), sig(pre("f")), sig(pre("o")), np.tanh(pre("g"))
    c_exp = f * c_val + i * g
    h_exp = o * np.tanh(c_exp)
    h, c, _ = mdl.lstm_step(np.array([[z_val]]), np.array([[h_val]]),
                            np.array([[c_val]]), params)
    np.testing.assert_allclose(c, [[c_exp]], atol=1e-12)
    np.testing.assert_allclose(h, [[h_exp]], atol=1e-12)


# --- regression head --------------------------------------------------------

def test_discrete_score_zero_params():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    params["fm_w1"].data[...] = 0.0
    params["fm_w2"].data[...] = 0.0
    m, _ = mdl.discrete_score(np.ones((1, cfg.b)), params)
    assert m.item() == 0.0


def test_discrete_score_hand_expansion():
    cfg = tiny_config(fm_hidden=1)
    params = mdl.init_params(cfg)
    w1 = np.arange(1.0, cfg.b + 1.0)
    params["fm_w1"].data[...] = w1[:, None]
    params["fm_b1"].data[...] = [0.25]
    params["fm_w2"].data[...] = [2.0]
    params["fm_b2"].data[...] = 0.5
    h = np.full((1, cfg.b), 0.1)  # pre-activation positive
    pre = float(w1 @ h[0] + 0.25)
    assert pre > 0
    m, hidden = mdl.discrete_score(h, params)
    np.testing.assert_allclose(m.item(), 2.0 * pre + 0.5, atol=1e-12)
    np.testing.assert_allclose(hidden, [[pre]], atol=1e-12)


def test_discrete_score_eval_mode_deterministic():
    cfg = tiny_config(dropout_rate=0.5)
    params = mdl.init_params(cfg)
    h = np.random.default_rng(8).normal(size=(1, cfg.b))
    assert mdl.discrete_score(h, params)[0].item() == mdl.discrete_score(h, params)[0].item()


# --- forward ----------------------------------------------------------------

def test_forward_t1_zero_regression_params():
    cfg = tiny_config(t=1)
    params = mdl.init_params(cfg)
    params["fm_w1"].data[...] = 0.0
    params["fm_w2"].data[...] = 0.0
    trace = mdl.forward(random_features(cfg), params)
    assert trace.y_value() == 0.0


def test_forward_y_equals_sum_of_m_exactly():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    trace = mdl.forward(random_features(cfg, seed=9), params)
    total = trace.m[0].item()
    for m in trace.m[1:]:
        total = total + m.item()
    assert trace.y_value() == total


def test_forward_alpha_probability_vectors():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    trace = mdl.forward(random_features(cfg, seed=10), params)
    for alpha in trace.alpha:
        assert np.all(alpha >= 0)
        assert abs(alpha.sum() - 1.0) < 1e-9


def test_forward_attention_disabled_uniform_and_mean_context():
    cfg = tiny_config(attention_enabled=False)
    params = mdl.init_params(cfg)
    x = random_features(cfg, seed=11)
    trace = mdl.forward(x, params)
    L = cfg.num_locations
    xbar = x.mean(axis=1)
    zs = [mdl.attend(x, alpha) for alpha in trace.alpha]
    for alpha, z in zip(trace.alpha, zs):
        np.testing.assert_array_equal(alpha, np.full((1, L), 1.0 / L))
        np.testing.assert_allclose(z, xbar, atol=1e-12)
    np.testing.assert_array_equal(zs[0], zs[1])
    np.testing.assert_array_equal(zs[1], zs[2])


def test_forward_eval_mode_deterministic():
    cfg = tiny_config(dropout_rate=0.5, dropout_z=0.5)
    params = mdl.init_params(cfg)
    x = random_features(cfg, seed=12)
    a = mdl.forward(x, params)
    b = mdl.forward(x, params)
    np.testing.assert_array_equal(a.alpha, b.alpha)
    assert a.y_value() == b.y_value()


def test_forward_permutation_covariance():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    x = random_features(cfg, seed=13)
    perm = np.random.default_rng(14).permutation(cfg.num_locations)

    params_perm = mdl.init_params(cfg)
    params_perm.data[...] = params.data
    params_perm["att_M"].data[...] = params["att_M"].data[perm]

    base = mdl.forward(x, params)
    permuted = mdl.forward(x[:, perm], params_perm)
    for a_base, a_perm in zip(base.alpha, permuted.alpha):
        np.testing.assert_allclose(a_perm, a_base[:, perm], atol=1e-10)
        np.testing.assert_allclose(mdl.attend(x[:, perm], a_perm),
                                   mdl.attend(x, a_base), atol=1e-10)
    np.testing.assert_allclose(
        permuted.m_values(), base.m_values(), atol=1e-10)
    assert abs(permuted.y_value() - base.y_value()) < 1e-10


# --- attention penalty ------------------------------------------------------

def test_penalty_uniform_closed_form():
    alphas = [np.full(4, 0.25) for _ in range(3)]
    assert abs(mdl.attention_penalty(alphas).item() - 0.25) < 1e-12


def test_penalty_zero_at_full_coverage():
    alphas = [np.eye(3)[t] for t in range(3)]
    assert abs(mdl.attention_penalty(alphas).item()) < 1e-15


def test_penalty_naive_loop_oracle():
    rng = np.random.default_rng(15)
    raw = rng.random((3, 6))
    raw /= raw.sum(axis=1, keepdims=True)
    value = mdl.attention_penalty(list(raw)).item()
    expected = 0.0
    for i in range(6):
        s = 1.0
        for t in range(3):
            s -= raw[t, i]
        expected += s * s
    assert abs(value - expected) < 1e-12


# --- end-to-end gradients ---------------------------------------------------

def test_full_loss_gradients_match_finite_differences():
    # gradients reach every Param, with attention on and off, and with
    # dropout on: the rng is re-seeded per build, so the masks stay fixed
    cases = [(tiny_config(attention_enabled=enabled), 1) for enabled in (True, False)]
    cases.append((tiny_config(dropout_rate=0.5, dropout_z=0.5), 2))
    for cfg, n in cases:
        params = mdl.init_params(cfg)
        x = random_features(cfg, seed=16, n=n)
        targets = [0.4, -0.3][:n]
        tcfg = trn.TrainConfig(penalty_weight=1e-4)

        def build():
            rng = np.random.default_rng(17)
            total = trn.loss(x, targets, params, tcfg, rng=rng)
            return total

        report = ag.gradient_check(build, params)
        assert max(report.values()) < 1e-4, (cfg, report)


@pytest.mark.parametrize("enabled", [True, False])
def test_batch_gradients_equal_summed_single_sample_gradients(enabled):
    cfg = tiny_config(attention_enabled=enabled)
    params = mdl.init_params(cfg)
    x = random_features(cfg, seed=17, n=5)
    targets = np.random.default_rng(18).uniform(-1.0, 1.0, size=5)
    tcfg = trn.TrainConfig(penalty_weight=1e-2)

    def grads(batches):
        params.grad[...] = 0.0
        total = 0.0
        for xb, tb in batches:
            value = trn.loss(xb, tb, params, tcfg)
            value.backward()
            total += value.item()
        return total, {p.name: p.grad.copy() for p in params.params()}

    batch_loss, batched = grads([(x, targets)])
    summed_loss, summed = grads([(x[i:i + 1], targets[i:i + 1]) for i in range(5)])
    assert batch_loss == pytest.approx(summed_loss, rel=1e-12)
    for name, g in summed.items():
        scale = max(np.abs(g).max(), 1e-300)
        assert np.abs(batched[name] - g).max() <= 1e-10 * scale, name


def test_batch_forward_matches_single_sample_passes():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    x = random_features(cfg, seed=19, n=4)
    batch = mdl.forward(x, params)
    for i in range(4):
        single = mdl.forward(x[i:i + 1], params)
        assert abs(batch.y[i] - single.y_value()) < 1e-14
        for a_batch, a_single in zip(batch.alpha, single.alpha):
            np.testing.assert_allclose(a_batch[i], a_single[0], atol=1e-14)


@pytest.mark.parametrize("enabled, expected", [(True, 1), (False, 0)])
def test_forward_computes_keys_once(monkeypatch, enabled, expected):
    cfg = tiny_config(attention_enabled=enabled)
    params = mdl.init_params(cfg)
    true_matmul = ag.matmul
    calls = []

    def counting_matmul(a, b):
        calls.append(a.shape)
        return true_matmul(a, b)

    monkeypatch.setattr(ag, "matmul", counting_matmul)
    mdl.forward(random_features(cfg, n=2), params)
    # the keys product is the one whose rows are the N*L locations
    keys = [shape for shape in calls if shape[0] == 2 * cfg.num_locations]
    assert len(keys) == expected


# --- memory a pass holds ------------------------------------------------------

def traced_peak(fn):
    """(peak, still held) bytes that fn() allocates, from tracemalloc, and
    fn's result; one untraced call first fills any one-time caches."""
    fn()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start, held - start, result


def test_eval_pass_keeps_no_step_arrays():
    cfg = tiny_config(w=10, h=10, d=64, b=64, fm_hidden=8, dropout_rate=0.5, dropout_z=0.5)
    params = mdl.init_params(cfg)
    x = random_features(cfg, seed=20, n=4)
    _, held, (y, trace) = traced_peak(
        lambda: trn._scores(params, trn.ScoreNorm(0.5, 0.5), x))
    assert trace.steps == [] and len(trace.alpha) == len(trace.m) == cfg.t
    assert held < x.nbytes / 4, held  # no (N, L, D) array outlives the pass
    # a training pass on the same weights without dropout keeps its steps
    no_dropout = mdl.ModelParams(replace(cfg, dropout_rate=0.0, dropout_z=0.0))
    no_dropout.data[...] = params.data
    with_steps = mdl.forward(x, no_dropout, training=True)
    assert len(with_steps.steps) == cfg.t
    np.testing.assert_array_equal(trace.y, with_steps.y)


def test_train_pass_peak_memory():
    # Above the caller's float64 batch x, one loss + backward holds at most
    # T + 1 (N, L, D) arrays (it uses T: the forward's keys, which take the
    # last step's tanh terms, and T - 1 fresh slots for the others; backward
    # turns those terms into the key grads in place, so it adds no such
    # array) plus two arrays the size of the largest weight (a weight grad's
    # product and one more).
    cfg = tiny_config(w=10, h=10, d=64, b=64, fm_hidden=8, dropout_rate=0.5, dropout_z=0.5)
    params = mdl.init_params(cfg)
    x = random_features(cfg, seed=21, n=4)
    tcfg = trn.TrainConfig(penalty_weight=1e-4)

    def train_pass():
        total = trn.loss(x, np.zeros(4), params, tcfg, rng=np.random.default_rng(22))
        total.backward()

    peak, _, _ = traced_peak(train_pass)
    largest_weight = max(p.data.nbytes for p in params.params())
    assert peak <= (cfg.t + 1) * x.nbytes + 2 * largest_weight, (peak, x.nbytes, largest_weight)


def test_float32_train_pass_peak_memory():
    # train_epoch's pass runs from the float32 copy of the weights, so the
    # same T + 1 (N, L, D) arrays and two largest-weight arrays take float32
    # bytes. Each float32 weight grad is added into the float64 params.grad
    # through numpy's casting buffer, np.getbufsize() float64 values (64 KiB)
    # whatever the weight's size: this set-up peaked at 520 KB, against 475 KB
    # from the arrays alone.
    cfg = tiny_config(w=10, h=10, d=64, b=64, fm_hidden=8, dropout_rate=0.5, dropout_z=0.5)
    params = mdl.init_params(cfg)
    twin = params.float32()
    x = random_features(cfg, seed=21, n=4).astype(np.float32)
    tcfg = trn.TrainConfig(penalty_weight=1e-4)

    def train_pass():
        total = trn.loss(x, np.zeros(4), twin, tcfg, rng=np.random.default_rng(22))
        total.backward()

    peak, _, _ = traced_peak(train_pass)
    largest_weight = max(p.data.nbytes for p in twin.params())
    casting_buffer = np.getbufsize() * 8
    assert largest_weight == 4 * 8192 and twin.grad is params.grad
    assert peak <= (cfg.t + 1) * x.nbytes + 2 * largest_weight + casting_buffer, (
        peak, x.nbytes, largest_weight)


def test_adam_step_peak_memory():
    # At 14x14x256 the update runs in slices, so its temporaries stay at
    # two slices, not two copies of the 7 MB parameter vector
    cfg = tiny_config(w=14, h=14, d=256, b=256, fm_hidden=128)
    params = mdl.ModelParams(cfg)
    params.grad[...] = 1.0
    state = trn.AdamState(params)
    tcfg = trn.TrainConfig()
    peak, held, _ = traced_peak(lambda: trn.adam_step(params, state, tcfg))
    assert params.data.size > 6 * trn.ADAM_SLICE
    assert peak <= 2 * 8 * trn.ADAM_SLICE + 4096, peak
    assert held < 4096, held  # no temporary outlives the step


# --- checkpoints ------------------------------------------------------------

NORM = {"mean": 0.5, "half_range": 0.3}


def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    path = tmp_path / "model.amwt"
    mdl.save_checkpoint(path, params, norm=NORM)
    loaded, loaded_norm = mdl.load_checkpoint(path)
    assert loaded.config == cfg
    assert loaded_norm == NORM
    # the loaded weights are float32, for inference: the exact cast of the saved ones
    assert loaded.data.dtype == np.float32
    np.testing.assert_array_equal(loaded.data, params.data.astype(np.float32))
    for a, b in zip(params.params(), loaded.params()):
        assert a.name == b.name
        np.testing.assert_array_equal(a.data.astype(np.float32), b.data)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.amwt"
    path.write_bytes(b"XXXX" + b"\0" * 16)
    with pytest.raises(mdl.CheckpointFormatError):
        mdl.load_checkpoint(path)


def test_checkpoint_magic_and_version_layout(tmp_path):
    path = tmp_path / "model.amwt"
    mdl.save_checkpoint(path, mdl.init_params(tiny_config()), norm=NORM)
    blob = path.read_bytes()
    assert blob[:4] == b"AMWT"
    assert int.from_bytes(blob[4:8], "little") == 1


def with_meta(blob, meta):
    """blob with its JSON meta block replaced by meta (bytes or a JSON value)."""
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    new = meta if isinstance(meta, bytes) else json.dumps(meta).encode()
    return blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + meta_len:]


def edited_meta(blob, edit):
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    meta = json.loads(blob[12:12 + meta_len])
    edit(meta)
    return with_meta(blob, meta)


def swapped_dims(blob, name=b"att_U"):
    """blob with the stored shape of name, (D, B), written as (B, D): the
    file keeps its size."""
    at = blob.index(name) + len(name)
    rank, rows, cols = struct.unpack_from("<III", blob, at)
    assert rank == 2 and rows != cols
    return blob[:at] + struct.pack("<III", rank, cols, rows) + blob[at + 12:]


CORRUPTIONS = {
    "empty": lambda b: b"",
    "cut in header": lambda b: b[:10],
    "cut in meta": lambda b: b[:30],
    "cut in params": lambda b: b[:300],
    "cut last byte": lambda b: b[:-1],
    "meta past end": lambda b: b[:8] + struct.pack("<I", len(b)) + b[12:],
    "meta not JSON": lambda b: with_meta(b, b"{bad"),
    "meta not object": lambda b: with_meta(b, [1, 2]),
    "meta unknown key": lambda b: edited_meta(b, lambda m: m.update(extra=1)),
    "unknown config key": lambda b: edited_meta(b, lambda m: m["config"].update(depth=2)),
    "missing config key": lambda b: edited_meta(b, lambda m: m["config"].pop("seed")),
    "config wrong type": lambda b: edited_meta(b, lambda m: m["config"].update(t="3")),
    "config invalid": lambda b: edited_meta(b, lambda m: m["config"].update(t=0)),
    "config shape mismatch": lambda b: edited_meta(b, lambda m: m["config"].update(d=9)),
    "norm missing key": lambda b: edited_meta(b, lambda m: m["norm"].pop("mean")),
    "norm null": lambda b: edited_meta(b, lambda m: m.update(norm=None)),
    "parameter renamed": lambda b: b.replace(b"att_U", b"att_V", 1),
    "dims swapped": swapped_dims,
    "trailing bytes": lambda b: b + b"\0\0",
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_checkpoint_corruption_is_format_error(tmp_path, corruption):
    path = tmp_path / "model.amwt"
    mdl.save_checkpoint(path, mdl.init_params(tiny_config()), norm=NORM)
    path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
    with pytest.raises(mdl.CheckpointFormatError) as info:
        mdl.load_checkpoint(path)
    assert str(path) in str(info.value)


def test_checkpoint_bytes_are_pinned(tmp_path):
    # sha256 of the checkpoint of a fixed config and norm, as first written
    path = tmp_path / "model.amwt"
    mdl.save_checkpoint(path, mdl.init_params(tiny_config()), norm=NORM)
    blob = path.read_bytes()
    assert len(blob) == 6211
    assert hashlib.sha256(blob).hexdigest() == (
        "85ec4f5ac959dc1e5ea55153aa0154564235d2f262b8d1cd5f826a87c8a5335b")


def test_checkpoint_save_peak_memory(tmp_path):
    # each parameter is written through a byte view of its slice of
    # params.data; a copy of the largest weight alone would take 1 MB here
    params = mdl.ModelParams(tiny_config(w=14, h=14, d=256, b=256, fm_hidden=128))
    peak, _, _ = traced_peak(
        lambda: mdl.save_checkpoint(tmp_path / "model.amwt", params, norm=NORM))
    assert max(p.data.nbytes for p in params.params()) == 2 ** 20
    assert peak < 64 * 1024, peak


def test_checkpoint_load_peak_memory(tmp_path):
    # each parameter is read in slices of 2^15 values into one float64
    # buffer, each slice checked in bool masks of its size and cast into the
    # float32 params.data: beside the data and grad vectors the load holds 9
    # bytes per value of a slice, however large the largest parameter (here
    # 2^17 values), and no copy of the file or mask of every weight
    params = mdl.ModelParams(tiny_config(w=14, h=14, d=256, b=256, fm_hidden=128))
    path = tmp_path / "model.amwt"
    mdl.save_checkpoint(path, params, norm=NORM)
    peak, _, (loaded, _) = traced_peak(lambda: mdl.load_checkpoint(path))
    assert peak <= loaded.data.nbytes + loaded.grad.nbytes + 9 * 2 ** 15 + 64 * 1024, peak


def test_checkpoint_non_finite_weights_rejected(tmp_path):
    params = mdl.init_params(tiny_config())
    params["lstm_Wf"].data[1, 2] = np.nan
    path = tmp_path / "model.amwt"
    mdl.save_checkpoint(path, params, norm=NORM)
    with pytest.raises(mdl.CheckpointFormatError, match="lstm_Wf.*non-finite") as info:
        mdl.load_checkpoint(path)
    assert str(path) in str(info.value)


def test_checkpoint_non_finite_value_is_found_before_an_earlier_float32_overflow(tmp_path):
    # each parameter is checked for finiteness as it is read, and the float32
    # range only after the last one, so a later NaN outranks an earlier overflow
    params = mdl.init_params(tiny_config())
    params["att_K"].data[0, 0] = 1e39  # finite in float64, beyond float32's 3.4e38
    path = tmp_path / "model.amwt"
    mdl.save_checkpoint(path, params, norm=NORM)
    with pytest.raises(ag.NonFiniteError, match="att_K.*float32 range"):
        mdl.load_checkpoint(path)
    params["fm_w1"].data[1, 2] = np.nan
    mdl.save_checkpoint(path, params, norm=NORM)
    with pytest.raises(mdl.CheckpointFormatError, match="fm_w1.*non-finite") as info:
        mdl.load_checkpoint(path)
    assert str(path) in str(info.value)


def test_checkpoint_parameters_larger_than_a_read_slice(tmp_path):
    # lstm_Wi and lstm_Wf hold 256 x (8 + 256) values each: three slices of 2^15
    params = mdl.init_params(tiny_config(d=8, b=256))
    path = tmp_path / "model.amwt"
    mdl.save_checkpoint(path, params, norm=NORM)
    np.testing.assert_array_equal(mdl.load_checkpoint(path)[0].data,
                                  params.data.astype(np.float32))
    params["lstm_Wi"].data.flat[-1] = 1e39  # in the last slice
    mdl.save_checkpoint(path, params, norm=NORM)
    with pytest.raises(ag.NonFiniteError, match="lstm_Wi.*float32 range"):
        mdl.load_checkpoint(path)
    params["lstm_Wf"].data.flat[2 ** 15 + 1] = np.nan  # in the second slice
    mdl.save_checkpoint(path, params, norm=NORM)
    with pytest.raises(mdl.CheckpointFormatError, match="lstm_Wf.*non-finite"):
        mdl.load_checkpoint(path)


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.amwt"
    mdl.save_checkpoint(path, mdl.init_params(tiny_config()), norm=NORM)
    before = path.read_bytes()
    real_open = open

    class DiskFull:
        """A file that takes 100 bytes, then fails every write."""

        def __init__(self, f):
            self.f = f
            self.written = 0

        def write(self, blob):
            if self.written + len(blob) > 100:
                raise OSError(errno.ENOSPC, "No space left on device")
            self.written += len(blob)
            return self.f.write(blob)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    monkeypatch.setattr(dat, "open", lambda p, mode: DiskFull(real_open(p, mode)),
                        raising=False)
    with pytest.raises(OSError):
        mdl.save_checkpoint(path, mdl.init_params(tiny_config(seed=1)), norm=NORM)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.amwt"]
