import json
import struct

import numpy as np
import pytest

from memattn import autograd as ag
from memattn import model as mdl
from memattn import train as trn
from memattn.autograd import DimensionError


def tiny_config(**overrides):
    kwargs = dict(w=3, h=3, d=8, b=6, t=3, fm_hidden=5,
                  dropout_rate=0.0, dropout_z=0.0, seed=0)
    kwargs.update(overrides)
    return mdl.ModelConfig(**kwargs)


def random_features(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(cfg.num_locations, cfg.d))


# --- init_params ------------------------------------------------------------

def test_init_params_deterministic():
    cfg = tiny_config()
    a = mdl.init_params(cfg)
    b = mdl.init_params(cfg)
    for pa, pb in zip(a.params(), b.params()):
        np.testing.assert_array_equal(pa.data, pb.data)


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
    h0, c0 = mdl.init_state(np.zeros((cfg.num_locations, cfg.d)), params)
    np.testing.assert_array_equal(h0.data, np.zeros(cfg.b))
    np.testing.assert_array_equal(c0.data, np.zeros(cfg.b))


def test_init_state_mean_invariance():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    row = np.random.default_rng(1).normal(size=cfg.d)
    x_const = np.tile(row, (cfg.num_locations, 1))
    h_many, c_many = mdl.init_state(x_const, params)
    cfg_one = tiny_config(w=1, h=1)
    params_one = mdl.init_params(cfg_one)
    for name in ("init_h_W", "init_h_b", "init_c_W", "init_c_b"):
        params_one[name].data[...] = params[name].data
    h_one, c_one = mdl.init_state(row[None, :], params_one)
    np.testing.assert_allclose(h_many.data, h_one.data, atol=1e-12)
    np.testing.assert_allclose(c_many.data, c_one.data, atol=1e-12)


def test_init_state_direct_recomputation_oracle():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    x = random_features(cfg, seed=2)
    h0, c0 = mdl.init_state(x, params)
    xbar = x.mean(axis=0)
    expected_h = np.tanh(params["init_h_W"].data @ xbar + params["init_h_b"].data)
    expected_c = np.tanh(params["init_c_W"].data @ xbar + params["init_c_b"].data)
    np.testing.assert_allclose(h0.data, expected_h, atol=1e-12)
    np.testing.assert_allclose(c0.data, expected_c, atol=1e-12)


def test_init_state_shape_mismatch():
    params = mdl.init_params(tiny_config())
    with pytest.raises(DimensionError):
        mdl.init_state(np.zeros((2, 2)), params)


# --- attention --------------------------------------------------------------

def test_attention_disabled_returns_ones():
    cfg = tiny_config(attention_enabled=False)
    params = mdl.init_params(cfg)
    keys = mdl.attention_keys(random_features(cfg), params)
    e = mdl.attention_scores(keys, ag.constant(np.zeros(cfg.b)), params)
    np.testing.assert_array_equal(e.data, np.ones(cfg.num_locations))


def test_attention_zero_projection_gives_zero_scores():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    params["att_M"].data[...] = 0.0
    keys = mdl.attention_keys(random_features(cfg), params)
    e = mdl.attention_scores(keys, ag.constant(np.zeros(cfg.b)), params)
    np.testing.assert_array_equal(e.data, np.zeros(cfg.num_locations))


def test_attention_scores_scalar_hand_expansion():
    cfg = mdl.ModelConfig(w=2, h=1, d=1, b=1, t=1, fm_hidden=1,
                          dropout_rate=0.0, dropout_z=0.0, seed=0)
    params = mdl.init_params(cfg)
    M, U, K, b = 0.7, -0.4, 1.3, 0.2
    params["att_M"].data[...] = [[M], [2 * M]]
    params["att_U"].data[...] = [[U]]
    params["att_K"].data[...] = [[K]]
    params["att_b"].data[...] = [b]
    x = np.array([[0.5], [-1.1]])
    h = 0.9
    e = mdl.attention_scores(mdl.attention_keys(x, params), ag.constant(np.array([h])), params)
    expected = [M * np.tanh(U * h + K * 0.5 + b),
                2 * M * np.tanh(U * h + K * -1.1 + b)]
    np.testing.assert_allclose(e.data, expected, atol=1e-12)


def test_attend_uniform_gives_mean():
    cfg = tiny_config()
    x = random_features(cfg, seed=3)
    L = cfg.num_locations
    z = mdl.attend(x, ag.constant(np.full(L, 1.0 / L)))
    np.testing.assert_allclose(z.data, x.mean(axis=0), atol=1e-12)


def test_attend_one_hot_selects_location():
    cfg = tiny_config()
    x = random_features(cfg, seed=4)
    alpha = np.zeros(cfg.num_locations)
    alpha[5] = 1.0
    z = mdl.attend(x, ag.constant(alpha))
    np.testing.assert_array_equal(z.data, x[5])


def test_attend_naive_loop_oracle():
    cfg = tiny_config()
    x = random_features(cfg, seed=5)
    rng = np.random.default_rng(6)
    alpha = rng.random(cfg.num_locations)
    alpha /= alpha.sum()
    z = mdl.attend(x, ag.constant(alpha))
    expected = np.zeros(cfg.d)
    for i in range(cfg.num_locations):
        expected += alpha[i] * x[i]
    np.testing.assert_allclose(z.data, expected, atol=1e-12)


def test_attend_length_mismatch():
    with pytest.raises(DimensionError):
        mdl.attend(np.zeros((4, 2)), ag.constant(np.ones(3) / 3))


# --- lstm -------------------------------------------------------------------

def test_lstm_zero_params_closed_form():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    for gate in ("i", "f", "o", "g"):
        params[f"lstm_W{gate}"].data[...] = 0.0
    rng = np.random.default_rng(7)
    z = ag.constant(rng.normal(size=cfg.d))
    h_prev = ag.constant(rng.normal(size=cfg.b))
    c_prev = ag.constant(rng.normal(size=cfg.b))
    h, c = mdl.lstm_step(z, h_prev, c_prev, params)
    np.testing.assert_allclose(c.data, 0.5 * c_prev.data, atol=1e-12)
    np.testing.assert_allclose(h.data, 0.5 * np.tanh(0.5 * c_prev.data), atol=1e-12)


def test_lstm_all_zero_inputs():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    for gate in ("i", "f", "o", "g"):
        params[f"lstm_W{gate}"].data[...] = 0.0
    h, c = mdl.lstm_step(ag.constant(np.zeros(cfg.d)), ag.constant(np.zeros(cfg.b)),
                         ag.constant(np.zeros(cfg.b)), params)
    np.testing.assert_array_equal(h.data, np.zeros(cfg.b))
    np.testing.assert_array_equal(c.data, np.zeros(cfg.b))


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
    h, c = mdl.lstm_step(ag.constant([z_val]), ag.constant([h_val]),
                         ag.constant([c_val]), params)
    np.testing.assert_allclose(c.data, [c_exp], atol=1e-12)
    np.testing.assert_allclose(h.data, [h_exp], atol=1e-12)


# --- regression head --------------------------------------------------------

def test_discrete_score_zero_params():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    params["fm_w1"].data[...] = 0.0
    params["fm_w2"].data[...] = 0.0
    m = mdl.discrete_score(ag.constant(np.ones(cfg.b)), params)
    assert m.item() == 0.0


def test_discrete_score_hand_expansion():
    cfg = tiny_config(fm_hidden=1)
    params = mdl.init_params(cfg)
    w1 = np.arange(1.0, cfg.b + 1.0)
    params["fm_w1"].data[...] = w1[:, None]
    params["fm_b1"].data[...] = [0.25]
    params["fm_w2"].data[...] = [2.0]
    params["fm_b2"].data[...] = 0.5
    h = np.full(cfg.b, 0.1)  # pre-activation positive
    pre = float(w1 @ h + 0.25)
    assert pre > 0
    m = mdl.discrete_score(ag.constant(h), params)
    np.testing.assert_allclose(m.item(), 2.0 * pre + 0.5, atol=1e-12)


def test_discrete_score_eval_mode_deterministic():
    cfg = tiny_config(dropout_rate=0.5)
    params = mdl.init_params(cfg)
    h = ag.constant(np.random.default_rng(8).normal(size=cfg.b))
    assert mdl.discrete_score(h, params).item() == mdl.discrete_score(h, params).item()


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
        assert np.all(alpha.data >= 0)
        assert abs(alpha.data.sum() - 1.0) < 1e-9


def test_forward_attention_disabled_uniform_and_mean_context():
    cfg = tiny_config(attention_enabled=False)
    params = mdl.init_params(cfg)
    x = random_features(cfg, seed=11)
    trace = mdl.forward(x, params)
    L = cfg.num_locations
    xbar = x.mean(axis=0)
    zs = [mdl.attend(x, alpha).data for alpha in trace.alpha]
    for alpha, z in zip(trace.alpha, zs):
        np.testing.assert_array_equal(alpha.data, np.full(L, 1.0 / L))
        np.testing.assert_allclose(z, xbar, atol=1e-12)
    np.testing.assert_array_equal(zs[0], zs[1])
    np.testing.assert_array_equal(zs[1], zs[2])


def test_forward_eval_mode_deterministic():
    cfg = tiny_config(dropout_rate=0.5, dropout_z=0.5)
    params = mdl.init_params(cfg)
    x = random_features(cfg, seed=12)
    a = mdl.forward(x, params)
    b = mdl.forward(x, params)
    np.testing.assert_array_equal([t.data for t in a.alpha], [t.data for t in b.alpha])
    assert a.y_value() == b.y_value()


def test_forward_permutation_covariance():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    x = random_features(cfg, seed=13)
    perm = np.random.default_rng(14).permutation(cfg.num_locations)

    params_perm = mdl.init_params(cfg)
    values = params.snapshot()
    values["att_M"] = values["att_M"][perm]
    params_perm.load_snapshot(values)

    base = mdl.forward(x, params)
    permuted = mdl.forward(x[perm], params_perm)
    for a_base, a_perm in zip(base.alpha, permuted.alpha):
        np.testing.assert_allclose(a_perm.data, a_base.data[perm], atol=1e-10)
        np.testing.assert_allclose(mdl.attend(x[perm], a_perm).data,
                                   mdl.attend(x, a_base).data, atol=1e-10)
    np.testing.assert_allclose(
        permuted.m_values(), base.m_values(), atol=1e-10)
    assert abs(permuted.y_value() - base.y_value()) < 1e-10


# --- attention penalty ------------------------------------------------------

def test_penalty_uniform_closed_form():
    alphas = [ag.constant(np.full(4, 0.25)) for _ in range(3)]
    assert abs(mdl.attention_penalty(alphas).item() - 0.25) < 1e-12


def test_penalty_zero_at_full_coverage():
    alphas = [ag.constant(np.eye(3)[t]) for t in range(3)]
    assert abs(mdl.attention_penalty(alphas).item()) < 1e-15


def test_penalty_naive_loop_oracle():
    rng = np.random.default_rng(15)
    raw = rng.random((3, 6))
    raw /= raw.sum(axis=1, keepdims=True)
    value = mdl.attention_penalty([ag.constant(row) for row in raw]).item()
    expected = 0.0
    for i in range(6):
        s = 1.0
        for t in range(3):
            s -= raw[t, i]
        expected += s * s
    assert abs(value - expected) < 1e-12


# --- end-to-end gradients ---------------------------------------------------

def graph_nodes(*roots):
    nodes, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def test_full_loss_gradients_match_finite_differences():
    # gradients reach every Param and nothing else, with attention on and off
    for enabled in (True, False):
        cfg = tiny_config(attention_enabled=enabled)
        params = mdl.init_params(cfg)
        x = ag.constant(random_features(cfg, seed=16))
        tcfg = trn.TrainConfig(penalty_weight=1e-4)

        def build():
            total, _ = trn.loss(x, 0.4, params, tcfg, training=False)
            return total

        report = ag.gradient_check(build, params.params(), step=1e-5)
        assert max(report.values()) < 1e-4, (enabled, report)
        assert x.grad is None

        _, trace = trn.predict(params, trn.ScoreNorm(mean=0.5, half_range=0.3), x)
        nodes = graph_nodes(trace.y, *trace.alpha)
        assert any(isinstance(n, ag.Param) for n in nodes)
        assert all(n.grad is None for n in nodes if not isinstance(n, ag.Param))


@pytest.mark.parametrize("enabled, expected", [(True, 1), (False, 0)])
def test_forward_computes_keys_once(monkeypatch, enabled, expected):
    cfg = tiny_config(attention_enabled=enabled)
    params = mdl.init_params(cfg)
    true_matmul = ag.matmul
    calls = []

    def counting_matmul(a, b):
        calls.append((a.shape, b.shape))
        return true_matmul(a, b)

    monkeypatch.setattr(ag, "matmul", counting_matmul)
    mdl.forward(random_features(cfg), params)
    assert len(calls) == expected


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
    for a, b in zip(params.params(), loaded.params()):
        assert a.name == b.name
        np.testing.assert_array_equal(a.data, b.data)


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
    "trailing bytes": lambda b: b + b"\0\0",
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_checkpoint_corruption_is_format_error(tmp_path, corruption):
    path = tmp_path / "model.amwt"
    mdl.save_checkpoint(path, mdl.init_params(tiny_config()), norm=NORM)
    path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
    with pytest.raises(mdl.CheckpointFormatError):
        mdl.load_checkpoint(path)


def test_checkpoint_non_finite_weights_rejected(tmp_path):
    params = mdl.init_params(tiny_config())
    params["lstm_Wf"].data[1, 2] = np.nan
    path = tmp_path / "model.amwt"
    mdl.save_checkpoint(path, params, norm=NORM)
    with pytest.raises(mdl.CheckpointFormatError, match="lstm_Wf.*non-finite") as info:
        mdl.load_checkpoint(path)
    assert str(path) in str(info.value)
