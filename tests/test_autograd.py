import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memattn import autograd as ag
from memattn import model as mdl
from memattn import train as trn
from memattn.autograd import DimensionError, OracleError


def finite_vectors(min_size=1, max_size=8):
    return st.lists(
        st.floats(min_value=-20, max_value=20, allow_nan=False, allow_infinity=False),
        min_size=min_size, max_size=max_size,
    ).map(np.array)


# --- matmul -----------------------------------------------------------------

def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(ag.matmul(np.eye(2), a), [[1, 2], [3, 4]])


def test_matmul_projector():
    out = ag.matmul(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[5.0], [7.0]]))
    np.testing.assert_array_equal(out, [[5], [0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        ag.matmul(np.zeros((2, 3)), np.zeros((2, 2)))


# --- elementwise activations ------------------------------------------------

def test_tanh_odd_and_saturation():
    assert ag.tanh(np.array(0.0)).item() == 0.0
    assert abs(ag.tanh(np.array(50.0)).item() - 1.0) < 1e-12


def test_sigmoid_saturation_and_non_finite():
    # exp(1000) overflows to inf; the limit 0 is exact and raises no warning
    y = ag.sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    np.testing.assert_array_equal(y, [0.0, 0.5, 1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ag.NonFiniteError):
            ag.sigmoid(np.array([0.0, bad]))


def test_tanh_rejects_non_finite():
    with pytest.raises(ValueError):
        ag.tanh(np.array([np.nan]))


# --- softmax ----------------------------------------------------------------

def test_softmax_uniform_for_constant_input():
    out = ag.softmax_vec(np.full(5, 3.7))
    np.testing.assert_allclose(out, np.full(5, 0.2), atol=1e-15)


def test_softmax_degenerate_length_one():
    assert ag.softmax_vec(np.array([42.0])).tolist() == [1.0]


def test_softmax_closed_form():
    out = ag.softmax_vec(np.array([0.0, np.log(3.0)]))
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        ag.softmax_vec(np.array([]))


@settings(deadline=None)
@given(finite_vectors(min_size=1), st.floats(min_value=-50, max_value=50,
                                             allow_nan=False, allow_infinity=False))
def test_softmax_sums_to_one_and_shift_invariant(v, shift):
    p = ag.softmax_vec(v)
    q = ag.softmax_vec(v + shift)
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(p > 0)
    np.testing.assert_allclose(p, q, atol=1e-12)


# --- batched model ops --------------------------------------------------------

def test_batched_ops_match_per_sample_loops():
    rng = np.random.default_rng(9)
    n, length, d = 3, 4, 5
    cfg = mdl.ModelConfig(w=2, h=2, d=d, b=6, t=1, fm_hidden=2, seed=9)
    params = mdl.init_params(cfg)
    alpha = rng.normal(size=(n, length))
    x = rng.normal(size=(n, length, d))
    h = rng.normal(size=(n, cfg.b))
    keys = mdl.attention_keys(x, params)
    e, _ = mdl.attention_scores(keys, h, params)
    z = mdl.attend(x, alpha)
    p = ag.softmax_vec(alpha)
    K, U, b, M = (params[name].data for name in ("att_K", "att_U", "att_b", "att_M"))
    for i in range(n):
        np.testing.assert_allclose(z[i], alpha[i] @ x[i], atol=1e-12)
        shared = U @ h[i] + b
        np.testing.assert_allclose(
            e[i], (M * np.tanh(x[i] @ K.T + shared)).sum(axis=1), atol=1e-12)
        np.testing.assert_allclose(p[i], ag.softmax_vec(alpha[i]), atol=1e-15)
    with pytest.raises(DimensionError):
        mdl.attend(x, alpha[:, :3])


# --- dropout (the forward pass draws the masks) -------------------------------

def test_dropout_identity_when_disabled():
    cfg = mdl.ModelConfig(w=2, h=2, d=4, b=3, t=2, fm_hidden=3, seed=1)
    params = mdl.init_params(cfg)
    x = np.random.default_rng(1).normal(size=(2, cfg.num_locations, cfg.d))
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    eval_pass = mdl.forward(x, params, training=False, rng=rng)
    assert rng.bit_generator.state == state  # eval mode draws no mask
    assert eval_pass.steps == []  # nor keeps a step, so no mask reaches a backward
    cfg.dropout_rate = cfg.dropout_z = 0.0
    no_rate = mdl.forward(x, params, training=True, rng=rng)
    assert rng.bit_generator.state == state  # nor does a zero rate
    np.testing.assert_array_equal(no_rate.y, eval_pass.y)


def test_dropout_mask_scaling():
    cfg = mdl.ModelConfig(w=1, h=1, d=5, b=2, t=1, fm_hidden=5,
                          dropout_rate=0.4, dropout_z=0.4, seed=0)
    params = mdl.init_params(cfg)
    x = np.ones((200, 1, cfg.d))
    (step,) = mdl.forward(x, params, training=True, rng=np.random.default_rng(3)).steps
    for mask in (step.z_mask, step.h_mask):
        kept = mask[mask > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.6, atol=1e-12)
        assert 0.4 < (mask == 0).mean() < 0.8  # loose binomial bound
    np.testing.assert_array_equal(step.z, x[:, 0] * step.z_mask)


# --- grad bookkeeping ---------------------------------------------------------

def tiny_loss(params=None):
    """A two-sample loss on a tiny config, without dropout: a fresh forward
    of the same inputs on params, or on freshly initialized weights."""
    cfg = mdl.ModelConfig(w=2, h=2, d=4, b=3, t=2, fm_hidden=3,
                          dropout_rate=0.0, dropout_z=0.0, seed=4)
    if params is None:
        params = mdl.init_params(cfg)
    x = np.random.default_rng(4).normal(size=(2, cfg.num_locations, cfg.d))
    total = trn.loss(x, [0.3, -0.2], params, trn.TrainConfig(penalty_weight=1e-2))
    return total, params


def test_zero_grads_after_backward():
    total, params = tiny_loss()
    total.backward()
    plist = params.params()
    assert all(np.any(p.grad != 0) for p in plist)
    params.grad[...] = 0.0  # zeroing the grad vector zeroes every Param's grad
    for p in plist:
        np.testing.assert_array_equal(p.grad, np.zeros(p.data.shape))
    params.grad[...] = 0.0  # idempotent
    for p in plist:
        np.testing.assert_array_equal(p.grad, np.zeros(p.data.shape))
        assert p.grad.shape == p.data.shape


def test_grad_accumulates_across_samples():
    total, params = tiny_loss()
    plist = params.params()
    total.backward()
    once = [p.grad.copy() for p in plist]
    # a second pass, with its own forward of the same inputs, adds the same
    # amounts again
    again, _ = tiny_loss(params)
    again.backward()
    for p, g in zip(plist, once):
        np.testing.assert_allclose(p.grad, 2 * g, rtol=1e-15, atol=0)


def test_backward_linearity():
    # the hand backward is linear in the score gradient and the penalty weight
    cfg = mdl.ModelConfig(w=2, h=2, d=4, b=3, t=2, fm_hidden=3, seed=5)
    params = mdl.init_params(cfg)
    plist = params.params()
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, cfg.num_locations, cfg.d))
    dy1, dy2 = rng.normal(size=3), rng.normal(size=3)

    def grads(*calls):
        params.grad[...] = 0.0
        for dy, weight in calls:
            # backward consumes its trace, so each gets a forward of its own
            # with the same dropout masks
            trace = mdl.forward(x, params, training=True, rng=np.random.default_rng(6))
            mdl.backward(trace, params, dy, weight)
        return [p.grad.copy() for p in plist]

    combined = grads((dy1 + dy2, 0.3))
    for a, b in zip(combined, grads((dy1, 0.1), (dy2, 0.2))):
        np.testing.assert_allclose(a, b, atol=1e-10)


@pytest.mark.parametrize("enabled", [True, False])
def test_backward_consumes_its_trace(enabled):
    # a second backward on one trace, and a backward on an eval trace, find
    # no steps and raise before they write a grad
    cfg = mdl.ModelConfig(w=2, h=2, d=4, b=3, t=2, fm_hidden=3, attention_enabled=enabled,
                          seed=5)
    params = mdl.init_params(cfg)
    x = np.random.default_rng(5).normal(size=(3, cfg.num_locations, cfg.d))
    total = trn.loss(x, [0.3, -0.2, 0.1], params, trn.TrainConfig(penalty_weight=1e-2),
                     rng=np.random.default_rng(6))
    total.backward()
    once = params.grad.copy()
    assert np.any(once != 0)
    with pytest.raises(ValueError):
        total.backward()
    np.testing.assert_array_equal(params.grad, once)
    with pytest.raises(ValueError):
        mdl.backward(mdl.forward(x, params), params, np.ones(3), 1e-2)
    np.testing.assert_array_equal(params.grad, once)


# --- finite-difference oracle -----------------------------------------------

def test_finite_diff_quadratic():
    theta = np.array([3.0])
    grad = ag.finite_diff_grad(lambda: float(theta[0] ** 2), theta)
    np.testing.assert_allclose(grad, [6.0], atol=1e-6)


def test_finite_diff_constant():
    grad = ag.finite_diff_grad(lambda: 4.25, np.array([1.0, -2.0]))
    np.testing.assert_allclose(grad, np.zeros(2), atol=1e-10)


def test_finite_diff_detects_nondeterminism():
    rng = np.random.default_rng(5)
    with pytest.raises(OracleError):
        ag.finite_diff_grad(lambda: rng.random(), np.array([1.0]))
