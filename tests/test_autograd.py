import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memattn import autograd as ag
from memattn.autograd import DimensionError, OracleError, Param, Tensor


def finite_vectors(min_size=1, max_size=8):
    return st.lists(
        st.floats(min_value=-20, max_value=20, allow_nan=False, allow_infinity=False),
        min_size=min_size, max_size=max_size,
    ).map(np.array)


def fd_check(build_loss, param, tol=1e-6, step=1e-5):
    report = ag.gradient_check(build_loss, [param], step=step)
    assert report[param.name] < tol, report


# --- matmul -----------------------------------------------------------------

def test_matmul_identity():
    a = Param("a", [[1.0, 2.0], [3.0, 4.0]])
    out = ag.matmul(ag.constant(np.eye(2)), a)
    np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])


def test_matmul_projector():
    out = ag.matmul(ag.constant([[1.0, 0.0], [0.0, 0.0]]), ag.constant([[5.0], [7.0]]))
    np.testing.assert_array_equal(out.data, [[5], [0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        ag.matmul(ag.constant(np.zeros((2, 3))), ag.constant(np.zeros((2, 2))))


def test_linear_matches_numpy_and_checks_shapes():
    rng = np.random.default_rng(3)
    x, w, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3)), rng.normal(size=4)
    out = ag.linear(ag.constant(x), ag.constant(w), ag.constant(b))
    np.testing.assert_allclose(out.data, x @ w.T + b, atol=1e-15)
    np.testing.assert_allclose(ag.linear(ag.constant(x), ag.constant(w)).data, x @ w.T,
                               atol=1e-15)
    for bad_w, bad_b in ((np.zeros((4, 2)), b), (w, np.zeros(3))):
        with pytest.raises(DimensionError):
            ag.linear(ag.constant(x), ag.constant(bad_w), ag.constant(bad_b))


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(0)
    a = Param("a", rng.normal(size=(3, 4)))
    b = ag.constant(rng.normal(size=(4, 2)))
    w = ag.constant(rng.normal(size=(3, 2)))

    def build():
        return ag.dot(ag.matmul(a, b), w)

    fd_check(build, a)


# --- elementwise activations ------------------------------------------------

def test_tanh_odd_and_saturation():
    assert ag.tanh(ag.constant(0.0)).item() == 0.0
    assert abs(ag.tanh(ag.constant(50.0)).item() - 1.0) < 1e-12


def test_sigmoid_saturation_and_non_finite():
    # exp(1000) overflows to inf; the limit 0 is exact and raises no warning
    y = ag.sigmoid(ag.constant(np.array([-1000.0, 0.0, 1000.0]))).data
    np.testing.assert_array_equal(y, [0.0, 0.5, 1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ag.NonFiniteError):
            ag.sigmoid(ag.constant(np.array([0.0, bad])))


def test_tanh_rejects_non_finite():
    with pytest.raises(ValueError):
        ag.tanh(ag.constant(np.array([np.nan])))


def test_tanh_gradient_at_0p3():
    p = Param("x", np.array([0.3]))
    fd_check(lambda: ag.dot(ag.tanh(p), ag.constant(np.ones(1))), p, tol=1e-8)


@pytest.mark.parametrize("op", [ag.tanh, ag.sigmoid, ag.relu])
def test_unary_op_gradients(op):
    rng = np.random.default_rng(7)
    p = Param("x", rng.normal(size=5) + 0.05)  # keep away from relu kink
    w = ag.constant(rng.normal(size=5))
    fd_check(lambda: ag.dot(op(p), w), p)


# --- softmax ----------------------------------------------------------------

def test_softmax_uniform_for_constant_input():
    out = ag.softmax_vec(ag.constant(np.full(5, 3.7)))
    np.testing.assert_allclose(out.data, np.full(5, 0.2), atol=1e-15)


def test_softmax_degenerate_length_one():
    assert ag.softmax_vec(ag.constant([42.0])).data.tolist() == [1.0]


def test_softmax_closed_form():
    out = ag.softmax_vec(ag.constant([0.0, np.log(3.0)]))
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        ag.softmax_vec(ag.constant(np.array([])))


@settings(deadline=None)
@given(finite_vectors(min_size=1), st.floats(min_value=-50, max_value=50,
                                             allow_nan=False, allow_infinity=False))
def test_softmax_sums_to_one_and_shift_invariant(v, shift):
    p = ag.softmax_vec(ag.constant(v)).data
    q = ag.softmax_vec(ag.constant(v + shift)).data
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(p > 0)
    np.testing.assert_allclose(p, q, atol=1e-12)


def test_softmax_gradient():
    rng = np.random.default_rng(1)
    p = Param("e", rng.normal(size=6))
    w = ag.constant(rng.normal(size=6))
    fd_check(lambda: ag.dot(ag.softmax_vec(p), w), p)


# --- remaining primitives ---------------------------------------------------

def test_primitive_gradients():
    rng = np.random.default_rng(2)
    a = Param("a", rng.normal(size=(4, 3)))
    v = Param("v", rng.normal(size=3))
    u = Param("u", rng.normal(size=4))
    w = ag.constant(rng.normal(size=3))
    w4 = ag.constant(rng.normal(size=4))
    w7 = ag.constant(rng.normal(size=7))
    w43 = ag.constant(rng.normal(size=(4, 3)))

    fd_check(lambda: ag.dot(ag.add(a, v), w43), a)
    fd_check(lambda: ag.dot(ag.add(a, v), w43), v)
    fd_check(lambda: ag.dot(ag.matvec(a, v), w4), a)
    fd_check(lambda: ag.dot(ag.vecmat(u, a), w), u)
    fd_check(lambda: ag.dot(ag.concat(v, u), w7), v)
    fd_check(lambda: ag.dot(ag.scale(ag.mul(v, w), -2.5), w), v)
    x = Param("x", rng.normal(size=(2, 3)))
    w24 = ag.constant(rng.normal(size=(2, 4)))
    for p in (x, a, u):
        fd_check(lambda: ag.dot(ag.linear(x, a, u), w24), p)
    fd_check(lambda: ag.dot(ag.linear(x, a), w24), a)


def test_batched_op_gradients():
    rng = np.random.default_rng(8)
    n, length, d = 3, 4, 5
    alpha = Param("alpha", rng.normal(size=(n, length)))
    x = Param("x", rng.normal(size=(n, length, d)))
    keys = Param("keys", rng.normal(size=(n * length, d)))
    shared = Param("shared", rng.normal(size=(n, d)))
    weights = Param("weights", rng.normal(size=(length, d)))
    rows = Param("rows", rng.normal(size=(n, 2)))
    scalar = Param("scalar", np.array(0.7))
    w_nd = ag.constant(rng.normal(size=(n, d)))
    w_nl = ag.constant(rng.normal(size=(n, length)))
    w_n7 = ag.constant(rng.normal(size=(n, 7)))

    for p in (alpha, x):
        fd_check(lambda: ag.dot(ag.batch_vecmat(alpha, x), w_nd), p)
    for p in (keys, shared, weights):
        fd_check(lambda: ag.dot(ag.tanh_logits(keys, shared, weights), w_nl), p)
    fd_check(lambda: ag.dot(ag.softmax_vec(alpha), w_nl), alpha)
    fd_check(lambda: ag.dot(ag.concat(rows, shared), w_n7), rows)
    fd_check(lambda: ag.dot(ag.add(alpha, scalar), w_nl), scalar)


def test_batched_ops_match_per_sample_loops():
    rng = np.random.default_rng(9)
    n, length, d = 3, 4, 5
    alpha = rng.normal(size=(n, length))
    x = rng.normal(size=(n, length, d))
    keys = rng.normal(size=(n * length, d))
    shared = rng.normal(size=(n, d))
    weights = rng.normal(size=(length, d))
    z = ag.batch_vecmat(ag.constant(alpha), ag.constant(x)).data
    e = ag.tanh_logits(ag.constant(keys), ag.constant(shared), ag.constant(weights)).data
    p = ag.softmax_vec(ag.constant(alpha)).data
    for i in range(n):
        np.testing.assert_allclose(z[i], alpha[i] @ x[i], atol=1e-12)
        block = keys[i * length:(i + 1) * length]
        np.testing.assert_allclose(
            e[i], (weights * np.tanh(block + shared[i])).sum(axis=1), atol=1e-12)
        np.testing.assert_allclose(p[i], ag.softmax_vec(ag.constant(alpha[i])).data,
                                   atol=1e-15)
    with pytest.raises(DimensionError):
        ag.batch_vecmat(ag.constant(alpha[:, :3]), ag.constant(x))
    with pytest.raises(DimensionError):
        ag.tanh_logits(ag.constant(keys[:-1]), ag.constant(shared), ag.constant(weights))


def test_add_shape_error():
    with pytest.raises(DimensionError):
        ag.add(ag.constant(np.zeros(3)), ag.constant(np.zeros(4)))


def test_dropout_identity_when_disabled():
    x = ag.constant(np.arange(4.0))
    assert ag.dropout(x, 0.5, None, training=False) is x
    assert ag.dropout(x, 0.0, None, training=True) is x


def test_dropout_mask_scaling():
    rng = np.random.default_rng(3)
    x = ag.constant(np.ones(1000))
    out = ag.dropout(x, 0.4, rng, training=True)
    kept = out.data[out.data > 0]
    np.testing.assert_allclose(kept, 1.0 / 0.6, atol=1e-12)
    assert 0.4 < (out.data == 0).mean() < 0.8  # loose binomial bound


# --- grad bookkeeping -------------------------------------------------------

def test_zero_grads_after_backward():
    p = Param("p", np.ones(3))
    ag.dot(p, p).backward()
    assert np.any(p.grad != 0)
    ag.zero_grads([p])
    np.testing.assert_array_equal(p.grad, np.zeros(3))
    ag.zero_grads([p])  # idempotent
    np.testing.assert_array_equal(p.grad, np.zeros(3))
    assert p.grad.shape == (3,)


def test_grad_accumulates_across_samples():
    p = Param("p", np.array([2.0]))
    ag.dot(p, p).backward()
    ag.dot(p, p).backward()
    np.testing.assert_allclose(p.grad, [8.0])  # 2 * d(x^2)/dx at x=2


def test_backward_drops_intermediate_grads():
    rng = np.random.default_rng(10)
    p = Param("p", rng.normal(size=(2, 3)))
    c = ag.constant(rng.normal(size=(2, 3)))
    hidden = ag.tanh(ag.add(p, c))
    out = ag.dot(hidden, ag.mul(hidden, c))
    out.backward()
    expected = (1 - np.tanh(p.data + c.data) ** 2) * 2 * np.tanh(p.data + c.data) * c.data
    np.testing.assert_allclose(p.grad, expected, atol=1e-12)
    for node in (hidden, out, c):
        assert node.grad is None


def test_backward_linearity():
    rng = np.random.default_rng(4)
    values = rng.normal(size=4)
    w1 = ag.constant(rng.normal(size=4))
    w2 = ag.constant(rng.normal(size=4))

    def losses(p):
        return ag.dot(ag.tanh(p), w1), ag.dot(ag.mul(p, p), w2)

    p = Param("p", values.copy())
    l1, l2 = losses(p)
    ag.add(l1, l2).backward()
    combined = p.grad.copy()

    p2 = Param("p", values.copy())
    for part in losses(p2):
        part.backward()
    np.testing.assert_allclose(combined, p2.grad, atol=1e-10)


# --- finite-difference oracle -----------------------------------------------

def test_finite_diff_quadratic():
    p = Param("theta", np.array([3.0]))
    grad = ag.finite_diff_grad(lambda: float(p.data[0] ** 2), p, step=1e-5)
    np.testing.assert_allclose(grad, [6.0], atol=1e-6)


def test_finite_diff_constant():
    p = Param("theta", np.array([1.0, -2.0]))
    grad = ag.finite_diff_grad(lambda: 4.25, p, step=1e-5)
    np.testing.assert_allclose(grad, np.zeros(2), atol=1e-10)


def test_finite_diff_rejects_bad_step():
    p = Param("theta", np.array([1.0]))
    with pytest.raises(ValueError):
        ag.finite_diff_grad(lambda: 0.0, p, step=0.0)


def test_finite_diff_detects_nondeterminism():
    p = Param("theta", np.array([1.0]))
    rng = np.random.default_rng(5)
    with pytest.raises(OracleError):
        ag.finite_diff_grad(lambda: rng.random(), p, step=1e-5)
