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


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(0)
    a = Param("a", rng.normal(size=(3, 4)))
    b = ag.constant(rng.normal(size=(4, 2)))
    w = ag.constant(rng.normal(size=(3, 2)))

    def build():
        prod = ag.matmul(a, b)
        return ag.vec_sum(ag.row_sums(ag.mul(prod, w)))

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
    fd_check(lambda: ag.vec_sum(ag.tanh(p)), p, tol=1e-8)


@pytest.mark.parametrize("op", [ag.tanh, ag.sigmoid, ag.relu])
def test_unary_op_gradients(op):
    rng = np.random.default_rng(7)
    p = Param("x", rng.normal(size=5) + 0.05)  # keep away from relu kink
    fd_check(lambda: ag.vec_sum(op(p)), p)


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

    fd_check(lambda: ag.dot(ag.mean_rows(a), w), a)
    fd_check(lambda: ag.vec_sum(ag.row_sums(ag.add(a, v))), v)
    fd_check(lambda: ag.dot(ag.matvec(a, v), w4), a)
    fd_check(lambda: ag.dot(ag.vecmat(u, a), w), u)
    fd_check(lambda: ag.vec_sum(ag.concat(v, u)), v)
    fd_check(lambda: ag.vec_sum(ag.scale(ag.mul(v, w), -2.5)), v)
    fd_check(lambda: ag.vec_sum(ag.row_sums(ag.transpose(a))), a)


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
    ag.vec_sum(ag.mul(p, p)).backward()
    assert np.any(p.grad != 0)
    ag.zero_grads([p])
    np.testing.assert_array_equal(p.grad, np.zeros(3))
    ag.zero_grads([p])  # idempotent
    np.testing.assert_array_equal(p.grad, np.zeros(3))
    assert p.grad.shape == (3,)


def test_grad_accumulates_across_samples():
    p = Param("p", np.array([2.0]))
    ag.vec_sum(ag.mul(p, p)).backward()
    ag.vec_sum(ag.mul(p, p)).backward()
    np.testing.assert_allclose(p.grad, [8.0])  # 2 * d(x^2)/dx at x=2


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
