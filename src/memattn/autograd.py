"""Gradient substrate: Params, the scalar loss, checked array ops, the FD oracle.

The loss Tensor's `backward` runs the hand-derived `model.backward`, and
the central finite-difference oracle here checks it.
"""
from __future__ import annotations

import numpy as np

FD_STEP = 1e-5  # the central-difference step of finite_diff_grad and gradient_check


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NonFiniteError(ValueError):
    """A value that must be finite is NaN or infinite."""


class OracleError(RuntimeError):
    """The finite-difference oracle cannot trust its loss function."""


class Tensor:
    """A scalar loss; `backward` adds its gradient into the Params it depends on."""

    __slots__ = ("data", "_backward")

    def __init__(self, value, backward):
        self.data = np.asarray(value, dtype=np.float64)
        self._backward = backward

    def item(self) -> float:
        return self.data.item()

    def backward(self):
        """Add d(self)/d(param) into each Param's grad, once: it consumes the pass's trace."""
        self._backward()


class Param:
    """A named array and the grad buffer that backward adds into; a float32
    copy of the weights shares its master's float64 grad buffer."""

    __slots__ = ("name", "data", "grad")

    def __init__(self, name: str, data: np.ndarray, grad: np.ndarray):
        self.name = name
        self.data = data
        self.grad = grad


def _require_finite(a: np.ndarray, op: str) -> None:
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{op}: non-finite input")


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    return a @ b


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or x.ndim != 1 or a.shape[1] != x.shape[0]:
        raise DimensionError(f"matvec: incompatible shapes {a.shape} x {x.shape}")
    return a @ x


def vecmat(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    if x.ndim != 1 or a.ndim != 2 or x.shape[0] != a.shape[0]:
        raise DimensionError(f"vecmat: incompatible shapes {x.shape} x {a.shape}")
    return x @ a


def tanh(a: np.ndarray) -> np.ndarray:
    _require_finite(a, "tanh")
    return np.tanh(a)


def sigmoid(a: np.ndarray) -> np.ndarray:
    # one reduction rules out NaN, inf and an overflow of exp(-a), which
    # comes near 709.8 in float64 and near 88.7 in float32
    if np.abs(a).max() < (80.0 if a.dtype == np.float32 else 700.0):
        return 1.0 / (1.0 + np.exp(-a))
    _require_finite(a, "sigmoid")
    with np.errstate(over="ignore"):  # exp(-a) = inf gives the exact limit y = 0
        return 1.0 / (1.0 + np.exp(-a))


def softmax_vec(e: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    if e.ndim < 1 or e.shape[-1] < 1:
        raise ValueError(f"softmax_vec: expected a non-empty last axis, got shape {e.shape}")
    _require_finite(e, "softmax_vec")
    exp = np.exp(e - e.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True)


def finite_diff_grad(loss_fn, values: np.ndarray) -> np.ndarray:
    """Central-difference gradient of values, one coordinate at a time, in place.

    loss_fn must be a deterministic float-valued function of the current
    values (fixed inputs, and fixed dropout masks if any); determinism is
    checked by a repeated evaluation up front.
    """
    if loss_fn() != loss_fn():
        raise OracleError("finite_diff_grad: loss function is not deterministic")
    flat = values.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        f_plus = loss_fn()
        flat[i] = orig - FD_STEP
        f_minus = loss_fn()
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
    return grad.reshape(values.shape)


def gradient_check(build_loss, params) -> dict:
    """Relative error between analytic and finite-difference grads.

    build_loss() must rebuild the loss Tensor from the current values of the
    ModelParams params. Returns {param name: norm(analytic - numeric) / norm sum}.
    """
    params.grad[...] = 0.0
    loss = build_loss()
    loss.backward()
    analytic = {p.name: p.grad.copy() for p in params.params()}

    def scalar_loss():
        return float(build_loss().data)

    report = {}
    for p in params.params():
        numeric = finite_diff_grad(scalar_loss, p.data)
        a = analytic[p.name]
        denom = np.linalg.norm(a) + np.linalg.norm(numeric)
        report[p.name] = 0.0 if denom == 0.0 else float(np.linalg.norm(a - numeric) / denom)
    return report
