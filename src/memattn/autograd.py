"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Only the shapes the model needs are supported: scalars, vectors and
matrices. Every op returns a fresh Tensor whose grad is None. Only a
Param owns a grad buffer from construction; `Tensor.backward` gives a
zero buffer to each node that some Param reaches, and runs only those
nodes' closures. A closure *adds* into the parents that have a buffer,
so constant inputs get no gradient work and Param grads accumulate
across samples until zero_grads.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "DimensionError",
    "NonFiniteError",
    "OracleError",
    "Tensor",
    "Param",
    "constant",
    "zero_grads",
    "matmul",
    "matvec",
    "vecmat",
    "transpose",
    "add",
    "mul",
    "scale",
    "tanh",
    "sigmoid",
    "relu",
    "softmax_vec",
    "mean_rows",
    "row_sums",
    "vec_sum",
    "dot",
    "concat",
    "dropout",
    "finite_diff_grad",
    "gradient_check",
]


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NonFiniteError(ValueError):
    """A value that must be finite is NaN or infinite."""


class OracleError(RuntimeError):
    """The finite-difference oracle cannot trust its loss function."""


class Tensor:
    """A node in the computation graph holding a float64 array."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self):
        """Add d(self)/d(param) into the grad of every Param self depends on.

        self must be scalar-shaped; the seed gradient is 1. Intermediate
        nodes get fresh zero buffers, so a second backward through the
        same graph adds the same amounts again.
        """
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        # order lists parents first: a node is reached iff a parent is
        for node in order:
            if node._parents:
                node.grad = None
                for parent in node._parents:
                    if parent.grad is not None:
                        node.grad = np.zeros(node.data.shape)
                        break
        if self.grad is None:
            return
        self.grad += 1.0
        for node in reversed(order):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class Param(Tensor):
    """A named leaf tensor whose grad survives across forward passes."""

    __slots__ = ("name",)

    def __init__(self, name: str, values):
        super().__init__(values)
        self.grad = np.zeros(self.data.shape)
        self.name = name

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.shape})"


def constant(values) -> Tensor:
    """A leaf tensor that participates in the graph but gets no grad."""
    return Tensor(values)


def zero_grads(params) -> None:
    for p in params:
        p.grad[...] = 0.0


def _require_finite(t: Tensor, op: str) -> None:
    if not np.all(np.isfinite(t.data)):
        raise NonFiniteError(f"{op}: non-finite input")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data, (a, b))

    def backward(g):
        if a.grad is not None:
            a.grad += g @ b.data.T
        if b.grad is not None:
            b.grad += a.data.T @ g

    out._backward = backward
    return out


def matvec(a: Tensor, x: Tensor) -> Tensor:
    if a.data.ndim != 2 or x.data.ndim != 1 or a.shape[1] != x.shape[0]:
        raise DimensionError(f"matvec: incompatible shapes {a.shape} x {x.shape}")
    out = Tensor(a.data @ x.data, (a, x))

    def backward(g):
        if a.grad is not None:
            a.grad += np.outer(g, x.data)
        if x.grad is not None:
            x.grad += a.data.T @ g

    out._backward = backward
    return out


def vecmat(x: Tensor, a: Tensor) -> Tensor:
    if x.data.ndim != 1 or a.data.ndim != 2 or x.shape[0] != a.shape[0]:
        raise DimensionError(f"vecmat: incompatible shapes {x.shape} x {a.shape}")
    out = Tensor(x.data @ a.data, (x, a))

    def backward(g):
        if x.grad is not None:
            x.grad += a.data @ g
        if a.grad is not None:
            a.grad += np.outer(x.data, g)

    out._backward = backward
    return out


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose: expected matrix, got {a.shape}")
    out = Tensor(a.data.T, (a,))

    def backward(g):
        a.grad += g.T

    out._backward = backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also supports matrix + row-vector broadcast."""
    if a.shape == b.shape:
        out = Tensor(a.data + b.data, (a, b))

        def backward(g):
            if a.grad is not None:
                a.grad += g
            if b.grad is not None:
                b.grad += g

    elif a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        out = Tensor(a.data + b.data, (a, b))

        def backward(g):
            if a.grad is not None:
                a.grad += g
            if b.grad is not None:
                b.grad += g.sum(axis=0)

    else:
        raise DimensionError(f"add: incompatible shapes {a.shape} + {b.shape}")
    out._backward = backward
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul: incompatible shapes {a.shape} * {b.shape}")
    out = Tensor(a.data * b.data, (a, b))

    def backward(g):
        if a.grad is not None:
            a.grad += g * b.data
        if b.grad is not None:
            b.grad += g * a.data

    out._backward = backward
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c, (a,))

    def backward(g):
        a.grad += g * c

    out._backward = backward
    return out


def tanh(a: Tensor) -> Tensor:
    _require_finite(a, "tanh")
    y = np.tanh(a.data)
    out = Tensor(y, (a,))

    def backward(g):
        a.grad += g * (1.0 - y * y)

    out._backward = backward
    return out


def sigmoid(a: Tensor) -> Tensor:
    _require_finite(a, "sigmoid")
    y = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(y, (a,))

    def backward(g):
        a.grad += g * y * (1.0 - y)

    out._backward = backward
    return out


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0), (a,))

    def backward(g):
        a.grad += g * mask

    out._backward = backward
    return out


def softmax_vec(e: Tensor) -> Tensor:
    if e.data.ndim != 1 or e.shape[0] < 1:
        raise ValueError(f"softmax_vec: expected non-empty vector, got shape {e.shape}")
    _require_finite(e, "softmax_vec")
    shifted = e.data - e.data.max()
    exp = np.exp(shifted)
    p = exp / exp.sum()
    out = Tensor(p, (e,))

    def backward(g):
        e.grad += p * (g - np.dot(g, p))

    out._backward = backward
    return out


def mean_rows(a: Tensor) -> Tensor:
    """Mean over the leading axis: (L, D) -> (D,)."""
    if a.data.ndim != 2:
        raise DimensionError(f"mean_rows: expected matrix, got {a.shape}")
    n = a.shape[0]
    out = Tensor(a.data.mean(axis=0), (a,))

    def backward(g):
        a.grad += g[None, :] / n

    out._backward = backward
    return out


def row_sums(a: Tensor) -> Tensor:
    """Per-row sum: (L, D) -> (L,)."""
    if a.data.ndim != 2:
        raise DimensionError(f"row_sums: expected matrix, got {a.shape}")
    out = Tensor(a.data.sum(axis=1), (a,))

    def backward(g):
        a.grad += g[:, None]

    out._backward = backward
    return out


def vec_sum(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum(), (x,))

    def backward(g):
        x.grad += g * np.ones_like(x.data)

    out._backward = backward
    return out


def dot(x: Tensor, y: Tensor) -> Tensor:
    if x.data.ndim != 1 or x.shape != y.shape:
        raise DimensionError(f"dot: incompatible shapes {x.shape} . {y.shape}")
    out = Tensor(np.dot(x.data, y.data), (x, y))

    def backward(g):
        if x.grad is not None:
            x.grad += g * y.data
        if y.grad is not None:
            y.grad += g * x.data

    out._backward = backward
    return out


def concat(x: Tensor, y: Tensor) -> Tensor:
    if x.data.ndim != 1 or y.data.ndim != 1:
        raise DimensionError(f"concat: expected vectors, got {x.shape}, {y.shape}")
    n = x.shape[0]
    out = Tensor(np.concatenate([x.data, y.data]), (x, y))

    def backward(g):
        if x.grad is not None:
            x.grad += g[:n]
        if y.grad is not None:
            y.grad += g[n:]

    out._backward = backward
    return out


def dropout(x: Tensor, rate: float, rng, training: bool) -> Tensor:
    """Inverted dropout; mask sampled once per call. Identity when disabled."""
    if not training or rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate {rate} outside [0, 1)")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.data * mask, (x,))

    def backward(g):
        x.grad += g * mask

    out._backward = backward
    return out


def finite_diff_grad(loss_fn, param: Param, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate, one coordinate at a time.

    loss_fn must be a deterministic float-valued function of the current
    param values (dropout off, fixed inputs); determinism is checked by
    a repeated evaluation up front.
    """
    if step <= 0:
        raise ValueError(f"finite_diff_grad: step must be positive, got {step}")
    if loss_fn() != loss_fn():
        raise OracleError("finite_diff_grad: loss function is not deterministic")
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = loss_fn()
        flat[i] = orig - step
        f_minus = loss_fn()
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * step)
    return grad.reshape(param.shape)


def gradient_check(build_loss, params, step: float = 1e-5) -> dict:
    """Relative error between analytic and finite-difference grads.

    build_loss() must rebuild the loss Tensor from the current param
    values. Returns {param name: norm(analytic - numeric) / norm sum}.
    """
    params = list(params)
    zero_grads(params)
    loss = build_loss()
    loss.backward()
    analytic = {p.name: p.grad.copy() for p in params}

    def scalar_loss():
        return float(build_loss().data)

    report = {}
    for p in params:
        numeric = finite_diff_grad(scalar_loss, p, step)
        a = analytic[p.name]
        denom = np.linalg.norm(a) + np.linalg.norm(numeric)
        report[p.name] = 0.0 if denom == 0.0 else float(np.linalg.norm(a - numeric) / denom)
    return report
