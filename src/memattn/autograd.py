"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Model tensors carry a leading batch axis: a pass over N samples builds
one graph whose nodes hold (N, ...) arrays, and every contraction is a
2-D matrix product. Every op returns a fresh Tensor whose grad is None.
Only a Param owns a grad buffer from construction. `Tensor.backward`
marks each node that some Param reaches, runs only those nodes'
closures, and gives a marked node its buffer on the first gradient added
to it and drops it once the node's own closure has run. A closure *adds*
into the parents that are marked or own a buffer, so constant inputs get
no gradient work and Param grads accumulate until zero_grads.
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
    "linear",
    "matvec",
    "vecmat",
    "batch_vecmat",
    "add",
    "mul",
    "scale",
    "tanh",
    "sigmoid",
    "relu",
    "softmax_vec",
    "tanh_logits",
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
        return self.data.item()

    def backward(self):
        """Add d(self)/d(param) into the grad of every Param self depends on.

        self must be scalar-shaped; the seed gradient is 1. A second
        backward through the same graph adds the same amounts again.
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
                        node.grad = _UNSET
                        break
        if self.grad is None:
            return
        self.grad += np.ones(self.data.shape)
        for node in reversed(order):
            if node._parents:
                if node.grad is not None and node.grad is not _UNSET:
                    node._backward(node.grad)
                node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


# The grad of a node that backward has reached but no gradient has been
# added to yet; `grad += g` on it yields a fresh array.
_UNSET = 0.0


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
    if not np.isfinite(t.data).all():
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


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x W^T + b for the (N, k) batch x, the (out, k) weight W and the
    optional (out,) bias b; W's gradient is built in W's own layout."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[1]
            or (b is not None and b.shape != w.shape[:1])):
        raise DimensionError(f"linear: incompatible shapes {x.shape}, {w.shape}"
                             f"{'' if b is None else f', {b.shape}'}")
    y = x.data @ w.data.T
    if b is not None:
        y += b.data
    out = Tensor(y, (x, w) if b is None else (x, w, b))

    def backward(g):
        if x.grad is not None:
            x.grad += g @ w.data
        if w.grad is not None:
            # one sample's rank-1 product is faster as a broadcast than as a
            # matrix product (256x512: 0.24 against 0.38 ms)
            w.grad += g.T * x.data if len(g) == 1 else g.T @ x.data
        if b is not None and b.grad is not None:
            b.grad += g.sum(axis=0)

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


def batch_vecmat(alpha: Tensor, x: Tensor) -> Tensor:
    """Per-sample alpha-weighted sum of rows: (N, L) x (N, L, D) -> (N, D)."""
    if alpha.data.ndim != 2 or x.data.ndim != 3 or alpha.shape != x.shape[:2]:
        raise DimensionError(f"batch_vecmat: incompatible shapes {alpha.shape} x {x.shape}")
    out = Tensor(np.matmul(alpha.data[:, None, :], x.data)[:, 0, :], (alpha, x))

    def backward(g):
        if alpha.grad is not None:
            alpha.grad += np.matmul(x.data, g[:, :, None])[:, :, 0]
        if x.grad is not None:
            x.grad += alpha.data[:, :, None] * g[:, None, :]

    out._backward = backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may also match only the trailing axes of a."""
    a_shape, b_shape = a.data.shape, b.data.shape
    if a_shape[len(a_shape) - len(b_shape):] != b_shape:
        raise DimensionError(f"add: incompatible shapes {a_shape} + {b_shape}")
    out = Tensor(a.data + b.data, (a, b))

    def backward(g):
        if a.grad is not None:
            a.grad += g
        if b.grad is not None:
            b.grad += g if a_shape == b_shape else g.reshape(-1, *b_shape).sum(axis=0)

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
    # one reduction rules out NaN, inf and an overflow of exp(-a)
    if np.abs(a.data).max() < 700.0:
        y = 1.0 / (1.0 + np.exp(-a.data))
    else:
        _require_finite(a, "sigmoid")
        with np.errstate(over="ignore"):  # exp(-a) = inf gives the exact limit y = 0
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
    """Softmax over the last axis."""
    if e.data.ndim < 1 or e.shape[-1] < 1:
        raise ValueError(f"softmax_vec: expected a non-empty last axis, got shape {e.shape}")
    _require_finite(e, "softmax_vec")
    exp = np.exp(e.data - e.data.max(axis=-1, keepdims=True))
    p = exp / exp.sum(axis=-1, keepdims=True)
    out = Tensor(p, (e,))

    def backward(g):
        e.grad += p * (g - (g * p).sum(axis=-1, keepdims=True))

    out._backward = backward
    return out


def tanh_logits(keys: Tensor, shared: Tensor, weights: Tensor) -> Tensor:
    """e[n, l] = sum_d weights[l, d] * tanh(keys[n*L + l, d] + shared[n, d]).

    keys is (N*L, D), shared (N, D) and weights (L, D); the result is
    (N, L). One node that keeps only the tanh values for its backward.
    """
    (n, d), (length, d_w) = shared.shape, weights.shape
    if keys.shape != (n * length, d) or d_w != d:
        raise DimensionError(f"tanh_logits: incompatible shapes {keys.shape}, "
                             f"{shared.shape}, {weights.shape}")
    th = keys.data.reshape(n, length, d) + shared.data[:, None, :]
    np.tanh(th, out=th)
    out = Tensor(np.einsum("nld,ld->nl", th, weights.data), (keys, shared, weights))

    def backward(g):
        if weights.grad is not None:
            weights.grad += np.einsum("nl,nld->ld", g, th)
        d_pre = th * th
        np.subtract(1.0, d_pre, out=d_pre)
        d_pre *= weights.data
        d_pre *= g[:, :, None]
        if shared.grad is not None:
            shared.grad += d_pre.sum(axis=1)
        if keys.grad is _UNSET:  # no copy: nothing else holds d_pre
            keys.grad = d_pre.reshape(keys.shape)
        elif keys.grad is not None:
            keys.grad += d_pre.reshape(keys.shape)

    out._backward = backward
    return out


def dot(x: Tensor, y: Tensor) -> Tensor:
    """Sum of the elementwise product of two same-shaped tensors."""
    if x.data.ndim < 1 or x.shape != y.shape:
        raise DimensionError(f"dot: incompatible shapes {x.shape} . {y.shape}")
    out = Tensor(np.vdot(x.data, y.data), (x, y))

    def backward(g):
        if x.grad is not None:
            x.grad += g * y.data
        if y.grad is not None:
            y.grad += g * x.data

    out._backward = backward
    return out


def concat(x: Tensor, y: Tensor) -> Tensor:
    """Join along the last axis; the leading axes must agree."""
    if x.data.ndim < 1 or x.shape[:-1] != y.shape[:-1]:
        raise DimensionError(f"concat: incompatible shapes {x.shape}, {y.shape}")
    n = x.shape[-1]
    out = Tensor(np.concatenate([x.data, y.data], axis=-1), (x, y))

    def backward(g):
        if x.grad is not None:
            x.grad += g[..., :n]
        if y.grad is not None:
            y.grad += g[..., n:]

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
