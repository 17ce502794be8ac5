"""Attention-recurrent memorability head.

A forward pass takes a batch of N feature grids, (N, L, D). It
initializes the LSTM state from each sample's mean feature vector, then
runs T steps of soft attention over the L spatial locations; each step
regresses one partial score from the hidden state and the total score is
their sum. Every weight product is one 2-D matrix product over the batch;
the keys K x_i do not depend on the step, so they are one (N*L, D) x K^T
product per pass. Attention can be disabled, which makes every step see
the plain location mean. `backward` is derived by hand: it runs the steps
in reverse and forms each weight gradient as one product over all steps.
"""
from __future__ import annotations

import collections
import json
import math
import os
import struct
import sys
import typing
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import autograd as ag
from .autograd import DimensionError, NonFiniteError, Param
from .data import atomic_open

CHECKPOINT_MAGIC = b"AMWT"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    w: int = 14
    h: int = 14
    d: int = 1024
    b: int = 1024
    t: int = 3
    fm_hidden: int = 512
    dropout_rate: float = 0.5   # regression hidden layer
    dropout_z: float = 0.5      # context vector before the LSTM
    attention_enabled: bool = True
    seed: int = 0

    @property
    def num_locations(self) -> int:
        return self.w * self.h

    def validate(self) -> None:
        if self.w < 1 or self.h < 1:
            raise ValueError(f"grid {self.w}x{self.h} must be at least 1x1")
        if min(self.d, self.b, self.t, self.fm_hidden) < 1:
            raise ValueError("d, b, t and fm_hidden must all be >= 1")
        for rate in (self.dropout_rate, self.dropout_z):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"dropout rate {rate} outside [0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")


def _param_shapes(cfg: ModelConfig):
    L, D, B, H = cfg.num_locations, cfg.d, cfg.b, cfg.fm_hidden
    shapes = [
        ("att_M", (L, D)),
        ("att_U", (D, B)),
        ("att_K", (D, D)),
        ("att_b", (D,)),
        ("init_h_W", (B, D)),
        ("init_h_b", (B,)),
        ("init_c_W", (B, D)),
        ("init_c_b", (B,)),
    ]
    for gate in ("i", "f", "o", "g"):
        shapes.append((f"lstm_W{gate}", (B, D + B)))
        shapes.append((f"lstm_b{gate}", (B,)))
    shapes += [
        ("fm_w1", (B, H)),
        ("fm_b1", (H,)),
        ("fm_w2", (H,)),
        ("fm_b2", ()),
    ]
    return shapes


class ModelParams:
    """All learnable weights, addressable by name in a stable order.

    data and grad are two vectors of every weight in the order of
    _param_shapes(config); each Param's data and grad are views of its
    slice of them, so an element-wise update of all weights is one array
    operation. Both are float64 unless given: float32() gives its cast
    float32 data and the master's float64 grad, so a backward run on the
    cast adds into the master's grads, and load_checkpoint gives its
    params float32 data, for inference only.
    """

    def __init__(self, config: ModelConfig, data: np.ndarray | None = None,
                 grad: np.ndarray | None = None):
        self.config = config
        shapes = _param_shapes(config)
        size = sum(math.prod(shape) for _, shape in shapes)
        self.data = np.zeros(size) if data is None else data
        self.grad = np.zeros(size) if grad is None else grad
        self._params, start = {}, 0
        for name, shape in shapes:
            end = start + math.prod(shape)
            self._params[name] = Param(name, self.data[start:end].reshape(shape),
                                       self.grad[start:end].reshape(shape))
            start = end

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def params(self) -> list[Param]:
        return list(self._params.values())

    def float32(self) -> ModelParams:
        """These weights in float32, for the passes of training and
        evaluation: self if data is float32, else a fresh cast whose Params
        view this instance's float64 grads. NonFiniteError names the first
        parameter with a value beyond the float32 range."""
        if self.data.dtype == np.float32:
            return self
        with np.errstate(over="ignore"):  # an overflow gives inf, named below
            twin = ModelParams(self.config, self.data.astype(np.float32), self.grad)
        return _in_float32_range(twin)


def _in_float32_range(params: ModelParams) -> ModelParams:
    """The float32 params; NonFiniteError names the first to hold an overflow's inf."""
    if not np.isfinite(params.data).all():
        name = next(p.name for p in params.params() if not np.isfinite(p.data).all())
        raise NonFiniteError(f"parameter {name} has values beyond the float32 range")
    return params


def init_params(config: ModelConfig) -> ModelParams:
    """Uniform Glorot weights, zero biases; deterministic given the seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    params = ModelParams(config)
    for p in params.params():
        shape = p.data.shape
        if len(shape) == 2:
            fan_in, fan_out = shape[1], shape[0]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            p.data[...] = rng.uniform(-limit, limit, size=shape)
        elif p.name == "fm_w2":
            limit = np.sqrt(6.0 / (shape[0] + 1))
            p.data[...] = rng.uniform(-limit, limit, size=shape)
    return params


# The intermediates of one step that backward reads, each (N, ...): th holds
# the (N, L, D) tanh terms of the logits (None without attention), z the
# context and hidden the regression hidden layer, both after dropout, and
# gates the LSTM's (i, f, o, g); a mask is None when its dropout is off.
_Step = collections.namedtuple("_Step", "h_prev c_prev th z z_mask gates c h hidden h_mask")


@dataclass
class ForwardTrace:
    """One pass: per-step (N, L) maps alpha and (N,) scores m, their (N,)
    sum y, and the features and per-step intermediates backward reads."""

    alpha: list[np.ndarray]
    m: list[np.ndarray]
    y: np.ndarray
    x: np.ndarray
    steps: list[_Step]

    def m_values(self) -> list[float]:
        """The per-step scores of a one-sample pass."""
        return [m.item() for m in self.m]

    def y_value(self) -> float:
        """The total score of a one-sample pass."""
        return self.y.item()


def _features(x, params: ModelParams) -> np.ndarray:
    """x as an (N, L, D) array of the weights' dtype."""
    cfg = params.config
    x = np.asarray(x, dtype=params.data.dtype)
    if x.ndim != 3 or x.shape[1:] != (cfg.num_locations, cfg.d):
        raise DimensionError(
            f"features shape {x.shape}, expected (N, {cfg.num_locations}, {cfg.d})"
        )
    return x


def _affine(x: np.ndarray, w: Param, b: Param) -> np.ndarray:
    """x W^T + b for the (N, k) batch x and the (out, k) weight W."""
    y = ag.matmul(x, w.data.T)
    y += b.data
    return y


def init_state(x, params: ModelParams):
    """(h0, c0), each (N, B), from the mean location vector of each sample."""
    xbar = _features(x, params).mean(axis=1)
    h0 = ag.tanh(_affine(xbar, params["init_h_W"], params["init_h_b"]))
    c0 = ag.tanh(_affine(xbar, params["init_c_W"], params["init_c_b"]))
    return h0, c0


def attention_keys(x, params: ModelParams) -> np.ndarray | None:
    """(N*L, D) keys whose row n*L + i is K x_{n,i}; None when attention is disabled."""
    if not params.config.attention_enabled:
        return None
    flat = _features(x, params).reshape(-1, params.config.d)
    return ag.matmul(flat, params["att_K"].data.T)


def attention_scores(keys, h_prev: np.ndarray, params: ModelParams, out=None):
    """(N, L) logits from attention_keys and the (N, L, D) tanh terms they
    weight, formed in out if it is given (the keys' own array included);
    all-ones logits and None when attention is disabled. The logits take
    the weights' dtype."""
    if keys is None:
        return np.ones((len(h_prev), params.config.num_locations), params.data.dtype), None
    # U h_prev + b is shared by all locations of a sample
    shared = _affine(h_prev, params["att_U"], params["att_b"])
    th = np.add(keys.reshape(len(shared), -1, shared.shape[1]), shared[:, None, :], out=out)
    np.tanh(th, out=th)
    return np.einsum("nld,ld->nl", th, params["att_M"].data), th


def attend(x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """(N, D) attention-weighted sums of each sample's location vectors."""
    if alpha.ndim != 2 or x.ndim != 3 or alpha.shape != x.shape[:2]:
        raise DimensionError(f"attend: incompatible shapes {alpha.shape} x {x.shape}")
    return np.matmul(alpha[:, None, :], x)[:, 0, :]


def lstm_step(z: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, params: ModelParams):
    """Standard forget-gate LSTM without peepholes, on (N, k) batches:
    (h, c, (i, f, o, g))."""
    zh = np.concatenate([z, h_prev], axis=-1)
    i = ag.sigmoid(_affine(zh, params["lstm_Wi"], params["lstm_bi"]))
    f = ag.sigmoid(_affine(zh, params["lstm_Wf"], params["lstm_bf"]))
    o = ag.sigmoid(_affine(zh, params["lstm_Wo"], params["lstm_bo"]))
    g = ag.tanh(_affine(zh, params["lstm_Wg"], params["lstm_bg"]))
    c = f * c_prev + i * g
    h = o * ag.tanh(c)
    return h, c, (i, f, o, g)


def discrete_score(h: np.ndarray, params: ModelParams, mask=None):
    """Two-layer regression head with a single linear output neuron: the
    (N,) scores of the (N, B) states h and the hidden layer, after the
    dropout mask if one is given."""
    pre = ag.matmul(h, params["fm_w1"].data) + params["fm_b1"].data
    hidden = np.where(pre > 0, pre, 0.0)
    if mask is not None:
        hidden = hidden * mask
    return ag.matvec(hidden, params["fm_w2"].data) + params["fm_b2"].data, hidden


def _dropout_mask(shape, rate: float, rng, training: bool, dtype):
    """Inverted-dropout mask of the pass's dtype; None in eval mode or at rate 0."""
    if not training or rate == 0.0:
        return None
    return ((rng.random(shape) >= rate) / (1.0 - rate)).astype(dtype, copy=False)


def tanh_slots(n: int, params: ModelParams, training: bool) -> np.ndarray | None:
    """Slots, of the weights' dtype, for the (n, L, D) tanh terms of every
    step but the last, whose terms are formed in the keys: T - 1 for a
    training pass, which keeps them all, and at most one for an eval pass;
    None when attention is disabled."""
    config = params.config
    if not config.attention_enabled:
        return None
    count = config.t - 1 if training else min(1, config.t - 1)
    return np.empty((count, n, config.num_locations, config.d), params.data.dtype)


def forward(x, params: ModelParams, training: bool = False, rng=None, slots=None) -> ForwardTrace:
    """Run the full T-step loop over the (N, L, D) batch x. A training pass
    draws dropout masks from rng and keeps the per-step intermediates that
    backward reads; an eval pass keeps none. The tanh terms go into slots
    from tanh_slots for at least N samples (fresh if none are given), which
    a caller may reuse once it is done with the pass. The pass runs in the
    weights' dtype; its maps alpha and scores m and y are float64 either way."""
    cfg = params.config
    x = _features(x, params)
    if slots is None:
        slots = tanh_slots(len(x), params, training)
    h, c = init_state(x, params)
    keys = attention_keys(x, params)
    alphas, ms, steps = [], [], []
    for t in range(cfg.t):
        out = None
        if keys is not None:  # the last step reads the keys for the last time
            out = keys.reshape(x.shape) if t == cfg.t - 1 else slots[t if training else 0, :len(x)]
        e, th = attention_scores(keys, h, params, out)
        # the maps, like the scores, are float64 in a float32 pass too
        alpha = ag.softmax_vec(e.astype(np.float64, copy=False))
        z = attend(x, alpha.astype(x.dtype, copy=False))
        # the context's mask is drawn before the hidden layer's
        z_mask = _dropout_mask(z.shape, cfg.dropout_z, rng, training, x.dtype)
        h_mask = _dropout_mask((len(z), cfg.fm_hidden), cfg.dropout_rate, rng, training,
                               x.dtype)
        if z_mask is not None:
            z = z * z_mask
        h_next, c_next, gates = lstm_step(z, h, c, params)
        m, hidden = discrete_score(h_next, params, h_mask)
        if training:
            steps.append(_Step(h, c, th, z, z_mask, gates, c_next, h_next, hidden, h_mask))
        h, c = h_next, c_next
        alphas.append(alpha)
        ms.append(m.astype(np.float64, copy=False))
    return ForwardTrace(alpha=alphas, m=ms, y=sum(ms[1:], ms[0]), x=x, steps=steps)


def _coverage_gap(alphas) -> np.ndarray:
    """1 - sum_t alpha_t."""
    return 1.0 - sum(alphas[1:], alphas[0])


def attention_penalty(alphas) -> float:
    """Coverage penalty sum_i (1 - sum_t alpha_t,i)^2, summed over locations
    and over the samples of a batch."""
    s = _coverage_gap(alphas)
    return np.vdot(s, s)


def backward(trace: ForwardTrace, params: ModelParams, dy: np.ndarray,
             penalty_weight: float) -> None:
    """Add into every Param's grad the gradient of a loss whose gradient with
    respect to the pass's scores trace.y is dy, plus penalty_weight times
    attention_penalty(trace.alpha). It consumes the trace: a second call
    finds no steps and raises ValueError before it writes a grad.

    It runs in the pass's dtype, that of trace.x, and adds its products
    into the grads, which a float32 copy of the weights shares with its
    float64 master. Rows of the stacked arrays are t*N + n: step t, sample n.
    """
    steps, trace.steps, p = trace.steps, [], params
    n, d, b, dtype = len(dy), params.config.d, params.config.b, trace.x.dtype
    dys = np.tile(dy.astype(dtype, copy=False), len(steps))  # each step's score adds to y

    # regression head, all steps at once
    hidden = np.concatenate([s.hidden for s in steps])
    p["fm_b2"].grad += dys.sum()
    p["fm_w2"].grad += hidden.T @ dys
    d_pre = np.outer(dys, p["fm_w2"].data)
    if steps[0].h_mask is not None:
        d_pre *= np.concatenate([s.h_mask for s in steps])
    d_pre *= hidden > 0
    p["fm_w1"].grad += np.concatenate([s.h for s in steps]).T @ d_pre
    p["fm_b1"].grad += d_pre.sum(axis=0)
    dh_head = d_pre @ p["fm_w1"].data.T

    # the steps in reverse; d_gates[k] holds gate k's pre-activation grads
    d_gates = np.empty((4, len(dys), b), dtype)
    attention = steps[0].th is not None
    if attention:
        x, att_M, att_U = trace.x, p["att_M"].data, p["att_U"].data
        d_shared, d_M = np.empty((len(dys), d), dtype), np.zeros(att_M.shape, dtype)
        d_keys = steps[-1].th  # processed first; the other steps' key grads add into it
        d_cover = (-2.0 * penalty_weight * _coverage_gap(trace.alpha)).astype(dtype, copy=False)
    dh, dc = np.zeros((n, b), dtype), np.zeros((n, b), dtype)
    for t in reversed(range(len(steps))):
        s, rows = steps[t], slice(t * n, (t + 1) * n)
        i, f, o, g = s.gates
        dh += dh_head[rows]
        tc = np.tanh(s.c)
        dc += dh * o * (1.0 - tc * tc)
        da = d_gates[:, rows]
        da[0] = dc * g * i * (1.0 - i)
        da[1] = dc * s.c_prev * f * (1.0 - f)
        da[2] = dh * tc * o * (1.0 - o)
        da[3] = dc * i * (1.0 - g * g)
        dc = dc * f
        d_zh = sum(da[k] @ p[f"lstm_W{gate}"].data for k, gate in enumerate("ifog"))
        dh = d_zh[:, d:]
        if not attention:
            continue
        dz = d_zh[:, :d] if s.z_mask is None else d_zh[:, :d] * s.z_mask
        d_alpha = np.matmul(x, dz[:, :, None])[:, :, 0] + d_cover
        alpha = trace.alpha[t].astype(dtype, copy=False)
        d_e = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True))
        d_M += np.einsum("nl,nld->ld", d_e, s.th)
        np.multiply(s.th, s.th, out=s.th)  # the tanh terms become the key grads in place
        np.subtract(1.0, s.th, out=s.th)
        np.multiply(s.th, att_M, out=s.th)
        d_shared[rows] = np.matmul(d_e[:, None, :], s.th)[:, 0, :]
        np.multiply(s.th, d_e[:, :, None], out=s.th)
        if s.th is not d_keys:
            d_keys += s.th
        dh = dh + d_shared[rows] @ att_U

    h_prev = np.concatenate([s.h_prev for s in steps])
    if attention:
        p["att_K"].grad += d_keys.reshape(-1, d).T @ x.reshape(-1, d)
        p["att_M"].grad += d_M
        p["att_U"].grad += d_shared.T @ h_prev
        p["att_b"].grad += d_shared.sum(axis=0)
    zh = np.concatenate([np.concatenate([s.z for s in steps]), h_prev], axis=1)
    for k, gate in enumerate("ifog"):
        # one product per gate: a temporary of one gate's weight size
        p[f"lstm_W{gate}"].grad += d_gates[k].T @ zh
        p[f"lstm_b{gate}"].grad += d_gates[k].sum(axis=0)

    # dh and dc now hold the grads of h0 and c0
    xbar = trace.x.mean(axis=1)
    for name, state, d_state in (("h", steps[0].h_prev, dh), ("c", steps[0].c_prev, dc)):
        d_init = d_state * (1.0 - state * state)
        p[f"init_{name}_W"].grad += d_init.T @ xbar
        p[f"init_{name}_b"].grad += d_init.sum(axis=0)


def _param_header(name: str, shape: tuple) -> bytes:
    """What precedes a parameter's f64 values in a checkpoint: u32 name
    length, the UTF-8 name, u32 rank and one u32 per dim."""
    encoded = name.encode("utf-8")
    return struct.pack(f"<I{len(encoded)}sI{len(shape)}I", len(encoded), encoded,
                       len(shape), *shape)


def save_checkpoint(path, params: ModelParams, norm: dict) -> None:
    """Binary checkpoint: magic, u32 version, u32 meta length, JSON meta
    block, then each parameter's _param_header and little-endian f64 values.

    norm is the score normalization {"mean", "half_range"} of a ScoreNorm.
    """
    meta = json.dumps({"config": asdict(params.config), "norm": norm}).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(meta)) + meta)
        for p in params.params():
            f.write(_param_header(p.name, p.data.shape))
            # a byte view: no copy on a little-endian host, one conversion elsewhere
            f.write(memoryview(p.data.astype("<f8", copy=False)).cast("B"))


class CheckpointFormatError(ValueError):
    pass


def read_config(base, block: dict):
    """base, a config dataclass, with the fields of block applied.

    ValueError unless each key of block is a field and its value has the
    field's type (a float field also takes an int, and must be finite, so
    within the float range), and unless the result passes validate().
    """
    hints = typing.get_type_hints(type(base))
    for key, value in block.items():
        if key not in hints:
            raise ValueError(f"unknown field {key!r}")
        if type(value) not in ((int, float) if hints[key] is float else (hints[key],)):
            raise ValueError(f"field {key!r} must be {hints[key].__name__}, got {value!r}")
        if hints[key] is float and not abs(value) <= sys.float_info.max:
            raise ValueError(f"field {key!r} must be finite, got {value!r}")
    config = replace(base, **block)
    config.validate()
    return config


def _checkpoint_meta(path, meta_bytes: bytes):
    """(ModelConfig, norm dict) from the JSON meta block."""
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: meta block is not valid JSON: {exc}") from None
    if not isinstance(meta, dict) or set(meta) != {"config", "norm"}:
        raise CheckpointFormatError(f"{path}: meta block must be an object with keys "
                                    f"config, norm")
    block, norm = meta["config"], meta["norm"]
    if not isinstance(block, dict):
        raise CheckpointFormatError(f"{path}: meta config must be an object")
    missing = {f.name for f in fields(ModelConfig)} - set(block)
    if missing:
        raise CheckpointFormatError(f"{path}: meta config lacks {sorted(missing)}")
    try:
        config = read_config(ModelConfig(), block)
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: meta config: {exc}") from None
    if not (
        isinstance(norm, dict) and set(norm) == {"mean", "half_range"}
        and all(type(v) is float and math.isfinite(v) for v in norm.values())
        and norm["half_range"] > 0
    ):
        raise CheckpointFormatError(f"{path}: meta norm must be a finite mean and "
                                    f"positive half_range, got {norm!r}")
    return config, norm


def load_checkpoint(path):
    """Returns (ModelParams, norm dict); params.data is float32, for inference.

    The file must hold exactly the bytes save_checkpoint writes for its
    stored config: the parameters of that config, in order, each behind its
    _param_header, with finite values, and nothing after the last one. Its
    size is checked against the config before the values are read, each
    through one float64 buffer into params.data; then NonFiniteError names
    the first parameter with a value beyond the float32 range.
    """
    with open(path, "rb", buffering=0) as f, np.errstate(over="ignore"):
        size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"{path}: bad checkpoint magic {head[:4]!r}")
        if len(head) < 12:
            raise CheckpointFormatError(f"{path}: truncated header, {len(head)} of 12 bytes")
        version, meta_len = struct.unpack_from("<II", head, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"{path}: unsupported checkpoint version {version}")
        pos = 12 + meta_len
        if pos > size:
            raise CheckpointFormatError(f"{path}: truncated: file has {size} bytes, its "
                                        f"meta block ends at {pos}")
        config, norm = _checkpoint_meta(path, f.read(meta_len))
        layout = [(name, shape, math.prod(shape), _param_header(name, shape))
                  for name, shape in _param_shapes(config)]
        expected = pos + sum(len(header) + 8 * count for _, _, count, header in layout)
        if size != expected:
            state = "truncated" if size < expected else "trailing bytes after the last parameter"
            raise CheckpointFormatError(f"{path}: {state}: file has {size} bytes, its "
                                        f"config needs {expected}")
        params = ModelParams(config, np.empty(sum(c for _, _, c, _ in layout), np.float32))
        buffer = np.empty(max(c for _, _, c, _ in layout), "<f8")  # little-endian f64
        for name, shape, count, header in layout:
            if f.read(len(header)) != header:
                raise CheckpointFormatError(f"{path}: the header at offset {pos} is not that "
                                            f"of parameter {name} with shape {shape}")
            values = buffer[:count]
            got = f.readinto(values)
            if got != values.nbytes:
                raise CheckpointFormatError(f"{path}: short read, {got} of {values.nbytes} "
                                            f"bytes of parameter {name}")
            if not np.isfinite(values).all():
                raise CheckpointFormatError(f"{path}: parameter {name} has non-finite values")
            params[name].data[...] = values.reshape(shape)  # an overflow gives inf, named below
            pos += len(header) + got
    del buffer, values  # the range check's mask, of one byte per value, takes their place
    return _in_float32_range(params), norm
