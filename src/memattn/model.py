"""Attention-recurrent memorability head.

A forward pass takes a batch of N feature grids, (N, L, D), and builds
one graph for all of them. It initializes the LSTM state from each
sample's mean feature vector, then runs T steps of soft attention over
the L spatial locations; each step regresses one partial score from the
hidden state and the total score is their sum. Every step works on
(N, k) arrays, and every contraction is one 2-D matrix product over the
batch. The location term K x_i of the attention logits does not depend
on the step, so the keys are computed once per pass as one (N*L, D) x K^T
product and each step only adds U h_{t-1} + b. Attention can be
disabled, which makes every step see the plain location mean.
"""
from __future__ import annotations

import json
import math
import struct
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autograd as ag
from .autograd import DimensionError, Param, Tensor
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

    params holds exactly the names and shapes of _param_shapes(config), in
    that order: init_params builds them so and load_checkpoint checks them.
    """

    def __init__(self, config: ModelConfig, params: dict[str, Param]):
        self.config = config
        self._params = params

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def params(self) -> list[Param]:
        return list(self._params.values())

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_snapshot(self, values: dict[str, np.ndarray]) -> None:
        for name, p in self._params.items():
            p.data[...] = values[name]


def init_params(config: ModelConfig) -> ModelParams:
    """Uniform Glorot weights, zero biases; deterministic given the seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    params = {}
    for name, shape in _param_shapes(config):
        if len(shape) == 2:
            fan_in, fan_out = shape[1], shape[0]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            values = rng.uniform(-limit, limit, size=shape)
        elif name == "fm_w2":
            limit = np.sqrt(6.0 / (shape[0] + 1))
            values = rng.uniform(-limit, limit, size=shape)
        else:
            values = np.zeros(shape)
        params[name] = Param(name, values)
    return ModelParams(config, params)


@dataclass
class ForwardTrace:
    """Per-step intermediates of one pass, kept as graph nodes so losses can
    reuse them: alpha holds (N, L) maps, m and y hold (N,) scores."""

    alpha: list[Tensor]
    m: list[Tensor]
    y: Tensor

    def m_values(self) -> list[float]:
        """The per-step scores of a one-sample pass."""
        return [m.item() for m in self.m]

    def y_value(self) -> float:
        """The total score of a one-sample pass."""
        return self.y.item()


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else ag.constant(x)


def _features(x, cfg: ModelConfig) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (cfg.num_locations, cfg.d):
        raise DimensionError(
            f"features shape {x.shape}, expected (N, {cfg.num_locations}, {cfg.d})"
        )
    return x


def init_state(x, params: ModelParams):
    """(h0, c0), each (N, B), from the mean location vector of each sample."""
    xbar = ag.constant(_features(x, params.config).mean(axis=1))
    h0 = ag.tanh(ag.linear(xbar, params["init_h_W"], params["init_h_b"]))
    c0 = ag.tanh(ag.linear(xbar, params["init_c_W"], params["init_c_b"]))
    return h0, c0


def attention_keys(x, params: ModelParams) -> Tensor | None:
    """(N*L, D) keys whose row n*L + i is K x_{n,i}; None when attention is disabled."""
    if not params.config.attention_enabled:
        return None
    x = _features(x, params.config)
    flat = ag.constant(x.reshape(-1, x.shape[2]))
    return ag.linear(flat, params["att_K"])


def attention_scores(keys: Tensor | None, h_prev: Tensor, params: ModelParams) -> Tensor:
    """(N, L) logits from attention_keys; all ones when attention is disabled."""
    if keys is None:
        return ag.constant(np.ones((h_prev.shape[0], params.config.num_locations)))
    # U h_prev + b is shared by all locations of a sample
    shared = ag.linear(h_prev, params["att_U"], params["att_b"])
    return ag.tanh_logits(keys, shared, params["att_M"])


def attend(x, alpha: Tensor) -> Tensor:
    """(N, D) attention-weighted sums of each sample's location vectors."""
    return ag.batch_vecmat(alpha, _as_tensor(x))


def lstm_step(z: Tensor, h_prev: Tensor, c_prev: Tensor, params: ModelParams):
    """Standard forget-gate LSTM without peepholes, on (N, k) batches."""
    zh = ag.concat(z, h_prev)
    i = ag.sigmoid(ag.linear(zh, params["lstm_Wi"], params["lstm_bi"]))
    f = ag.sigmoid(ag.linear(zh, params["lstm_Wf"], params["lstm_bf"]))
    o = ag.sigmoid(ag.linear(zh, params["lstm_Wo"], params["lstm_bo"]))
    g = ag.tanh(ag.linear(zh, params["lstm_Wg"], params["lstm_bg"]))
    c = ag.add(ag.mul(f, c_prev), ag.mul(i, g))
    h = ag.mul(o, ag.tanh(c))
    return h, c


def discrete_score(h: Tensor, params: ModelParams, training: bool = False, rng=None) -> Tensor:
    """Two-layer regression head with a single linear output neuron: (N, B) -> (N,)."""
    cfg = params.config
    hidden = ag.relu(ag.add(ag.matmul(h, params["fm_w1"]), params["fm_b1"]))
    hidden = ag.dropout(hidden, cfg.dropout_rate, rng, training)
    return ag.add(ag.matvec(hidden, params["fm_w2"]), params["fm_b2"])


def forward(x, params: ModelParams, training: bool = False, rng=None) -> ForwardTrace:
    """Run the full T-step loop over the (N, L, D) batch x and collect the trace."""
    cfg = params.config
    x = _features(x, cfg)
    h, c = init_state(x, params)
    keys = attention_keys(x, params)
    x = ag.constant(x)
    alphas, ms = [], []
    y = None
    for _ in range(cfg.t):
        e = attention_scores(keys, h, params)
        alpha = ag.softmax_vec(e)
        z = attend(x, alpha)
        z = ag.dropout(z, cfg.dropout_z, rng, training)
        h, c = lstm_step(z, h, c, params)
        m = discrete_score(h, params, training=training, rng=rng)
        alphas.append(alpha)
        ms.append(m)
        y = m if y is None else ag.add(y, m)
    return ForwardTrace(alpha=alphas, m=ms, y=y)


def attention_penalty(alphas: list[Tensor]) -> Tensor:
    """Coverage penalty sum_i (1 - sum_t alpha_t,i)^2, summed over locations
    and over the samples of a batch."""
    acc = alphas[0]
    for a in alphas[1:]:
        acc = ag.add(acc, a)
    s = ag.add(ag.constant(np.ones(acc.shape)), ag.scale(acc, -1.0))
    return ag.dot(s, s)


def save_checkpoint(path, params: ModelParams, norm: dict) -> None:
    """Binary checkpoint: magic, version, JSON meta block, named f64 params.

    norm is the score normalization {"mean", "half_range"} of ScoreNorm.as_dict.
    """
    meta = {"config": asdict(params.config), "norm": norm}
    meta_bytes = json.dumps(meta).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(meta_bytes)))
        f.write(meta_bytes)
        for p in params.params():
            name = p.name.encode("utf-8")
            f.write(struct.pack("<I", len(name)))
            f.write(name)
            shape = p.shape
            f.write(struct.pack("<I", len(shape)))
            for dim in shape:
                f.write(struct.pack("<I", dim))
            f.write(p.data.astype("<f8").tobytes())


class CheckpointFormatError(ValueError):
    pass


def check_config_fields(cls, block: dict) -> None:
    """ValueError unless each key of block is a field of the dataclass cls
    and its value has the field's type; a float field also takes an int."""
    hints = typing.get_type_hints(cls)
    for key, value in block.items():
        if key not in hints:
            raise ValueError(f"unknown field {key!r}")
        if type(value) not in ((int, float) if hints[key] is float else (hints[key],)):
            raise ValueError(f"field {key!r} must be {hints[key].__name__}, got {value!r}")


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
        check_config_fields(ModelConfig, block)
        config = ModelConfig(**block)
        config.validate()
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
    """Returns (ModelParams, norm dict).

    The parameters must be exactly those of the stored config, in order,
    with finite values, and end the file.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad checkpoint magic {blob[:4]!r}")
    pos = 4

    def take(n, what):
        """Start offset of the next n bytes, which must exist."""
        nonlocal pos
        if n > len(blob) - pos:
            raise CheckpointFormatError(
                f"{path}: truncated in {what}: needs {n} bytes at offset {pos}, "
                f"file has {len(blob)}")
        pos += n
        return pos - n

    def u32(what):
        return struct.unpack_from("<I", blob, take(4, what))[0]

    version = u32("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported checkpoint version {version}")
    meta_len = u32("meta length")
    start = take(meta_len, "meta block")
    config, norm = _checkpoint_meta(path, blob[start:pos])
    params = {}
    for name, shape in _param_shapes(config):
        name_len = u32(f"{name} name length")
        start = take(name_len, f"{name} name")
        if blob[start:pos] != name.encode("utf-8"):
            raise CheckpointFormatError(
                f"{path}: parameter {blob[start:pos]!r} where config needs {name!r}")
        rank = u32(f"{name} rank")
        stored = struct.unpack_from(f"<{rank}I", blob, take(4 * rank, f"{name} shape"))
        if stored != shape:
            raise CheckpointFormatError(
                f"{path}: parameter {name} has shape {stored}, config needs {shape}")
        count = math.prod(shape)
        values = np.frombuffer(blob, dtype="<f8", count=count, offset=take(8 * count, name))
        if not np.isfinite(values).all():
            raise CheckpointFormatError(f"{path}: parameter {name} has non-finite values")
        params[name] = Param(name, values.reshape(shape).copy())
    if pos != len(blob):
        raise CheckpointFormatError(
            f"{path}: {len(blob) - pos} trailing bytes after the last parameter")
    return ModelParams(config, params), norm
