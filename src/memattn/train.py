"""Loss assembly, Adam with decoupled weight decay, epochs, early stopping.

Scores are trained in a normalized [-1, 1] space; normalization stats are
frozen from the training split. Early stopping tracks validation rank
correlation; each improvement goes to a callback that keeps it. Training,
evaluation and prediction all run the batched forward pass of model.py in
float32 (mixed precision, Micikevicius et al. 2018, arXiv:1710.03740):
training casts its float64 master weights, whose grads, loss values and
Adam's moments stay float64, and inference loads float32 weights.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from . import model as mdl
from .data import atomic_open, read_features
from .metrics import spearman_rho
from .metrics import mse as mse_metric

# A batched pass has BUDGET // (L*D) samples, at least 1 and at most
# MAX_PASS. Memory grows with N*L*D, not with the split: train_epoch and
# evaluate read each pass's files into one float32 (N, L, D) batch array
# and reuse one set of tanh slots.
# A train pass holds T + 1 such arrays (the batch, T - 1 slots and the keys,
# which take the last step's tanh terms), an eval pass 3. BUDGET gives 4
# samples at 14x14x256, where larger weight products pay; MAX_PASS caps the
# 7x7x32 ablation shape at 32, as larger passes there run no faster and hold
# more.
BUDGET = 4 * 14 * 14 * 256
MAX_PASS = 32
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# adam_step runs over slices of this many values, so that a slice's weights,
# grads, two moments and two temporaries (1.5 MB of float64) stay in a 2 MB
# per-core L2 cache: at 14x14x256 a step took 6.8 ms, against 8.0 ms with
# slices of 1 << 17 and more again with one pass over all 7 MB of weights
ADAM_SLICE = 1 << 15


class DegenerateDatasetError(ValueError):
    """Raised when score normalization is impossible (constant scores)."""


class NoValidEpochError(ValueError):
    """No training epoch ended with a defined validation rho."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    penalty_weight: float = 1e-4   # attention coverage penalty
    weight_decay: float = 1e-6     # decoupled l2
    batch_size: int = 256
    max_epochs: int = 50
    patience: int = 10
    seed: int = 0

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.penalty_weight < 0 or self.weight_decay < 0:
            raise ValueError("penalty_weight and weight_decay must be >= 0")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs and patience must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")


@dataclass(frozen=True)
class ScoreNorm:
    mean: float
    half_range: float

    @classmethod
    def from_scores(cls, scores) -> "ScoreNorm":
        scores = np.asarray(list(scores), dtype=np.float64)
        mean = float(scores.mean())
        half_range = float(np.max(np.abs(scores - mean)))
        if half_range < 1e-12 * max(1.0, abs(mean)):
            raise DegenerateDatasetError("all training scores identical")
        return cls(mean=mean, half_range=half_range)

    def normalize(self, s: float) -> float:
        return (s - self.mean) / self.half_range

    def denormalize(self, v: float) -> float:
        return v * self.half_range + self.mean

    @classmethod
    def from_dict(cls, d) -> "ScoreNorm":
        return cls(mean=d["mean"], half_range=d["half_range"])


def loss(x, targets, params: mdl.ModelParams, train_cfg: TrainConfig, rng=None,
         slots=None):
    """The loss of one training pass, whose dropout masks come from rng and
    whose tanh terms go into slots: the summed squared score error of the
    (N, L, D) batch x against its (N,) normalized targets plus the weighted
    attention coverage penalty, as a scalar Tensor whose backward adds its
    gradient into the Params. Weight decay is applied in the optimizer step.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if not np.isfinite(targets).all():
        raise ValueError("loss: non-finite target")
    trace = mdl.forward(x, params, training=True, rng=rng, slots=slots)
    if targets.shape != trace.y.shape:
        raise ag.DimensionError(f"loss: targets shape {targets.shape}, "
                                f"scores shape {trace.y.shape}")
    diff = trace.y - targets
    total = np.vdot(diff, diff)
    weight = train_cfg.penalty_weight
    if weight > 0.0:
        total = total + mdl.attention_penalty(trace.alpha) * weight
    return ag.Tensor(total, lambda: mdl.backward(trace, params, 2.0 * diff, weight))


class AdamState:
    """Adam's moment vectors, laid out as the ModelParams' data vector."""

    def __init__(self, params: mdl.ModelParams):
        self.m = np.zeros_like(params.data)
        self.v = np.zeros_like(params.data)
        self.t = 0


def adam_step(params: mdl.ModelParams, opt_state: AdamState, cfg: TrainConfig) -> None:
    """Bias-corrected Adam; weight decay decoupled from the adaptive update.
    The update is formed in place over ADAM_SLICE values at a time, in two
    temporaries of that size."""
    opt_state.t += 1
    t = opt_state.t
    b1, b2, lr = ADAM_BETA1, ADAM_BETA2, cfg.learning_rate
    num_buf = np.empty(min(params.data.size, ADAM_SLICE))
    den_buf = np.empty_like(num_buf)
    for start in range(0, params.data.size, ADAM_SLICE):
        part = slice(start, start + ADAM_SLICE)
        theta, g = params.data[part], params.grad[part]
        m, v = opt_state.m[part], opt_state.v[part]
        num, den = num_buf[:len(theta)], den_buf[:len(theta)]
        if cfg.weight_decay > 0.0:
            theta -= np.multiply(theta, lr * cfg.weight_decay, out=num)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=num)
        v *= b2
        v += np.multiply(np.multiply(g, 1.0 - b2, out=den), g, out=den)
        # (lr * m_hat) / (sqrt(v_hat) + eps), in that order
        np.multiply(np.divide(m, 1.0 - b1 ** t, out=num), lr, out=num)
        np.sqrt(np.divide(v, 1.0 - b2 ** t, out=den), out=den)
        den += ADAM_EPS
        theta -= np.divide(num, den, out=num)


def _sub_batch(config: mdl.ModelConfig) -> int:
    """Samples per batched pass: BUDGET feature values, at least 1, at most
    MAX_PASS. A shorter batch or record list runs as one pass."""
    return max(1, min(MAX_PASS, BUDGET // (config.num_locations * config.d)))


def _backward_pass(records, batch, slots, params: mdl.ModelParams,
                   train_cfg: TrainConfig, norm: ScoreNorm, rng) -> float:
    """Read the sub-batch's files into batch, add the grads of its summed
    loss into the Params and return that loss. Its backward consumes the
    pass, so batch and slots are free again on return."""
    x = read_features(records, batch)
    targets = [norm.normalize(r.score) for r in records]
    total = loss(x, targets, params, train_cfg, rng=rng, slots=slots)
    value = total.item()
    if not math.isfinite(value):
        raise ag.NonFiniteError(f"train_epoch: non-finite loss {value}")
    total.backward()
    return value


def train_epoch(train_set, params: mdl.ModelParams, opt_state: AdamState,
                train_cfg: TrainConfig, norm: ScoreNorm, rng) -> float:
    """One shuffled pass in minibatches; grads averaged per batch.

    Each minibatch casts params.float32() once and runs as sub-batches of
    _sub_batch samples, one float32 pass and one backward each from that
    cast, all in one batch array and one set of slots; the backwards add
    into the float64 params.grad, from which adam_step updates the float64
    weights.
    Returns the mean per-sample loss over the epoch. A non-finite sub-batch
    loss, or a weight beyond the float32 range, raises NonFiniteError.
    """
    if not train_set:
        raise ValueError("train_epoch: empty training set")
    n = len(train_set)
    order = rng.permutation(n)
    cfg = params.config
    step = _sub_batch(cfg)
    batch_x = np.empty((step, cfg.num_locations, cfg.d), np.float32)
    slots, total_loss = None, 0.0
    for start in range(0, n, train_cfg.batch_size):
        batch = order[start : start + train_cfg.batch_size]
        twin = params.float32()  # cast once per minibatch
        if slots is None:
            slots = mdl.tanh_slots(step, twin, training=True)
        params.grad[...] = 0.0
        for sub in range(0, len(batch), step):
            records = [train_set[int(i)] for i in batch[sub : sub + step]]
            total_loss += _backward_pass(records, batch_x, slots, twin, train_cfg, norm, rng)
        params.grad *= 1.0 / len(batch)
        adam_step(params, opt_state, train_cfg)
    return total_loss / n


def _scores(params: mdl.ModelParams, norm: ScoreNorm, x, slots=None):
    """Eval-mode pass over the (N, L, D) batch x in the dtype of params:
    (clamped denormalized scores, raw trace without steps, so no backward).
    As in fit, overflows are left to the finiteness checks, so numpy prints
    no warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        trace = mdl.forward(x, params, slots=slots)
        y = norm.denormalize(trace.y)
    bad = ~np.isfinite(y)
    if bad.any():
        raise ag.NonFiniteError(f"predict: non-finite score {y[bad][0]}")
    return np.clip(y, 0.0, 1.0), trace


def predict(params: mdl.ModelParams, norm: ScoreNorm, features):
    """Eval-mode prediction for one (L, D) grid, run in float32 from
    params.float32(): (clamped denormalized y, raw trace)."""
    y, trace = _scores(params.float32(), norm, np.asarray(features)[None])
    return float(y[0]), trace


def evaluate(params: mdl.ModelParams, norm: ScoreNorm, records):
    """(rho, mse) of the denormalized, clamped predictions, from float32
    eval passes of _sub_batch samples in one batch array, run from
    params.float32(); rho is None when the predictions or the scores are
    constant, which leaves it undefined."""
    cfg, twin = params.config, params.float32()
    step = _sub_batch(cfg)
    batch = np.empty((step, cfg.num_locations, cfg.d), np.float32)
    slots = mdl.tanh_slots(step, twin, training=False)
    preds = np.concatenate([
        _scores(twin, norm, read_features(records[i : i + step], batch), slots)[0]
        for i in range(0, len(records), step)
    ])
    truths = [r.score for r in records]
    return spearman_rho(truths, preds), mse_metric(truths, preds)


@dataclass
class FitResult:
    epochs: list[dict] = field(default_factory=list)  # the report.jsonl records
    best_epoch: int = 0
    best_rho: float = float("-inf")
    stop_reason: str = "max_epochs"

    def to_jsonl(self, path) -> None:
        with atomic_open(path) as f:
            for e in self.epochs:
                f.write(json.dumps(e) + "\n")


def fit(train_set, val_set, norm: ScoreNorm, model_cfg: mdl.ModelConfig,
        train_cfg: TrainConfig, on_best) -> FitResult:
    """Full training loop with early stopping on validation rank correlation.

    Each epoch trains on scores normalized with norm and evaluates the
    validation set in eval mode; an epoch whose rho is None (undefined) is
    no improvement. Each improvement calls on_best(params, result) once its
    record is appended; the params move on with the next epoch, so on_best
    copies or saves them, as fit keeps no copy and does no I/O. A non-finite
    loss or prediction, or KeyboardInterrupt, ends the run; stop_reason says
    what ended it. NoValidEpochError if no epoch had a rho.
    Overflows are left to those checks, so numpy prints no warnings.
    """
    if not train_set or not val_set:
        raise ValueError("fit: train and validation sets must be non-empty")
    train_cfg.validate()
    params = mdl.init_params(model_cfg)
    opt_state = AdamState(params)
    rng = np.random.default_rng(train_cfg.seed)

    result = FitResult()
    bad_epochs = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, train_cfg.max_epochs + 1):
            try:
                train_loss = train_epoch(train_set, params, opt_state, train_cfg, norm, rng)
                val_rho, val_mse = evaluate(params, norm, val_set)
            except ag.NonFiniteError as exc:
                result.stop_reason = f"epoch {epoch}: {exc}"
                break
            except KeyboardInterrupt:
                result.stop_reason = f"epoch {epoch}: interrupted"
                break
            result.epochs.append({"epoch": epoch, "train_loss": train_loss,
                                  "val_mse": val_mse, "val_rho": val_rho})
            if val_rho is not None and val_rho > result.best_rho:
                result.best_rho = val_rho
                result.best_epoch = epoch
                on_best(params, result)
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= train_cfg.patience:
                    result.stop_reason = "patience"
                    break
    if result.best_epoch == 0:
        raise NoValidEpochError(
            f"fit: no epoch had a defined validation rho (stopped: {result.stop_reason})")
    return result
