"""Loss assembly, Adam with decoupled weight decay, epochs, early stopping.

Scores are trained in a normalized [-1, 1] space; normalization stats are
frozen from the training split. Early stopping tracks validation rank
correlation and returns the checkpoint from the best epoch.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from . import model as mdl
from .metrics import mse as mse_metric
from .metrics import spearman_rho


class DegenerateDatasetError(ValueError):
    """Raised when score normalization is impossible (constant scores)."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    penalty_weight: float = 1e-4   # attention coverage penalty
    weight_decay: float = 1e-6     # decoupled l2
    batch_size: int = 256
    max_epochs: int = 50
    patience: int = 10
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.penalty_weight < 0 or self.weight_decay < 0:
            raise ValueError("penalty_weight and weight_decay must be >= 0")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs and patience must be >= 1")


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

    def as_dict(self) -> dict:
        return {"mean": self.mean, "half_range": self.half_range}

    @classmethod
    def from_dict(cls, d) -> "ScoreNorm":
        return cls(mean=d["mean"], half_range=d["half_range"])


def loss(x, target_normalized: float, params: mdl.ModelParams, train_cfg: TrainConfig,
         training: bool = False, rng=None):
    """Squared score error plus the weighted attention coverage penalty.

    Weight decay is applied inside the optimizer step, not here.
    """
    if not math.isfinite(target_normalized):
        raise ValueError("loss: non-finite target")
    trace = mdl.forward(x, params, training=training, rng=rng)
    diff = ag.add(trace.y, ag.constant(-float(target_normalized)))
    total = ag.mul(diff, diff)
    if train_cfg.penalty_weight > 0.0:
        penalty = mdl.attention_penalty(trace.alpha)
        total = ag.add(total, ag.scale(penalty, train_cfg.penalty_weight))
    return total, trace


class AdamState:
    def __init__(self, params):
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}
        self.t = 0


def adam_step(params, opt_state: AdamState, cfg: TrainConfig) -> None:
    """Bias-corrected Adam; weight decay decoupled from the adaptive update."""
    opt_state.t += 1
    t = opt_state.t
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for p in params:
        theta = p.data
        if cfg.weight_decay > 0.0:
            theta -= cfg.learning_rate * cfg.weight_decay * theta
        g = p.grad
        m = opt_state.m[p.name]
        v = opt_state.v[p.name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


def train_epoch(train_set, params: mdl.ModelParams, opt_state: AdamState,
                train_cfg: TrainConfig, norm: ScoreNorm, rng) -> float:
    """One shuffled pass in minibatches; grads averaged per batch.

    Returns the mean per-sample loss over the epoch.
    """
    if not train_set:
        raise ValueError("train_epoch: empty training set")
    n = len(train_set)
    order = rng.permutation(n)
    param_list = params.params()
    total_loss = 0.0
    for start in range(0, n, train_cfg.batch_size):
        batch = order[start : start + train_cfg.batch_size]
        ag.zero_grads(param_list)
        for idx in batch:
            record = train_set[int(idx)]
            target = norm.normalize(record.score)
            sample_loss, _ = loss(
                record.features, target, params, train_cfg, training=True, rng=rng
            )
            sample_loss.backward()
            total_loss += sample_loss.item()
        inv = 1.0 / len(batch)
        for p in param_list:
            p.grad *= inv
        adam_step(param_list, opt_state, train_cfg)
    return total_loss / n


def predict(params: mdl.ModelParams, norm: ScoreNorm, features):
    """Eval-mode prediction: (clamped denormalized y, raw trace)."""
    trace = mdl.forward(features, params, training=False)
    y = norm.denormalize(trace.y_value())
    if not math.isfinite(y):
        raise ag.NonFiniteError(f"predict: non-finite score {y}")
    return float(np.clip(y, 0.0, 1.0)), trace


def evaluate(params: mdl.ModelParams, norm: ScoreNorm, records):
    """Validation metrics on denormalized, clamped predictions."""
    truths = []
    preds = []
    for record in records:
        y, _ = predict(params, norm, record.features)
        truths.append(record.score)
        preds.append(y)
    return spearman_rho(truths, preds), mse_metric(truths, preds)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_mse: float
    val_rho: float


@dataclass
class TrainReport:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_rho: float = float("-inf")
    stopped_early: bool = False

    def to_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for e in self.epochs:
                f.write(json.dumps({
                    "epoch": e.epoch,
                    "train_loss": e.train_loss,
                    "val_mse": e.val_mse,
                    "val_rho": e.val_rho,
                }) + "\n")


@dataclass
class FitResult:
    params: mdl.ModelParams
    report: TrainReport
    norm: ScoreNorm


def fit(train_set, val_set, model_cfg: mdl.ModelConfig, train_cfg: TrainConfig,
        eval_fn=None) -> FitResult:
    """Full training loop with early stopping on validation rank correlation.

    eval_fn(params) -> (rho, mse) may be injected for testing; the default
    evaluates the validation set in eval mode.
    """
    if not train_set or not val_set:
        raise ValueError("fit: train and validation sets must be non-empty")
    train_cfg.validate()
    norm = ScoreNorm.from_scores([r.score for r in train_set])
    params = mdl.init_params(model_cfg)
    opt_state = AdamState(params.params())
    rng = np.random.default_rng(train_cfg.seed)
    if eval_fn is None:
        eval_fn = lambda p: evaluate(p, norm, val_set)

    report = TrainReport()
    best_values = params.snapshot()
    bad_epochs = 0
    for epoch in range(1, train_cfg.max_epochs + 1):
        train_loss = train_epoch(train_set, params, opt_state, train_cfg, norm, rng)
        val_rho, val_mse = eval_fn(params)
        report.epochs.append(EpochRecord(epoch, train_loss, val_mse, val_rho))
        if val_rho > report.best_rho:
            report.best_rho = val_rho
            report.best_epoch = epoch
            best_values = params.snapshot()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= train_cfg.patience:
                report.stopped_early = True
                break
    params.load_snapshot(best_values)
    return FitResult(params=params, report=report, norm=norm)
