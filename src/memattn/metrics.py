"""Rank-correlation and MSE evaluation with tie-aware ranking."""
from __future__ import annotations

import numpy as np

__all__ = ["ConstantInputError", "fractional_ranks", "spearman_rho", "mse"]


class ConstantInputError(ValueError):
    """Rank correlation is undefined when one side has no variation."""


def fractional_ranks(values) -> np.ndarray:
    """Ranks starting at 1; ties get the mean of their occupied positions."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("fractional_ranks: expected a non-empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("fractional_ranks: non-finite input")
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_rho(ground_truth, predictions) -> float:
    """Pearson correlation of fractional ranks.

    Equals the classic 1 - 6*sum(d^2)/(N(N^2-1)) form whenever no ties
    are present.
    """
    gt = np.asarray(ground_truth, dtype=np.float64)
    pred = np.asarray(predictions, dtype=np.float64)
    if gt.shape != pred.shape or gt.ndim != 1:
        raise ValueError(f"spearman_rho: mismatched shapes {gt.shape} vs {pred.shape}")
    ra = fractional_ranks(gt)
    rb = fractional_ranks(pred)
    da = ra - ra.mean()
    db = rb - rb.mean()
    na = np.sqrt(np.sum(da * da))
    nb = np.sqrt(np.sum(db * db))
    if na == 0.0 or nb == 0.0:
        raise ConstantInputError("spearman_rho: undefined for a constant vector")
    return float(np.sum(da * db) / (na * nb))


def mse(ground_truth, predictions) -> float:
    gt = np.asarray(ground_truth, dtype=np.float64)
    pred = np.asarray(predictions, dtype=np.float64)
    if gt.shape != pred.shape or gt.ndim != 1:
        raise ValueError(f"mse: mismatched shapes {gt.shape} vs {pred.shape}")
    if gt.size < 1:
        raise ValueError("mse: empty input")
    diff = pred - gt
    return float(np.mean(diff * diff))
