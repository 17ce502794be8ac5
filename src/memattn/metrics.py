"""Rank-correlation and MSE evaluation with tie-aware ranking."""
from __future__ import annotations

import numpy as np


def fractional_ranks(values) -> np.ndarray:
    """Ranks starting at 1; ties get the mean of their occupied positions."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("fractional_ranks: expected a non-empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("fractional_ranks: non-finite input")
    _, group, counts = np.unique(v, return_inverse=True, return_counts=True)
    # a group of c ties that ends at position S holds S - c + 1 .. S; every
    # rank is an integer or a half, so their mean is exact
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group]


def spearman_rho(ground_truth, predictions) -> float | None:
    """Pearson correlation of fractional ranks, or None when one side is
    constant (a single pair included), which leaves it undefined.

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
        return None
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
