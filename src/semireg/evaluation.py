"""Test metrics and uncertainty-quality diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, UndefinedMetricError


def _as_pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ShapeError(f"vectors must match, got shapes {pred.shape} and {truth.shape}")
    if pred.size == 0:
        raise ShapeError("vectors must be non-empty")
    return pred, truth


def mae(pred, truth) -> float:
    pred, truth = _as_pair(pred, truth)
    return float(np.mean(np.abs(pred - truth)))


def r_squared(pred, truth) -> float:
    """1 - SSres/SStot; undefined (and rejected) for constant truth."""
    pred, truth = _as_pair(pred, truth)
    if pred.size < 2:
        raise ShapeError("r_squared needs at least 2 samples")
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    if ss_tot == 0.0:
        raise UndefinedMetricError("r_squared is undefined for constant truth")
    ss_res = float(np.sum((truth - pred) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class BinReport:
    """Equal-size bins of samples sorted by predicted uncertainty.

    mean_uncertainty is the per-bin mean of exp(log_var); pseudo_label_mse
    the per-bin MSE of the pseudo-labels against the ground truth.
    """

    n_bins: int
    mean_uncertainty: np.ndarray
    pseudo_label_mse: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        for arr in (self.mean_uncertainty, self.pseudo_label_mse, self.counts):
            arr.setflags(write=False)


def uncertainty_binning(log_var_pred, y_pseudo, y_truth, n_bins: int) -> BinReport:
    """Sort by predicted log-uncertainty and split into contiguous equal bins.

    Ties sort stably by original index. When the sample count is not a
    multiple of n_bins, the earliest bins take one extra sample each, so
    counts differ by at most 1.
    """
    log_var_pred = np.asarray(log_var_pred, dtype=np.float64)
    y_pseudo, y_truth = _as_pair(y_pseudo, y_truth)
    if log_var_pred.shape != y_pseudo.shape:
        raise ShapeError("log_var_pred must match the label vectors")
    n = log_var_pred.size
    if n_bins < 1 or n_bins > n:
        raise ParameterError(f"n_bins must be in [1, {n}], got {n_bins}")

    order = np.argsort(log_var_pred, kind="stable")
    uncertainty = np.array_split(np.exp(log_var_pred[order]), n_bins)
    sq_err = np.array_split((y_pseudo[order] - y_truth[order]) ** 2, n_bins)
    return BinReport(
        n_bins=n_bins,
        mean_uncertainty=np.array([b.mean() for b in uncertainty]),
        pseudo_label_mse=np.array([b.mean() for b in sq_err]),
        counts=np.array([b.size for b in uncertainty], dtype=np.int64),
    )


def _ranks(values: np.ndarray) -> np.ndarray:
    # average ranks for ties, 1-based
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    first = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])  # tie-run starts
    last = np.r_[first[1:], values.size] - 1
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def spearman_rank_corr(a, b) -> float:
    """Spearman rho with average-rank tie handling."""
    a, b = _as_pair(a, b)
    if a.size < 3:
        raise ShapeError("spearman_rank_corr needs at least 3 samples")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise UndefinedMetricError("spearman correlation is undefined for constant input")
    ra, rb = _ranks(a), _ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(np.sum(ra * rb) / np.sqrt(np.sum(ra * ra) * np.sum(rb * rb)))
