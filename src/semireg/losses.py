"""Loss kernels for co-trained heteroscedastic regression.

Every kernel returns its value together with exact gradients with respect to
the model outputs it consumes, so callers can backpropagate without any
autograd machinery. Reductions are arithmetic means over the last (batch)
axis, so (2, rows) inputs of a stacked pair give one loss per member; losses
that apply to both co-trained models are summed over the pair by the caller,
member 0 first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, ShapeError


def _check_pair(a: np.ndarray, b: np.ndarray, name_a: str, name_b: str):
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ShapeError(f"{name_a} and {name_b} must be 1-D vectors or 2-D stacks of them")
    if a.shape != b.shape:
        raise ShapeError(f"{name_a} has shape {a.shape}, {name_b} has shape {b.shape}")
    if a.size == 0:
        raise ShapeError(f"{name_a} must be non-empty")


def _value(loss: np.ndarray) -> float | np.ndarray:
    # a float for one model, an array of per-member losses for a stack
    return float(loss) if loss.ndim == 0 else loss


def hetero_loss(
    y_hat: np.ndarray, log_var: np.ndarray, y_target: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian heteroscedastic regression loss of one model, or of each stacked member.

    loss = mean_i [ (y_hat_i - y_i)^2 / (2 exp(log_var_i)) + log_var_i / 2 ]

    Residuals are down-weighted where predicted variance is large, at the
    price of the log-variance penalty. Returns (loss, d_y_hat, d_log_var);
    when log_var is a detached target, the caller simply discards d_log_var.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    log_var = np.asarray(log_var, dtype=np.float64)
    y_target = np.asarray(y_target, dtype=np.float64)
    _check_pair(y_hat, y_target, "y_hat", "y_target")
    _check_pair(y_hat, log_var, "y_hat", "log_var")
    for arr, name in ((y_hat, "y_hat"), (log_var, "log_var"), (y_target, "y_target")):
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"{name} contains non-finite values")

    n = y_hat.shape[-1]
    residual = y_hat - y_target
    inv_var = np.exp(-log_var)
    loss = np.add.reduce(0.5 * residual * residual * inv_var + 0.5 * log_var, axis=-1) / n
    d_y_hat = residual * inv_var / n
    d_log_var = (0.5 - 0.5 * residual * residual * inv_var) / n
    return _value(loss), d_y_hat, d_log_var


def consistency_loss_labeled(
    log_var_a: np.ndarray, log_var_b: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Squared distance between the two models' log-uncertainty outputs.

    Both inputs are live model outputs; gradients are symmetric.
    """
    log_var_a = np.asarray(log_var_a, dtype=np.float64)
    log_var_b = np.asarray(log_var_b, dtype=np.float64)
    _check_pair(log_var_a, log_var_b, "log_var_a", "log_var_b")
    n = log_var_a.shape[-1]
    diff = log_var_a - log_var_b
    loss = np.add.reduce(diff * diff, axis=-1) / n
    d_a = 2.0 * diff / n
    return _value(loss), d_a, -d_a


def consistency_loss_unlabeled(
    log_var: np.ndarray, log_var_target: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """Squared distance of one model's log-uncertainty to a fixed target.

    The target is gradient-isolated by construction: only the gradient with
    respect to the live prediction is returned.
    """
    log_var = np.asarray(log_var, dtype=np.float64)
    log_var_target = np.asarray(log_var_target, dtype=np.float64)
    _check_pair(log_var, log_var_target, "log_var", "log_var_target")
    n = log_var.shape[-1]
    diff = log_var - log_var_target
    loss = np.add.reduce(diff * diff, axis=-1) / n
    return _value(loss), 2.0 * diff / n


@dataclass(frozen=True, slots=True)  # a run keeps one per step
class LossBreakdown:
    """Per-step loss components and the weighted total.

    total is always labeled_reg + labeled_unc
    + unlabeled_weight * (unlabeled_reg + unlabeled_unc), exactly as computed.
    Components not part of the active objective are reported as 0.0.
    """

    labeled_reg: float
    labeled_unc: float
    unlabeled_reg: float
    unlabeled_unc: float
    unlabeled_weight: float
    total: float = field(init=False)

    def __post_init__(self):
        names = ("labeled_reg", "labeled_unc", "unlabeled_reg", "unlabeled_unc", "unlabeled_weight")
        for name in names:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise NonFiniteError(f"loss component {name} is non-finite ({value})")
        unlabeled = self.unlabeled_weight * (self.unlabeled_reg + self.unlabeled_unc)
        object.__setattr__(self, "total", self.labeled_reg + self.labeled_unc + unlabeled)
