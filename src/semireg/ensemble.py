"""Ensembled pseudo-labels from stochastic forward passes of both models.

A pseudo-label for a batch is the average, over a fixed number of dropout
draws, of the two co-trained models' predictions: for each draw t the two
models run one stochastic forward each, the pair is averaged, and the draws
are averaged in turn. Target values and log-uncertainties are averaged the
same way (log-uncertainty is averaged in log space). The result is a plain
constant with no gradient path back to either model. Averaging keeps the
predictor's bias unchanged while shrinking its variance, which is also why
the same kernel serves as the test-time inference rule.

The draws run in chunks. A chunk's masks come from one sample_dropout_mask
call, one row of words per draw laid out as (model a, model b; layer), which
are the same stream words in the same order as one draw at a time. Each model
then runs one forward with its masks stacked on a leading draw axis, so the
draw-independent first layer is computed once and one trace is built per
chunk, not per draw. The chunk size caps the mask block at _CHUNK_WORDS
words, which keeps the temporaries of large inputs small.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .data import RegressionDataset
from .errors import ParameterError, UsageError
from .mlp import MlpModel, forward
from .rng import Rng, sample_dropout_mask

# Most mask words one chunk of draws may hold (2**15 words = 256 KiB).
_CHUNK_WORDS = 2**15


@dataclass(frozen=True)
class PseudoLabels:
    """Gradient-isolated ensembled targets for one batch."""

    y: np.ndarray
    log_var: np.ndarray
    draws: int

    def __post_init__(self):
        if self.y.shape != self.log_var.shape:
            raise ParameterError("y and log_var must have equal length")
        self.y.setflags(write=False)
        self.log_var.setflags(write=False)


def generate_pseudo_labels(
    model_a: MlpModel,
    model_b: MlpModel,
    x: np.ndarray,
    draws: int,
    rng: Rng,
) -> PseudoLabels:
    """Average of `draws` stochastic forward passes per model.

    Dropout masks are sampled independently for every (draw, model) pair from
    the given stream, consumed in (draw, model a, model b) order so the
    reduction order is fixed and reproducible. Both models must share
    dropout_p, since one call samples the masks of both.
    """
    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")
    p = model_a.config.dropout_p
    if model_b.config.dropout_p != p:
        raise ParameterError("both models must share dropout_p")
    rows = x.shape[0]
    widths = (*model_a.config.hidden_dims, *model_b.config.hidden_dims)
    n_a = len(model_a.config.hidden_dims)
    bounds = list(accumulate((rows * w for w in widths), initial=0))
    words_per_draw = bounds[-1]
    chunk = max(1, _CHUNK_WORDS // max(1, words_per_draw))
    y_sum = np.zeros(rows)
    lv_sum = np.zeros(rows)
    for start in range(0, draws, chunk):
        k = min(chunk, draws - start)
        block = sample_dropout_mask(rng, k, words_per_draw, p)
        masks = [
            block[:, lo:hi].reshape(k, rows, w) for lo, hi, w in zip(bounds, bounds[1:], widths)
        ]
        y_a, lv_a, _ = forward(model_a, x, masks=masks[:n_a])
        y_b, lv_b, _ = forward(model_b, x, masks=masks[n_a:])
        # a model without hidden layers has no masks and returns (rows,)
        y_a, lv_a, y_b, lv_b = (np.broadcast_to(v, (k, rows)) for v in (y_a, lv_a, y_b, lv_b))
        for t in range(k):
            y_sum += 0.5 * (y_a[t] + y_b[t])
            lv_sum += 0.5 * (lv_a[t] + lv_b[t])
    return PseudoLabels(y=y_sum / draws, log_var=lv_sum / draws, draws=draws)


def predict(
    model_a: MlpModel,
    model_b: MlpModel,
    x: np.ndarray,
    draws: int,
    rng: Rng,
) -> tuple[np.ndarray, np.ndarray]:
    """Test-time inference: the ensembled prediction and its log-uncertainty.

    Identical computation to generate_pseudo_labels, exposed as the
    inference API.
    """
    labels = generate_pseudo_labels(model_a, model_b, x, draws, rng)
    return labels.y, labels.log_var


@dataclass(frozen=True)
class VarianceReport:
    """Monte-Carlo comparison of single-draw vs ensembled prediction error.

    mse_* is the expected squared error of the predictor, bias_* the squared
    distance of its mean prediction from the truth, var_* its predictive
    variance, each averaged over samples. bias_gap is the mean difference
    between the two predictors' average predictions (zero in expectation);
    *_se fields are Monte-Carlo standard errors for the comparisons.
    """

    t_draws: int
    reruns: int
    mse_single: float
    mse_ensemble: float
    bias_single: float
    bias_ensemble: float
    var_single: float
    var_ensemble: float
    mse_single_se: float
    mse_ensemble_se: float
    mse_gap_se: float
    bias_gap: float
    bias_gap_se: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def variance_reduction_check(
    model_a: MlpModel,
    model_b: MlpModel,
    dataset: RegressionDataset,
    draws: int,
    reruns: int,
    rng: Rng,
) -> VarianceReport:
    """Estimate expected MSE, bias and variance for single-draw vs ensembled predictors.

    Each rerun draws one single-pass prediction and one `draws`-pass ensemble
    on the same inputs with fresh dropout masks. Reruns are the independent
    unit for all standard errors (samples within a forward share masks, so
    per-sample spread would understate the error).
    """
    if dataset.targets is None:
        raise UsageError("variance check needs ground-truth targets")
    if reruns < 30:
        raise ParameterError(f"reruns must be >= 30, got {reruns}")
    features = dataset.features
    targets = np.asarray(dataset.targets, dtype=np.float64)

    n = features.shape[0]
    single = np.empty((reruns, n))
    ensemble = np.empty((reruns, n))
    for r in range(reruns):
        single[r], _ = predict(model_a, model_b, features, 1, rng)
        ensemble[r], _ = predict(model_a, model_b, features, draws, rng)

    def _stats(preds: np.ndarray):
        sq_err = (preds - targets) ** 2
        per_rerun_mse = sq_err.mean(axis=1)
        mean_pred = preds.mean(axis=0)
        bias = float(np.mean((mean_pred - targets) ** 2))
        var = float(np.mean(preds.var(axis=0)))
        mse = float(per_rerun_mse.mean())
        se = float(per_rerun_mse.std(ddof=1) / np.sqrt(reruns))
        return mse, bias, var, se, per_rerun_mse, mean_pred

    mse_s, bias_s, var_s, se_s, per_mse_s, mean_s = _stats(single)
    mse_e, bias_e, var_e, se_e, per_mse_e, mean_e = _stats(ensemble)

    gap = per_mse_s - per_mse_e
    mse_gap_se = float(gap.std(ddof=1) / np.sqrt(reruns))
    # Bias equality is tested on the mean-prediction scale: the per-rerun
    # mean gap between predictors has expectation zero if the biases agree.
    per_rerun_gap = (single - ensemble).mean(axis=1)
    bias_gap = float(per_rerun_gap.mean())
    bias_gap_se = float(per_rerun_gap.std(ddof=1) / np.sqrt(reruns))

    return VarianceReport(
        t_draws=draws,
        reruns=reruns,
        mse_single=mse_s,
        mse_ensemble=mse_e,
        bias_single=bias_s,
        bias_ensemble=bias_e,
        var_single=var_s,
        var_ensemble=var_e,
        mse_single_se=se_s,
        mse_ensemble_se=se_e,
        mse_gap_se=mse_gap_se,
        bias_gap=bias_gap,
        bias_gap_se=bias_gap_se,
    )
