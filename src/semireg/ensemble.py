"""Ensembled pseudo-labels from stochastic forward passes of both models.

A pseudo-label for a batch is the average, over a fixed number of dropout
draws, of the two co-trained models' predictions: for each draw t the two
models run one stochastic forward each, the pair is averaged, and the draws
are averaged in turn. Target values and log-uncertainties are averaged the
same way (log-uncertainty is averaged in log space). The result is a plain
constant with no gradient path back to either model. Averaging keeps the
predictor's bias unchanged while shrinking its variance, which is also why
the same kernel serves as the test-time inference rule.

The kernel takes the pair as one stacked model (mlp.stack_models) and runs
its draws in chunks. A chunk's masks come from one sample_dropout_mask call,
one row of words per draw laid out as (member a, member b; layer), which are
the same stream words in the same order as one draw at a time. The masks are
views of that block in (draw, member, rows, width) order, and the pair runs
one forward per chunk, so the draw-independent first layer is computed once
per chunk, not per draw and model. That forward builds no trace
(forward's trace=False): each mask is applied to its layer's fresh
activation in place, and the block is dropped before the next chunk's masks
are drawn.

The chunk size caps the mask block at _CHUNK_WORDS = 2**17 words, 128 KiB
of bool keep bits. That holds a whole 90-row, 5-draw call of a 64x64 pair
(115,200 words) in one chunk, so a validation pass is one mask call and one
forward; a 225-row call runs 2 draws per chunk, which keeps the temporaries
of large inputs bounded. predict and variance_reduction_check take the pair
the same way.

A call draws the mask blocks that mask_schedule lists, in order. The calls
made many times on fixed inputs, the validation passes of a training run and
the reruns of variance_reduction_check (variance_schedule), can have one
rng.mask_helper per CLI command compute their blocks ahead and serve them in
that order. The bits are the same either way.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .data import RegressionDataset
from .errors import ParameterError, UsageError
from .mlp import MlpConfig, MlpModel, forward, split_mask_block
from .rng import Rng, mask_helper, sample_dropout_mask

# Most mask words one chunk of draws may hold (2**17 keep bits = 128 KiB).
_CHUNK_WORDS = 2**17

# Fewest reruns variance_reduction_check accepts: reruns are its unit of error.
MIN_RERUNS = 30


@dataclass(frozen=True)
class PseudoLabels:
    """Gradient-isolated targets for one batch.

    (rows,) arrays are shared by both members of the pair; (2, rows) arrays
    hold one row of targets per member.
    """

    y: np.ndarray
    log_var: np.ndarray

    def __post_init__(self):
        if self.y.shape != self.log_var.shape:
            raise ParameterError("y and log_var must have equal shapes")
        self.y.setflags(write=False)
        self.log_var.setflags(write=False)


def generate_pseudo_labels(
    pair: MlpModel,
    x: np.ndarray,
    draws: int,
    rng: Rng,
) -> PseudoLabels:
    """Average of `draws` stochastic forward passes of each member of a stacked pair.

    Dropout masks are sampled independently for every (draw, member) pair
    from the given stream, consumed in (draw, member a, member b) order so
    the reduction order is fixed and reproducible.
    """
    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")
    if pair.member_shape != (2,):
        raise ParameterError("generate_pseudo_labels needs a stacked pair (see stack_models)")
    cfg = pair.config
    rows = x.shape[0]
    y_sum = np.zeros(rows)
    lv_sum = np.zeros(rows)
    for _, _, k, cols, p in mask_schedule(cfg, rows, (draws,), rng):
        block = sample_dropout_mask(rng, k, cols, p)
        masks = split_mask_block(block.reshape(k, 2, cols // 2), rows, cfg.hidden_dims)
        y, lv, _ = forward(pair, x, masks=masks, trace=False)
        del block, masks  # freed before the next chunk's masks are drawn
        if y.ndim == 2:  # a pair without hidden layers has no masks and returns (2, rows)
            y, lv = (np.broadcast_to(v, (k, 2, rows)) for v in (y, lv))
        # each draw's member mean, elementwise, then the draws summed in order
        y_pair, lv_pair = (0.5 * (v[:, 0] + v[:, 1]) for v in (y, lv))
        for t in range(k):
            y_sum += y_pair[t]
            lv_sum += lv_pair[t]
    return PseudoLabels(y=y_sum / draws, log_var=lv_sum / draws)


def mask_schedule(cfg: MlpConfig, rows: int, draws: Iterable[int], rng: Rng) -> list[tuple]:
    """The chunk plan of generate_pseudo_labels calls: the keys of their mask blocks.

    The ``(seed, start, rows, cols, p)`` of every block that calls on
    ``rows`` input rows with each of ``draws`` draws in turn take from
    ``rng``, in order, starting at its current counter; ``rng`` is not
    advanced. A block is one chunk, a row of both members' masks per draw
    and as many draws as fit in _CHUNK_WORDS (at least one).
    """
    cols = 2 * rows * sum(cfg.hidden_dims)
    chunk = max(1, _CHUNK_WORDS // max(1, cols))
    start = rng.counter
    keys = []
    for n in draws:
        for first in range(0, n, chunk):
            k = min(chunk, n - first)
            keys.append((rng.seed, start, k, cols, cfg.dropout_p))
            start += k * cols
    return keys


def variance_schedule(cfg: MlpConfig, rows: int, draws: int, reruns: int, rng: Rng) -> list[tuple]:
    """The mask_schedule keys of variance_reduction_check's reruns on ``rows`` rows, in order."""
    return mask_schedule(cfg, rows, (1, draws) * reruns, rng)


def predict(
    pair: MlpModel, *, x: np.ndarray, draws: int, rng: Rng
) -> tuple[np.ndarray, np.ndarray]:
    """Test-time inference: the ensembled prediction and its log-uncertainty.

    The generate_pseudo_labels computation on a stacked pair, exposed as the
    inference API.
    """
    labels = generate_pseudo_labels(pair, x, draws, rng)
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


def variance_reduction_check(
    pair: MlpModel,
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
    if reruns < MIN_RERUNS:
        raise ParameterError(f"reruns must be >= {MIN_RERUNS}, got {reruns}")
    features = dataset.features
    targets = np.asarray(dataset.targets, dtype=np.float64)

    n = features.shape[0]
    single = np.empty((reruns, n))
    ensemble = np.empty((reruns, n))
    with mask_helper(variance_schedule(pair.config, n, draws, reruns, rng)):
        for r in range(reruns):
            single[r], _ = predict(pair, x=features, draws=1, rng=rng)
            ensemble[r], _ = predict(pair, x=features, draws=draws, rng=rng)

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
