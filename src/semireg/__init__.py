"""Semi-supervised regression with co-trained dropout networks.

Two small regressors with dropout and twin heads (target value and log
aleatoric variance) are trained jointly: labeled data through a Gaussian
heteroscedastic loss, unlabeled data through gradient-isolated pseudo-labels
obtained by averaging stochastic forward passes of both models, plus an
optional consistency penalty tying the two models' uncertainty estimates
together. Everything is deterministic given a single 64-bit seed.
"""

from .data import (
    CsvSchema,
    RegressionDataset,
    SemiSupervisedSplit,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    split_semi_supervised,
    Normalizer,
)
from .ensemble import (
    PseudoLabels,
    VarianceReport,
    generate_pseudo_labels,
    predict,
    variance_reduction_check,
)
from .evaluation import (
    BinReport,
    mae,
    r_squared,
    spearman_rank_corr,
    uncertainty_binning,
)
from .losses import (
    LossBreakdown,
    consistency_loss_labeled,
    consistency_loss_unlabeled,
    hetero_loss,
)
from .mlp import (
    MlpConfig,
    MlpModel,
    backward,
    forward,
    init_model,
    load_model,
    save_model,
    stack_models,
)
from .rng import Rng, sample_dropout_mask
from .training import (
    ExperimentConfig,
    ExperimentResult,
    init_train_state,
    optimizer_update,
    run_experiment,
    train_step,
)

__version__ = "0.1.0"

__all__ = [
    "BinReport",
    "CsvSchema",
    "ExperimentConfig",
    "ExperimentResult",
    "LossBreakdown",
    "MlpConfig",
    "MlpModel",
    "Normalizer",
    "PseudoLabels",
    "RegressionDataset",
    "Rng",
    "SemiSupervisedSplit",
    "SyntheticSpec",
    "VarianceReport",
    "backward",
    "consistency_loss_labeled",
    "consistency_loss_unlabeled",
    "forward",
    "generate_pseudo_labels",
    "generate_synthetic",
    "hetero_loss",
    "init_model",
    "init_train_state",
    "load_csv",
    "load_model",
    "mae",
    "optimizer_update",
    "predict",
    "r_squared",
    "run_experiment",
    "sample_dropout_mask",
    "save_model",
    "spearman_rank_corr",
    "split_semi_supervised",
    "stack_models",
    "train_step",
    "uncertainty_binning",
    "variance_reduction_check",
]
