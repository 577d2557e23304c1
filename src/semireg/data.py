"""Datasets: synthetic heteroscedastic tasks, CSV ingestion, splits, scaling.

Unlabeled data is represented by a dataset whose ``targets`` is None; the
true targets of the unlabeled partition are kept on the split object under an
oracle-only field that the training API never reads (it is used solely to
score pseudo-label quality after the fact).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataSchemaError, NonFiniteError, ParameterError, ShapeError
from .rng import Rng

TARGET_FUNCTIONS = ("linear", "sinusoidal", "piecewise")
NOISE_MODELS = ("constant", "input_dependent")


@dataclass(frozen=True)
class RegressionDataset:
    """Feature rows with optional targets (None marks an unlabeled set).

    Features are copied into a read-only C-contiguous float64 array; they
    must be 2-D (ShapeError) and finite (NonFiniteError). Targets must be
    finite too, one per row.
    """

    features: np.ndarray
    targets: np.ndarray | None = None

    def __post_init__(self):
        features = np.array(self.features, dtype=np.float64, order="C")
        if features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {features.shape}")
        if not np.isfinite(features).all():
            raise NonFiniteError("features must be finite")
        features.setflags(write=False)
        object.__setattr__(self, "features", features)
        if self.targets is not None:
            targets = np.asarray(self.targets, dtype=np.float64)
            if targets.shape != (self.n,):
                raise ParameterError("targets must have one value per feature row")
            if not np.isfinite(targets).all():
                raise NonFiniteError("targets must be finite")
            targets.setflags(write=False)
            object.__setattr__(self, "targets", targets)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx: np.ndarray) -> "RegressionDataset":
        return RegressionDataset(
            features=self.features[idx],
            targets=None if self.targets is None else self.targets[idx],
        )


@dataclass(frozen=True)
class SemiSupervisedSplit:
    """Disjoint labeled/unlabeled/validation/test partition of one dataset.

    ``oracle_unlabeled_targets`` holds the hidden truth for the unlabeled
    rows. It exists only for after-the-fact evaluation of pseudo-labels and
    must never feed a training decision.
    """

    labeled: RegressionDataset
    unlabeled: RegressionDataset
    validation: RegressionDataset
    test: RegressionDataset
    oracle_unlabeled_targets: np.ndarray | None = None


@dataclass(frozen=True)
class SyntheticSpec:  # each ParameterError message starts with the field's name
    n_samples: int = 1200
    input_dim: int = 1
    target_function: str = "sinusoidal"
    noise_model: str = "input_dependent"
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 40:
            raise ParameterError(f"n_samples must be >= 40, got {self.n_samples}")
        if self.input_dim < 1:
            raise ParameterError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.target_function not in TARGET_FUNCTIONS:
            raise ParameterError(f"target_function must be one of {TARGET_FUNCTIONS}")
        if self.noise_model not in NOISE_MODELS:
            raise ParameterError(f"noise_model must be one of {NOISE_MODELS}")
        if self.noise_scale < 0:
            raise ParameterError(f"noise_scale must be >= 0, got {self.noise_scale}")


def _target_values(kind: str, x: np.ndarray) -> np.ndarray:
    x0 = x[:, 0]
    rest = x[:, 1:].sum(axis=1) if x.shape[1] > 1 else 0.0
    if kind == "linear":
        slopes = 1.0 + 0.5 * np.arange(x.shape[1])
        return x @ slopes + 0.5
    if kind == "sinusoidal":
        return np.sin(2.0 * x0) + 0.5 * x0 + 0.3 * rest
    # piecewise: linear on the left half, sinusoidal on the right
    # (continuous at x0 = 0, with a slope kink)
    return 0.4 * x0 + np.where(x0 > 0.0, np.sin(2.0 * x0), 0.0) + 0.3 * rest


def noise_sigma(spec: SyntheticSpec, x: np.ndarray) -> np.ndarray:
    """Per-sample noise level; smooth and positive in the input-dependent mode.

    input_dependent: sigma(x) = scale * (0.15 + 1.1 * logistic(1.5 * x0)),
    rising smoothly from ~0.16*scale on the left of the input range to
    ~1.25*scale on the right (a ~60x spread in noise variance).
    """
    if spec.noise_model == "constant":
        return np.full(x.shape[0], float(spec.noise_scale))
    x0 = x[:, 0]
    return spec.noise_scale * (0.15 + 1.1 / (1.0 + np.exp(-1.5 * x0)))


def generate_synthetic(spec: SyntheticSpec) -> RegressionDataset:
    """Inputs uniform on [-3, 3]^d, targets f(x) plus Gaussian noise N(0, sigma(x)^2)."""
    rng = Rng(spec.seed)
    x = rng.uniforms(spec.n_samples * spec.input_dim).reshape(
        spec.n_samples, spec.input_dim
    ) * 6.0 - 3.0
    clean = _target_values(spec.target_function, x)
    noise = rng.gaussians(spec.n_samples) * noise_sigma(spec, x)
    return RegressionDataset(features=x, targets=clean + noise)


@dataclass(frozen=True)
class CsvSchema:
    feature_columns: tuple[str, ...]
    target_column: str
    has_header: bool = True


def load_csv(path, schema: CsvSchema) -> RegressionDataset:
    """Parse a comma-separated file of 64-bit reals, preserving row order.

    A column reference must equal a header name; a file without a header
    names its columns "0", "1", ... A leading byte-order mark is skipped. Every
    failure raises DataSchemaError naming ``path``: a file that cannot be
    read, a column it does not have or whose name its header repeats, a
    target column that is also a feature column, an unparseable or
    non-finite cell (with its row/column coordinates), or a constant target
    column.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as err:
        raise DataSchemaError(f"cannot read {path}: {err.strerror or err}") from None
    except (UnicodeDecodeError, csv.Error) as err:
        raise DataSchemaError(f"{path} is not UTF-8 CSV text: {err}") from None
    if not rows:
        raise DataSchemaError(f"{path}: file is empty")

    first_data_row = 1 if schema.has_header else 0
    header = rows[0] if schema.has_header else [str(i) for i in range(len(rows[0]))]
    data_rows = rows[first_data_row:]
    col_index = {name: i for i, name in enumerate(header)}

    def resolve(name: str) -> int:
        if name not in col_index:
            raise DataSchemaError(f"{path}: missing column {name!r}")
        if header.count(name) > 1:
            raise DataSchemaError(f"{path}: the header names column {name!r} more than once")
        return col_index[name]

    if not data_rows:
        raise DataSchemaError(f"{path}: no data rows")
    feature_idx = [resolve(c) for c in schema.feature_columns]
    target_idx = resolve(schema.target_column)
    if target_idx in feature_idx:  # the model would be handed the answer
        raise DataSchemaError(f"{path}: target column {schema.target_column!r} is also a feature")
    needed = max(feature_idx + [target_idx])

    def parse_cell(row_no: int, col_no: int, text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise DataSchemaError(
                f"{path}: unparseable value {text!r} at row {row_no}, column {col_no}"
            ) from None
        if not np.isfinite(value):
            raise DataSchemaError(
                f"{path}: non-finite value {text!r} at row {row_no}, column {col_no}"
            )
        return value

    features = np.empty((len(data_rows), len(feature_idx)))
    targets = np.empty(len(data_rows))
    for r, row in enumerate(data_rows):
        row_no = r + first_data_row
        if len(row) <= needed:
            raise DataSchemaError(f"{path}: row {row_no} has only {len(row)} cells")
        for j, c in enumerate(feature_idx):
            features[r, j] = parse_cell(row_no, c, row[c])
        targets[r] = parse_cell(row_no, target_idx, row[target_idx])
    if np.all(targets == targets[0]):  # nothing to regress on
        raise DataSchemaError(f"target column {schema.target_column!r} of {path} is constant")
    return RegressionDataset(features=features, targets=targets)


def check_fractions(label_fraction: float, val_fraction: float, test_fraction: float) -> None:
    """ParameterError naming the fraction that split_semi_supervised cannot use."""
    if not 0.0 < label_fraction <= 1.0:
        raise ParameterError(f"label_fraction must be in (0, 1], got {label_fraction}")
    for name, frac in (("val_fraction", val_fraction), ("test_fraction", test_fraction)):
        if not 0.0 <= frac < 1.0:
            raise ParameterError(f"{name} must be in [0, 1), got {frac}")
    if val_fraction + test_fraction >= 1.0:
        raise ParameterError("val_fraction + test_fraction must leave training data")


def split_semi_supervised(
    data: RegressionDataset,
    label_fraction: float,
    val_fraction: float,
    test_fraction: float,
    rng: Rng,
) -> SemiSupervisedSplit:
    """Seeded uniform partition into labeled/unlabeled/validation/test.

    ``val_fraction`` and ``test_fraction`` are fractions of the full dataset;
    ``label_fraction`` applies to the remaining training rows, with the rest
    becoming the unlabeled set (possibly empty at label_fraction=1). A
    partition that cannot be scored, no validation row or fewer than 2 test
    rows (R^2 needs two), is refused with a ParameterError naming its fraction.
    """
    if data.targets is None:
        raise ParameterError("cannot split a dataset without targets")
    check_fractions(label_fraction, val_fraction, test_fraction)

    n = data.n
    order = rng.permutation(n)
    n_test = int(round(test_fraction * n))
    n_val = int(round(val_fraction * n))
    n_train = n - n_test - n_val
    if n_train < 1:
        raise ParameterError("fractions leave no training rows")
    for name, frac, part, rows, least in (
        ("val_fraction", val_fraction, "validation", n_val, 1),
        ("test_fraction", test_fraction, "test", n_test, 2),
    ):
        if rows < least:
            raise ParameterError(
                f"{name}={frac} gives the {part} partition {rows} of {n} rows; "
                f"it needs at least {least}"
            )
    n_labeled = int(round(label_fraction * n_train))
    n_labeled = max(1, min(n_labeled, n_train))

    test_idx = order[:n_test]
    val_idx = order[n_test : n_test + n_val]
    labeled_idx = order[n_test + n_val : n_test + n_val + n_labeled]
    unlabeled_idx = order[n_test + n_val + n_labeled :]

    unlabeled_full = data.subset(unlabeled_idx)
    return SemiSupervisedSplit(
        labeled=data.subset(labeled_idx),
        unlabeled=RegressionDataset(features=unlabeled_full.features),
        validation=data.subset(val_idx),
        test=data.subset(test_idx),
        oracle_unlabeled_targets=unlabeled_full.targets,
    )


class Normalizer:
    """Per-feature and target standardization fitted on labeled data only.

    Zero-variance features pass through unchanged; each one is recorded in
    ``constant_features`` and reported via warnings.warn. Targets are
    standardized so a zero log-variance prediction means unit variance on the
    training scale; ``log_var_offset`` converts predicted log-variances back
    to original target units.
    """

    def __init__(self, labeled: RegressionDataset):
        if labeled.n == 0:
            raise ParameterError("cannot fit a normalizer on an empty dataset")
        if labeled.targets is None:
            raise ParameterError("normalizer needs labeled targets")
        feats = labeled.features
        self.feature_mean = feats.mean(axis=0)
        feature_std = feats.std(axis=0)
        self.constant_features = tuple(int(i) for i in np.where(feature_std == 0.0)[0])
        for i in self.constant_features:
            warnings.warn(f"feature {i} has zero variance; passing it through unscaled")
        self.feature_std = np.where(feature_std == 0.0, 1.0, feature_std)
        self.feature_mean = np.where(feature_std == 0.0, 0.0, self.feature_mean)
        self.target_mean = float(labeled.targets.mean())
        target_std = float(labeled.targets.std())
        if target_std == 0.0:
            warnings.warn("targets have zero variance; passing them through unscaled")
            target_std = 1.0
            self.target_mean = 0.0
        self.target_std = target_std

    @property
    def log_var_offset(self) -> float:
        """Add to a normalized-scale log-variance to express it in original units."""
        return float(2.0 * np.log(self.target_std))

    def transform_features(self, features: np.ndarray) -> np.ndarray:
        scaled = (features - self.feature_mean) / self.feature_std
        scaled.setflags(write=False)
        return scaled

    def transform_targets(self, targets: np.ndarray) -> np.ndarray:
        return (np.asarray(targets, dtype=np.float64) - self.target_mean) / self.target_std

    def inverse_targets(self, targets: np.ndarray) -> np.ndarray:
        return np.asarray(targets, dtype=np.float64) * self.target_std + self.target_mean

    def transform_dataset(self, dataset: RegressionDataset) -> RegressionDataset:
        return RegressionDataset(
            features=self.transform_features(dataset.features),
            targets=None if dataset.targets is None else self.transform_targets(dataset.targets),
        )
