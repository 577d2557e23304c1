"""Co-training loop for two dropout regressors with pseudo-labeled data.

The two models train as one stacked pair (mlp.stack_models): each step runs
one stochastic labeled forward of the pair, regenerates pseudo-labels for
the unlabeled batch from the current weights, evaluates the four loss terms
the active variant uses, and applies one first-order update to the pair.
Every forward, loss, backward and update handles both members at once, with
the same bits per member as two separate models. Pseudo-labels are
constants: no gradient reaches the weights that produced them.

Variants (the ablation lattice):
  baseline      heteroscedastic losses only; each model's unlabeled targets
                come from a single stochastic pass of the other model
                (cross-supervision).
  baseline_con  baseline plus the uncertainty consistency losses.
  baseline_ens  baseline with cross-supervision replaced by ensembled
                pseudo-labels shared by both models.
  full          consistency losses and ensembled pseudo-labels.

ExperimentConfig is the one config: every key of a JSON config file, its
type, default and range, and the only settings a run reads.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import sys
import types
import typing
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import losses
from .data import CsvSchema, Normalizer, SemiSupervisedSplit, SyntheticSpec, check_fractions
from .ensemble import MIN_RERUNS, PseudoLabels, generate_pseudo_labels, mask_schedule, predict
from .errors import (
    ConfigError,
    DivergenceError,
    NonFiniteError,
    NonFiniteLossError,
    ParameterError,
    ShapeError,
    UsageError,
)
from .evaluation import BinReport, mae, r_squared, spearman_rank_corr, uncertainty_binning
from .losses import LossBreakdown
from .mlp import MlpConfig, MlpModel, ParamLayout, backward, forward, init_model, stack_models
from .rng import Rng, mask_helper

# CPython's built-in SHA-256: hashlib would map OpenSSL's libcrypto (~3.4 MB of
# resident memory) into every command for one small digest.
try:
    from _sha2 import sha256 as _sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

VARIANTS = ("baseline", "baseline_con", "baseline_ens", "full")
# Each optimizer's slots: one flat accumulator buffer per key.
OPTIMIZER_SLOTS = {"adam": ("m", "v"), "sgd_momentum": ("velocity",)}
OPTIMIZERS = tuple(OPTIMIZER_SLOTS)

# Fixed settings, not config keys: the optimizer hyperparameters and the
# number of bins in the uncertainty report.
MOMENTUM = 0.9
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
REPORT_BINS = 10

# glibc mallopt parameters (malloc.h) and the values _fix_malloc_thresholds
# sets. Fixing either one turns off glibc's dynamic mmap threshold, so both are set.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD_BYTES = 16 << 20
_MMAP_THRESHOLD_BYTES = 4 << 20


# How a type error names each JSON type a config field can hold.
_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}
# The least value of each config key with a lower bound (learning_rate must be > 0).
_MINIMUMS = {"epochs": 0, "batch_labeled": 1, "batch_unlabeled": 1, "unlabeled_weight": 0,
             "ensemble_draws": 1, "variance_reruns": MIN_RERUNS}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: every config key, with its JSON type and default.

    Each value must have its field's type (a number must be finite). The
    training ranges are checked here; MlpConfig, SyntheticSpec and
    check_fractions check the rest. Every failure is a ConfigError naming the key.
    """

    task: str = "synthetic"  # or "csv"
    synthetic_n_samples: int = SyntheticSpec.n_samples
    synthetic_input_dim: int = SyntheticSpec.input_dim
    synthetic_target_function: str = SyntheticSpec.target_function
    synthetic_noise_model: str = SyntheticSpec.noise_model
    synthetic_noise_scale: float = SyntheticSpec.noise_scale
    # required when task is "csv"
    csv_path: str | None = None
    csv_feature_columns: tuple[str, ...] | None = None
    csv_target_column: str | None = None
    csv_has_header: bool = CsvSchema.has_header
    label_fraction: float = 0.1  # share of the training rows that keep labels
    val_fraction: float = 0.15  # share of all rows
    test_fraction: float = 0.2  # share of all rows
    seed: int = 0  # master seed; every stream derives from it
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)  # one run per seed in ablate
    variant: str = "full"
    epochs: int = 150
    batch_labeled: int = 32
    batch_unlabeled: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    unlabeled_weight: float = 10.0
    ensemble_draws: int = 5
    dropout_p: float = MlpConfig.dropout_p
    hidden_dims: tuple[int, ...] = MlpConfig.hidden_dims
    activation: str = MlpConfig.activation
    variance_reruns: int = 200  # Monte-Carlo reruns in variance-demo

    def __post_init__(self):
        for key, kind in _FIELD_TYPES.items():
            object.__setattr__(self, key, _typed(key, kind, getattr(self, key)))
        if self.task not in ("synthetic", "csv"):
            raise ConfigError(f"task must be 'synthetic' or 'csv', got {self.task!r}")
        if self.task == "csv":
            for key in ("csv_path", "csv_feature_columns", "csv_target_column"):
                if getattr(self, key) is None:
                    raise ConfigError(f"{key}: required when task is 'csv'")
        for key in ("csv_feature_columns", "seeds"):
            if getattr(self, key) == ():
                raise ConfigError(f"{key} must not be empty")
        for key, seeds in (("seed", (self.seed,)), ("seeds", self.seeds)):
            outside = [seed for seed in seeds if not 0 <= seed < 2**64]
            if outside:  # Rng keeps a seed's low 64 bits, so it would alias one inside
                raise ConfigError(f"{key} must be in [0, 2**64), got {outside[0]}")
        if len(set(self.seeds)) < len(self.seeds):  # a repeated seed is no new sample
            raise ConfigError(f"seeds must be distinct, got {list(self.seeds)}")
        for key, low in _MINIMUMS.items():
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        for key, allowed in (("optimizer", OPTIMIZERS), ("variant", VARIANTS)):
            if getattr(self, key) not in allowed:
                raise ConfigError(f"{key} must be one of {allowed}, got {getattr(self, key)!r}")
        try:
            self.model_config(input_dim=1)  # the data checks its own width
            check_fractions(self.label_fraction, self.val_fraction, self.test_fraction)
        except ParameterError as err:
            raise ConfigError(str(err)) from None
        try:
            self.synthetic_spec(seed=0)
        except ParameterError as err:  # the message starts with the field's name
            raise ConfigError(f"synthetic_{err}") from None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = sorted(set(raw) - set(_FIELD_TYPES))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in raw.items():
            if value is None:  # optional keys are left out, never null
                raise ConfigError(f"{key}: expected a value, got null")
        return cls(**raw)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh, object_pairs_hook=_unique_keys)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as err:  # a directory, unreadable, ...
            raise ConfigError(f"cannot read config {path}: {err.strerror or err}") from None
        except ConfigError:  # a repeated key; not to be taken for bad JSON below
            raise
        except ValueError as err:  # bad JSON or UTF-8, or an integer past int's digit limit
            raise ConfigError(f"config is not valid JSON: {err}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(raw)

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def sha256(self) -> str:
        return _sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @property
    def uses_consistency(self) -> bool:
        return self.variant in ("baseline_con", "full")

    @property
    def uses_ensembling(self) -> bool:
        return self.variant in ("baseline_ens", "full")

    def model_config(self, input_dim: int) -> MlpConfig:
        return MlpConfig(
            input_dim=input_dim,
            hidden_dims=self.hidden_dims,
            dropout_p=self.dropout_p,
            activation=self.activation,
        )

    def synthetic_spec(self, seed: int) -> SyntheticSpec:
        """The synthetic_* keys as a SyntheticSpec drawing its data from ``seed``."""
        names = (f.name for f in fields(SyntheticSpec) if f.name != "seed")
        values = {name: getattr(self, f"synthetic_{name}") for name in names}
        return SyntheticSpec(seed=seed, **values)


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _unique_keys(pairs: list) -> dict:
    # a JSON object as a dict; json itself would keep a repeated key's last value
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise ConfigError(f"{key}: config key given more than once")
    return dict(pairs)


def _is_json(value, kind: type) -> bool:
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _typed(key: str, kind, value):
    """``value`` as the field type ``kind`` (lists become tuples), or a ConfigError."""
    if isinstance(kind, types.UnionType):  # an optional key: None leaves it unset
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    item = typing.get_args(kind)[0] if typing.get_origin(kind) is tuple else None
    if item is None and _is_json(value, kind):
        if kind is float and not abs(value) <= sys.float_info.max:  # nan, inf or a huge int
            raise ConfigError(f"{key}: expected a finite number, got {value!r}")
        return float(value) if kind is float else value
    if isinstance(value, (list, tuple)) and item and all(_is_json(v, item) for v in value):
        return tuple(value)
    expected = f"a list of {_JSON_TYPES[item].split()[-1]}s" if item else _JSON_TYPES[kind]
    raise ConfigError(f"{key}: expected {expected}, got {value!r}")


@dataclass
class OptimizerState:
    """Optimizer accumulators; optimizer_update returns a new one, never mutates.

    Each slot (OPTIMIZER_SLOTS) is one read-only flat buffer over every
    parameter, laid out by ``layout``.
    """

    step: int
    layout: ParamLayout
    buffers: dict[str, np.ndarray]


def init_optimizer_state(
    config: ExperimentConfig, params: dict[str, np.ndarray]
) -> OptimizerState:
    layout = ParamLayout({name: p.shape for name, p in params.items()})
    buffers = {key: np.zeros(layout.size) for key in OPTIMIZER_SLOTS[config.optimizer]}
    for buf in buffers.values():
        buf.setflags(write=False)
    return OptimizerState(step=0, layout=layout, buffers=buffers)


def optimizer_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    config: ExperimentConfig,
) -> tuple[dict[str, np.ndarray], OptimizerState]:
    """One deterministic optimizer step: (new read-only params, new state).

    Mutates nothing, so a rejected step (NonFiniteError on a non-finite
    updated parameter) leaves ``params`` and ``state`` as they were. The
    update runs once over all parameters laid end to end; the new
    parameters are views of one read-only buffer. Every operation is
    elementwise, so each value gets the same bits as a per-parameter update.
    A state whose slots are not those of ``config.optimizer`` is refused.

    sgd_momentum: v <- MOMENTUM*v + g; p <- p - lr*v
    adam: standard bias-corrected moments, p <- p - lr*m_hat/(sqrt(v_hat)+ADAM_EPS)
    """
    slot = state.buffers
    if set(slot) != set(OPTIMIZER_SLOTS[config.optimizer]):
        raise ParameterError(f"optimizer state slots {sorted(slot)} do not fit {config.optimizer}")
    shapes = state.layout.shapes
    if set(params) != set(shapes) or set(grads) != set(shapes):
        raise ShapeError("params, grads and optimizer state must have identical keys")
    for name, shape in shapes.items():
        if params[name].shape != shape or grads[name].shape != shape:
            raise ShapeError(
                f"{name}: param {params[name].shape}, gradient {grads[name].shape}, "
                f"optimizer slots {shape}"
            )
    step = state.step + 1
    lr = config.learning_rate
    new = np.concatenate([params[name].ravel() for name in shapes])
    g = np.concatenate([grads[name].ravel() for name in shapes])
    with np.errstate(over="ignore", invalid="ignore"):
        if config.optimizer == "adam":
            scratch = (1 - ADAM_BETA1) * g
            m = ADAM_BETA1 * slot["m"]
            m += scratch
            g *= g
            g *= 1 - ADAM_BETA2
            v = ADAM_BETA2 * slot["v"]
            v += g
            np.divide(m, 1 - ADAM_BETA1**step, out=scratch)  # m_hat
            np.divide(v, 1 - ADAM_BETA2**step, out=g)  # v_hat
            np.sqrt(g, out=g)
            g += ADAM_EPS
            scratch *= lr
            scratch /= g
            new -= scratch  # p - lr * m_hat / (sqrt(v_hat) + ADAM_EPS)
            buffers = {"m": m, "v": v}
        else:
            velocity = MOMENTUM * slot["velocity"] + g
            new -= lr * velocity
            buffers = {"velocity": velocity}
    for buf in (new, *buffers.values()):
        buf.setflags(write=False)  # before any view is taken, which inherits it
    new_params = state.layout.views(new)
    if not np.isfinite(new).all():
        bad = next(name for name, value in new_params.items() if not np.isfinite(value).all())
        raise NonFiniteError(f"update of {bad} is non-finite")
    return new_params, OptimizerState(step, state.layout, buffers)


@dataclass
class TrainState:
    pair: MlpModel  # model a and model b, stacked on a leading member axis
    opt: OptimizerState  # the pair's accumulators, stacked the same way
    rng: Rng
    history: list[LossBreakdown] = field(default_factory=list)


def init_train_state(config: ExperimentConfig, input_dim: int) -> TrainState:
    """Two models with identical architecture, independently seeded inits."""
    root = Rng(config.seed)
    model_cfg = config.model_config(input_dim)
    pair = stack_models(
        init_model(model_cfg, root.split("init_a")), init_model(model_cfg, root.split("init_b"))
    )
    return TrainState(
        pair=pair, opt=init_optimizer_state(config, pair.params), rng=root.split("train")
    )


def _cross_targets(pair: MlpModel, x: np.ndarray, rng: Rng) -> PseudoLabels:
    # One stochastic pass of the pair; each member's prediction becomes the
    # *other* member's detached target, hence the member swap.
    y, log_var, _ = forward(pair, x, rng=(rng.split("a"), rng.split("b")), trace=False)
    return PseudoLabels(y=y[::-1], log_var=log_var[::-1])


def _per_member(v: np.ndarray) -> np.ndarray:
    # (rows,) targets shared by both members as (2, rows); (2, rows) as they are
    return v if v.ndim == 2 else v[None].repeat(2, 0)


def _pair_total(loss: np.ndarray) -> float:
    # member a's loss plus member b's, the sum two separate models would give
    return float(loss[0]) + float(loss[1])


def train_step(
    state: TrainState,
    labeled: tuple[np.ndarray, np.ndarray],
    unlabeled: np.ndarray | None,
    config: ExperimentConfig,
    *,
    injected_targets: PseudoLabels | None = None,
) -> LossBreakdown:
    """One optimization step over a labeled batch and an unlabeled batch.

    Mutates ``state`` (parameters, optimizer state, history) and
    returns the step's loss components. A non-finite loss, gradient or update
    of either member aborts the step before anything in ``state`` changes and
    raises NonFiniteLossError naming the first non-finite value and carrying
    the loss components computed before the failure.
    ``injected_targets`` replaces the unlabeled targets (a test hook).
    """
    x_lab, y_lab = labeled
    if x_lab.shape[0] == 0:
        raise UsageError("labeled batch must be non-empty")
    y_lab = np.asarray(y_lab, dtype=np.float64)
    if y_lab.shape != (x_lab.shape[0],):
        raise UsageError("labeled batch must carry one target per row")
    if unlabeled is None and config.unlabeled_weight > 0:
        raise UsageError("unlabeled batch required when unlabeled_weight > 0")

    # Substreams are derived from the step index so that injecting
    # pseudo-labels does not shift any other stream.
    step_rng = state.rng.split(f"step:{state.opt.step}")
    pair = state.pair

    parts = {}  # the loss components computed so far
    try:
        labeled_streams = (step_rng.split("labeled_a"), step_rng.split("labeled_b"))
        y, lv, trace = forward(pair, x_lab, rng=labeled_streams)
        reg, d_y, d_lv = losses.hetero_loss(y, lv, _per_member(y_lab))
        parts["labeled_reg"] = _pair_total(reg)

        parts["labeled_unc"] = 0.0
        if config.uses_consistency:
            parts["labeled_unc"], d_con_a, d_con_b = losses.consistency_loss_labeled(lv[0], lv[1])
            d_lv = d_lv + np.stack((d_con_a, d_con_b))

        w = config.unlabeled_weight
        has_unlabeled = unlabeled is not None and unlabeled.shape[0] > 0
        if has_unlabeled:
            if injected_targets is not None:
                targets = injected_targets
            elif config.uses_ensembling:
                targets = generate_pseudo_labels(
                    pair, unlabeled, config.ensemble_draws, step_rng.split("pseudo")
                )
            else:
                targets = _cross_targets(pair, unlabeled, step_rng.split("pseudo"))

            unlabeled_streams = (step_rng.split("unlabeled_a"), step_rng.split("unlabeled_b"))
            yu, lvu, trace_u = forward(pair, unlabeled, rng=unlabeled_streams)
            target_y, target_lv = _per_member(targets.y), _per_member(targets.log_var)

            # Targets are constants: the log-variance gradient of the hetero
            # kernel is discarded, only d w.r.t. the live prediction survives.
            ureg, d_yu, _ = losses.hetero_loss(yu, target_lv, target_y)
            parts["unlabeled_reg"] = _pair_total(ureg)

            d_lvu = np.zeros_like(lvu)
            parts["unlabeled_unc"] = 0.0
            if config.uses_consistency:
                ucon, d_lvu = losses.consistency_loss_unlabeled(lvu, target_lv)
                parts["unlabeled_unc"] = _pair_total(ucon)
        else:
            parts.update(unlabeled_reg=0.0, unlabeled_unc=0.0)

        breakdown = LossBreakdown(**parts, unlabeled_weight=w)
        grads = backward(pair, trace, d_y, d_lv)
        if has_unlabeled and w > 0:
            grads_ulb = backward(pair, trace_u, w * d_yu, w * d_lvu)
            for name, g in grads.items():
                g += grads_ulb[name]
        new_params, opt = optimizer_update(pair.params, grads, state.opt, config)
    except NonFiniteError as err:
        raise NonFiniteLossError(
            f"non-finite loss, gradient or update at step {state.opt.step}: {err}", parts
        ) from err
    pair.params = new_params
    state.opt = opt
    state.history.append(breakdown)
    return breakdown


@dataclass
class ExperimentResult:
    variant: str
    test_mae: float
    test_r2: float
    best_epoch: int
    val_mae: list[float]
    history: list[LossBreakdown]
    bin_report: BinReport | None
    uncertainty_error_spearman: float | None
    pair: MlpModel  # the best-validation weights of both models, stacked
    normalizer: Normalizer


def _cycle_batches(n: int, batch: int, rng: Rng):
    """Endless stream of index batches of range(n), n > 0, reshuffled as it runs out."""
    while True:
        order = rng.permutation(n)
        for pos in range(0, n, batch):
            yield order[pos : pos + batch]


def score_test(
    pair: MlpModel, normalizer: Normalizer, split: SemiSupervisedSplit, config: ExperimentConfig
) -> tuple[float, float]:
    """Test MAE and R^2, in target units, of the pair's ensembled prediction.

    The one scoring of the test split: run_experiment and the evaluate
    command both call it, so evaluate re-derives train's numbers exactly.
    A metric that is not finite raises NonFiniteError naming it.
    """
    x_test = normalizer.transform_features(split.test.features)
    rng = Rng(config.seed).split("test")
    y_pred, _ = predict(pair, x=x_test, draws=config.ensemble_draws, rng=rng)
    y_pred, truth = normalizer.inverse_targets(y_pred), split.test.targets
    test_mae, test_r2 = mae(y_pred, truth), r_squared(y_pred, truth)
    for what, value in (("test MAE", test_mae), ("test R^2", test_r2)):
        if not math.isfinite(value):
            raise NonFiniteError(f"{what} is not finite")
    return test_mae, test_r2


def _fix_malloc_thresholds() -> None:
    """Keep freed heap memory for reuse instead of returning it to the OS.

    By default glibc trims the heap top and maps large blocks afresh, so
    numpy temporaries re-fault their pages on every call. Only allocation
    changes; no number does. Other C libraries are left alone.
    """
    try:
        libc_version = os.confstr("CS_GNU_LIBC_VERSION")
    except (ValueError, OSError):
        return
    if not libc_version or not libc_version.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


def validation_schedule(config: ExperimentConfig, split: SemiSupervisedSplit) -> list[tuple]:
    """The mask_schedule keys of run_experiment's validation passes, in order.

    Each pass (epoch 0 before training, then one per epoch) has a stream of
    its own, so a helper computes its blocks while the epoch before it trains.
    """
    root = Rng(config.seed)
    shape = (config.model_config(split.labeled.input_dim), split.validation.n)
    draws = (config.ensemble_draws,)
    epochs = range(config.epochs + 1)
    return [key for e in epochs for key in mask_schedule(*shape, draws, root.split(f"val:{e}"))]


def run_experiment(config: ExperimentConfig, split: SemiSupervisedSplit) -> ExperimentResult:
    """Train on a split, select the best epoch by validation MAE, score the test set.

    Features and labeled targets are standardized with labeled-set statistics;
    all reported metrics are in original target units. Validation before the
    first epoch is included, so epochs=0 reports untrained-model metrics. The
    experiment fails with the loss history attached (DivergenceError) if two
    consecutive steps produce non-finite losses, or if a value it reports (a
    validation MAE, a bin of the uncertainty report, test MAE or R^2) is not
    finite, as when the weights grow huge but stay finite. It first fixes
    glibc's malloc thresholds (_fix_malloc_thresholds), as the CLI does.
    """
    _fix_malloc_thresholds()
    if split.labeled.targets is None:
        raise UsageError("labeled partition must carry targets")
    has_unlabeled = split.unlabeled.n > 0
    if config.unlabeled_weight > 0 and not has_unlabeled:
        raise UsageError("unlabeled_weight > 0 requires a non-empty unlabeled set")

    normalizer = Normalizer(split.labeled)
    x_lab = normalizer.transform_features(split.labeled.features)
    y_lab = normalizer.transform_targets(split.labeled.targets)
    x_ulb = normalizer.transform_features(split.unlabeled.features) if has_unlabeled else None
    x_val = normalizer.transform_features(split.validation.features)

    root = Rng(config.seed)
    state = init_train_state(config, split.labeled.input_dim)

    def ensembled(x: np.ndarray, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
        return predict(state.pair, x=x, draws=config.ensemble_draws, rng=rng)

    def diverged(reason) -> DivergenceError:
        return DivergenceError(f"training diverged at step {state.opt.step}: {reason}", state.history)

    def reported(what: str, values):
        if not np.isfinite(values).all():
            raise diverged(f"{what} is not finite")
        return values

    def validation_mae(epoch: int) -> float:
        y_pred, _ = ensembled(x_val, root.split(f"val:{epoch}"))
        value = mae(normalizer.inverse_targets(y_pred), split.validation.targets)
        return reported(f"validation MAE of epoch {epoch}", value)

    n_lab = split.labeled.n
    steps_per_epoch = max(1, math.ceil(n_lab / config.batch_labeled))
    ulb_rng = root.split("unlabeled_order")
    unlabeled_batches = _cycle_batches(split.unlabeled.n, config.batch_unlabeled, ulb_rng)
    consecutive_bad = 0
    with mask_helper(validation_schedule(config, split)):
        val_curve = [validation_mae(0)]
        best_mae, best_epoch = val_curve[0], 0
        best_params = dict(state.pair.params)
        for epoch in range(1, config.epochs + 1):
            order = root.split(f"batches:{epoch}").permutation(n_lab)
            for s in range(steps_per_epoch):
                idx = order[s * config.batch_labeled : (s + 1) * config.batch_labeled]
                batch = (x_lab[idx], y_lab[idx])
                ulb_batch = x_ulb[next(unlabeled_batches)] if has_unlabeled else None
                try:
                    train_step(state, batch, ulb_batch, config)
                except NonFiniteLossError as err:
                    consecutive_bad += 1
                    if consecutive_bad >= 2:
                        raise diverged(err) from err
                else:
                    consecutive_bad = 0
            epoch_mae = validation_mae(epoch)
            val_curve.append(epoch_mae)
            if epoch_mae < best_mae:
                best_mae, best_epoch = epoch_mae, epoch
                best_params = dict(state.pair.params)

    # Pseudo-label quality is a property of the models as trained, so the
    # uncertainty report is captured from the final-epoch weights, before the
    # best-validation restore that test metrics use.
    bin_report = None
    spearman = None
    if has_unlabeled and split.oracle_unlabeled_targets is not None:
        y_pl, lv_pl = ensembled(x_ulb, root.split("bin_report"))
        y_pl_orig = normalizer.inverse_targets(y_pl)
        lv_orig = lv_pl + normalizer.log_var_offset
        truth = split.oracle_unlabeled_targets
        if split.unlabeled.n >= REPORT_BINS:
            bin_report = uncertainty_binning(lv_orig, y_pl_orig, truth, REPORT_BINS)
            reported("the bin report", (bin_report.mean_uncertainty, bin_report.pseudo_label_mse))
        sq_err = (y_pl_orig - truth) ** 2
        if split.unlabeled.n >= 3 and not np.all(lv_orig == lv_orig[0]):
            spearman = spearman_rank_corr(np.exp(lv_orig), sq_err)

    state.pair.params = best_params
    try:
        test_mae, test_r2 = score_test(state.pair, normalizer, split, config)
    except NonFiniteError as err:
        raise diverged(err) from err

    return ExperimentResult(
        variant=config.variant,
        test_mae=test_mae,
        test_r2=test_r2,
        best_epoch=best_epoch,
        val_mae=val_curve,
        history=state.history,
        bin_report=bin_report,
        uncertainty_error_spearman=spearman,
        pair=state.pair,
        normalizer=normalizer,
    )
