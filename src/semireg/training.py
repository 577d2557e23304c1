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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import losses
from .data import Normalizer, SemiSupervisedSplit
from .ensemble import PseudoLabels, generate_pseudo_labels, predict
from .errors import (
    DivergenceError,
    NonFiniteError,
    NonFiniteLossError,
    ParameterError,
    ShapeError,
    UsageError,
)
from .evaluation import BinReport, mae, r_squared, spearman_rank_corr, uncertainty_binning
from .losses import LossBreakdown
from .mlp import MlpConfig, MlpModel, backward, forward, init_model, stack_models
from .rng import Rng

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


@dataclass(frozen=True)
class TrainConfig:
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
    seed: int = 0
    variant: str = "full"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        for name in ("batch_labeled", "batch_unlabeled"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ParameterError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.optimizer not in OPTIMIZERS:
            raise ParameterError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.unlabeled_weight < 0:
            raise ParameterError(f"unlabeled_weight must be >= 0, got {self.unlabeled_weight}")
        if self.ensemble_draws < 1:
            raise ParameterError(f"ensemble_draws must be >= 1, got {self.ensemble_draws}")
        if self.variant not in VARIANTS:
            raise ParameterError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

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


@dataclass
class OptimizerState:
    """Optimizer accumulators; optimizer_update returns a new one, never mutates.

    Each slot (OPTIMIZER_SLOTS) is one read-only flat buffer over every
    parameter, laid end to end in the order of ``shapes``.
    """

    step: int
    shapes: dict[str, tuple[int, ...]]
    buffers: dict[str, np.ndarray]


def _unflatten(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    # consecutive views of a flat buffer, one per name, in order
    out = {}
    lo = 0
    for name, shape in shapes.items():
        hi = lo + math.prod(shape)
        out[name] = flat[lo:hi].reshape(shape)
        lo = hi
    return out


def init_optimizer_state(config: TrainConfig, params: dict[str, np.ndarray]) -> OptimizerState:
    shapes = {name: p.shape for name, p in params.items()}
    size = sum(p.size for p in params.values())
    buffers = {key: np.zeros(size) for key in OPTIMIZER_SLOTS[config.optimizer]}
    for buf in buffers.values():
        buf.setflags(write=False)
    return OptimizerState(step=0, shapes=shapes, buffers=buffers)


def optimizer_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    config: TrainConfig,
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
    shapes = state.shapes
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
    p = np.concatenate([params[name].ravel() for name in shapes])
    g = np.concatenate([grads[name].ravel() for name in shapes])
    with np.errstate(over="ignore", invalid="ignore"):
        if config.optimizer == "adam":
            m = ADAM_BETA1 * slot["m"] + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * slot["v"] + (1 - ADAM_BETA2) * g**2
            m_hat = m / (1 - ADAM_BETA1**step)
            v_hat = v / (1 - ADAM_BETA2**step)
            new = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            buffers = {"m": m, "v": v}
        else:
            velocity = MOMENTUM * slot["velocity"] + g
            new = p - lr * velocity
            buffers = {"velocity": velocity}
    for buf in (new, *buffers.values()):
        buf.setflags(write=False)  # before any view is taken, which inherits it
    new_params = _unflatten(new, shapes)
    if not np.isfinite(new).all():
        bad = next(name for name, value in new_params.items() if not np.isfinite(value).all())
        raise NonFiniteError(f"update of {bad} is non-finite")
    return new_params, OptimizerState(step, shapes, buffers)


@dataclass
class TrainState:
    pair: MlpModel  # model a and model b, stacked on a leading member axis
    opt: OptimizerState  # the pair's accumulators, stacked the same way
    rng: Rng
    step: int = 0
    history: list[LossBreakdown] = field(default_factory=list)


def init_train_state(config: TrainConfig, input_dim: int) -> TrainState:
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
    y, log_var, _ = forward(pair, x, rng=(rng.split("a"), rng.split("b")))
    return PseudoLabels(y=y[::-1], log_var=log_var[::-1])


def _pair_total(loss: np.ndarray) -> float:
    # member a's loss plus member b's, the sum two separate models would give
    return float(loss[0]) + float(loss[1])


def train_step(
    state: TrainState,
    labeled: tuple[np.ndarray, np.ndarray],
    unlabeled: np.ndarray | None,
    config: TrainConfig,
    *,
    injected_targets: PseudoLabels | None = None,
) -> LossBreakdown:
    """One optimization step over a labeled batch and an unlabeled batch.

    Mutates ``state`` (parameters, optimizer state, counters, history) and
    returns the step's loss components. A non-finite loss, gradient or update
    of either member aborts the step before anything in ``state`` changes and
    raises NonFiniteLossError carrying the offending components.
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
    step_rng = state.rng.split(f"step:{state.step}")
    pair = state.pair

    try:
        labeled_streams = (step_rng.split("labeled_a"), step_rng.split("labeled_b"))
        y, lv, trace = forward(pair, x_lab, rng=labeled_streams)
        reg, d_y, d_lv = losses.hetero_loss(y, lv, np.broadcast_to(y_lab, y.shape))
        labeled_reg = _pair_total(reg)

        if config.uses_consistency:
            labeled_unc, d_con_a, d_con_b = losses.consistency_loss_labeled(lv[0], lv[1])
            d_lv = d_lv + np.stack((d_con_a, d_con_b))
        else:
            labeled_unc = 0.0

        unlabeled_reg = 0.0
        unlabeled_unc = 0.0
        grads_ulb = None
        if unlabeled is not None and unlabeled.shape[0] > 0:
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
            target_y = np.broadcast_to(targets.y, yu.shape)
            target_lv = np.broadcast_to(targets.log_var, yu.shape)

            # Targets are constants: the log-variance gradient of the hetero
            # kernel is discarded, only d w.r.t. the live prediction survives.
            ureg, d_yu, _ = losses.hetero_loss(yu, target_lv, target_y)
            unlabeled_reg = _pair_total(ureg)

            d_lvu = np.zeros_like(lvu)
            if config.uses_consistency:
                ucon, d_lvu = losses.consistency_loss_unlabeled(lvu, target_lv)
                unlabeled_unc = _pair_total(ucon)

            w = config.unlabeled_weight
            if w > 0:
                grads_ulb = backward(pair, trace_u, w * d_yu, w * d_lvu)
    except NonFiniteError as err:
        raise NonFiniteLossError(f"non-finite loss at step {state.step}: {err}", {}) from err

    components = {
        "labeled_reg": labeled_reg,
        "labeled_unc": labeled_unc,
        "unlabeled_reg": unlabeled_reg,
        "unlabeled_unc": unlabeled_unc,
    }
    if not all(math.isfinite(v) for v in components.values()):
        raise NonFiniteLossError(f"non-finite loss at step {state.step}", components)

    breakdown = LossBreakdown.build(
        labeled_reg, labeled_unc, unlabeled_reg, unlabeled_unc, config.unlabeled_weight
    )

    try:
        grads = backward(pair, trace, d_y, d_lv)
        if grads_ulb is not None:
            grads = {name: g + grads_ulb[name] for name, g in grads.items()}
        new_params, opt = optimizer_update(pair.params, grads, state.opt, config)
    except NonFiniteError as err:
        raise NonFiniteLossError(
            f"non-finite gradient or update at step {state.step}: {err}", components
        ) from err
    pair.params = new_params
    state.opt = opt

    state.step += 1
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


def run_experiment(config: TrainConfig, split: SemiSupervisedSplit) -> ExperimentResult:
    """Train on a split, select the best epoch by validation MAE, score the test set.

    Features and labeled targets are standardized with labeled-set statistics;
    all reported metrics are in original target units. Validation before the
    first epoch is included, so epochs=0 reports untrained-model metrics. The
    experiment fails with the loss history attached if two consecutive steps
    produce non-finite losses.
    """
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
    x_test = normalizer.transform_features(split.test.features)

    root = Rng(config.seed)
    state = init_train_state(config, split.labeled.input_dim)

    def ensembled(x: np.ndarray, stream: str) -> tuple[np.ndarray, np.ndarray]:
        return predict(state.pair, x=x, draws=config.ensemble_draws, rng=root.split(stream))

    def validation_mae(epoch: int) -> float:
        y_pred, _ = ensembled(x_val, f"val:{epoch}")
        return mae(normalizer.inverse_targets(y_pred), split.validation.targets)

    n_lab = split.labeled.n
    steps_per_epoch = max(1, math.ceil(n_lab / config.batch_labeled))
    val_curve = [validation_mae(0)]
    best_mae, best_epoch = val_curve[0], 0
    best_params = dict(state.pair.params)

    ulb_rng = root.split("unlabeled_order")
    unlabeled_batches = _cycle_batches(split.unlabeled.n, config.batch_unlabeled, ulb_rng)
    consecutive_bad = 0
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
                    raise DivergenceError(
                        f"training diverged at step {state.step}: {err}", state.history
                    ) from err
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
        y_pl, lv_pl = ensembled(x_ulb, "bin_report")
        y_pl_orig = normalizer.inverse_targets(y_pl)
        lv_orig = lv_pl + normalizer.log_var_offset
        truth = split.oracle_unlabeled_targets
        if split.unlabeled.n >= REPORT_BINS:
            bin_report = uncertainty_binning(lv_orig, y_pl_orig, truth, REPORT_BINS)
        sq_err = (y_pl_orig - truth) ** 2
        if split.unlabeled.n >= 3 and not np.all(lv_orig == lv_orig[0]):
            spearman = spearman_rank_corr(np.exp(lv_orig), sq_err)

    state.pair.params = best_params

    y_test_pred, _ = ensembled(x_test, "test")
    y_test_pred = normalizer.inverse_targets(y_test_pred)
    test_mae = mae(y_test_pred, split.test.targets)
    test_r2 = r_squared(y_test_pred, split.test.targets)

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
