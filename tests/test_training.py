import copy
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from semireg import training
from semireg.data import RegressionDataset, split_semi_supervised
from semireg.ensemble import PseudoLabels, generate_pseudo_labels
from semireg.errors import (
    ConfigError,
    DivergenceError,
    NonFiniteError,
    NonFiniteLossError,
    ParameterError,
    UsageError,
)
from semireg.mlp import MlpModel, forward, stack_models
from semireg.rng import Rng
from semireg.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    MOMENTUM,
    OPTIMIZER_SLOTS,
    OPTIMIZERS,
    ExperimentConfig,
    _cross_targets,
    init_optimizer_state,
    init_train_state,
    optimizer_update,
    run_experiment,
    train_step,
)


def scalar_linear_state(config):
    """Two 1-input, no-hidden-layer models with hand-set head parameters."""
    state = init_train_state(config, input_dim=1)
    model_a = MlpModel(
        state.pair.config,
        {
            "head_y.weight": np.array([[0.8]]),
            "head_y.bias": np.array([[0.1]]),
            "head_logvar.weight": np.array([[0.2]]),
            "head_logvar.bias": np.array([[-0.1]]),
        },
    )
    model_b = MlpModel(
        state.pair.config,
        {
            "head_y.weight": np.array([[1.2]]),
            "head_y.bias": np.array([[-0.2]]),
            "head_logvar.weight": np.array([[-0.3]]),
            "head_logvar.bias": np.array([[0.05]]),
        },
    )
    state.pair = stack_models(model_a, model_b)
    state.opt = init_optimizer_state(config, state.pair.params)
    return state


def make_split(n=300, label_fraction=0.2, seed=0, input_dim=2):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(n, input_dim))
    y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=n)
    data = RegressionDataset(features=x, targets=y)
    return split_semi_supervised(data, label_fraction, 0.15, 0.2, Rng(seed))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            ExperimentConfig(learning_rate=0.0)
        with pytest.raises(ConfigError, match="unlabeled_weight"):
            ExperimentConfig(unlabeled_weight=-1.0)
        with pytest.raises(ConfigError, match="ensemble_draws"):
            ExperimentConfig(ensemble_draws=0)
        with pytest.raises(ConfigError, match="variant"):
            ExperimentConfig(variant="everything")
        with pytest.raises(ConfigError, match="optimizer"):
            ExperimentConfig(optimizer="lbfgs")

    def test_variant_switches(self):
        assert not ExperimentConfig(variant="baseline").uses_consistency
        assert not ExperimentConfig(variant="baseline").uses_ensembling
        assert ExperimentConfig(variant="baseline_con").uses_consistency
        assert ExperimentConfig(variant="baseline_ens").uses_ensembling
        assert ExperimentConfig(variant="full").uses_consistency
        assert ExperimentConfig(variant="full").uses_ensembling


class TestOptimizer:
    def test_sgd_hand_value(self):
        config = ExperimentConfig(optimizer="sgd_momentum", learning_rate=0.1)
        params = {"p": np.array([[1.0]])}  # a first step: the velocity is the gradient
        state = init_optimizer_state(config, params)
        new, _ = optimizer_update(params, {"p": np.array([[2.0]])}, state, config)
        assert new["p"][0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_sgd_momentum_accumulates(self):
        config = ExperimentConfig(optimizer="sgd_momentum", learning_rate=0.1)
        params = {"p": np.array([[0.0]])}
        state = init_optimizer_state(config, params)
        params, state = optimizer_update(params, {"p": np.array([[1.0]])}, state, config)
        assert params["p"][0, 0] == pytest.approx(-0.1)
        params, state = optimizer_update(params, {"p": np.array([[1.0]])}, state, config)
        # velocity = MOMENTUM*1 + 1 = 1.9 -> -0.1 - 0.19 = -0.29
        assert params["p"][0, 0] == pytest.approx(-0.1 - 0.1 * (MOMENTUM + 1.0))

    def test_zero_gradient_is_a_fixed_point(self):
        for opt in ("adam", "sgd_momentum"):
            config = ExperimentConfig(optimizer=opt, learning_rate=0.5)
            params = {"p": np.array([[3.0, -1.0]])}
            state = init_optimizer_state(config, params)
            new, _ = optimizer_update(params, {"p": np.zeros((1, 2))}, state, config)
            assert np.array_equal(new["p"], params["p"])

    def test_adam_first_step_hand_value(self):
        config = ExperimentConfig(optimizer="adam", learning_rate=0.1)
        params = {"p": np.array([[1.0]])}
        state = init_optimizer_state(config, params)
        g = 2.0
        new, _ = optimizer_update(params, {"p": np.array([[g]])}, state, config)
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expected = 1.0 - 0.1 * g / (np.sqrt(g * g) + ADAM_EPS)
        assert new["p"][0, 0] == expected
        # direction is -sign(g) * lr, up to the epsilon correction
        assert new["p"][0, 0] == pytest.approx(1.0 - 0.1, abs=1e-8)

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_flat_update_matches_the_per_parameter_formulas(self, optimizer):
        # reference: the documented formulas applied one parameter at a time
        config = ExperimentConfig(optimizer=optimizer, learning_rate=0.01)
        rng = np.random.default_rng(7)
        shapes = {"w": (2, 3, 4), "b": (2, 1, 4), "h": (2, 4, 1)}
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        state = init_optimizer_state(config, params)
        ref_params = dict(params)
        keys = OPTIMIZER_SLOTS[optimizer]
        ref_slots = {name: {key: np.zeros(shape) for key in keys} for name, shape in shapes.items()}
        lr, b1, b2 = config.learning_rate, ADAM_BETA1, ADAM_BETA2
        for step in range(1, 4):
            grads = {name: rng.normal(size=shape) * 10.0**-step for name, shape in shapes.items()}
            params, state = optimizer_update(params, grads, state, config)
            for name, g in grads.items():
                slot, p = ref_slots[name], ref_params[name]
                if optimizer == "adam":
                    slot["m"] = b1 * slot["m"] + (1 - b1) * g
                    slot["v"] = b2 * slot["v"] + (1 - b2) * g**2
                    m_hat = slot["m"] / (1 - b1**step)
                    v_hat = slot["v"] / (1 - b2**step)
                    ref_params[name] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                else:
                    slot["velocity"] = MOMENTUM * slot["velocity"] + g
                    ref_params[name] = p - lr * slot["velocity"]
            assert set(state.buffers) == set(keys)
            for key in keys:
                ref_buffer = np.concatenate([ref_slots[name][key].ravel() for name in shapes])
                assert state.buffers[key].tobytes() == ref_buffer.tobytes()
            for name in shapes:
                assert params[name].tobytes() == ref_params[name].tobytes()
        assert len({id(p.base) for p in params.values()}) == 1
        assert not any(p.flags.writeable for p in params.values())

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_rejected_update_leaves_state_unchanged(self, optimizer):
        config = ExperimentConfig(optimizer=optimizer, learning_rate=0.1)
        params = {"p": np.array([[1.0, -2.0]])}
        state = init_optimizer_state(config, params)
        with pytest.raises(NonFiniteError):
            optimizer_update(params, {"p": np.full((1, 2), np.inf)}, state, config)
        assert state.step == 0
        assert set(state.buffers) == set(OPTIMIZER_SLOTS[optimizer])
        for buffer in state.buffers.values():
            assert np.array_equal(buffer, np.zeros(2))
        assert np.array_equal(params["p"], [[1.0, -2.0]])

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_state_of_the_other_optimizer_is_refused(self, optimizer):
        other = next(name for name in OPTIMIZERS if name != optimizer)
        params = {"p": np.array([[1.0]])}
        state = init_optimizer_state(ExperimentConfig(optimizer=other), params)
        config = ExperimentConfig(optimizer=optimizer)
        with pytest.raises(ParameterError, match=optimizer):
            optimizer_update(params, {"p": np.array([[1.0]])}, state, config)


class TestTrainStep:
    def test_hand_oracle_single_sgd_step(self):
        config = ExperimentConfig(
            optimizer="sgd_momentum",
            learning_rate=0.1,
            unlabeled_weight=10.0,
            ensemble_draws=2,
            dropout_p=0.0,
            hidden_dims=(),
            variant="full",
            seed=0,
        )
        state = scalar_linear_state(config)
        x_lab, y_lab = 2.0, 1.0
        x_ulb = 3.0

        theta0 = {
            "a": [0.8, 0.1, 0.2, -0.1],
            "b": [1.2, -0.2, -0.3, 0.05],
        }

        def heads(p, x):
            u, c, v, d = p
            return u * x + c, v * x + d

        # pseudo-labels from the pre-step parameters, held constant
        ya0, za0 = heads(theta0["a"], x_ulb)
        yb0, zb0 = heads(theta0["b"], x_ulb)
        y_tilde, z_tilde = (ya0 + yb0) / 2, (za0 + zb0) / 2

        def local_total(pa, pb):
            import math

            def hetero(y_hat, log_var, y):
                return (y_hat - y) ** 2 / (2 * math.exp(log_var)) + log_var / 2

            ya, za = heads(pa, x_lab)
            yb, zb = heads(pb, x_lab)
            labeled = hetero(ya, za, y_lab) + hetero(yb, zb, y_lab) + (za - zb) ** 2
            yua, zua = heads(pa, x_ulb)
            yub, zub = heads(pb, x_ulb)
            unlabeled = (
                hetero(yua, z_tilde, y_tilde)
                + hetero(yub, z_tilde, y_tilde)
                + (zua - z_tilde) ** 2
                + (zub - z_tilde) ** 2
            )
            return labeled + 10.0 * unlabeled

        h = 1e-7
        expected = {}
        for model_key, names in (
            ("a", ["head_y.weight", "head_y.bias", "head_logvar.weight", "head_logvar.bias"]),
            ("b", ["head_y.weight", "head_y.bias", "head_logvar.weight", "head_logvar.bias"]),
        ):
            for i, name in enumerate(names):
                pa = list(theta0["a"])
                pb = list(theta0["b"])
                target = pa if model_key == "a" else pb
                target[i] += h
                up = local_total(pa, pb)
                target[i] -= 2 * h
                down = local_total(pa, pb)
                grad = (up - down) / (2 * h)
                expected[(model_key, name)] = theta0[model_key][i] - 0.1 * grad

        train_step(state, (np.array([[x_lab]]), np.array([y_lab])), np.array([[x_ulb]]), config)
        for name in expected:
            model = state.pair.member(0 if name[0] == "a" else 1)
            got = model.params[name[1]][0, 0]
            assert got == pytest.approx(expected[name], rel=1e-6, abs=1e-9), name

    def test_weight_zero_matches_supervised_step_and_reports_components(self):
        config = ExperimentConfig(
            unlabeled_weight=0.0, dropout_p=0.1, hidden_dims=(8,), epochs=1, seed=3
        )
        rng = np.random.default_rng(1)
        x_lab = rng.normal(size=(6, 2))
        y_lab = rng.normal(size=6)
        x_ulb = rng.normal(size=(10, 2))

        s1 = init_train_state(config, 2)
        b1 = train_step(s1, (x_lab, y_lab), x_ulb, config)
        s2 = init_train_state(config, 2)
        b2 = train_step(s2, (x_lab, y_lab), None, config)

        # unlabeled components are computed for diagnostics but total excludes them
        assert b1.unlabeled_reg != 0.0
        assert b1.total == b1.labeled_reg + b1.labeled_unc
        assert b2.unlabeled_reg == 0.0
        for member in (0, 1):
            p1, p2 = s1.pair.member(member).params, s2.pair.member(member).params
            for name in p1:
                assert np.array_equal(p1[name], p2[name])

    def test_near_fixed_point_for_target_head(self):
        # with y_hat == y, z == 0, p=0 the regression losses and the
        # y-head gradients vanish (the log-variance penalty still pulls on z)
        config = ExperimentConfig(
            optimizer="sgd_momentum",
            learning_rate=0.1,
            unlabeled_weight=0.0,
            dropout_p=0.0,
            hidden_dims=(),
            variant="full",
            seed=0,
        )
        state = scalar_linear_state(config)
        zero_y = {
            "head_y.weight": np.array([[0.5]]),
            "head_y.bias": np.array([[0.0]]),
            "head_logvar.weight": np.array([[0.0]]),
            "head_logvar.bias": np.array([[0.0]]),
        }
        cfg = state.pair.config
        state.pair = stack_models(MlpModel(cfg, dict(zero_y)), MlpModel(cfg, dict(zero_y)))
        x, y = 2.0, 1.0  # y_hat = 0.5*2 = 1 = y
        breakdown = train_step(state, (np.array([[x]]), np.array([y])), None, config)
        assert breakdown.labeled_reg == 0.0
        assert breakdown.labeled_unc == 0.0
        model_a = state.pair.member(0)
        assert model_a.params["head_y.weight"][0, 0] == 0.5
        assert model_a.params["head_y.bias"][0, 0] == 0.0
        # z keeps moving: d(hetero)/dz = 1/2 at zero residual
        assert model_a.params["head_logvar.bias"][0, 0] != 0.0

    def test_variant_controls_loss_components(self):
        rng = np.random.default_rng(2)
        x_lab = rng.normal(size=(5, 2))
        y_lab = rng.normal(size=5)
        x_ulb = rng.normal(size=(7, 2))
        components = {}
        for variant in ("baseline", "baseline_con", "baseline_ens", "full"):
            config = ExperimentConfig(variant=variant, hidden_dims=(6,), seed=5)
            state = init_train_state(config, 2)
            components[variant] = train_step(state, (x_lab, y_lab), x_ulb, config)
        assert components["baseline"].labeled_unc == 0.0
        assert components["baseline"].unlabeled_unc == 0.0
        assert components["baseline_ens"].labeled_unc == 0.0
        assert components["baseline_con"].labeled_unc > 0.0
        assert components["full"].labeled_unc > 0.0
        assert components["full"].unlabeled_unc > 0.0

    def test_cross_supervision_swaps_targets(self):
        config = ExperimentConfig(variant="baseline", dropout_p=0.0, hidden_dims=(4,), seed=1)
        state = init_train_state(config, 2)
        x = np.random.default_rng(3).normal(size=(4, 2))
        targets = _cross_targets(state.pair, x, Rng(0))
        target_a, target_b = targets.y
        det_a = forward(state.pair.member(0), x)
        det_b = forward(state.pair.member(1), x)
        assert np.array_equal(target_a, det_b[0])
        assert np.array_equal(target_b, det_a[0])

    def test_no_gradient_through_pseudo_labels(self):
        # replaying the step with the pseudo-labels frozen from the pre-step
        # weights gives a bitwise-identical update
        config = ExperimentConfig(variant="full", hidden_dims=(8,), dropout_p=0.1, seed=7)
        rng = np.random.default_rng(4)
        x_lab = rng.normal(size=(6, 2))
        y_lab = rng.normal(size=6)
        x_ulb = rng.normal(size=(9, 2))

        s1 = init_train_state(config, 2)
        s2 = init_train_state(config, 2)
        frozen = generate_pseudo_labels(
            s2.pair,
            x_ulb,
            config.ensemble_draws,
            s2.rng.split("step:0").split("pseudo"),
        )
        b1 = train_step(s1, (x_lab, y_lab), x_ulb, config)
        b2 = train_step(
            s2, (x_lab, y_lab), x_ulb, config, injected_targets=frozen
        )
        assert b1 == b2
        for member in (0, 1):
            p1, p2 = s1.pair.member(member).params, s2.pair.member(member).params
            for name in p1:
                assert np.array_equal(p1[name], p2[name])

    def test_empty_unlabeled_with_positive_weight_rejected(self):
        config = ExperimentConfig(unlabeled_weight=10.0, hidden_dims=(4,))
        state = init_train_state(config, 2)
        with pytest.raises(UsageError):
            train_step(state, (np.zeros((3, 2)), np.zeros(3)), None, config)

    def test_non_finite_loss_aborts_without_update(self):
        config = ExperimentConfig(
            unlabeled_weight=0.0, dropout_p=0.0, hidden_dims=(4,), learning_rate=1e-3, seed=2
        )
        state = init_train_state(config, 2)
        # poison model a so its forward output overflows
        model_a, model_b = state.pair.member(0), state.pair.member(1)
        poisoned = MlpModel(
            model_a.config,
            {
                **model_a.params,
                "head_y.weight": np.array([[1e308], [1e308], [1e308], [1e308]]),
                "layer0.weight": np.full((2, 4), 1e300),
            },
        )
        state.pair = stack_models(poisoned, model_b)
        before = {n: p.copy() for n, p in model_b.params.items()}
        with pytest.raises(NonFiniteLossError):
            train_step(state, (np.array([[1.0, 1.0]]), np.array([0.0])), None, config)
        assert state.opt.step == 0
        for name, arr in before.items():
            assert np.array_equal(state.pair.member(1).params[name], arr)

    def test_failure_names_the_first_non_finite_loss_component(self):
        config = ExperimentConfig(unlabeled_weight=0.0, hidden_dims=(4,), seed=2)
        state = init_train_state(config, 2)
        # finite inputs whose squared residual overflows
        labeled = (np.ones((2, 2)), np.full(2, 1e200))
        with pytest.raises(NonFiniteLossError, match="labeled_reg is non-finite") as err:
            with np.errstate(all="ignore"):
                train_step(state, labeled, None, config)
        assert err.value.components["labeled_reg"] == np.inf
        assert state.opt.step == 0 and state.history == []

    def test_failure_carries_the_components_computed_before_it(self):
        config = ExperimentConfig(hidden_dims=(4,), seed=2)
        state = init_train_state(config, 2)
        rng = np.random.default_rng(3)
        labeled = (rng.normal(size=(3, 2)), rng.normal(size=3))
        targets = PseudoLabels(y=np.full(4, np.nan), log_var=np.zeros(4))
        with pytest.raises(NonFiniteLossError, match="y_target") as err:
            train_step(state, labeled, rng.normal(size=(4, 2)), config, injected_targets=targets)
        components = err.value.components
        assert list(components) == ["labeled_reg", "labeled_unc"]
        assert all(np.isfinite(value) for value in components.values())
        assert state.opt.step == 0

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_rejected_update_of_model_b_leaves_model_a_untouched(self, optimizer):
        config = ExperimentConfig(
            optimizer=optimizer, learning_rate=10.0, unlabeled_weight=0.0, hidden_dims=(4,), seed=4
        )
        state = init_train_state(config, 2)
        # A finite but huge accumulator makes model b's next update overflow,
        # while every gradient and model a's update stay finite.
        slot = OPTIMIZER_SLOTS[optimizer][0]
        state.opt.buffers = {**state.opt.buffers, slot: state.opt.buffers[slot].copy()}
        views = state.opt.layout.views(state.opt.buffers[slot])
        views["head_y.bias"][1] = np.full((1, 1), 1e308)  # model b's only
        params_before = dict(state.pair.params)
        opt_before = copy.deepcopy(state.opt)
        rng = np.random.default_rng(6)
        with pytest.raises(NonFiniteLossError, match="update"):
            train_step(state, (rng.normal(size=(3, 2)), rng.normal(size=3)), None, config)
        assert state.pair.params.keys() == params_before.keys()
        assert all(state.pair.params[name] is p for name, p in params_before.items())
        assert state.opt.step == opt_before.step == 0
        assert state.opt.buffers.keys() == opt_before.buffers.keys()
        for key, buffer in opt_before.buffers.items():
            assert np.array_equal(state.opt.buffers[key], buffer)
        assert state.opt.step == 0 and state.history == []

    @pytest.mark.parametrize(
        "variant, expected",
        [
            ("full", {"forward": 2, "backward": 2, "optimizer_update": 1}),
            ("baseline", {"forward": 3, "backward": 2, "optimizer_update": 1}),
        ],
    )
    def test_one_step_runs_the_pair_once_per_pass(self, monkeypatch, variant, expected):
        # counted through training's own bindings: a step that falls back to
        # one call per model shows up as doubled counts
        import semireg.training as training

        calls = Counter()
        for name in expected:
            original = getattr(training, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(training, name, counted)
        config = ExperimentConfig(variant=variant, hidden_dims=(6, 5), seed=5)
        state = init_train_state(config, 2)
        rng = np.random.default_rng(2)
        labeled = (rng.normal(size=(5, 2)), rng.normal(size=5))
        train_step(state, labeled, rng.normal(size=(7, 2)), config)
        assert dict(calls) == expected

    def test_history_records_every_step(self):
        config = ExperimentConfig(unlabeled_weight=0.0, hidden_dims=(4,), seed=9)
        state = init_train_state(config, 2)
        rng = np.random.default_rng(5)
        for _ in range(4):
            train_step(state, (rng.normal(size=(3, 2)), rng.normal(size=3)), None, config)
        assert state.opt.step == 4
        assert len(state.history) == 4


class TestRunExperiment:
    def quick_config(self, **kwargs):
        defaults = dict(
            epochs=4,
            batch_labeled=16,
            batch_unlabeled=16,
            hidden_dims=(8, 8),
            ensemble_draws=2,
            seed=11,
        )
        defaults.update(kwargs)
        return ExperimentConfig(**defaults)

    def test_runs_and_reports(self):
        result = run_experiment(self.quick_config(), make_split())
        assert np.isfinite(result.test_mae)
        assert result.test_r2 <= 1.0
        assert len(result.val_mae) == 5  # pre-training + 4 epochs
        assert len(result.history) > 0
        assert result.bin_report is not None
        assert result.bin_report.counts.sum() == make_split().unlabeled.n

    def test_applies_the_malloc_thresholds(self, monkeypatch):
        # a library caller gets the allocator setting that cli.main gives
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(training.os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setattr(training.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        run_experiment(self.quick_config(epochs=0), make_split())
        assert calls == [(-1, 16 << 20), (-3, 4 << 20)]  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD

    def test_zero_epochs_reports_untrained_model(self):
        result = run_experiment(self.quick_config(epochs=0), make_split())
        assert result.best_epoch == 0
        assert len(result.val_mae) == 1
        assert len(result.history) == 0
        assert np.isfinite(result.test_mae)

    def test_bit_identical_reruns(self):
        config = self.quick_config()
        r1 = run_experiment(config, make_split())
        r2 = run_experiment(config, make_split())
        assert r1.test_mae == r2.test_mae
        assert r1.test_r2 == r2.test_r2
        assert r1.val_mae == r2.val_mae
        assert r1.history == r2.history
        for name in r1.pair.params:
            assert np.array_equal(r1.pair.params[name], r2.pair.params[name])

    def test_loss_decreases_over_training(self):
        config = self.quick_config(epochs=30, unlabeled_weight=1.0)
        result = run_experiment(config, make_split(n=400, label_fraction=0.5))
        labeled_total = np.array([b.labeled_reg + b.labeled_unc for b in result.history])
        tenth = max(1, len(labeled_total) // 10)
        assert np.median(labeled_total[-tenth:]) < np.median(labeled_total[:tenth])

    def test_empty_unlabeled_requires_zero_weight(self):
        split = make_split(label_fraction=1.0)
        with pytest.raises(UsageError):
            run_experiment(self.quick_config(), split)
        result = run_experiment(self.quick_config(unlabeled_weight=0.0), split)
        assert np.isfinite(result.test_mae)
        assert result.bin_report is None

    def test_divergence_raises_with_history(self):
        # SGD with an absurd learning rate overflows within a few steps
        # (adam would not: its updates are magnitude-normalized)
        config = self.quick_config(
            learning_rate=1e60, epochs=3, unlabeled_weight=0.0, optimizer="sgd_momentum"
        )
        with pytest.raises(DivergenceError, match="non-finite loss") as err:
            with np.errstate(all="ignore"):
                run_experiment(config, make_split())
        assert isinstance(err.value.history, list)

    def test_non_finite_report_raises_with_history(self):
        # both steps of the first epoch succeed, leaving weights so large but
        # finite that the validation MAE overflows
        config = self.quick_config(learning_rate=1e30, epochs=3, optimizer="sgd_momentum")
        with pytest.raises(DivergenceError, match="validation MAE of epoch 1 is not finite") as err:
            with np.errstate(all="ignore"):
                run_experiment(config, make_split())
        assert len(err.value.history) == 2
