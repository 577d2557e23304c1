import math
import warnings

import numpy as np
import pytest

from semireg.errors import NonFiniteError, ShapeError
from semireg.losses import (
    LossBreakdown,
    consistency_loss_labeled,
    consistency_loss_unlabeled,
    hetero_loss,
)


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


class TestHeteroLoss:
    def test_zero_residual_unit_variance(self):
        loss, dy, dz = hetero_loss(np.array([2.0]), np.array([0.0]), np.array([2.0]))
        assert loss == 0.0
        assert dy[0] == 0.0
        # the log-variance penalty keeps pulling even at zero residual
        assert dz[0] == 0.5

    def test_hand_value_unit_variance(self):
        loss, _, _ = hetero_loss(np.array([0.0]), np.array([0.0]), np.array([1.0]))
        assert abs(loss - 0.5) < 1e-12

    def test_hand_value_variance_four(self):
        loss, _, _ = hetero_loss(np.array([0.0]), np.array([math.log(4)]), np.array([1.0]))
        expected = 1.0 / 8.0 + math.log(4) / 2.0  # ~0.8181
        assert abs(loss - expected) < 1e-12

    def test_nll_equivalence_on_random_tuples(self):
        # loss == -mean log N(y; y_hat, exp(log_var)) - 0.5*log(2*pi)
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(1, 50)
            y_hat = rng.normal(size=n)
            log_var = rng.uniform(-3, 3, size=n)
            y = rng.normal(size=n)
            loss, _, _ = hetero_loss(y_hat, log_var, y)
            var = np.exp(log_var)
            log_pdf = -0.5 * np.log(2 * np.pi * var) - (y - y_hat) ** 2 / (2 * var)
            nll = -np.mean(log_pdf)
            assert abs(loss - (nll - 0.5 * math.log(2 * math.pi))) < 1e-12

    def test_homoscedastic_reduction_is_half_mse(self):
        rng = np.random.default_rng(1)
        y_hat = rng.normal(size=40)
        y = rng.normal(size=40)
        loss, _, _ = hetero_loss(y_hat, np.zeros(40), y)
        assert loss == np.mean((y_hat - y) ** 2) / 2.0

    def test_residual_term_decreases_in_log_var(self):
        r = 1.7
        zs = np.linspace(-4, 4, 50)
        terms = r**2 / (2 * np.exp(zs))
        assert np.all(np.diff(terms) < 0)

    def test_minimized_at_log_residual_squared(self):
        r = 0.8
        grid = np.linspace(-6, 6, 4001)
        values = r**2 / (2 * np.exp(grid)) + grid / 2
        z_star = grid[np.argmin(values)]
        assert abs(z_star - math.log(r**2)) < 0.01

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        y_hat = rng.normal(size=7)
        log_var = rng.uniform(-2, 2, size=7)
        y = rng.normal(size=7)
        _, dy, dz = hetero_loss(y_hat, log_var, y)
        for i in range(7):
            def loss_of_yhat(v, i=i):
                p = y_hat.copy()
                p[i] = v
                return hetero_loss(p, log_var, y)[0]

            def loss_of_logvar(v, i=i):
                p = log_var.copy()
                p[i] = v
                return hetero_loss(y_hat, p, y)[0]

            fd_y = central_diff(loss_of_yhat, y_hat[i])
            fd_z = central_diff(loss_of_logvar, log_var[i])
            assert abs(dy[i] - fd_y) <= 1e-7 * max(abs(fd_y), 1e-8)
            assert abs(dz[i] - fd_z) <= 1e-7 * max(abs(fd_z), 1e-8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ShapeError):
            hetero_loss(np.array([1.0]), np.array([0.0, 0.0]), np.array([1.0]))
        with pytest.raises(NonFiniteError):
            hetero_loss(np.array([np.nan]), np.array([0.0]), np.array([1.0]))
        with pytest.raises(ShapeError):
            hetero_loss(np.array([]), np.array([]), np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("first", ["y_hat", "log_var", "y_target"])
    def test_names_the_first_non_finite_input_without_a_warning(self, first, bad):
        names = ("y_hat", "log_var", "y_target")
        inputs = {name: np.zeros((2, 3)) for name in names}
        for name in names[names.index(first) :]:  # this input and every later one
            inputs[name][1, names.index(name)] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=f"^{first} contains non-finite values$"):
                hetero_loss(**inputs)


class TestConsistencyLosses:
    def test_identical_predictions_cost_nothing(self):
        z = np.array([0.3, -1.2])
        loss, da, db = consistency_loss_labeled(z, z.copy())
        assert loss == 0.0
        assert np.all(da == 0.0) and np.all(db == 0.0)

    def test_hand_values(self):
        loss, _, _ = consistency_loss_labeled(np.array([1.0]), np.array([3.0]))
        assert loss == 4.0
        loss2, _, _ = consistency_loss_labeled(np.array([0.0, 1.0]), np.array([2.0, 1.0]))
        assert loss2 == 2.0

    def test_gradients_are_symmetric_and_exact(self):
        a = np.array([0.5, -0.25, 2.0])
        b = np.array([1.0, 0.0, -1.0])
        loss, da, db = consistency_loss_labeled(a, b)
        assert np.array_equal(da, -db)
        for i in range(3):
            def f(v, i=i):
                p = a.copy()
                p[i] = v
                return consistency_loss_labeled(p, b)[0]

            fd = central_diff(f, a[i])
            assert abs(da[i] - fd) <= 1e-7 * max(abs(fd), 1e-8)

    def test_unlabeled_target_gets_no_gradient(self):
        z = np.array([2.0])
        target = np.array([0.0])
        result = consistency_loss_unlabeled(z, target)
        assert result[0] == 4.0
        assert len(result) == 2  # loss and d_z only; no gradient slot for the target

    def test_unlabeled_matches_definition(self):
        z = np.array([0.0, 2.0, -1.0])
        t = np.array([1.0, 2.0, 1.0])
        loss, dz = consistency_loss_unlabeled(z, t)
        assert loss == np.mean((z - t) ** 2)
        assert np.array_equal(dz, 2 * (z - t) / 3)


class TestStackedPairs:
    @pytest.mark.parametrize("n", [1, 7, 90, 1000])
    def test_kernels_on_stacks_match_each_member(self, n):
        y_hat, log_var, target, log_var_b = np.random.default_rng(n).normal(size=(4, 2, n))
        shared = np.broadcast_to(target[0], (2, n))  # one target row for both members
        for y_target in (target, shared):
            loss, d_y, d_lv = hetero_loss(y_hat, log_var, y_target)
            assert loss.shape == (2,)
            per_member = [hetero_loss(y_hat[i], log_var[i], y_target[i]) for i in (0, 1)]
            for i, (loss_i, d_y_i, d_lv_i) in enumerate(per_member):
                assert loss[i] == loss_i
                assert d_y[i].tobytes() == d_y_i.tobytes()
                assert d_lv[i].tobytes() == d_lv_i.tobytes()
            assert float(loss[0]) + float(loss[1]) == per_member[0][0] + per_member[1][0]

        loss, d_a, d_b = consistency_loss_labeled(log_var, log_var_b)
        for i in (0, 1):
            loss_i, d_a_i, d_b_i = consistency_loss_labeled(log_var[i], log_var_b[i])
            assert loss[i] == loss_i
            assert d_a[i].tobytes() == d_a_i.tobytes() and d_b[i].tobytes() == d_b_i.tobytes()

        loss, d_z = consistency_loss_unlabeled(log_var, log_var_b)
        for i in (0, 1):
            loss_i, d_z_i = consistency_loss_unlabeled(log_var[i], log_var_b[i])
            assert loss[i] == loss_i
            assert d_z[i].tobytes() == d_z_i.tobytes()

    def test_stack_shapes_checked(self):
        with pytest.raises(ShapeError):
            hetero_loss(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(ShapeError):
            consistency_loss_unlabeled(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)))


class TestTotalLoss:
    def test_weight_zero_keeps_labeled_terms_only(self):
        parts = LossBreakdown(1.5, 0.25, 9.0, 9.0, 0.0)
        assert parts.total == 1.75

    def test_hand_value(self):
        parts = LossBreakdown(1.0, 2.0, 3.0, 4.0, 10.0)
        assert parts.total == 73.0

    def test_all_zero(self):
        assert LossBreakdown(0.0, 0.0, 0.0, 0.0, 10.0).total == 0.0

    def test_non_finite_component_is_named(self):
        with pytest.raises(NonFiniteError, match="unlabeled_reg"):
            LossBreakdown(0.0, 0.0, float("inf"), 0.0, 1.0)
