import numpy as np
import pytest

from semireg.errors import ParameterError, ShapeError, UndefinedMetricError
from semireg.evaluation import (
    mae,
    r_squared,
    spearman_rank_corr,
    uncertainty_binning,
)


class TestMae:
    def test_perfect_prediction(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert mae([0.0, 0.0], [1.0, 3.0]) == 2.0

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=30)
        truth = rng.normal(size=30)
        perm = rng.permutation(30)
        assert mae(pred, truth) == pytest.approx(mae(pred[perm], truth[perm]), rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mae([1.0], [1.0, 2.0])


class TestRSquared:
    def test_perfect_prediction(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_prediction_scores_zero(self):
        truth = np.array([2.0, 4.0, 6.0])
        assert r_squared(np.full(3, truth.mean()), truth) == 0.0

    def test_hand_value(self):
        assert r_squared([0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]) == 0.0

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pred = rng.normal(size=10)
            truth = rng.normal(size=10)
            assert r_squared(pred, truth) <= 1.0

    def test_constant_truth_rejected(self):
        with pytest.raises(UndefinedMetricError):
            r_squared([1.0, 2.0], [3.0, 3.0])


class TestBinning:
    def test_exact_division(self):
        rng = np.random.default_rng(2)
        log_var = rng.normal(size=20)
        report = uncertainty_binning(log_var, rng.normal(size=20), rng.normal(size=20), 10)
        assert np.all(report.counts == 2)

    def test_remainder_spread_to_earliest_bins(self):
        rng = np.random.default_rng(3)
        report = uncertainty_binning(
            rng.normal(size=23), rng.normal(size=23), rng.normal(size=23), 10
        )
        assert report.counts.tolist() == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]
        assert report.counts.sum() == 23

    def test_all_equal_uncertainty_still_equal_bins(self):
        rng = np.random.default_rng(4)
        report = uncertainty_binning(
            np.zeros(20), rng.normal(size=20), rng.normal(size=20), 10
        )
        assert np.all(report.counts == 2)
        assert np.all(report.mean_uncertainty == 1.0)

    def test_bins_sorted_by_uncertainty(self):
        rng = np.random.default_rng(5)
        report = uncertainty_binning(
            rng.normal(size=100), rng.normal(size=100), rng.normal(size=100), 10
        )
        assert np.all(np.diff(report.mean_uncertainty) >= 0)

    def test_constructed_monotone_error(self):
        # squared error grows with log-uncertainty by construction
        n = 50
        log_var = np.linspace(-2, 2, n)
        truth = np.zeros(n)
        pseudo = np.sqrt(np.exp(log_var))  # error^2 == exp(log_var), increasing
        report = uncertainty_binning(log_var, pseudo, truth, 10)
        assert np.all(np.diff(report.pseudo_label_mse) > 0)

    def test_too_many_bins_rejected(self):
        with pytest.raises(ParameterError):
            uncertainty_binning(np.zeros(5), np.zeros(5), np.zeros(5), 6)


class TestSpearman:
    def test_identity_is_one(self):
        a = np.array([3.0, 1.0, 2.0, 5.0])
        assert spearman_rank_corr(a, a) == 1.0

    def test_reversal_is_minus_one(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman_rank_corr(a, a[::-1]) == -1.0

    def test_hand_value(self):
        assert spearman_rank_corr([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == pytest.approx(-0.5)

    def test_tie_handling_uses_average_ranks(self):
        # ties in both vectors; compare against scipy-convention hand computation
        rho = spearman_rank_corr([1.0, 1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 4.0])
        # ranks a: [1.5, 1.5, 3, 4], ranks b: [1, 2.5, 2.5, 4]
        ra = np.array([1.5, 1.5, 3.0, 4.0])
        rb = np.array([1.0, 2.5, 2.5, 4.0])
        expected = np.corrcoef(ra, rb)[0, 1]
        assert rho == pytest.approx(expected, rel=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        assert spearman_rank_corr(np.exp(a), b) == pytest.approx(
            spearman_rank_corr(a, b), rel=1e-12
        )

    def test_constant_input_rejected(self):
        with pytest.raises(UndefinedMetricError):
            spearman_rank_corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
