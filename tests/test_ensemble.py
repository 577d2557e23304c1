import numpy as np
import pytest

from semireg import ensemble
from semireg.data import RegressionDataset
from semireg.ensemble import generate_pseudo_labels, predict, variance_reduction_check
from semireg.errors import ParameterError, UsageError
from semireg.mlp import MlpConfig, MlpModel, forward, init_model, stack_models
from semireg.rng import Rng
from semireg.training import ExperimentConfig, init_train_state, train_step


def constant_model(y_value, log_var_value=0.0, dropout_p=0.0):
    """relu(0*x + 1) = 1 feeds the heads, so outputs are input-independent."""
    cfg = MlpConfig(input_dim=1, hidden_dims=(1,), dropout_p=dropout_p)
    model = init_model(cfg, Rng(0))
    model.params = {
        **model.params,
        "layer0.weight": np.array([[0.0]]),
        "layer0.bias": np.array([[1.0]]),
        "head_y.weight": np.array([[float(y_value)]]),
        "head_y.bias": np.array([[0.0]]),
        "head_logvar.weight": np.array([[float(log_var_value)]]),
        "head_logvar.bias": np.array([[0.0]]),
    }
    return model


def stochastic_model(seed=0, dropout_p=0.25, hidden=(16, 16)):
    cfg = MlpConfig(input_dim=2, hidden_dims=hidden, dropout_p=dropout_p)
    return init_model(cfg, Rng(seed))


def stochastic_pair(dropout_p=0.25):
    return stack_models(stochastic_model(1, dropout_p), stochastic_model(2, dropout_p))


# Benchmark-like shapes: 1 row is the cycler's remainder batch, 90 the
# validation split, 225 the test split; 225 rows with 20 draws span 3 chunks.
REFERENCE_CASES = [
    *(((16, 16), "relu", rows, draws) for rows in (1, 6, 90, 225) for draws in (1, 2, 5, 20)),
    ((24, 8, 16), "tanh", 90, 5),
    ((), "relu", 6, 5),
]
REFERENCE_IDS = [
    f"{act}-{'x'.join(map(str, hidden)) or 'nohidden'}-rows{rows}-draws{draws}"
    for hidden, act, rows, draws in REFERENCE_CASES
]


def assert_matches_manual_replication_of_draw_loop(hidden, activation, rows, draws):
    # same rng stream, one forward per (draw, model) in the documented
    # (t, a, b) order; the stacked chunked kernel must give the same bytes
    cfg = MlpConfig(input_dim=2, hidden_dims=hidden, dropout_p=0.25, activation=activation)
    a, b = init_model(cfg, Rng(3)), init_model(cfg, Rng(4))
    x = np.random.default_rng(5).normal(size=(rows, 2))
    kernel_rng = Rng(42)
    labels = generate_pseudo_labels(stack_models(a, b), x, draws, kernel_rng)

    rng = Rng(42)
    y_acc = np.zeros(rows)
    lv_acc = np.zeros(rows)
    for _ in range(draws):
        y_a, lv_a, _ = forward(a, x, rng=rng)
        y_b, lv_b, _ = forward(b, x, rng=rng)
        y_acc += (y_a + y_b) / 2
        lv_acc += (lv_a + lv_b) / 2
    assert labels.y.tobytes() == (y_acc / draws).tobytes()
    assert labels.log_var.tobytes() == (lv_acc / draws).tobytes()
    assert kernel_rng.counter == rng.counter


def count_mask_calls(monkeypatch):
    calls = []
    original = ensemble.sample_dropout_mask

    def counted(*args):
        calls.append(args[1])  # the chunk's draw count
        return original(*args)

    monkeypatch.setattr(ensemble, "sample_dropout_mask", counted)
    return calls


class TestPseudoLabels:
    def test_two_constant_models_average(self):
        # one draw, y_a=2 and y_b=4 -> pseudo-label 3
        a, b = constant_model(2.0), constant_model(4.0)
        labels = generate_pseudo_labels(stack_models(a, b), np.array([[0.5]]), 1, Rng(1))
        assert labels.y[0] == 3.0
        assert labels.log_var[0] == 0.0

    def test_draw_averaging_formula(self):
        # mean over draws of the pairwise mean: ((2+6)/2 + (4+8)/2)/2 = 5
        per_draw_a, per_draw_b = (2.0, 4.0), (6.0, 8.0)
        expected = np.mean([(ya + yb) / 2 for ya, yb in zip(per_draw_a, per_draw_b)])
        assert expected == 5.0

    @pytest.mark.parametrize("hidden, activation, rows, draws", REFERENCE_CASES, ids=REFERENCE_IDS)
    def test_matches_manual_replication_of_draw_loop(self, hidden, activation, rows, draws):
        assert_matches_manual_replication_of_draw_loop(hidden, activation, rows, draws)

    @pytest.mark.parametrize("hidden, activation, rows, draws", REFERENCE_CASES, ids=REFERENCE_IDS)
    def test_one_draw_chunks_match_manual_replication_of_draw_loop(
        self, monkeypatch, hidden, activation, rows, draws
    ):
        monkeypatch.setattr(ensemble, "_CHUNK_WORDS", 1)
        calls = count_mask_calls(monkeypatch)
        assert_matches_manual_replication_of_draw_loop(hidden, activation, rows, draws)
        assert calls == [1] * draws

    @pytest.mark.parametrize(
        "hidden, rows, draws, chunks",
        [((64, 64), 90, 5, [5]), ((64, 64), 225, 5, [2, 2, 1]), ((16, 16), 225, 20, [9, 9, 2])],
    )
    def test_chunk_cap(self, monkeypatch, hidden, rows, draws, chunks):
        # a 64x64 pair's 90-row validation call is one chunk; the 225-row
        # test split and the reference case above span several
        calls = count_mask_calls(monkeypatch)
        cfg = MlpConfig(input_dim=2, hidden_dims=hidden, dropout_p=0.1)
        pair = stack_models(init_model(cfg, Rng(1)), init_model(cfg, Rng(2)))
        generate_pseudo_labels(pair, np.zeros((rows, 2)), draws, Rng(0))
        assert calls == chunks

    def test_pair_members_must_share_dropout_p(self):
        a = stochastic_model(1, dropout_p=0.25)
        b = stochastic_model(2, dropout_p=0.1)
        with pytest.raises(ParameterError, match="dropout_p"):
            stack_models(a, b)

    def test_kernel_needs_a_stacked_pair(self):
        with pytest.raises(ParameterError, match="stacked pair"):
            generate_pseudo_labels(stochastic_model(1), np.zeros((2, 2)), 2, Rng(0))
        with pytest.raises(ParameterError, match="stacked pair"):
            predict(stochastic_model(1), x=np.zeros((2, 2)), draws=2, rng=Rng(0))

    def test_no_dropout_collapses_to_deterministic_average(self):
        a, b = stochastic_model(1, dropout_p=0.0), stochastic_model(2, dropout_p=0.0)
        x = np.random.default_rng(6).normal(size=(5, 2))
        det_a = forward(a, x)
        det_b = forward(b, x)
        for draws in (1, 4):
            labels = generate_pseudo_labels(stack_models(a, b), x, draws, Rng(9))
            assert np.allclose(labels.y, (det_a[0] + det_b[0]) / 2, rtol=0, atol=1e-15)
            assert np.allclose(labels.log_var, (det_a[1] + det_b[1]) / 2, rtol=0, atol=1e-15)

    def test_swap_invariance_without_dropout(self):
        a, b = stochastic_model(1, dropout_p=0.0), stochastic_model(2, dropout_p=0.0)
        x = np.random.default_rng(7).normal(size=(4, 2))
        ab = generate_pseudo_labels(stack_models(a, b), x, 2, Rng(3))
        ba = generate_pseudo_labels(stack_models(b, a), x, 2, Rng(3))
        assert np.array_equal(ab.y, ba.y)
        assert np.array_equal(ab.log_var, ba.log_var)

    def test_swap_symmetry_is_distributional_under_dropout(self):
        # with dropout the mask stream is positional, so swapping models only
        # preserves the distribution; means over reruns must agree
        a, b = stochastic_model(1), stochastic_model(2)
        x = np.random.default_rng(8).normal(size=(3, 2))
        reruns = 400
        rng1, rng2 = Rng(100), Rng(100)
        pair_ab, pair_ba = stack_models(a, b), stack_models(b, a)
        ab = np.mean(
            [generate_pseudo_labels(pair_ab, x, 2, rng1).y for _ in range(reruns)], axis=0
        )
        ba = np.mean(
            [generate_pseudo_labels(pair_ba, x, 2, rng2).y for _ in range(reruns)], axis=0
        )
        assert np.allclose(ab, ba, atol=0.05)

    def test_outputs_are_gradient_isolated(self):
        a, b = stochastic_model(1), stochastic_model(2)
        labels = generate_pseudo_labels(stack_models(a, b), np.zeros((2, 2)), 2, Rng(0))
        with pytest.raises(ValueError):
            labels.y[0] = 99.0
        with pytest.raises(ValueError):
            labels.log_var[0] = 99.0

    def test_rejects_zero_draws(self):
        a, b = constant_model(1.0), constant_model(2.0)
        with pytest.raises(ParameterError):
            generate_pseudo_labels(stack_models(a, b), np.zeros((1, 1)), 0, Rng(0))

    def test_log_var_stays_in_clamp_range(self):
        a = constant_model(0.0, log_var_value=50.0)  # clamped to +6 inside forward
        b = constant_model(0.0, log_var_value=-50.0)  # clamped to -6
        labels = generate_pseudo_labels(stack_models(a, b), np.array([[1.0]]), 3, Rng(0))
        assert -6.0 <= labels.log_var[0] <= 6.0


def trained_state(steps):
    config = ExperimentConfig(hidden_dims=(16, 16), dropout_p=0.25, unlabeled_weight=0.0, seed=3)
    state = init_train_state(config, 2)
    rng = np.random.default_rng(4)
    for _ in range(steps):
        train_step(state, (rng.normal(size=(6, 2)), rng.normal(size=6)), None, config)
    return state, config


def copied(pair):
    return MlpModel(pair.config, {name: p.copy() for name, p in pair.params.items()})


def predict_and_capture_pair(monkeypatch, pair, x):
    seen = []
    original = ensemble.generate_pseudo_labels

    def capture(pair, *args):
        seen.append(pair)
        return original(pair, *args)

    monkeypatch.setattr(ensemble, "generate_pseudo_labels", capture)
    y, lv = predict(pair, x=x, draws=5, rng=Rng(8))
    monkeypatch.setattr(ensemble, "generate_pseudo_labels", original)
    return y.tobytes() + lv.tobytes(), seen[0]


class TestPredict:
    def test_runs_on_the_pair_without_a_copy(self, monkeypatch):
        # after an update the pair's parameters are views of one flat buffer
        state, _ = trained_state(steps=2)
        pair = state.pair
        x = np.random.default_rng(5).normal(size=(7, 2))
        got, used = predict_and_capture_pair(monkeypatch, pair, x)
        for name, p in pair.params.items():
            assert used.params[name] is p
        want, used_copy = predict_and_capture_pair(monkeypatch, copied(pair), x)
        assert not any(np.shares_memory(used_copy.params[n], p) for n, p in pair.params.items())
        assert got == want
        # the members, as checkpoints hold them, restack to the same predictor
        restacked = stack_models(pair.member(0), pair.member(1))
        assert predict_and_capture_pair(monkeypatch, restacked, x)[0] == want

    def test_reads_the_pairs_current_parameters(self, monkeypatch):
        state, config = trained_state(steps=1)
        x = np.random.default_rng(6).normal(size=(7, 2))
        before = copied(state.pair)
        train_step(state, (x, np.ones(7)), None, config)
        current, _ = predict_and_capture_pair(monkeypatch, state.pair, x)
        assert current == predict_and_capture_pair(monkeypatch, copied(state.pair), x)[0]
        assert current != predict_and_capture_pair(monkeypatch, before, x)[0]

    def test_rows_and_draws_are_keyword_only(self):
        # the benchmark's probe reads rows and draws from these keywords
        pair = stochastic_pair()
        with pytest.raises(TypeError):
            predict(pair, np.zeros((2, 2)), 2, Rng(0))

    def test_shares_kernel_with_pseudo_labels(self):
        pair = stochastic_pair()
        x = np.random.default_rng(9).normal(size=(5, 2))
        labels = generate_pseudo_labels(pair, x, 4, Rng(77))
        y, lv = predict(pair, x=x, draws=4, rng=Rng(77))
        assert np.array_equal(y, labels.y)
        assert np.array_equal(lv, labels.log_var)

    def test_duplicated_model_without_dropout_is_identity(self):
        m = stochastic_model(5, dropout_p=0.0)
        x = np.random.default_rng(10).normal(size=(4, 2))
        det_y, det_lv, _ = forward(m, x)
        y, lv = predict(stack_models(m, m), x=x, draws=3, rng=Rng(0))
        assert np.allclose(y, det_y, atol=1e-15)
        assert np.allclose(lv, det_lv, atol=1e-15)

    def test_more_draws_shrink_prediction_spread(self):
        pair = stochastic_pair()
        x = np.random.default_rng(11).normal(size=(8, 2))
        rng = Rng(123)
        reruns = 40

        def spread(draws):
            preds = np.stack([predict(pair, x=x, draws=draws, rng=rng)[0] for _ in range(reruns)])
            return preds.std(axis=0).mean()

        assert spread(100) < spread(5)


class TestVarianceReduction:
    def make_data(self, n=40):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(n, 2))
        y = x[:, 0] - 0.5 * x[:, 1] + rng.normal(scale=0.1, size=n)
        return RegressionDataset(features=x, targets=y)

    def test_ensemble_mse_not_worse_and_bias_equal(self):
        data = self.make_data()
        report = variance_reduction_check(stochastic_pair(), data, draws=5, reruns=120, rng=Rng(7))
        assert report.mse_ensemble <= report.mse_single + 2 * report.mse_gap_se
        assert abs(report.bias_gap) <= 2 * report.bias_gap_se
        assert report.var_ensemble < report.var_single

    def test_no_dropout_means_no_variance(self):
        pair = stochastic_pair(dropout_p=0.0)
        report = variance_reduction_check(pair, self.make_data(), draws=5, reruns=30, rng=Rng(8))
        # identical draws; averages only differ by summation rounding
        assert report.mse_single == pytest.approx(report.mse_ensemble, rel=1e-12)
        assert report.var_single < 1e-30 and report.var_ensemble < 1e-30

    def test_variance_non_increasing_in_draws(self):
        pair = stochastic_pair()
        data = self.make_data()
        variances = []
        for draws in (1, 2, 5, 20):
            report = variance_reduction_check(
                pair, data, draws=draws, reruns=80, rng=Rng(100 + draws)
            )
            variances.append(report.var_ensemble)
        assert all(v2 < v1 for v1, v2 in zip(variances, variances[1:]))

    def test_mse_decomposes_into_bias_plus_variance(self):
        pair = stochastic_pair()
        report = variance_reduction_check(pair, self.make_data(), draws=3, reruns=50, rng=Rng(9))
        assert abs(report.mse_single - (report.bias_single + report.var_single)) < 1e-9
        assert abs(report.mse_ensemble - (report.bias_ensemble + report.var_ensemble)) < 1e-9

    def test_parameter_validation(self):
        pair = stochastic_pair()
        data = self.make_data()
        with pytest.raises(ParameterError):
            variance_reduction_check(pair, data, draws=5, reruns=10, rng=Rng(0))
        unlabeled = RegressionDataset(features=data.features, targets=None)
        with pytest.raises(UsageError):
            variance_reduction_check(pair, unlabeled, draws=5, reruns=30, rng=Rng(0))
