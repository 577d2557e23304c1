import json

import numpy as np
import pytest

from semireg.errors import NonFiniteError, ParameterError, ShapeError, StaleTraceError
from semireg.mlp import (
    MlpConfig,
    MlpModel,
    backward,
    forward,
    init_model,
    load_model,
    save_model,
)
from semireg.rng import Rng
from semireg.training import TrainConfig, init_optimizer_state, optimizer_update


def small_model(hidden=(4,), dropout_p=0.0, activation="relu", seed=0, input_dim=2):
    cfg = MlpConfig(
        input_dim=input_dim, hidden_dims=hidden, dropout_p=dropout_p, activation=activation
    )
    return init_model(cfg, Rng(seed))


def randomize_biases(model, np_rng):
    # Finite differences are invalid exactly on a relu kink; zero-initialized
    # biases can land there (a fully dropped row leaves pre-activation == bias).
    # Nudging every bias away from zero makes the FD oracle well defined.
    params = dict(model.params)
    for name, p in params.items():
        if name.endswith(".bias"):
            vals = np_rng.uniform(0.05, 0.2, size=p.shape) * np_rng.choice([-1, 1], size=p.shape)
            params[name] = vals
    model.params = params


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            MlpConfig(input_dim=0)
        with pytest.raises(ParameterError):
            MlpConfig(input_dim=1, hidden_dims=(0,))
        with pytest.raises(ParameterError):
            MlpConfig(input_dim=1, dropout_p=1.0)
        with pytest.raises(ParameterError):
            MlpConfig(input_dim=1, activation="gelu")


class TestInit:
    def test_log_var_head_bias_starts_at_zero(self):
        model = small_model()
        assert model.params["head_logvar.bias"][0, 0] == 0.0

    def test_same_seed_same_parameters(self):
        m1, m2 = small_model(seed=7), small_model(seed=7)
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_parameters_are_read_only(self):
        model = small_model(hidden=(3,))
        for p in model.params.values():
            assert p.dtype == np.float64 and p.flags.c_contiguous
            with pytest.raises(ValueError):
                p[0, 0] = 1.0

    def test_zero_input_prediction_equals_target_head_bias(self):
        # zero biases and zero input propagate zeros through the affine-relu stack
        model = small_model(hidden=(5, 3))
        y_hat, log_var, _ = forward(model, np.zeros((4, 2)))
        assert np.all(y_hat == model.params["head_y.bias"][0, 0])
        assert np.all(log_var == 0.0)


class TestForward:
    def test_hand_computed_single_layer(self):
        model = small_model(hidden=(1,), input_dim=1)
        model.params = {
            **model.params,
            "layer0.weight": np.array([[2.0]]),
            "layer0.bias": np.array([[1.0]]),
            "head_y.weight": np.array([[1.0]]),
            "head_logvar.weight": np.array([[0.0]]),
        }
        y_hat, log_var, trace = forward(model, np.array([[3.0]]))
        assert trace.activations[0][0, 0] == 7.0  # 3*2 + 1, relu inactive
        assert y_hat[0] == 7.0
        assert log_var[0] == 0.0

    def test_no_dropout_makes_modes_agree(self):
        model = small_model(hidden=(8, 8), dropout_p=0.0, seed=3)
        x = np.random.default_rng(0).normal(size=(6, 2))
        det_y, det_lv, _ = forward(model, x)
        sto_y, sto_lv, _ = forward(model, x, rng=Rng(5))
        assert np.array_equal(det_y, sto_y)
        assert np.array_equal(det_lv, sto_lv)

    def test_stochastic_forward_is_seed_deterministic(self):
        model = small_model(dropout_p=0.4)
        x = np.random.default_rng(1).normal(size=(5, 2))
        out1 = forward(model, x, rng=Rng(11))
        out2 = forward(model, x, rng=Rng(11))
        assert np.array_equal(out1[0], out2[0])
        assert np.array_equal(out1[1], out2[1])

    def test_mask_replay_is_bitwise(self):
        model = small_model(hidden=(6, 4), dropout_p=0.3, seed=2)
        x = np.random.default_rng(2).normal(size=(7, 2))
        y1, lv1, trace = forward(model, x, rng=Rng(13))
        y2, lv2, _ = forward(model, x, masks=trace.masks)
        assert np.array_equal(y1, y2)
        assert np.array_equal(lv1, lv2)

    def test_stacked_masks_replay_each_draw(self):
        model = small_model(hidden=(6, 4), dropout_p=0.3, seed=2)
        x = np.random.default_rng(2).normal(size=(7, 2))
        traces = [forward(model, x, rng=Rng(seed))[2] for seed in (13, 14, 15)]
        stacked = [np.stack([t.masks[i] for t in traces]) for i in range(2)]
        y, lv, trace = forward(model, x, masks=stacked)
        assert y.shape == lv.shape == (3, 7)
        for k, single in enumerate(traces):
            assert y[k].tobytes() == single.y_hat.tobytes()
            assert lv[k].tobytes() == single.log_var.tobytes()

    def test_stacked_masks_must_share_one_draw_count(self):
        model = small_model(hidden=(6, 4), dropout_p=0.3)
        x = np.zeros((7, 2))
        with pytest.raises(ShapeError, match=r"\(2, 7, 4\)"):
            forward(model, x, masks=[np.ones((2, 7, 6)), np.ones((3, 7, 4))])
        with pytest.raises(ShapeError, match="2-D or 3-D"):
            forward(model, x, masks=[np.ones((1, 2, 7, 6)), np.ones((1, 2, 7, 4))])

    def test_shape_validation(self):
        model = small_model()
        with pytest.raises(ShapeError):
            forward(model, np.zeros((3, 5)))
        with pytest.raises(ParameterError):
            forward(model, np.zeros((3, 2)), rng=Rng(0), masks=[])

    def test_input_shape_error_names_the_shape(self):
        model = small_model()
        with pytest.raises(ShapeError, match=r"\(2, 3\)"):
            forward(model, np.zeros((2, 3)))
        with pytest.raises(ShapeError, match=r"\(2,\)"):
            forward(model, np.zeros(2))

    def test_masks_are_read_only(self):
        model = small_model(hidden=(4, 3), dropout_p=0.2)
        for rng in (Rng(1), None):
            _, _, trace = forward(model, np.ones((2, 2)), rng=rng)
            for mask in trace.masks:
                with pytest.raises(ValueError):
                    mask[0, 0] = 0.0

    def test_log_var_clamped(self):
        model = small_model(hidden=(1,), input_dim=1)
        model.params = {
            **model.params,
            "layer0.weight": np.array([[1.0]]),
            "head_logvar.weight": np.array([[100.0]]),
        }
        _, log_var, trace = forward(model, np.array([[5.0]]))
        assert log_var[0] == 6.0
        assert trace.clamp_active[0]
        grads = backward(model, trace, np.zeros(1), np.ones(1))
        for g in grads.values():
            assert np.all(g == 0.0)


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        model = small_model(hidden=(4, 3), dropout_p=0.2)
        x = np.random.default_rng(3).normal(size=(5, 2))
        _, _, trace = forward(model, x, rng=Rng(17))
        grads = backward(model, trace, np.zeros(5), np.zeros(5))
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_linear_model_hand_gradient(self):
        # y = w*x with x=3: d(loss)/dw = d_y_hat * x = 3
        model = small_model(hidden=(1,), input_dim=1)
        model.params = {
            **model.params,
            "layer0.weight": np.array([[1.0]]),
            "head_y.weight": np.array([[1.0]]),
            "head_logvar.weight": np.array([[0.0]]),
        }
        _, _, trace = forward(model, np.array([[3.0]]))
        grads = backward(model, trace, np.array([1.0]), np.array([0.0]))
        assert grads["head_y.weight"][0, 0] == 3.0
        assert grads["layer0.weight"][0, 0] == 3.0

    @pytest.mark.parametrize("seed", range(6))
    def test_finite_difference_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_hidden = int(rng.integers(1, 4))
        hidden = tuple(int(w) for w in rng.integers(1, 9, size=n_hidden))
        activation = "relu" if seed % 2 == 0 else "tanh"
        model = small_model(hidden=hidden, dropout_p=0.25, activation=activation, seed=seed)
        randomize_biases(model, rng)
        x = rng.normal(size=(4, 2))
        _, _, trace = forward(model, x, rng=Rng(seed + 100))
        masks = trace.masks

        c_y = rng.normal(size=4)
        c_lv = rng.normal(size=4)

        def scalar_loss() -> float:
            y_hat, log_var, _ = forward(model, x, masks=masks)
            return float(c_y @ y_hat + c_lv @ log_var)

        _, _, trace2 = forward(model, x, masks=masks)
        grads = backward(model, trace2, c_y, c_lv)

        h = 1e-6
        for name, g in grads.items():
            base = model.params[name]
            for idx in np.ndindex(base.shape):
                plus = base.copy()
                plus[idx] += h
                minus = base.copy()
                minus[idx] -= h
                model.params = {**model.params, name: plus}
                up = scalar_loss()
                model.params = {**model.params, name: minus}
                down = scalar_loss()
                model.params = {**model.params, name: base}
                fd = (up - down) / (2 * h)
                analytic = g[idx]
                assert abs(analytic - fd) <= 1e-5 * max(abs(analytic), abs(fd), 1e-8), (
                    f"{name}{idx}: analytic={analytic}, fd={fd}"
                )

    def test_stale_trace_rejected(self):
        model = small_model(hidden=(4,))
        x = np.zeros((3, 2))
        _, _, trace = forward(model, x)
        other = small_model(hidden=(6,))
        with pytest.raises(StaleTraceError):
            backward(other, trace, np.zeros(3), np.zeros(3))

    def test_trace_from_before_a_parameter_update_is_rejected(self):
        model = small_model(hidden=(4,))
        x = np.random.default_rng(4).normal(size=(3, 2))
        _, _, old_trace = forward(model, x)
        config = TrainConfig(optimizer="sgd_momentum", learning_rate=0.1)
        grads = backward(model, old_trace, np.ones(3), np.ones(3))
        new_params, _ = optimizer_update(
            model.params, grads, init_optimizer_state(config, model.params), config
        )
        model.params = new_params
        with pytest.raises(StaleTraceError):
            backward(model, old_trace, np.ones(3), np.ones(3))
        _, _, fresh = forward(model, x)
        backward(model, fresh, np.ones(3), np.ones(3))

    def test_trace_with_a_draw_axis_is_rejected(self):
        model = small_model(hidden=(4, 3), dropout_p=0.2)
        x = np.random.default_rng(5).normal(size=(3, 2))
        masks = [np.ones((2, 3, 4)), np.ones((2, 3, 3))]
        y_hat, _, trace = forward(model, x, masks=masks)
        assert y_hat.shape == (2, 3)
        with pytest.raises(ShapeError, match="single-draw"):
            backward(model, trace, np.zeros(6), np.zeros(6))

    def test_upstream_shape_checked(self):
        model = small_model()
        _, _, trace = forward(model, np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            backward(model, trace, np.zeros(2), np.zeros(3))


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        model = small_model(hidden=(5, 3), dropout_p=0.1, seed=23)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])

    def test_parameters_are_stored_flat_row_major(self, tmp_path):
        model = small_model(hidden=(2,), input_dim=3)
        weight = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        model.params = {**model.params, "layer0.weight": weight}
        path = tmp_path / "model.json"
        save_model(model, path)
        entry = json.loads(path.read_text())["params"]["layer0.weight"]
        assert entry == {"rows": 3, "cols": 2, "data": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}
        loaded = load_model(path).params["layer0.weight"]
        assert np.array_equal(loaded, weight)
        assert loaded.flags.c_contiguous and not loaded.flags.writeable

    def _corrupted(self, tmp_path, edit):
        path = tmp_path / "model.json"
        save_model(small_model(hidden=(2,)), path)
        doc = json.loads(path.read_text())
        edit(doc["params"]["layer0.weight"]["data"])
        path.write_text(json.dumps(doc))
        return path

    def test_rejects_size_mismatch(self, tmp_path):
        with pytest.raises(ShapeError, match="layer0.weight"):
            load_model(self._corrupted(tmp_path, lambda data: data.pop()))

    def test_rejects_a_shape_its_config_does_not_imply(self, tmp_path):
        # same 8 values, relabelled 4x2 instead of 2x4
        path = tmp_path / "model.json"
        save_model(small_model(hidden=(4,)), path)
        doc = json.loads(path.read_text())
        doc["params"]["layer0.weight"].update(rows=4, cols=2)
        path.write_text(json.dumps(doc))
        with pytest.raises(ShapeError, match=r"layer0.weight.*\(2, 4\).*\(4, 2\)"):
            load_model(path)

    def test_provenance_must_match_when_required(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model(), path, provenance={"config_sha256": "abc", "seed": 0})
        assert load_model(path, provenance={"config_sha256": "abc", "seed": 0}).params
        with pytest.raises(ParameterError, match="'seed': 0.*'seed': 1"):
            load_model(path, provenance={"config_sha256": "abc", "seed": 1})
        save_model(small_model(), path)
        with pytest.raises(ParameterError, match="'seed': None"):
            load_model(path, provenance={"config_sha256": "abc", "seed": 0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_values(self, tmp_path, bad):
        with pytest.raises(NonFiniteError, match="layer0.weight"):
            load_model(self._corrupted(tmp_path, lambda data: data.__setitem__(0, bad)))

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ParameterError):
            load_model(path)
