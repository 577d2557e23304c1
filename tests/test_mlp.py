import json
import math
from dataclasses import replace

import numpy as np
import pytest

import semireg.mlp as mlp_module
from semireg.errors import NonFiniteError, ParameterError, ShapeError, StaleTraceError
from semireg.mlp import (
    ForwardTrace,
    MlpConfig,
    MlpModel,
    backward,
    forward,
    init_model,
    load_model,
    param_layout,
    save_model,
    stack_models,
)
from semireg.rng import Rng
from semireg.training import ExperimentConfig, init_optimizer_state, optimizer_update


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


# rows: 1 is the cycler's remainder batch, 10 a benchmark batch, 90 the
# validation split
PAIR_CASES = [
    (hidden, activation, rows)
    for hidden in ((), (16, 16), (24, 8, 16))
    for activation in ("relu", "tanh")
    for rows in (1, 10, 90)
]
PAIR_IDS = [
    f"{act}-{'x'.join(map(str, hidden)) or 'nohidden'}-rows{rows}" for hidden, act, rows in PAIR_CASES
]


def member_models(hidden, activation):
    cfg = MlpConfig(input_dim=3, hidden_dims=hidden, dropout_p=0.25, activation=activation)
    a, b = init_model(cfg, Rng(1)), init_model(cfg, Rng(2))
    np_rng = np.random.default_rng(len(hidden))
    randomize_biases(a, np_rng)
    randomize_biases(b, np_rng)
    return a, b


def assert_same_bytes(got, expected):
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def assert_trace_free_matches(model, x, streams=lambda: None, masks=None):
    """forward(trace=False) returns the traced pass's bytes, read-only and with
    no trace, and writes into no mask it is given. ``streams()`` makes fresh rng."""
    y, lv, _ = forward(model, x, rng=streams(), masks=masks)
    given = None if masks is None else [mask.copy() for mask in masks]
    y_free, lv_free, trace = forward(model, x, rng=streams(), masks=masks, trace=False)
    assert trace is None
    for got, expected in ((y_free, y), (lv_free, lv)):
        assert_same_bytes(got, expected)
        assert not got.flags.writeable
    for mask, before in zip(masks or (), given or ()):
        assert_same_bytes(mask, before)


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
        assert_trace_free_matches(model, x, masks=stacked)

    def test_stacked_masks_must_share_one_draw_count(self):
        model = small_model(hidden=(6, 4), dropout_p=0.3)
        x = np.zeros((7, 2))
        with pytest.raises(ShapeError, match=r"\(2, 7, 4\)"):
            forward(model, x, masks=[np.ones((2, 7, 6), bool), np.ones((3, 7, 4), bool)])
        with pytest.raises(ShapeError, match="2-D or 3-D"):
            forward(model, x, masks=[np.ones((1, 2, 7, 6), bool), np.ones((1, 2, 7, 4), bool)])

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

    @pytest.mark.parametrize("bounds", [(-6.0, 6.0), (0.0, 2.0), (-0.0, 3.0), (-2.0, -0.0)])
    @pytest.mark.parametrize("trace", [True, False])
    def test_log_var_clamp_has_the_bits_of_np_clip(self, monkeypatch, bounds, trace):
        # the raw head output is set by hand: NaN, infinities, signed zeros,
        # both bounds and their neighbours, whatever the bounds' signs
        lo, hi = bounds
        raw = np.array(
            [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, lo, hi, -lo, -hi, 1.5, -1.5]
            + [np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), 5e-324, -5e-324]
        )
        affine = mlp_module._affine

        def head(h, params, layer):
            out = affine(h, params, layer)
            return raw[:, None].copy() if layer == "head_logvar" else out

        monkeypatch.setattr(mlp_module, "_affine", head)
        cfg = MlpConfig(input_dim=2, hidden_dims=(3,), log_var_min=lo, log_var_max=hi)
        model = init_model(cfg, Rng(0))
        _, log_var, kept = forward(model, np.ones((raw.size, 2)), trace=trace)
        assert log_var.tobytes() == np.clip(raw, lo, hi).tobytes()
        assert not log_var.flags.writeable
        if trace:
            assert np.array_equal(kept.clamp_active, (raw < lo) | (raw > hi))


# A tanh model with two hidden layers of width 1, and a trace of 2 rows
# written by hand: every gradient entry is then a short sum (hand_gradients).
# "inputs<i>" are the layer inputs (inputs2 feeds both heads), "act<i>" the
# activations, d_y and d_lv the upstream gradients, and the others are
# parameter values (backward reads no bias); masks keep every unit and the
# scale is 1.
HAND_DEFAULTS = {
    "inputs0": 0.25,
    "inputs1": 0.25,
    "inputs2": 0.25,
    "act0": 0.0,
    "act1": 0.0,
    "d_y": 0.25,
    "d_lv": 0.25,
    **{f"{layer}.weight": 1.0 for layer in ("layer0", "layer1", "head_y", "head_logvar")},
    **{f"{layer}.bias": 0.0 for layer in ("layer0", "layer1", "head_y", "head_logvar")},
}
# Per parameter, the overrides that make exactly one entry of its gradient
# non-finite (an inf input, or a sum or product past the float64 range)
# while every other gradient entry stays finite.
ONE_BAD_ENTRY = {
    "layer0.weight": {"inputs0": np.inf},
    "layer0.bias": {"act0": 1e154, "d_y": 0.5, "d_lv": 0.5},
    "layer1.weight": {"inputs1": np.inf},
    "layer1.bias": {"act1": 1e154, "d_y": 0.5, "d_lv": 0.5, "layer1.weight": 1e-300},
    "head_y.weight": {"inputs2": 1e300, "d_y": 1e10},
    "head_y.bias": {"d_y": 1e308, "head_y.weight": 1e-300},
    "head_logvar.weight": {"inputs2": 1e300, "d_lv": 1e10},
    "head_logvar.bias": {"d_lv": 1e308, "head_logvar.weight": 1e-300},
}
HAND_CONFIG = MlpConfig(input_dim=1, hidden_dims=(1, 1), activation="tanh")


def hand_gradients(v):
    # each parameter's one gradient entry, in Python floats
    rows, d_y, d_lv = 2, v["d_y"], v["d_lv"]
    grads = {
        "head_y.weight": rows * v["inputs2"] * d_y,
        "head_y.bias": rows * d_y,
        "head_logvar.weight": rows * v["inputs2"] * d_lv,
        "head_logvar.bias": rows * d_lv,
    }
    d_h = d_y * v["head_y.weight"] + d_lv * v["head_logvar.weight"]
    for i in (1, 0):
        d_pre = d_h * (1.0 - v[f"act{i}"] * v[f"act{i}"])
        grads[f"layer{i}.weight"] = rows * v[f"inputs{i}"] * d_pre
        grads[f"layer{i}.bias"] = rows * d_pre
        d_h = d_pre * v[f"layer{i}.weight"]
    return grads


def hand_case(members):
    """(model, trace, d_y, d_lv) of one value dict per member; one dict is a single model."""
    lead = (len(members),) if len(members) > 1 else ()

    def arr(key, shape):
        return np.array([np.full(shape, v[key]) for v in members]).reshape(*lead, *shape)

    params = {name: arr(name, (1, 1)) for name in param_layout(HAND_CONFIG).shapes}
    model = MlpModel(HAND_CONFIG, params)
    trace = ForwardTrace(
        layer_inputs=[arr(f"inputs{i}", (2, 1)) for i in range(3)],
        activations=[arr(f"act{i}", (2, 1)) for i in range(2)],
        masks=[np.ones((*lead, 2, 1), bool)] * 2,
        scale=1.0,
        y_hat=np.zeros((*lead, 2)),
        log_var=np.zeros((*lead, 2)),
        clamp_active=np.zeros((*lead, 2), bool),
        params=model.params,
    )
    return model, trace, arr("d_y", (2,)), arr("d_lv", (2,))


class TestBackward:
    def test_hand_trace_gives_the_hand_gradients(self):
        model, trace, d_y, d_lv = hand_case([HAND_DEFAULTS])
        grads = backward(model, trace, d_y, d_lv)
        for name, value in hand_gradients(HAND_DEFAULTS).items():
            assert grads[name][0, 0] == pytest.approx(value, rel=1e-15), name

    @pytest.mark.parametrize("members", [1, 2], ids=["single", "pair"])
    @pytest.mark.parametrize("name", list(ONE_BAD_ENTRY))
    def test_one_non_finite_gradient_entry_is_refused(self, name, members):
        # the single check over the gradient buffer covers every parameter
        bad = {**HAND_DEFAULTS, **ONE_BAD_ENTRY[name]}
        values = [HAND_DEFAULTS, bad][-members:]  # member b of a pair is the bad one
        expected = [hand_gradients(v) for v in values]
        non_finite = [
            (i, n) for i, grads in enumerate(expected) for n, g in grads.items() if not math.isfinite(g)
        ]
        assert non_finite == [(members - 1, name)]
        with pytest.raises(NonFiniteError, match="gradient entries must be finite"):
            backward(*hand_case(values))

    @pytest.mark.parametrize("hidden", [(), (4, 3)])
    def test_gradients_are_views_of_one_buffer_in_layout_order(self, hidden):
        single = small_model(hidden=hidden, dropout_p=0.2)
        for model in (single, stack_models(single, single)):
            rows = (*model.member_shape, 5)
            x = np.random.default_rng(3).normal(size=(5, 2))
            _, _, trace = forward(model, x)
            grads = backward(model, trace, np.ones(rows), np.ones(rows))
            layout = param_layout(model.config, model.member_shape)
            assert param_layout(model.config, model.member_shape) is layout
            assert {name: g.shape for name, g in grads.items()} == layout.shapes
            assert list(grads) == list(model.params)
            buffer = grads["layer0.weight" if hidden else "head_y.weight"].base
            assert buffer.shape == (layout.size,)
            assert all(g.base is buffer for g in grads.values())

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
        config = ExperimentConfig(optimizer="sgd_momentum", learning_rate=0.1)
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
        masks = [np.ones((2, 3, 4), bool), np.ones((2, 3, 3), bool)]
        y_hat, _, trace = forward(model, x, masks=masks)
        assert y_hat.shape == (2, 3)
        with pytest.raises(ShapeError, match="single-draw"):
            backward(model, trace, np.zeros(6), np.zeros(6))

    def test_upstream_shape_checked(self):
        model = small_model()
        _, _, trace = forward(model, np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            backward(model, trace, np.zeros(2), np.zeros(3))


# every class of float a mask can meet: negative, signed zeros, infinities, NaN
SPECIAL = np.array([-2.5, -0.0, 0.0, np.inf, -np.inf, np.nan, 1.5, -1e-300])


def special_model(activation):
    """A model whose first-layer pre-activations hold each SPECIAL input as it
    is or negated (a zero's sign aside): weight +-1 and bias -0.0."""
    model = small_model(hidden=(8, 6), dropout_p=0.3, activation=activation, seed=4, input_dim=1)
    weight = np.where(np.arange(8) % 2, -1.0, 1.0)[None, :]
    model.params = {**model.params, "layer0.weight": weight, "layer0.bias": np.full((1, 8), -0.0)}
    return model


def reference_forward(model, x, keeps):
    """forward with the float mask where(keep, 1/(1-p), 0.0) the keep bits stand for."""
    cfg, params = model.config, model.params
    h = x
    for i, keep in enumerate(keeps):
        act = h @ params[f"layer{i}.weight"]
        act += params[f"layer{i}.bias"]
        act = np.maximum(act, 0.0) if cfg.activation == "relu" else np.tanh(act)
        h = act * np.where(keep, 1.0 / (1.0 - cfg.dropout_p), 0.0)
    heads = []
    for head in ("head_y", "head_logvar"):
        out = h @ params[f"{head}.weight"]
        out += params[f"{head}.bias"]
        heads.append(out[..., 0])
    return heads[0], np.clip(heads[1], cfg.log_var_min, cfg.log_var_max)


class TestKeepBits:
    """A mask is bool keep bits, applied as (h * keep) * scale with scale =
    1/(1-p): the same bits as h * where(keep, scale, 0.0) for every h."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("draws", [(), (3,)])
    def test_forward_matches_the_float_mask(self, activation, draws):
        model = special_model(activation)
        x = SPECIAL[:, None]
        np_rng = np.random.default_rng(len(draws))
        keeps = [np_rng.random((*draws, 8, width)) >= 0.3 for width in (8, 6)]
        scale = 1.0 / (1.0 - 0.3)
        with np.errstate(invalid="ignore", over="ignore"):
            y_ref, lv_ref = reference_forward(model, x, keeps)
            y, lv, trace = forward(model, x, masks=keeps)
            for i, keep in enumerate(keeps):
                assert trace.masks[i] is keep
                expected = trace.activations[i] * np.where(keep, scale, 0.0)
                assert_same_bytes(trace.layer_inputs[i + 1], expected)
        for got, expected in ((y, y_ref), (lv, lv_ref)):
            assert_same_bytes(got, expected)
        assert_trace_free_matches(model, x, masks=keeps)
        # The masks met NaN, zero and +inf (relu) or negative values (tanh),
        # whose dropping makes -0.0. Neither activation makes -inf, and the
        # matmul's +0.0 start turns a -0.0 input into +0.0.
        met = np.concatenate([act.ravel() for act in trace.activations])
        out = np.concatenate([h.ravel() for h in trace.layer_inputs[1:]])
        assert np.isnan(met).any() and (met == 0.0).any()
        if activation == "relu":
            assert np.isposinf(met).any() and np.isposinf(out).any()
        else:
            assert (met < 0.0).any() and (np.signbit(out) & (out == 0.0)).any()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_backward_matches_the_float_mask(self, activation):
        model = special_model(activation)
        # backward refuses non-finite gradients, so its inputs are finite
        x = np.nan_to_num(SPECIAL, posinf=3.0, neginf=-3.0, nan=0.5)[:, None]
        d_y = np.array([-1.0, -0.0, 0.0, 2.0, -0.0, 0.5, -3.0, 1e-300])
        d_lv = np.array([0.5, -0.0, -0.0, -1.0, 0.0, -2.0, 1.0, -0.0])
        _, _, trace = forward(model, x, rng=Rng(9))
        assert all(keep.dtype == bool for keep in trace.masks) and trace.scale == 1.0 / (1.0 - 0.3)
        float_masks = [np.where(keep, trace.scale, 0.0) for keep in trace.masks]
        reference = backward(model, replace(trace, masks=float_masks, scale=1.0), d_y, d_lv)
        for name, grad in backward(model, trace, d_y, d_lv).items():
            assert_same_bytes(grad, reference[name])

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint8])
    def test_a_mask_that_is_not_bool_is_refused(self, dtype):
        model = small_model(hidden=(4, 3), dropout_p=0.2)
        masks = [np.ones((2, 4), bool), np.ones((2, 3), dtype)]
        with pytest.raises(ParameterError, match=f"mask 1 has dtype {np.dtype(dtype)}"):
            forward(model, np.zeros((2, 2)), masks=masks)
        with pytest.raises(ParameterError, match="dtype"):
            forward(model, np.zeros((2, 2)), masks=masks, trace=False)


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

    @pytest.mark.parametrize("edit", ["missing", "unknown"])
    def test_config_must_hold_exactly_the_mlp_config_fields(self, tmp_path, edit):
        # a missing field must not fall back to its MlpConfig default
        path = tmp_path / "model.json"
        save_model(small_model(dropout_p=0.1), path)
        doc = json.loads(path.read_text())
        if edit == "missing":
            del doc["config"]["dropout_p"]
        else:
            doc["config"]["momentum"] = 0.9
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match="malformed"):
            load_model(path)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ParameterError):
            load_model(path)


class TestStackedPair:
    def test_members_are_read_only_views_of_the_stack(self):
        a, b = member_models((4,), "relu")
        pair = stack_models(a, b)
        assert pair.member_shape == (2,) and a.member_shape == ()
        for i, model in enumerate((a, b)):
            member = pair.member(i)
            assert member.config == model.config
            for name, p in pair.params.items():
                assert p.shape == (2, *model.params[name].shape) and not p.flags.writeable
                assert_same_bytes(member.params[name], model.params[name])
                assert np.shares_memory(member.params[name], p)
                assert not member.params[name].flags.writeable
        with pytest.raises(ParameterError):
            a.member(0)
        with pytest.raises(ParameterError):
            stack_models(pair, pair)

    def test_configs_must_match(self):
        a = small_model(hidden=(4,))
        b = small_model(hidden=(5,))
        with pytest.raises(ParameterError, match=r"hidden_dims=\(4,\).*hidden_dims=\(5,\)"):
            stack_models(a, b)

    def test_member_checkpoint_equals_the_model_checkpoint(self, tmp_path):
        a, b = member_models((5, 3), "tanh")
        save_model(b, tmp_path / "model.json", provenance={"seed": 1})
        save_model(stack_models(a, b).member(1), tmp_path / "member.json", provenance={"seed": 1})
        assert (tmp_path / "member.json").read_bytes() == (tmp_path / "model.json").read_bytes()

    def test_rng_mode_needs_one_stream_per_member(self):
        pair = stack_models(*member_models((4,), "relu"))
        x = np.zeros((3, 3))
        with pytest.raises(ParameterError):
            forward(pair, x, rng=Rng(0))
        with pytest.raises(ParameterError):
            forward(pair.member(0), x, rng=(Rng(0), Rng(1)))
        with pytest.raises(ShapeError, match="3-D or 4-D"):
            forward(pair, x, masks=[np.ones((3, 4), bool)])
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\)"):
            forward(pair, x, masks=[np.ones((3, 3, 4), bool)])

    @pytest.mark.parametrize("hidden, activation, rows", PAIR_CASES, ids=PAIR_IDS)
    def test_forward_matches_each_member(self, hidden, activation, rows):
        a, b = member_models(hidden, activation)
        pair = stack_models(a, b)
        x = np.random.default_rng(rows).normal(size=(rows, 3))

        # fresh masks: one stream per member, as the single-model code draws them
        y, lv, trace = forward(pair, x, rng=(Rng(5), Rng(6)))
        for i, (model, seed) in enumerate(((a, 5), (b, 6))):
            stream = Rng(seed)
            y_i, lv_i, trace_i = forward(model, x, rng=stream)
            assert_same_bytes(y[i], y_i)
            assert_same_bytes(lv[i], lv_i)
            for mask, mask_i in zip(trace.masks, trace_i.masks):
                assert_same_bytes(mask[i], mask_i)
                assert not mask.flags.writeable
            assert stream.counter == rows * sum(hidden)
            assert_trace_free_matches(model, x, streams=lambda: Rng(seed))
        assert_trace_free_matches(pair, x, streams=lambda: (Rng(5), Rng(6)))

        # deterministic
        y, lv, _ = forward(pair, x)
        for i, model in enumerate((a, b)):
            y_i, lv_i, _ = forward(model, x)
            assert_same_bytes(y[i], y_i)
            assert_same_bytes(lv[i], lv_i)
            assert_trace_free_matches(model, x)
        assert_trace_free_matches(pair, x)

        # replayed masks with a draw axis: (k, 2, rows, width)
        k = 3
        per_draw = [
            [forward(m, x, rng=Rng(10 * t + i))[2].masks for i, m in enumerate((a, b))]
            for t in range(k)
        ]
        stacked = [
            np.stack([np.stack([per_draw[t][i][layer] for i in (0, 1)]) for t in range(k)])
            for layer in range(len(hidden))
        ]
        y, lv, _ = forward(pair, x, masks=stacked)
        if hidden:
            assert y.shape == (k, 2, rows)
        y, lv = (np.broadcast_to(v, (k, 2, rows)) for v in (y, lv))
        for t in range(k):
            for i, model in enumerate((a, b)):
                y_i, lv_i, _ = forward(model, x, masks=per_draw[t][i])
                assert_same_bytes(y[t, i], y_i)
                assert_same_bytes(lv[t, i], lv_i)
                writable = [mask.copy() for mask in per_draw[t][i]]
                assert_trace_free_matches(model, x, masks=writable)
        assert_trace_free_matches(pair, x, masks=stacked)
        assert_trace_free_matches(pair, x, masks=[mask[0] for mask in stacked])

    @pytest.mark.parametrize("hidden, activation, rows", PAIR_CASES, ids=PAIR_IDS)
    def test_backward_matches_each_member(self, hidden, activation, rows):
        a, b = member_models(hidden, activation)
        pair = stack_models(a, b)
        x = np.random.default_rng(rows).normal(size=(rows, 3))
        d_y, d_lv = np.random.default_rng(rows + 1).normal(size=(2, 2, rows))
        _, _, trace = forward(pair, x, rng=(Rng(5), Rng(6)))
        grads = backward(pair, trace, d_y, d_lv)
        for i, (model, seed) in enumerate(((a, 5), (b, 6))):
            _, _, trace_i = forward(model, x, rng=Rng(seed))
            grads_i = backward(model, trace_i, d_y[i], d_lv[i])
            assert list(grads) == list(grads_i)
            for name, g in grads_i.items():
                assert_same_bytes(grads[name][i], g)

    def test_pair_trace_with_a_draw_axis_is_rejected(self):
        pair = stack_models(*member_models((4,), "relu"))
        x = np.zeros((3, 3))
        _, _, trace = forward(pair, x, masks=[np.ones((5, 2, 3, 4), bool)])
        with pytest.raises(ShapeError, match="single-draw"):
            backward(pair, trace, np.zeros((5, 2, 3)), np.zeros((5, 2, 3)))
        _, _, trace = forward(pair, x)
        with pytest.raises(ShapeError, match=r"\(2, 3\)"):
            backward(pair, trace, np.zeros(3), np.zeros(3))
