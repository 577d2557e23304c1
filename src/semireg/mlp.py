"""Feedforward regressor with dropout and two scalar heads.

The trunk is a stack of affine layers with relu or tanh activations, a
dropout mask after every hidden activation, and two linear heads on top:
one predicting the target value, one predicting the log of the aleatoric
variance (kept in log space so the variance is positive by construction).
A forward pass records everything needed for an exact reverse-mode gradient,
including the sampled dropout keep bits, so a stored trace can be replayed
bit-for-bit; callers that discard the trace skip it (trace=False).

Parameters are read-only float64 arrays. The optimizer never writes to
them; it replaces them, so an array's identity stands for its values. A
model's parameters are (rows, cols); stack_models makes the co-trained pair
one model with (2, rows, cols) parameters. forward and backward run both
forms through one layer loop whose matmuls broadcast against the member
axis, (k, 2, n, w) @ (2, w, w'), with the same bits as per-member passes.
backward writes every gradient into its view of one float64 buffer, laid out
in param_layout order, and checks that buffer once.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import NonFiniteError, ParameterError, ShapeError, StaleTraceError
from .rng import Rng, sample_dropout_mask

_ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden_dims: tuple[int, ...] = (64, 64)
    dropout_p: float = 0.05
    activation: str = "relu"
    # Log-variance outputs are clamped to keep exp(-log_var) bounded during
    # early training; the range is configurable and the gradient is zeroed
    # wherever the clamp is active.
    log_var_min: float = -6.0
    log_var_max: float = 6.0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ParameterError(f"input_dim must be >= 1, got {self.input_dim}")
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        if any(d < 1 for d in self.hidden_dims):
            raise ParameterError(f"hidden_dims must all be >= 1, got {self.hidden_dims}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ParameterError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.activation not in _ACTIVATIONS:
            raise ParameterError(f"activation must be one of {_ACTIVATIONS}, got {self.activation!r}")
        if not self.log_var_min < self.log_var_max:
            raise ParameterError("log_var_min must be below log_var_max")

    @property
    def trunk_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims)


@dataclass
class MlpModel:
    """Parameter container; mutated only by the optimizer between steps."""

    config: MlpConfig
    params: dict[str, np.ndarray]

    @property
    def member_shape(self) -> tuple[int, ...]:
        """() for a single model, (2,) for a stacked pair."""
        return self.params["head_y.bias"].shape[:-2]

    def member(self, i: int) -> "MlpModel":
        """Member i of a stacked pair, with read-only views of its parameters."""
        if not self.member_shape:
            raise ParameterError("member() needs a stacked pair")
        return MlpModel(config=self.config, params={n: p[i] for n, p in self.params.items()})


@dataclass
class ForwardTrace:
    """Bookkeeping for one forward pass, sufficient for exact backprop."""

    layer_inputs: list[np.ndarray]  # h_0 = x, then post-dropout activations
    activations: list[np.ndarray]  # post-nonlinearity, pre-dropout
    masks: list[np.ndarray]  # bool keep bits; a kept unit is scaled by `scale`
    scale: float  # 1/(1-p), or 1.0 for the deterministic pass
    y_hat: np.ndarray
    log_var: np.ndarray
    clamp_active: np.ndarray
    params: dict[str, np.ndarray]  # the parameter arrays this pass read


class ParamLayout:
    """Named arrays of the given shapes laid end to end, in order, in one flat buffer."""

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        self.shapes = dict(shapes)
        ends = (0, *itertools.accumulate(map(math.prod, self.shapes.values())))
        self.size = ends[-1]
        self._spans = tuple(zip(self.shapes.items(), ends, ends[1:]))

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each array as a view of ``flat``, a buffer of ``size`` values."""
        return {name: flat[lo:hi].reshape(shape) for (name, shape), lo, hi in self._spans}


@functools.lru_cache(maxsize=64)
def param_layout(config: MlpConfig, members: tuple[int, ...] = ()) -> ParamLayout:
    """Every parameter's name and (*members, rows, cols) shape, in the canonical order.

    The gradients of backward use the same layout. It is cached, one per
    config and member shape, so every caller shares it and must not change it.
    """
    dims = config.trunk_dims
    shapes = {}
    for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
        shapes[f"layer{i}.weight"] = (*members, din, dout)
        shapes[f"layer{i}.bias"] = (*members, 1, dout)
    for head in ("head_y", "head_logvar"):
        shapes[f"{head}.weight"] = (*members, dims[-1], 1)
        shapes[f"{head}.bias"] = (*members, 1, 1)
    return ParamLayout(shapes)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _fan_in_uniform(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    vals = rng.uniforms(fan_in * fan_out) * (2.0 * bound) - bound
    return _read_only(vals.reshape(fan_in, fan_out))


def init_model(config: MlpConfig, rng: Rng) -> MlpModel:
    """Fan-in-scaled uniform weights U(-1/sqrt(fan_in), +1/sqrt(fan_in)), zero biases.

    Zero biases make the initial log-variance prediction 0 on zero input,
    i.e. unit variance, which matches standardized targets. Weights are drawn
    trunk-first, then target head, then log-variance head, row-major.
    """
    params = {
        name: _fan_in_uniform(rng, *shape)
        if name.endswith(".weight")
        else _read_only(np.zeros(shape))
        for name, shape in param_layout(config).shapes.items()
    }
    return MlpModel(config=config, params=params)


def stack_models(a: MlpModel, b: MlpModel) -> MlpModel:
    """The single models a and b, which share one config, as one stacked pair (a copy)."""
    if a.config != b.config or a.member_shape or b.member_shape:
        raise ParameterError(f"a pair needs two single models of one config: {a.config} {b.config}")
    names = param_layout(a.config).shapes
    params = {name: _read_only(np.stack((a.params[name], b.params[name]))) for name in names}
    return MlpModel(config=a.config, params=params)


def split_mask_block(block: np.ndarray, rows: int, widths: tuple[int, ...]) -> list[np.ndarray]:
    """Per-layer (*lead, rows, width) views of a (*lead, rows * sum(widths)) mask block."""
    masks = []
    lo = 0
    for width in widths:
        masks.append(block[..., lo : lo + rows * width].reshape(*block.shape[:-1], rows, width))
        lo += rows * width
    return masks


def forward(
    model: MlpModel,
    x: np.ndarray,
    rng: Rng | tuple[Rng, Rng] | None = None,
    masks: list[np.ndarray] | None = None,
    *,
    trace: bool = True,
) -> tuple[np.ndarray, np.ndarray, ForwardTrace | None]:
    """One forward pass over a batch ``x`` of shape (rows, input_dim).

    Modes: pass ``rng`` to sample fresh dropout masks (one stochastic draw),
    pass ``masks`` to replay stored ones, pass neither for the deterministic
    all-ones-mask forward. Returns (y_hat, log_var, trace) with the
    log-variance clamped to the config range.

    A single model takes one Rng, a pair one per member; each stream's masks
    are its next rows * sum(hidden_dims) words, layer after layer, drawn for
    all streams in one sample_dropout_mask call. Replayed masks are bool keep
    bits (any other dtype is refused), all (*draws, *member_shape, rows,
    width) with draws () or (k,): a draw axis runs k draws at once and
    returns (k, *member_shape, rows) outputs, with the same bits as k
    separate passes.

    ``trace=False`` is for callers that discard the trace: the pass returns
    (y_hat, log_var, None) with the same bits, keeps no per-layer arrays, and
    applies each mask to its fresh activation in place (a layer-0 mask with a
    draw axis still broadcasts into a new array). No mask passed in is
    written to. A mask applies as ``(h * keep) * (1 / (1 - p))``, the bits of
    h * where(keep, 1 / (1 - p), 0.0) for every h: h * 1.0 is h, and scaling
    h * 0.0 (a signed zero or NaN) leaves it as it is.
    """
    if rng is not None and masks is not None:
        raise ParameterError("pass rng or masks, not both")
    cfg = model.config
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ShapeError(f"input must be 2-D with {cfg.input_dim} columns, got shape {x.shape}")
    rows = x.shape[0]
    members = model.member_shape
    widths = cfg.hidden_dims
    if rng is not None:
        if isinstance(rng, Rng) == bool(members):
            raise ParameterError("pass one Rng for a single model, one per member for a pair")
        cols = rows * sum(widths)
        block = sample_dropout_mask(rng, members[0] if members else 1, cols, cfg.dropout_p)
        masks = split_mask_block(block.reshape(*members, cols), rows, widths)
    elif masks is not None:
        if len(masks) != len(widths):
            raise ShapeError(f"expected {len(widths)} masks, got {len(masks)}")
        base = 2 + len(members)
        if masks and masks[0].ndim not in (base, base + 1):
            raise ShapeError(f"masks must be {base}-D or {base + 1}-D, got shape {masks[0].shape}")
        draws = masks[0].shape[: masks[0].ndim - base] if masks else ()
        for i, width in enumerate(widths):
            need = (*draws, *members, rows, width)
            if masks[i].shape != need:
                raise ShapeError(f"mask {i} has shape {masks[i].shape}, need {need}")
        for i, mask in enumerate(masks):
            if mask.dtype != bool:
                raise ParameterError(f"mask {i} has dtype {mask.dtype}, need bool keep bits")
    scale = 1.0 if masks is None else 1.0 / (1.0 - cfg.dropout_p)

    params = dict(model.params)
    h = x
    layer_inputs = [h]
    activations: list[np.ndarray] = []
    used_masks: list[np.ndarray] = []
    # overflow to inf is tolerated here; loss kernels reject non-finite values
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(widths)):
            # bias and activation in place on the fresh matmul output
            act = _affine(h, params, f"layer{i}")
            if cfg.activation == "relu":
                np.maximum(act, 0.0, out=act)
            else:
                np.tanh(act, out=act)
            if not trace:  # nothing keeps act, so the mask may overwrite it
                if masks is None:
                    h = act
                else:
                    h = np.multiply(act, masks[i], out=act if masks[i].shape == act.shape else None)
                    h *= scale
                continue
            mask = masks[i] if masks is not None else _read_only(np.ones(act.shape, bool))
            h = act * mask
            h *= scale
            activations.append(act)
            used_masks.append(mask)
            layer_inputs.append(h)

        y_hat = _affine(h, params, "head_y")[..., 0]
        raw_log_var = _affine(h, params, "head_logvar")[..., 0]
    # only a trace reads the unclamped values (clamp_active)
    log_var = np.clip(
        raw_log_var, cfg.log_var_min, cfg.log_var_max, out=None if trace else raw_log_var
    )
    for arr in (y_hat, log_var):
        arr.setflags(write=False)
    if not trace:
        return y_hat, log_var, None
    clamp_active = (raw_log_var < cfg.log_var_min) | (raw_log_var > cfg.log_var_max)
    kept = ForwardTrace(
        layer_inputs=layer_inputs,
        activations=activations,
        masks=used_masks,
        scale=scale,
        y_hat=y_hat,
        log_var=log_var,
        clamp_active=clamp_active,
        params=params,
    )
    return y_hat, log_var, kept


def _affine(h: np.ndarray, params: dict[str, np.ndarray], layer: str) -> np.ndarray:
    # h @ W + b, with the bias added in place: the same bits, one array fewer
    out = h @ params[f"{layer}.weight"]
    out += params[f"{layer}.bias"]
    return out


def backward(
    model: MlpModel,
    trace: ForwardTrace,
    d_y_hat: np.ndarray,
    d_log_var: np.ndarray,
) -> dict[str, np.ndarray]:
    """Exact gradients of a scalar loss w.r.t. every parameter.

    ``d_y_hat`` and ``d_log_var`` are the upstream gradients of the loss with
    respect to the two head outputs, shaped like them: (rows,) for a single
    model, (2, rows) for a stacked pair, whose gradients come out stacked
    too. Gradients flow only through units that survived dropout and only
    where the log-variance clamp is inactive. The trace must come from the
    model's current parameter arrays and have no draw axis. The gradients
    are views of one float64 buffer, in param_layout order; that buffer is
    checked once, and any non-finite entry raises NonFiniteError.
    """
    params = trace.params
    if any(model.params.get(name) is not p for name, p in params.items()):
        raise StaleTraceError("trace does not match the model's current parameters")
    shape = trace.y_hat.shape
    if shape[:-1] != model.member_shape:
        raise ShapeError(f"backward needs a single-draw trace, got outputs of {shape}")
    d_y_hat = np.asarray(d_y_hat, dtype=np.float64)
    d_log_var = np.asarray(d_log_var, dtype=np.float64)
    if d_y_hat.shape != shape or d_log_var.shape != shape:
        raise ShapeError(
            f"upstream gradients must have shape {shape}, "
            f"got {d_y_hat.shape} and {d_log_var.shape}"
        )

    cfg = model.config
    layout = param_layout(cfg, model.member_shape)
    flat = np.empty(layout.size)
    grads = layout.views(flat)
    # a non-finite value may spread unwarned; the one check below refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        d_lv = np.where(trace.clamp_active, 0.0, d_log_var)
        dcol_y = d_y_hat[..., None]
        dcol_z = d_lv[..., None]
        h_last_t = trace.layer_inputs[-1].swapaxes(-1, -2)
        np.matmul(h_last_t, dcol_y, out=grads["head_y.weight"])
        np.add.reduce(dcol_y, axis=-2, keepdims=True, out=grads["head_y.bias"])
        np.matmul(h_last_t, dcol_z, out=grads["head_logvar.weight"])
        np.add.reduce(dcol_z, axis=-2, keepdims=True, out=grads["head_logvar.bias"])
        d_h = dcol_y @ params["head_y.weight"].swapaxes(-1, -2)
        d_h += dcol_z @ params["head_logvar.weight"].swapaxes(-1, -2)
        for i in reversed(range(len(cfg.hidden_dims))):
            act = trace.activations[i]
            d_act = d_h * trace.masks[i]
            d_act *= trace.scale
            if cfg.activation == "relu":
                d_pre = d_act * (act > 0.0)
            else:
                d_pre = d_act * (1.0 - act * act)
            np.matmul(trace.layer_inputs[i].swapaxes(-1, -2), d_pre, out=grads[f"layer{i}.weight"])
            np.add.reduce(d_pre, axis=-2, keepdims=True, out=grads[f"layer{i}.bias"])
            if i:  # the input x needs no gradient
                d_h = d_pre @ params[f"layer{i}.weight"].swapaxes(-1, -2)
    # A non-finite gradient rejects the whole training step.
    if not np.isfinite(flat).all():
        raise NonFiniteError("gradient entries must be finite")
    return grads


CHECKPOINT_FORMAT = "semireg-model"
CHECKPOINT_VERSION = 1


def save_model(model: MlpModel, path, provenance: dict | None = None) -> None:
    """Write a versioned JSON checkpoint; floats round-trip bit-exactly.

    ``provenance`` (e.g. config hash and seed) is stored verbatim; load_model
    can require it to match.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "params": {
            name: {"rows": p.shape[0], "cols": p.shape[1], "data": p.ravel().tolist()}
            for name, p in model.params.items()
        },
    }
    if provenance:
        doc["provenance"] = provenance
    with open(path, "w", encoding="utf-8") as fh:  # json.dumps: faster, +0.65 MB peak RSS
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path, provenance: dict | None = None) -> MlpModel:
    """Read a save_model checkpoint.

    Every failure raises one of the package's errors naming ``path``: a
    file that cannot be read or parsed, or is not a well-formed checkpoint,
    raises ParameterError. Every parameter must have the shape its config
    implies (ShapeError) and finite values (NonFiniteError). With
    ``provenance``, the checkpoint's stored provenance must hold the same
    value for each of its keys (ParameterError naming both values otherwise).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ParameterError(f"cannot read checkpoint {path}: {err.strerror or err}") from None
    except ValueError as err:  # invalid JSON or UTF-8
        raise ParameterError(f"checkpoint {path} is not valid JSON: {err}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ParameterError(f"not a model checkpoint: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ParameterError(f"checkpoint {path} has unsupported version {doc.get('version')}")
    if provenance is not None:
        stored = doc.get("provenance")
        stored = stored if isinstance(stored, dict) else {}
        found = {key: stored.get(key) for key in provenance}
        if found != provenance:
            raise ParameterError(f"checkpoint {path} has provenance {found}, expected {provenance}")
    try:
        stored_cfg = doc["config"]
        if sorted(stored_cfg) != sorted(f.name for f in fields(MlpConfig)):
            raise KeyError(f"config keys {sorted(stored_cfg)}")
        cfg = MlpConfig(**stored_cfg)
        entries = dict(doc["params"])
    except (KeyError, TypeError, ValueError) as err:
        raise ParameterError(f"checkpoint {path} is malformed: {err!r}") from None
    params = {name: _param_from_entry(path, name, entry) for name, entry in entries.items()}
    shapes = param_layout(cfg).shapes
    if sorted(params) != sorted(shapes):
        raise ParameterError(f"checkpoint {path}: parameter names do not match its config")
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise ShapeError(
                f"checkpoint {path}: parameter {name}: expected shape {shape}, "
                f"found {params[name].shape}"
            )
    return MlpModel(config=cfg, params={name: params[name] for name in shapes})


def _param_from_entry(path, name: str, entry: dict) -> np.ndarray:
    try:
        rows, cols = entry["rows"], entry["cols"]
        if type(rows) is not int or type(cols) is not int or min(rows, cols) < 0:
            raise TypeError(f"rows and cols must be counts, got {rows!r} and {cols!r}")
        flat = np.array(entry["data"], dtype=np.float64)  # ValueError on a non-number
    except (KeyError, TypeError, ValueError) as err:
        raise ParameterError(f"checkpoint {path}: parameter {name} is malformed: {err!r}") from None
    if flat.shape != (rows * cols,):
        raise ShapeError(
            f"checkpoint {path}: parameter {name}: {flat.size} values for a {rows}x{cols} matrix"
        )
    if not np.isfinite(flat).all():
        raise NonFiniteError(f"checkpoint {path}: parameter {name} has non-finite entries")
    return _read_only(flat.reshape(rows, cols))
