"""Experiment command line: train, ablate, variance-demo, evaluate.

Configs are flat JSON objects with the documented keys below; unknown keys
are rejected outright so a typo cannot silently change an experiment. Every
artifact embeds the sha256 of the effective config plus the seed, and all
randomness (data generation, splitting, inits, dropout) derives from that
single seed, so re-running a command with the same config reproduces every
artifact byte for byte.

Artifacts: metrics.json, loss_history.csv, bin_report.csv, model_a.json,
model_b.json (train/evaluate); ablation_table.csv, ablation_cells.json
(ablate); variance_report.json (variance-demo). CSV files start with one
'#'-prefixed provenance line.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import (
    CsvSchema,
    Normalizer,
    RegressionDataset,
    SemiSupervisedSplit,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    split_semi_supervised,
)
from .ensemble import predict, variance_reduction_check
from .errors import (
    ConfigError,
    DivergenceError,
    NonFiniteError,
    ParameterError,
    ShapeError,
    UsageError,
)
from .evaluation import mae, r_squared, write_bin_report_csv
from .mlp import load_model, save_model
from .rng import Rng
from .training import (
    OPTIMIZERS,
    VARIANTS,
    ExperimentResult,
    TrainConfig,
    run_experiment,
)

VARIANCE_DEMO_DRAWS = (1, 2, 5, 20)

# glibc mallopt parameters (malloc.h) and the values main() fixes them at.
# Fixing either one turns off glibc's dynamic mmap threshold, so both are set.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD_BYTES = 16 << 20
_MMAP_THRESHOLD_BYTES = 4 << 20

_BOOL, _INT, _FLOAT, _STR, _INT_LIST, _STR_LIST = range(6)


def _positive(x):
    return x > 0


def _fraction(x):
    return 0.0 <= x < 1.0


# key: (type, default, validator, description)
CONFIG_KEYS: dict[str, tuple] = {
    "task": (_STR, "synthetic", lambda v: v in ("synthetic", "csv"), "synthetic | csv"),
    "synthetic_n_samples": (_INT, 1200, lambda v: v >= 40, "dataset size, >= 40"),
    "synthetic_input_dim": (_INT, 1, _positive, "feature count"),
    "synthetic_target_function": (
        _STR,
        "sinusoidal",
        lambda v: v in ("linear", "sinusoidal", "piecewise"),
        "linear | sinusoidal | piecewise",
    ),
    "synthetic_noise_model": (
        _STR,
        "input_dependent",
        lambda v: v in ("constant", "input_dependent"),
        "constant | input_dependent",
    ),
    "synthetic_noise_scale": (_FLOAT, 1.0, lambda v: v >= 0, "noise level, >= 0"),
    "csv_path": (_STR, None, lambda v: True, "input CSV path (csv task)"),
    "csv_feature_columns": (_STR_LIST, None, lambda v: len(v) > 0, "feature column names"),
    "csv_target_column": (_STR, None, lambda v: True, "target column name"),
    "csv_has_header": (_BOOL, True, lambda v: True, "first row is a header"),
    "label_fraction": (_FLOAT, 0.1, lambda v: 0 < v <= 1, "labeled share of training rows"),
    "val_fraction": (_FLOAT, 0.15, _fraction, "validation share of all rows"),
    "test_fraction": (_FLOAT, 0.2, _fraction, "test share of all rows"),
    "seed": (_INT, 0, lambda v: True, "master seed; every stream derives from it"),
    "seeds": (_INT_LIST, [0, 1, 2, 3, 4], lambda v: len(v) > 0, "seed list for ablate"),
    "variant": (_STR, "full", lambda v: v in VARIANTS, " | ".join(VARIANTS)),
    "epochs": (_INT, 150, lambda v: v >= 0, "training epochs over the labeled set"),
    "batch_labeled": (_INT, 32, _positive, "labeled batch size"),
    "batch_unlabeled": (_INT, 32, _positive, "unlabeled batch size"),
    "learning_rate": (_FLOAT, 1e-3, _positive, "optimizer learning rate"),
    "optimizer": (_STR, "adam", lambda v: v in OPTIMIZERS, " | ".join(OPTIMIZERS)),
    "unlabeled_weight": (_FLOAT, 10.0, lambda v: v >= 0, "weight on unlabeled losses"),
    "ensemble_draws": (_INT, 5, _positive, "stochastic draws per model when ensembling"),
    "dropout_p": (_FLOAT, 0.05, _fraction, "dropout probability"),
    "hidden_dims": (_INT_LIST, [64, 64], lambda v: all(d >= 1 for d in v), "trunk widths"),
    "activation": (_STR, "relu", lambda v: v in ("relu", "tanh"), "relu | tanh"),
    "variance_reruns": (_INT, 200, lambda v: v >= 30, "Monte-Carlo reruns for variance-demo"),
}

_TYPE_NAMES = {
    _BOOL: "a boolean",
    _INT: "an integer",
    _FLOAT: "a number",
    _STR: "a string",
    _INT_LIST: "a list of integers",
    _STR_LIST: "a list of strings",
}


def _check_type(key: str, kind: int, value):
    def fail():
        raise ConfigError(f"{key}: expected {_TYPE_NAMES[kind]}, got {value!r}")

    if kind == _BOOL:
        if not isinstance(value, bool):
            fail()
        return value
    if kind == _INT:
        if isinstance(value, bool) or not isinstance(value, int):
            fail()
        return value
    if kind == _FLOAT:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail()
        return float(value)
    if kind == _STR:
        if not isinstance(value, str):
            fail()
        return value
    if kind == _INT_LIST:
        if not isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in value
        ):
            fail()
        return list(value)
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        fail()
    return list(value)


@dataclass(frozen=True)
class ExperimentConfig:
    values: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = sorted(set(raw) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        values = {}
        for key, (kind, default, validate, description) in CONFIG_KEYS.items():
            if key in raw:
                value = _check_type(key, kind, raw[key])
                if not validate(value):
                    raise ConfigError(f"{key}: invalid value {value!r} ({description})")
                values[key] = value
            else:
                values[key] = default
        if values["task"] == "csv":
            for key in ("csv_path", "csv_feature_columns", "csv_target_column"):
                if values[key] is None:
                    raise ConfigError(f"{key}: required when task is 'csv'")
        if values["val_fraction"] + values["test_fraction"] >= 1.0:
            raise ConfigError("val_fraction + test_fraction must be < 1")
        return cls(values=values)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(raw)

    def __getitem__(self, key: str):
        return self.values[key]

    def with_seed(self, seed: int) -> "ExperimentConfig":
        values = dict(self.values)
        values["seed"] = seed
        return ExperimentConfig(values=values)

    def canonical_json(self) -> str:
        return json.dumps(self.values, sort_keys=True)

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def train_config(self) -> TrainConfig:
        """The TrainConfig fields this config sets; the rest keep their defaults."""
        names = (f.name for f in fields(TrainConfig))
        return TrainConfig(**{name: self.values[name] for name in names if name in self.values})


def build_split(config: ExperimentConfig) -> tuple[RegressionDataset, SemiSupervisedSplit]:
    """Dataset and partition derived from the config's single seed."""
    root = Rng(config["seed"])
    if config["task"] == "synthetic":
        spec = SyntheticSpec(
            n_samples=config["synthetic_n_samples"],
            input_dim=config["synthetic_input_dim"],
            target_function=config["synthetic_target_function"],
            noise_model=config["synthetic_noise_model"],
            noise_scale=config["synthetic_noise_scale"],
            seed=root.split("data").seed,
        )
        data = generate_synthetic(spec)
    else:
        schema = CsvSchema(
            feature_columns=tuple(config["csv_feature_columns"]),
            target_column=config["csv_target_column"],
            has_header=config["csv_has_header"],
        )
        data = load_csv(config["csv_path"], schema)
    split = split_semi_supervised(
        data,
        label_fraction=config["label_fraction"],
        val_fraction=config["val_fraction"],
        test_fraction=config["test_fraction"],
        rng=root.split("split"),
    )
    return data, split


def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _provenance(config: ExperimentConfig) -> str:
    return f"config_sha256={config.sha256()} seed={config['seed']}"


def _write_loss_history(path: Path, history, config: ExperimentConfig):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {_provenance(config)}\n")
        fh.write("step,labeled_reg,labeled_unc,unlabeled_reg,unlabeled_unc,unlabeled_weight,total\n")
        for i, item in enumerate(history):
            fh.write(
                f"{i},{item.labeled_reg!r},{item.labeled_unc!r},{item.unlabeled_reg!r},"
                f"{item.unlabeled_unc!r},{item.unlabeled_weight!r},{item.total!r}\n"
            )


def _metrics_payload(config: ExperimentConfig, result: ExperimentResult) -> dict:
    return {
        "config_sha256": config.sha256(),
        "seed": config["seed"],
        "variant": result.variant,
        "test_mae": result.test_mae,
        "test_r2": result.test_r2,
        "best_epoch": result.best_epoch,
        "n_steps": len(result.history),
        "val_mae": result.val_mae,
        "uncertainty_error_spearman": result.uncertainty_error_spearman,
        # numbers computed against the hidden truth of unlabeled rows
        "oracle_only": ["uncertainty_error_spearman"],
    }


def cmd_train(config: ExperimentConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    _, split = build_split(config)
    try:
        result = run_experiment(config.train_config(), split)
    except DivergenceError as err:
        _write_loss_history(out_dir / "loss_history.csv", err.history, config)
        print(f"error: {err}", file=sys.stderr)
        return 3
    _write_json(out_dir / "metrics.json", _metrics_payload(config, result))
    _write_loss_history(out_dir / "loss_history.csv", result.history, config)
    if result.bin_report is not None:
        write_bin_report_csv(
            result.bin_report,
            out_dir / "bin_report.csv",
            provenance=f"{_provenance(config)} source=oracle_unlabeled_targets",
        )
    ckpt_provenance = {"config_sha256": config.sha256(), "seed": config["seed"]}
    save_model(result.model_a, out_dir / "model_a.json", provenance=ckpt_provenance)
    save_model(result.model_b, out_dir / "model_b.json", provenance=ckpt_provenance)
    print(f"test_mae={result.test_mae!r} test_r2={result.test_r2!r}")
    return 0


def cmd_ablate(config: ExperimentConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = []
    for seed in config["seeds"]:
        seeded = config.with_seed(seed)
        _, split = build_split(seeded)
        for variant in VARIANTS:
            train_cfg_values = dict(seeded.values)
            train_cfg_values["variant"] = variant
            cell_cfg = ExperimentConfig(values=train_cfg_values)
            try:
                result = run_experiment(cell_cfg.train_config(), split)
                cells.append(
                    {
                        "variant": variant,
                        "seed": seed,
                        "test_mae": result.test_mae,
                        "test_r2": result.test_r2,
                        "uncertainty_error_spearman": result.uncertainty_error_spearman,
                        "failed": False,
                    }
                )
            except DivergenceError as err:
                cells.append(
                    {"variant": variant, "seed": seed, "failed": True, "error": str(err)}
                )

    table_path = out_dir / "ablation_table.csv"
    with open(table_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {_provenance(config)}\n")
        fh.write("variant,mae_mean,mae_std,r2_mean,r2_std,n_seeds,n_failed\n")
        for variant in VARIANTS:
            ok = [c for c in cells if c["variant"] == variant and not c["failed"]]
            failed = [c for c in cells if c["variant"] == variant and c["failed"]]
            maes = np.array([c["test_mae"] for c in ok])
            r2s = np.array([c["test_r2"] for c in ok])
            if len(ok) == 0:
                fh.write(f"{variant},,,,,0,{len(failed)}\n")
                continue
            mae_std = float(maes.std(ddof=1)) if len(ok) > 1 else 0.0
            r2_std = float(r2s.std(ddof=1)) if len(ok) > 1 else 0.0
            fh.write(
                f"{variant},{float(maes.mean())!r},{mae_std!r},"
                f"{float(r2s.mean())!r},{r2_std!r},{len(ok)},{len(failed)}\n"
            )
    _write_json(
        out_dir / "ablation_cells.json",
        {"config_sha256": config.sha256(), "cells": cells, "seeds": config["seeds"]},
    )
    print(table_path.read_text(encoding="utf-8"), end="")
    return 0


def cmd_variance_demo(config: ExperimentConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    _, split = build_split(config)
    try:
        result = run_experiment(config.train_config(), split)
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    test_normalized = result.normalizer.transform_dataset(split.test)
    root = Rng(config["seed"])
    rows = []
    for draws in VARIANCE_DEMO_DRAWS:
        report = variance_reduction_check(
            result.model_a,
            result.model_b,
            test_normalized,
            draws=draws,
            reruns=config["variance_reruns"],
            rng=root.split(f"variance:{draws}"),
        )
        rows.append(report.to_dict())
    payload = {
        "config_sha256": config.sha256(),
        "seed": config["seed"],
        "reruns": config["variance_reruns"],
        "units": "standardized target scale",
        "rows": rows,
    }
    _write_json(out_dir / "variance_report.json", payload)
    for row in rows:
        print(
            f"t_draws={row['t_draws']} mse_single={row['mse_single']:.6f} "
            f"mse_ensemble={row['mse_ensemble']:.6f}"
        )
    return 0


def cmd_evaluate(config: ExperimentConfig, out_dir: Path, checkpoint_dir: Path) -> int:
    # A checkpoint that cannot be loaded, or was trained from another config
    # or seed (it would be scored on the wrong split), is refused before
    # anything is written.
    provenance = {"config_sha256": config.sha256(), "seed": config["seed"]}
    model_a = load_model(checkpoint_dir / "model_a.json", provenance=provenance)
    model_b = load_model(checkpoint_dir / "model_b.json", provenance=provenance)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, split = build_split(config)
    # The normalizer refits on the labeled partition, which is derived
    # deterministically from the config seed, so it matches training exactly.
    normalizer = Normalizer(split.labeled)
    x_test = normalizer.transform_features(split.test.features)
    y_pred, _ = predict(
        model_a, model_b, x_test, config["ensemble_draws"], Rng(config["seed"]).split("test")
    )
    y_pred = normalizer.inverse_targets(y_pred)
    payload = {
        "config_sha256": config.sha256(),
        "seed": config["seed"],
        "test_mae": mae(y_pred, split.test.targets),
        "test_r2": r_squared(y_pred, split.test.targets),
    }
    _write_json(out_dir / "eval_metrics.json", payload)
    print(f"test_mae={payload['test_mae']!r} test_r2={payload['test_r2']!r}")
    return 0


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


def main(argv=None) -> int:
    _fix_malloc_thresholds()
    parser = argparse.ArgumentParser(
        prog="semireg",
        description="Semi-supervised heteroscedastic regression experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "ablate", "variance-demo", "evaluate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a flat JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="semireg_out", help="output directory")
        if name == "evaluate":
            p.add_argument(
                "--checkpoints",
                default=None,
                help="directory holding model_a.json/model_b.json (default: --out)",
            )
    args = parser.parse_args(argv)

    try:
        config = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            config = config.with_seed(args.seed)
        out_dir = Path(args.out)
        if args.command == "train":
            return cmd_train(config, out_dir)
        if args.command == "ablate":
            return cmd_ablate(config, out_dir)
        if args.command == "variance-demo":
            return cmd_variance_demo(config, out_dir)
        checkpoints = Path(args.checkpoints) if args.checkpoints else out_dir
        return cmd_evaluate(config, out_dir, checkpoints)
    except (ConfigError, NonFiniteError, ParameterError, ShapeError, UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
