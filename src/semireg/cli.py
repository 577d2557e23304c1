"""Experiment command line: train, ablate, variance-demo, evaluate.

This module holds the commands and the files they write. Configs are flat
JSON objects with the keys of training.ExperimentConfig, the one config that
commands and training runs read; unknown keys are rejected outright so a typo
cannot silently change an experiment. Every artifact embeds the sha256 of the
effective config plus the seed, and all randomness (data generation,
splitting, inits, dropout) derives from that single seed, so re-running a
command with the same config reproduces every artifact byte for byte.

Artifacts: metrics.json, loss_history.csv, bin_report.csv, model_a.json,
model_b.json (train/evaluate); ablation_table.csv, ablation_cells.json
(ablate); variance_report.json (variance-demo). CSV files start with one
'#'-prefixed provenance line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .data import (
    CsvSchema,
    Normalizer,
    RegressionDataset,
    SemiSupervisedSplit,
    generate_synthetic,
    load_csv,
    split_semi_supervised,
)
from .ensemble import predict, variance_reduction_check
from .errors import (
    ConfigError,
    DataSchemaError,
    DivergenceError,
    NonFiniteError,
    ParameterError,
    ShapeError,
    UsageError,
)
from .evaluation import mae, r_squared, write_bin_report_csv
from .mlp import load_model, save_model, stack_models
from .rng import Rng
from .training import VARIANTS, ExperimentConfig, ExperimentResult, run_experiment

VARIANCE_DEMO_DRAWS = (1, 2, 5, 20)
CHECKPOINTS = ("model_a.json", "model_b.json")  # member 0, member 1 of the pair

# glibc mallopt parameters (malloc.h) and the values main() fixes them at.
# Fixing either one turns off glibc's dynamic mmap threshold, so both are set.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD_BYTES = 16 << 20
_MMAP_THRESHOLD_BYTES = 4 << 20

def build_split(config: ExperimentConfig) -> tuple[RegressionDataset, SemiSupervisedSplit]:
    """Dataset and partition derived from the config's single seed."""
    root = Rng(config.seed)
    if config.task == "synthetic":
        data = generate_synthetic(config.synthetic_spec(seed=root.split("data").seed))
    else:
        columns = (config.csv_feature_columns, config.csv_target_column, config.csv_has_header)
        data = load_csv(config.csv_path, CsvSchema(*columns))
    fractions = (config.label_fraction, config.val_fraction, config.test_fraction)
    return data, split_semi_supervised(data, *fractions, rng=root.split("split"))


def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _provenance(config: ExperimentConfig) -> str:
    return f"config_sha256={config.sha256()} seed={config.seed}"


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
        "seed": config.seed,
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
        result = run_experiment(config, split)
    except DivergenceError as err:
        for name in ("metrics.json", "bin_report.csv", *CHECKPOINTS):  # a run's stale results
            (out_dir / name).unlink(missing_ok=True)
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
    ckpt_provenance = {"config_sha256": config.sha256(), "seed": config.seed}
    for i, name in enumerate(CHECKPOINTS):
        save_model(result.pair.member(i), out_dir / name, provenance=ckpt_provenance)
    print(f"test_mae={result.test_mae!r} test_r2={result.test_r2!r}")
    return 0


def cmd_ablate(config: ExperimentConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = []
    for seed in config.seeds:
        seeded = config.with_seed(seed)
        _, split = build_split(seeded)
        for variant in VARIANTS:
            try:
                result = run_experiment(replace(seeded, variant=variant), split)
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
        {"config_sha256": config.sha256(), "cells": cells, "seeds": config.seeds},
    )
    print(table_path.read_text(encoding="utf-8"), end="")
    return 0


def cmd_variance_demo(config: ExperimentConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    _, split = build_split(config)
    try:
        result = run_experiment(config, split)
    except DivergenceError as err:
        (out_dir / "variance_report.json").unlink(missing_ok=True)  # a run's stale report
        print(f"error: {err}", file=sys.stderr)
        return 3
    test_normalized = result.normalizer.transform_dataset(split.test)
    root = Rng(config.seed)
    rows = []
    for draws in VARIANCE_DEMO_DRAWS:
        report = variance_reduction_check(
            result.pair,
            test_normalized,
            draws=draws,
            reruns=config.variance_reruns,
            rng=root.split(f"variance:{draws}"),
        )
        rows.append(asdict(report))
    payload = {
        "config_sha256": config.sha256(),
        "seed": config.seed,
        "reruns": config.variance_reruns,
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
    provenance = {"config_sha256": config.sha256(), "seed": config.seed}
    members = (load_model(checkpoint_dir / name, provenance=provenance) for name in CHECKPOINTS)
    pair = stack_models(*members)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, split = build_split(config)
    # The normalizer refits on the labeled partition, which is derived
    # deterministically from the config seed, so it matches training exactly.
    normalizer = Normalizer(split.labeled)
    x_test = normalizer.transform_features(split.test.features)
    y_pred, _ = predict(
        pair, x=x_test, draws=config.ensemble_draws, rng=Rng(config.seed).split("test")
    )
    y_pred = normalizer.inverse_targets(y_pred)
    payload = {
        "config_sha256": config.sha256(),
        "seed": config.seed,
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
    except (
        ConfigError, DataSchemaError, NonFiniteError, ParameterError, ShapeError, UsageError
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
