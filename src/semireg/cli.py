"""Experiment command line: train, ablate, variance-demo, evaluate.

This module holds the commands and the files they write. Configs are flat
JSON objects with the keys of training.ExperimentConfig, the one config that
commands and training runs read; unknown keys are rejected outright so a typo
cannot silently change an experiment. Every artifact embeds the sha256 of the
effective config plus the seed, and all randomness (data generation,
splitting, inits, dropout) derives from that single seed, so re-running a
command with the same config reproduces every artifact byte for byte.

ARTIFACTS names the files of each command. CSV files start with one
'#'-prefixed provenance line, then a header; string cells are written as
they are and numbers by repr, so every float round-trips exactly.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import asdict, astuple, fields, replace
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
from .ensemble import variance_reduction_check
from .errors import DivergenceError, NonFiniteError, SemiregError
from .losses import LossBreakdown
from .mlp import load_model, save_model, stack_models
from .rng import Rng
from .training import VARIANTS, ExperimentConfig, ExperimentResult, run_experiment, score_test

VARIANCE_DEMO_DRAWS = (1, 2, 5, 20)
CHECKPOINTS = ("model_a.json", "model_b.json")  # member 0, member 1 of the pair
# The files each command writes. main removes them before the command runs,
# so a refused run leaves none of an earlier run's results in --out.
ARTIFACTS = {
    "train": ("metrics.json", "loss_history.csv", "bin_report.csv", *CHECKPOINTS),
    "ablate": ("ablation_table.csv", "ablation_cells.json"),
    "variance-demo": ("variance_report.json",),
    "evaluate": ("eval_metrics.json",),
}

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


def _stamp(config: ExperimentConfig) -> dict:
    """The provenance every artifact carries: the config's sha256 and the seed."""
    return {"config_sha256": config.sha256(), "seed": config.seed}


def _provenance(config: ExperimentConfig) -> str:
    return " ".join(f"{key}={value}" for key, value in _stamp(config).items())


def _write_csv(path: Path, provenance: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {provenance}\n{','.join(header)}\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else repr(c) for c in row) + "\n")


def _write_loss_history(path: Path, history, config: ExperimentConfig):
    header = ("step", *(f.name for f in fields(LossBreakdown)))
    rows = ((i, *astuple(item)) for i, item in enumerate(history))
    _write_csv(path, _provenance(config), header, rows)


def _metrics_payload(config: ExperimentConfig, result: ExperimentResult) -> dict:
    return {
        **_stamp(config),
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


def cmd_train(config: ExperimentConfig, out_dir: Path) -> None:
    _, split = build_split(config)
    try:
        result = run_experiment(config, split)
    except DivergenceError as err:  # the diverged run's losses explain the failure
        _write_loss_history(out_dir / "loss_history.csv", err.history, config)
        raise
    _write_json(out_dir / "metrics.json", _metrics_payload(config, result))
    _write_loss_history(out_dir / "loss_history.csv", result.history, config)
    if result.bin_report is not None:
        bins = result.bin_report
        columns = (bins.mean_uncertainty, bins.pseudo_label_mse, bins.counts)
        rows = zip(range(bins.n_bins), *(column.tolist() for column in columns))
        header = ("bin_index", "mean_uncertainty", "pseudo_label_mse", "count")
        provenance = f"{_provenance(config)} source=oracle_unlabeled_targets"
        _write_csv(out_dir / "bin_report.csv", provenance, header, rows)
    for i, name in enumerate(CHECKPOINTS):
        save_model(result.pair.member(i), out_dir / name, provenance=_stamp(config))
    print(f"test_mae={result.test_mae!r} test_r2={result.test_r2!r}")


def cmd_ablate(config: ExperimentConfig, out_dir: Path) -> None:
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

    rows = []
    for variant in VARIANTS:
        ok = [c for c in cells if c["variant"] == variant and not c["failed"]]
        n_failed = sum(c["variant"] == variant and c["failed"] for c in cells)
        stats = []
        for key in ("test_mae", "test_r2"):  # mean and sample std over the seeds
            values = np.array([c[key] for c in ok])
            std = float(values.std(ddof=1)) if len(ok) > 1 else 0.0
            stats += (float(values.mean()), std) if ok else ("", "")
        rows.append((variant, *stats, len(ok), n_failed))
    table_path = out_dir / "ablation_table.csv"
    header = ("variant", "mae_mean", "mae_std", "r2_mean", "r2_std", "n_seeds", "n_failed")
    _write_csv(table_path, _provenance(config), header, rows)
    _write_json(
        out_dir / "ablation_cells.json",
        {"config_sha256": config.sha256(), "cells": cells, "seeds": config.seeds},
    )
    print(table_path.read_text(encoding="utf-8"), end="")


def cmd_variance_demo(config: ExperimentConfig, out_dir: Path) -> None:
    _, split = build_split(config)
    result = run_experiment(config, split)
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
        **_stamp(config),
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


def cmd_evaluate(config: ExperimentConfig, out_dir: Path, checkpoint_dir: Path) -> None:
    # A checkpoint that cannot be loaded, or was trained from another config
    # or seed (it would be scored on the wrong split), is refused, and no
    # eval_metrics.json is written.
    members = (load_model(checkpoint_dir / name, provenance=_stamp(config)) for name in CHECKPOINTS)
    pair = stack_models(*members)
    _, split = build_split(config)
    # The normalizer refits on the labeled partition, which is derived
    # deterministically from the config seed, so it matches training exactly.
    try:
        test_mae, test_r2 = score_test(pair, Normalizer(split.labeled), split, config)
    except NonFiniteError as err:
        raise NonFiniteError(f"checkpoints in {checkpoint_dir}: {err}") from None
    payload = {**_stamp(config), "test_mae": test_mae, "test_r2": test_r2}
    _write_json(out_dir / "eval_metrics.json", payload)
    print(f"test_mae={test_mae!r} test_r2={test_r2!r}")


def _clear_artifacts(out_dir: Path, names) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in names:
            (out_dir / name).unlink(missing_ok=True)
    except OSError as err:
        raise SemiregError(f"cannot write to --out {out_dir}: {err.strerror}") from None


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

    # A refusal prints one line and exits with its error's code. Every
    # non-finite value is refused explicitly, so numpy's floating-point
    # warnings would only bury that line.
    try:
        config = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            config = config.with_seed(args.seed)
        out_dir = Path(args.out)
        _clear_artifacts(out_dir, ARTIFACTS[args.command])
        with np.errstate(all="ignore"):
            if args.command == "train":
                cmd_train(config, out_dir)
            elif args.command == "ablate":
                cmd_ablate(config, out_dir)
            elif args.command == "variance-demo":
                cmd_variance_demo(config, out_dir)
            else:
                cmd_evaluate(config, out_dir, Path(args.checkpoints or args.out))
    except SemiregError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
