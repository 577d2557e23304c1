"""Relations between runs that hold bit for bit on every CPU.

The sha256 pins of test_fingerprint.py hold on one CPU family, since BLAS
kernels and numpy's SIMD loops differ in the last bits from one to the next.
An equality between two runs on one host holds on any host: every stream is
a pure function of its seed and label, so two runs that draw the same words
and do the same arithmetic agree exactly. Each check is an equality, never a
tolerance.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from semireg.cli import build_split
from semireg.training import VARIANTS, ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parents[1]
QUICK = ROOT / "configs" / "quick.json"
# the history columns that do not read the pseudo-labels' losses
LABELED_COLUMNS = ("labeled_reg", "labeled_unc", "total")


@pytest.fixture(scope="module")
def zero_weight_runs():
    config = replace(ExperimentConfig.from_file(QUICK), unlabeled_weight=0.0)
    _, split = build_split(config)
    return {v: run_experiment(replace(config, variant=v), split) for v in VARIANTS}


@pytest.mark.parametrize(
    "plain, ensembled", [("baseline", "baseline_ens"), ("baseline_con", "full")]
)
def test_at_zero_unlabeled_weight_ensembled_pseudo_labels_change_nothing(
    zero_weight_runs, plain, ensembled
):
    # The variants differ only in the pseudo-labels of the unlabeled loss,
    # which weight 0 removes from every gradient. That loss's own columns
    # still differ, since each variant computes its own pseudo-labels.
    a, b = zero_weight_runs[plain], zero_weight_runs[ensembled]
    for name, param in a.pair.params.items():
        assert param.tobytes() == b.pair.params[name].tobytes(), name
    for key in ("test_mae", "test_r2", "best_epoch", "val_mae", "uncertainty_error_spearman"):
        assert getattr(a, key) == getattr(b, key), key
    for column in LABELED_COLUMNS:
        assert [getattr(s, column) for s in a.history] == [getattr(s, column) for s in b.history]
    assert [s.unlabeled_reg for s in a.history] != [s.unlabeled_reg for s in b.history]


def test_a_run_of_e_epochs_is_the_prefix_of_a_run_of_2e():
    # every epoch draws from streams named by its own index, so training on
    # does not change what came before
    config = ExperimentConfig.from_file(QUICK)
    _, split = build_split(config)
    long = run_experiment(config, split)
    short = run_experiment(replace(config, epochs=config.epochs // 2), split)
    assert len(short.val_mae) == config.epochs // 2 + 1
    assert short.val_mae == long.val_mae[: len(short.val_mae)]
    assert 0 < len(short.history) < len(long.history)
    assert short.history == long.history[: len(short.history)]


@pytest.fixture(scope="module")
def ablate_runs(tmp_path_factory):
    """ablate over seeds [0, 1] and [1, 0], and train of every (variant, seed).

    Both ablate runs force the mask helper on, so that each seed's four cells
    take their validation masks from one helper's keep bits.
    """
    tmp_path = tmp_path_factory.mktemp("ablate")
    quick = json.loads(QUICK.read_text(encoding="utf-8"))
    configs = {}
    for variant in VARIANTS:
        configs[variant] = tmp_path / f"{variant}.json"
        configs[variant].write_text(json.dumps({**quick, "variant": variant, "seeds": [0, 1]}))
    reversed_seeds = tmp_path / "reversed.json"
    reversed_seeds.write_text(json.dumps({**quick, "seeds": [1, 0]}))
    script = f"""
import json, sys
sys.path.insert(0, {str(ROOT / "src")!r})
import semireg.cli as cli
import semireg.rng as rng

rng._can_fork = lambda: True
rng._HELPER_MIN_WORDS = 0
served = []
take = rng.mask_helper.take

def counted_take(self, key):
    block = take(self, key)
    served.append(block is not None)
    return block

rng.mask_helper.take = counted_take
out = {str(tmp_path)!r}
ablates = {{}}
for name, config in (("0,1", {str(configs["full"])!r}), ("1,0", {str(reversed_seeds)!r})):
    served.clear()
    assert cli.main(["ablate", "--config", config, "--out", f"{{out}}/ablate-{{name}}"]) == 0
    with open(f"{{out}}/ablate-{{name}}/ablation_cells.json") as fh:
        ablates[name] = {{"cells": json.load(fh)["cells"], "served": sum(served)}}
trains = {{}}
for variant, config in {json.dumps({v: str(p) for v, p in configs.items()})}.items():
    for seed in (0, 1):
        folder = f"{{out}}/{{variant}}-{{seed}}"
        argv = ["train", "--config", config, "--seed", str(seed), "--out", folder]
        assert cli.main(argv) == 0
        with open(folder + "/metrics.json") as fh:
            trains[f"{{variant}}/{{seed}}"] = json.load(fh)
print(json.dumps({{"ablates": ablates, "trains": trains}}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    # 41 validation passes per cell, all served, for 2 seeds x 4 variants
    for ablate in report["ablates"].values():
        assert ablate["served"] == 2 * 4 * (quick["epochs"] + 1)
    return report


def test_every_ablate_cell_equals_train_of_its_variant_and_seed(ablate_runs):
    cells = ablate_runs["ablates"]["0,1"]["cells"]
    assert [(c["seed"], c["variant"]) for c in cells] == [(s, v) for s in (0, 1) for v in VARIANTS]
    for cell in cells:
        trained = ablate_runs["trains"][f"{cell['variant']}/{cell['seed']}"]
        assert not cell["failed"]
        for key in ("test_mae", "test_r2", "uncertainty_error_spearman"):
            assert cell[key] == trained[key], (cell["variant"], cell["seed"], key)


def test_the_order_of_ablate_seeds_changes_no_cell(ablate_runs):
    in_order, reversed_order = (ablate_runs["ablates"][n]["cells"] for n in ("0,1", "1,0"))
    assert [(c["seed"], c["variant"]) for c in reversed_order] == [
        (s, v) for s in (1, 0) for v in VARIANTS
    ]
    by_cell = {(c["seed"], c["variant"]): c for c in in_order}
    for cell in reversed_order:
        assert cell == by_cell[cell["seed"], cell["variant"]]
