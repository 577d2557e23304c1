"""Bit-exact fingerprints of reference runs.

These pins make "byte-identical artifacts" a checked property: a change that
is meant to preserve every number must pass this file unchanged, and a change
that alters numerics must re-pin the values here and say so.

Dataset noise goes through Box-Muller gaussians, which call libm's log, cos
and sin (see semireg.rng). Those are exact on a given platform build but not
across builds, so the pins hold per platform build of numpy and libm.

They also hold per CPU family. numpy dispatches float64 exp, log, sin and cos
to per-CPU SIMD code, and OpenBLAS picks its gemv kernel per core (a product
with a transposed operand, such as backward's head gradient, differs between
its SkylakeX and Haswell kernels). Measured on an AVX-512 Xeon with numpy
2.4.6 and OpenBLAS 0.3.31 (SkylakeX kernel): under OPENBLAS_CORETYPE=Haswell,
Sandybridge or Prescott, and under NPY_DISABLE_CPU_FEATURES="X86_V4
AVX512_ICL AVX512_SPR", all seven quick-config pins (train, variance-demo,
ablate) fail. The benchmark cell's test_mae pin fails under Sandybridge only.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from semireg.cli import ExperimentConfig, build_split, main
from semireg.training import run_experiment

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

QUICK_SHA256 = {
    "metrics.json": "0330712146bb931c60f35d52a56af32c253b2251860c17eaf60b5570715ed1b8",
    "loss_history.csv": "3d53a015ca039b412979ddb7c51bc5205b187ee6496c049d824ec0df70eff041",
    "model_a.json": "c5409469ebb02b9e6e09f19efdab8084f0c1195bc872db866b7c3683962aea0f",
    "model_b.json": "947d335a78281fa8233041f9fe16ad19096f4b28fe9f5f086a9c591a1d531d5a",
    "bin_report.csv": "4bffcbf5d827d19ca441ca9efef74e939d754a146bb647a0ee34fcdbd0f092ee",
}

# ablate over quick.json with "seeds": [0]: the only pins on the baseline,
# baseline_con and baseline_ens training paths.
QUICK_ABLATE_SHA256 = {
    "ablation_cells.json": "f64a5cd5436b5753e0e63e3566829c345c11460d77c42f2c3e1c534475d2af89",
    "ablation_table.csv": "61739061e6fcc54190fa40a2bf7a9192a3c7117e652658559d97bba0ac389a16",
}

VARIANCE_REPORT_SHA256 = "e4b3e09d9cd8b2835cd4ca6a692e45dbabbd719052ffa0406f4f2a50da5c3aee"

BENCHMARK_SEED0_TEST_MAE = "0.6318628031674981"


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick")
    assert main(["train", "--config", str(CONFIGS / "quick.json"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("artifact", sorted(QUICK_SHA256))
def test_quick_train_artifact_sha256(quick_run, artifact):
    digest = hashlib.sha256((quick_run / artifact).read_bytes()).hexdigest()
    assert digest == QUICK_SHA256[artifact]


def test_quick_variance_report_sha256(tmp_path):
    # variance-demo is the only command that runs variance_reduction_check
    # and the T=20 ensemble, so train's pins do not cover it.
    argv = ["variance-demo", "--config", str(CONFIGS / "quick.json"), "--out", str(tmp_path)]
    assert main(argv) == 0
    digest = hashlib.sha256((tmp_path / "variance_report.json").read_bytes()).hexdigest()
    assert digest == VARIANCE_REPORT_SHA256


def test_quick_ablate_artifacts_sha256(tmp_path):
    values = json.loads((CONFIGS / "quick.json").read_text(encoding="utf-8"))
    values["seeds"] = [0]
    config_path = tmp_path / "quick_ablate.json"
    config_path.write_text(json.dumps(values), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(config_path), "--out", str(out)]) == 0
    for artifact, expected in QUICK_ABLATE_SHA256.items():
        assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == expected, artifact


def test_benchmark_cell_seed0_test_mae():
    config = replace(ExperimentConfig.from_file(CONFIGS / "benchmark.json"), seed=0)
    _, split = build_split(config)
    result = run_experiment(config, split)
    assert repr(result.test_mae) == BENCHMARK_SEED0_TEST_MAE
