"""The benchmark's contract with run_experiment.

perfbench/child.py measures each training run by rebinding
``semireg.cli.run_experiment`` to a probe that calls the original with the
same positional ``(config, split)``. From the config it reads ``epochs`` and
``batch_labeled``, from the split ``labeled.n``, and from the result the
fields it records per run. These pins hold that every run of quick ``train``
and one-seed quick ``ablate`` passes through the probe with all of those
readable: a command that trains outside the binding, or a config, split or
result that stops carrying those names, fails here.
"""

import json
import math
from pathlib import Path

import pytest

import semireg.cli as cli
from semireg.training import VARIANTS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def probed_runs(monkeypatch):
    original = cli.run_experiment
    runs = []

    def probe(config, split):
        result = original(config, split)
        steps_per_epoch = max(1, math.ceil(split.labeled.n / config.batch_labeled))
        runs.append(
            {
                "variant": result.variant,
                "steps": len(result.history),
                "expected_steps": config.epochs * steps_per_epoch,
                "values": (
                    result.test_mae,
                    result.test_r2,
                    *result.val_mae,
                    result.uncertainty_error_spearman,
                ),
            }
        )
        return result

    monkeypatch.setattr(cli, "run_experiment", probe)
    return runs


def _quick_config(tmp_path, **overrides):
    values = json.loads((CONFIGS / "quick.json").read_text(encoding="utf-8"))
    path = tmp_path / "quick.json"
    path.write_text(json.dumps({**values, **overrides}), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "command, overrides, variants",
    [("train", {}, ("full",)), ("ablate", {"seeds": [0]}, VARIANTS)],
)
def test_probe_sees_every_run(tmp_path, probed_runs, command, overrides, variants):
    config = _quick_config(tmp_path, **overrides)
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert [run["variant"] for run in probed_runs] == list(variants)
    for run in probed_runs:
        assert run["steps"] == run["expected_steps"] == 40 * 2  # 40 epochs of two labeled batches
        assert all(math.isfinite(v) for v in run["values"])
