"""The benchmark's contract with ensemble.predict.

perfbench/child.py times ensembled inference by rebinding
semireg.ensemble.predict wherever a package module binds it by name, and
counts each call's work as rows x draws read from its arguments
(perfbench/tracer.py, QUANTITIES["ensemble.predict"]). These pins hold the
call and row-draw counts of the quick config fixed: inference that bypasses
the binding, or passes rows or draws where the probe cannot read them, fails
here.
"""

import sys
from pathlib import Path

import pytest

import semireg.cli as cli  # imports every module that binds predict

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from tracer import QUANTITIES, rebind  # noqa: E402

# command: (predict calls, row-draws); train is 41 validation passes, the bin
# report and the test pass, variance-demo adds 2 calls per rerun per T, and
# evaluate is one test pass: 40 rows x 5 draws
QUICK_PREDICT_COUNTS = {
    "train": (43, 6870),
    "variance-demo": (523, 83670),
    "evaluate": (1, 200),
}


@pytest.fixture
def predict_counts():
    original = sys.modules["semireg.ensemble"].predict
    row_draws = QUANTITIES["ensemble.predict"]
    counts = {"calls": 0, "row_draws": 0}

    def counted(*args, **kwargs):
        counts["calls"] += 1
        counts["row_draws"] += row_draws(args, kwargs)
        return original(*args, **kwargs)

    rebind(original, lambda mod, attr: counted)
    yield counts
    rebind(counted, lambda mod, attr: original)


@pytest.mark.parametrize("command", sorted(QUICK_PREDICT_COUNTS))
def test_quick_predict_calls_and_row_draws(tmp_path, predict_counts, command):
    argv = [command, "--config", str(ROOT / "configs" / "quick.json"), "--out", str(tmp_path)]
    if command == "evaluate":  # only evaluate's calls count, on an uncounted train's checkpoints
        assert cli.main(["train", *argv[1:]]) == 0
        predict_counts.update(calls=0, row_draws=0)
    assert cli.main(argv) == 0
    counted = (predict_counts["calls"], predict_counts["row_draws"])
    assert counted == QUICK_PREDICT_COUNTS[command]
