"""The benchmark tracer's targets still name functions of the package.

perfbench/tracer.py wraps each function its TARGETS table lists and reports
a listed function that is gone as absent, so a renamed or deleted function
would read as 0 in every per-layer metric built on it. This pins the set of
absent targets; the tracer is only read here, never installed.
"""

import sys
from pathlib import Path

import semireg.cli  # noqa: F401  imports every module a target names

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from tracer import TARGETS, resolve  # noqa: E402

# targets whose functions were removed from the package
DEAD_TARGETS = {
    "semireg.matrix.Matrix._wrap",
    "semireg.matrix.Matrix.__init__",
    "semireg.evaluation.write_bin_report_csv",
}


def test_every_tracer_target_resolves_but_the_dead_ones():
    absent = {
        f"{module_name}.{path}"
        for _, module_name, path in TARGETS
        if resolve(module_name, path) is None
    }
    assert absent == DEAD_TARGETS
