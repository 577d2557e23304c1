"""Run one semireg CLI command in this process and report what the benchmark needs.

    python3 child.py REPORT_JSON SPAWN_NS MODE SRC_DIR -- <semireg CLI arguments>

MODE is ``plain`` (boundary timers only: each ``run_experiment`` call and
each ensembled ``predict`` call) or ``traced`` (every span in tracer.TARGETS,
written next to the report as ``<report>.spans.npz``). SPAWN_NS is the parent's
``time.monotonic_ns()`` just before it started this process, so set-up time
includes interpreter start and every import. A traced report also carries
``overhead_s``: the spans it recorded times the calibrated cost of one span.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path

from tracer import QUANTITIES, Tracer, rebind


def _finite(x):
    return x is None or (isinstance(x, (int, float)) and math.isfinite(x))


def main():
    report_path, spawn_ns, mode, src = sys.argv[1:5]
    cli_args = sys.argv[sys.argv.index("--") + 1 :]
    spawn_ns = int(spawn_ns)
    sys.path.insert(0, src)

    import semireg.cli as cli

    report = {"mode": mode, "runs": []}
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
        report["absent"] = tracer.absent
        report["unwrapped"] = tracer.unwrapped_bindings()
    elif mode == "plain":
        stats = report["predict"] = {"row_draws": 0, "seconds": 0.0}
        original = sys.modules["semireg.ensemble"].predict
        row_draws = QUANTITIES["ensemble.predict"]

        def timed_predict(*args, **kwargs):
            t0 = time.perf_counter()
            out = original(*args, **kwargs)
            stats["seconds"] += time.perf_counter() - t0
            stats["row_draws"] += row_draws(args, kwargs)
            return out

        rebind(original, lambda mod, attr: timed_predict)

    run_experiment = cli.run_experiment

    def probe(config, split):
        if "setup_s" not in report:
            report["setup_s"] = (time.monotonic_ns() - spawn_ns) / 1e9
        t0 = time.perf_counter()
        result = run_experiment(config, split)
        seconds = time.perf_counter() - t0
        steps_per_epoch = max(1, math.ceil(split.labeled.n / config.batch_labeled))
        report["runs"].append(
            {
                "variant": result.variant,
                "seconds": seconds,
                "steps": len(result.history),
                "expected_steps": config.epochs * steps_per_epoch,
                "test_mae": result.test_mae,
                "finite": all(
                    _finite(v)
                    for v in (result.test_mae, result.test_r2, *result.val_mae)
                    + (result.uncertainty_error_spearman,)
                ),
            }
        )
        return result

    cli.run_experiment = probe
    if tracer is not None:
        report["rc"] = tracer.span("cli.main", cli.main, cli_args)
    else:
        report["rc"] = cli.main(cli_args)
    report["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        report["unwrapped"] = sorted(set(report["unwrapped"]) | set(tracer.unwrapped_bindings()))
        report["overhead_s"] = len(tracer.start) * Tracer.span_cost_s()
        spans_path = report_path + ".spans.npz"
        tracer.save(spans_path)
        report["spans"] = spans_path
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
