"""semireg benchmark: one workload, one seed, a fixed measuring window.

    python3 perfbench/run.py --workload cell_full --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout that holds ``src/semireg``. The program
gets only a config generated here from the seed; every command runs in a
fresh interpreter (``child.py``), one at a time (a closed loop with one
client). Environment variables reach the program unchanged, BLAS thread
settings included.

With ``--trace 0`` the last stdout line carries every end-to-end metric;
with ``--trace 1`` it carries every per-layer metric, taken from traced
iterations that alternate with untraced ones, so that the artifact check
also covers tracing. Every iteration is checked; the run exits 1 when a
check fails and 2 when the program is not there.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The configs/benchmark.json shape, pinned here so that editing the repo's
# configs cannot change what the benchmark measures.
CELL = {
    "task": "synthetic",
    "synthetic_n_samples": 450,
    "synthetic_input_dim": 2,
    "synthetic_target_function": "piecewise",
    "synthetic_noise_model": "input_dependent",
    "synthetic_noise_scale": 1.0,
    "label_fraction": 0.1,
    "val_fraction": 0.2,
    "test_fraction": 0.5,
    "epochs": 600,
    "batch_labeled": 10,
    "batch_unlabeled": 10,
    "learning_rate": 0.001,
    "optimizer": "adam",
    "unlabeled_weight": 10.0,
    "ensemble_draws": 5,
    "dropout_p": 0.1,
    "hidden_dims": [64, 64],
    "activation": "relu",
}

# name -> (config overrides, CLI commands of one iteration). Why each exists
# is in trajectory/GUIDE.md.
WORKLOADS = {
    "cell_full": ({"variant": "full"}, ["train", "evaluate"]),
    "cell_baseline": ({"variant": "baseline"}, ["train", "evaluate"]),
    "variance_demo": ({"dropout_p": 0.25, "epochs": 300, "variance_reruns": 100}, ["variance-demo"]),
    "ablate_grid": ({"epochs": 100}, ["ablate"]),
}

VARIANCE_DRAWS = [1, 2, 5, 20]
CHILD_TIMEOUT_S = 170

# Metric names and units come from BENCHMARK.json, the one place that
# defines them; the code below must produce exactly that set.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# Counts the trace must repeat exactly from one iteration to the next.
COUNTS = [k for k, unit in PER_LAYER.items() if unit == "count"]


def make_config(workload: str, seed: int) -> dict:
    overrides, _ = WORKLOADS[workload]
    return {**CELL, **overrides, "seed": seed, "seeds": [seed]}


# ------------------------------------------------------------------ machine


def _openblas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")},
        "blas_threads": {
            "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "openblas": _openblas_threads(),
        },
    }


# ---------------------------------------------------------------- execution


class Runner:
    """Runs the commands of one workload and seed inside a scratch directory."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.commands = WORKLOADS[workload][1]
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(make_config(workload, seed)), encoding="utf-8")
        self.count = 0

    def child(self, mode: str, cli_args: list[str]) -> dict:
        self.count += 1
        report = self.work / f"report{self.count}.json"
        spawn = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(report), str(spawn), mode, str(SRC),
                 "--"] + cli_args,
                cwd=self.work,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"rc": "timeout", "stderr": f"killed after {CHILD_TIMEOUT_S} s", "runs": []}
        if proc.returncode != 0 or not report.exists():
            return {"rc": proc.returncode, "stderr": proc.stderr[-2000:], "runs": []}
        return json.loads(report.read_text(encoding="utf-8"))

    def iteration(self, mode: str) -> dict:
        out = self.work / f"out{self.count}"
        t0 = time.perf_counter()
        reports = [
            self.child(mode, [cmd, "--config", str(self.config_path), "--out", str(out)])
            for cmd in self.commands
        ]
        wall = time.perf_counter() - t0
        it = {"mode": mode, "wall_s": wall, "reports": reports}
        it["problems"] = check_iteration(self.workload, reports, out)
        it["digests"] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.is_file()
        } if out.is_dir() else {}
        it["quality"] = quality(self.workload, reports, out)
        return it


# ------------------------------------------------------------------- checks


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_iteration(workload: str, reports: list[dict], out: Path) -> list[str]:
    problems = []
    for rep in reports:
        if rep.get("rc") != 0:
            problems.append(f"command exited {rep.get('rc')}: {rep.get('stderr', '').strip()}")
        for run in rep.get("runs", []):
            if not run["finite"]:
                problems.append(f"non-finite metrics in {run['variant']}")
            if run["steps"] != run["expected_steps"]:
                problems.append(
                    f"{run['variant']}: {run['steps']} steps, expected {run['expected_steps']}"
                )
        if rep.get("unwrapped"):
            problems.append(f"bound without tracer: {rep['unwrapped']}")
    if problems:
        return problems
    try:
        if workload.startswith("cell_"):
            metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
            evaluated = json.loads((out / "eval_metrics.json").read_text(encoding="utf-8"))
            expected = reports[0]["runs"][0]["expected_steps"]
            if metrics["n_steps"] != expected:
                problems.append(f"metrics.json n_steps {metrics['n_steps']} != {expected}")
            if not _finite([metrics["test_mae"], metrics["test_r2"], *metrics["val_mae"]]):
                problems.append("metrics.json holds non-finite values")
            if evaluated["test_mae"] != metrics["test_mae"]:
                problems.append("evaluate on the checkpoints disagrees with train's test_mae")
        elif workload == "ablate_grid":
            lines = (out / "ablation_table.csv").read_text(encoding="utf-8").splitlines()[2:]
            rows = [line.split(",") for line in lines if line]
            if len(rows) != 4 or any(r[-1] != "0" for r in rows):
                problems.append(f"ablation table is not 4 rows with n_failed=0: {rows}")
            cells = json.loads((out / "ablation_cells.json").read_text(encoding="utf-8"))["cells"]
            if any(c["failed"] or not _finite([c["test_mae"], c["test_r2"]]) for c in cells):
                problems.append("an ablation cell failed or is non-finite")
        elif workload == "variance_demo":
            rows = json.loads((out / "variance_report.json").read_text(encoding="utf-8"))["rows"]
            if [r["t_draws"] for r in rows] != VARIANCE_DRAWS:
                problems.append(f"variance report draws {[r['t_draws'] for r in rows]}")
            if not all(_finite(r.values()) for r in rows):
                problems.append("variance report holds non-finite values")
            # Averaging T draws divides predictive variance by about T.
            if any(r["var_ensemble"] >= r["var_single"] for r in rows if r["t_draws"] > 1):
                problems.append("ensembling did not reduce predictive variance")
    except (OSError, KeyError, ValueError, IndexError) as err:
        problems.append(f"artifact missing or malformed: {err!r}")
    return problems


def quality(workload: str, reports: list[dict], out: Path) -> dict:
    runs = [run for rep in reports for run in rep.get("runs", [])]
    q = {"test_mae": statistics.fmean(r["test_mae"] for r in runs) if runs else None}
    if workload == "variance_demo":
        try:
            rows = json.loads((out / "variance_report.json").read_text(encoding="utf-8"))["rows"]
            t20 = next(r for r in rows if r["t_draws"] == 20)
            q["mse_ratio_t20"] = t20["mse_ensemble"] / t20["mse_single"]
        except (OSError, KeyError, ValueError, StopIteration):
            q["mse_ratio_t20"] = None
    return q


# ------------------------------------------------------------------ metrics


def end_to_end(iterations: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """(samples, metrics): one sample per iteration.

    Times are medians of their samples. The two rates pool the whole run,
    total work over total time: a phase that lasts a second or two per
    iteration is steadier pooled than as a median of such short windows.
    """
    samples = {"setup_s": setups, "wall_s": [], "steps_per_s": [], "infer_row_draws_per_s": [],
               "peak_rss_mb": [], "ok_share": []}
    totals = {"steps": 0, "run_s": 0.0, "row_draws": 0, "predict_s": 0.0}
    for it in iterations:
        runs = [run for rep in it["reports"] for run in rep.get("runs", [])]
        pred = [rep["predict"] for rep in it["reports"] if "predict" in rep]
        work = {
            "steps": sum(r["steps"] for r in runs),
            "run_s": sum(r["seconds"] for r in runs),
            "row_draws": sum(p["row_draws"] for p in pred),
            "predict_s": sum(p["seconds"] for p in pred),
        }
        for key, value in work.items():
            totals[key] += value
        samples["wall_s"].append(it["wall_s"])
        if work["run_s"] > 0:
            samples["steps_per_s"].append(work["steps"] / work["run_s"])
        if work["predict_s"] > 0:
            samples["infer_row_draws_per_s"].append(work["row_draws"] / work["predict_s"])
        samples["peak_rss_mb"].append(max(rep.get("maxrss_mb", 0.0) for rep in it["reports"]))
        samples["ok_share"].append(0.0 if it["problems"] else 1.0)
    nan = float("nan")
    metrics = {k: statistics.median(v) if v else nan for k, v in samples.items()}
    metrics["ok_share"] = statistics.fmean(samples["ok_share"])
    metrics["steps_per_s"] = totals["steps"] / totals["run_s"] if totals["run_s"] else nan
    metrics["infer_row_draws_per_s"] = (
        totals["row_draws"] / totals["predict_s"] if totals["predict_s"] else nan
    )
    return samples, metrics


def per_layer(span_files: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics of one iteration, plus its counts inside run_experiment."""
    import numpy as np

    ids: dict[str, int] = {}
    cols = {k: [] for k in ("name_id", "start", "end", "parent", "failed", "qty")}
    offset = 0
    for path in span_files:
        with np.load(path) as z:
            remap = np.array([ids.setdefault(str(n), len(ids)) for n in z["names"]], dtype=np.int64)
            n = len(z["start"])
            cols["name_id"].append(remap[z["name_id"]] if n else np.zeros(0, np.int64))
            cols["parent"].append(np.where(z["parent"] >= 0, z["parent"] + offset, -1))
            for key in ("start", "end", "failed", "qty"):
                cols[key].append(z[key])
            offset += n
    a = {k: np.concatenate(v) for k, v in cols.items()}
    dur = (a["end"] - a["start"]) / 1e9
    child = a["parent"] >= 0
    covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
    self_s = dur - covered

    def exact(name):
        return a["name_id"] == ids.get(name, -1)

    def family(prefix):
        wanted = [i for n, i in ids.items() if n == prefix or n.startswith(prefix + ".")]
        return np.isin(a["name_id"], wanted)

    def count(name):
        return int(exact(name).sum())

    def pct(name, q, scale):
        d = dur[exact(name)]
        return float(np.percentile(d, q)) * scale if d.size else 0.0

    def children_of(child_name, parent_name):
        parents = np.flatnonzero(exact(parent_name))
        return exact(child_name) & np.isin(a["parent"], parents)

    m = {}
    for layer in ("rng.dropout_mask", "rng.split", "mlp.forward", "mlp.backward",
                  "losses.hetero", "losses.consistency", "ensemble.pseudo_labels",
                  "ensemble.predict", "training.step", "training.optimizer"):
        m[f"{layer}.calls"] = count(layer)
        m[f"{layer}.self_s"] = float(self_s[family(layer)].sum())
    for layer in ("rng.dropout_mask", "mlp.forward", "mlp.backward", "ensemble.pseudo_labels",
                  "ensemble.predict", "training.optimizer"):
        m[f"{layer}.p50_us"] = pct(layer, 50, 1e6)
    m["rng.dropout_mask.words"] = int(a["qty"][exact("rng.dropout_mask")].sum())
    m["matrix.wrap.calls"] = count("matrix.wrap")
    m["matrix.self_s"] = float(self_s[family("matrix")].sum())
    m["mlp.forward.rows"] = int(a["qty"][exact("mlp.forward")].sum())
    m["mlp.trace_use_ratio"] = (
        m["mlp.backward.calls"] / m["mlp.forward.calls"] if m["mlp.forward.calls"] else 0.0
    )
    for layer in ("mlp.save", "mlp.load", "ensemble.variance_check", "data.build_split"):
        m[f"{layer}.s"] = float(dur[exact(layer)].sum())
    m["training.step.p50_ms"] = pct("training.step", 50, 1e3)
    m["training.step.p99_ms"] = pct("training.step", 99, 1e3)
    m["training.eval_pass.s"] = float(dur[children_of("ensemble.predict", "training.run")].sum())
    m["training.skipped_steps"] = int(a["failed"][exact("training.step")].sum())
    m["evaluation.self_s"] = float(self_s[family("evaluation")].sum())
    m["cli.self_s"] = float(self_s[family("cli")].sum())
    cells = dur[children_of("training.run", "cli.ablate")]
    ablate_s = float(dur[exact("cli.ablate")].sum())
    m["cli.ablate.cell_p50_s"] = float(np.median(cells)) if cells.size else 0.0
    m["cli.ablate.busy_ratio"] = float(cells.sum()) / ablate_s if ablate_s > 0 else 0.0

    # Counts inside run_experiment alone (train without evaluate).
    runs = np.flatnonzero(exact("training.run"))
    order = np.argsort(a["start"][runs])
    r_start, r_end = a["start"][runs][order], a["end"][runs][order]
    slot = np.searchsorted(r_start, a["start"], side="right") - 1
    inside = np.zeros(len(dur), dtype=bool)
    if runs.size:
        inside = (slot >= 0) & (a["end"] <= r_end[np.clip(slot, 0, None)])
    in_run = {
        name: int((inside & exact(name)).sum())
        for name in ("training.step", "mlp.forward", "mlp.backward", "training.optimizer",
                     "ensemble.pseudo_labels")
    }
    return m, in_run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --------------------------------------------------------------------- main


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, seed, work)
        iterations = []
        modes = ["traced", "plain"] if trace else ["plain"]
        started = time.perf_counter()
        while True:
            mode = modes[len(iterations) % len(modes)]
            iterations.append(runner.iteration(mode))
            elapsed = time.perf_counter() - started
            typical = statistics.median(it["wall_s"] for it in iterations)
            # At least two iterations, so that every run checks repeatability;
            # the last one may end up to half an iteration past the window.
            if len(iterations) >= 2 and elapsed + typical / 2 > seconds:
                break
        setups = []
        for it in iterations:
            if it["mode"] == "plain":
                for rep in it["reports"]:
                    if rep.get("setup_s") is not None:
                        setups.append(rep["setup_s"])
                        break
        layers = []
        for it in iterations:
            if it["mode"] == "traced" and not it["problems"]:
                m, in_run = per_layer([rep["spans"] for rep in it["reports"]])
                m["tracing.overhead_s"] = sum(rep["overhead_s"] for rep in it["reports"])
                layers.append((m, in_run))
        return {
            "iterations": iterations,
            "setups": setups,
            "layers": layers,
            "absent": sorted({a for it in iterations for r in it["reports"] for a in r.get("absent", [])}),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def summarize(workload: str, seed: int, trace: bool, res: dict) -> tuple[dict, list[str]]:
    iterations = res["iterations"]
    first = iterations[0]["digests"]
    for k, it in enumerate(iterations[1:], start=2):
        if it["digests"] != first:
            it["problems"].append(f"iteration {k} ({it['mode']}) artifacts differ from iteration 1")
    problems = [p for it in iterations for p in it["problems"]]
    lines = [f"workload={workload} seed={seed} trace={int(trace)} iterations={len(iterations)}"]
    if trace:
        units = PER_LAYER
        per = [m for m, _ in res["layers"]]
        if not per:
            problems.append("no traced iteration completed")
            per = [dict.fromkeys(PER_LAYER, 0.0)]
        for name in COUNTS:
            if len({m[name] for m in per}) > 1:
                problems.append(f"count {name} differs between traced iterations")
        metrics = {k: statistics.median(m[k] for m in per) for k in per[0]}
        for name, unit in units.items():
            lines.append(f"  {name:<32} {metrics.get(name, float('nan')):.6g} {unit}")
        for _, in_run in res["layers"][:1]:
            lines.append(f"  in run_experiment: {json.dumps(in_run, sort_keys=True)}")
    else:
        units = END_TO_END
        samples, metrics = end_to_end(iterations, res["setups"])
        for name, unit in units.items():
            q1, q2, q3 = quartiles(samples.get(name, []))
            lines.append(
                f"  {name:<24} {metrics.get(name, float('nan')):.6g} {unit}  "
                f"median={q2:.6g} q1={q1:.6g} q3={q3:.6g} n={len(samples.get(name, []))}"
            )
    if set(metrics) != set(units):
        problems.append(f"metrics computed {sorted(metrics)} != declared {sorted(units)}")
    for name, value in iterations[0]["quality"].items():
        lines.append(f"  quality guard {name} = {value!r} (deterministic per seed)")
    if res["absent"]:
        lines.append(f"  absent (reported as 0): {', '.join(res['absent'])}")
    for p in problems:
        lines.append(f"  CHECK FAILED: {p}")
    return {"metrics": metrics, "units": units, "problems": problems}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semireg" / "cli.py").is_file():
        print(f"error: no semireg sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    res = measure(args.workload, args.seed, args.seconds, trace)
    summary, lines = summarize(args.workload, args.seed, trace, res)
    iterations = res["iterations"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(),
        "config": make_config(args.workload, args.seed),
        "digests": iterations[0]["digests"],
        "quality": iterations[0]["quality"],
        "iteration_wall_s": [it["wall_s"] for it in iterations],
        "setup_s": res["setups"],
        "in_run_experiment": res["layers"][0][1] if res["layers"] else None,
        "problems": summary["problems"],
    }
    print("\n".join(lines))
    print("detail " + json.dumps(detail, sort_keys=True))
    failed = sum(1 for it in iterations if it["problems"])
    correct = not summary["problems"] and _finite(summary["metrics"].values())
    result = {
        "correct": correct,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {
            k: {"value": summary["metrics"].get(k), "unit": unit}
            for k, unit in summary["units"].items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
