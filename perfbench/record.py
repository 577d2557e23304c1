"""Run the benchmark over ten seeds and summarise it; write trajectory entries.

    python3 perfbench/record.py runs [--out FILE]
    python3 perfbench/record.py blas-pairs --out FILE

Both use the window of ``run_seconds`` in BENCHMARK.json and run one
process at a time.

``runs`` runs every workload once per seed 0..9 with tracing off and once
traced. It prints each end-to-end metric with its unit, median, quartiles and
spread (quartile distance over median) across the seeds, then the per-layer
medians. It exits 1 if any run failed a correctness check, or if a traced
count (every per-layer metric in ``count`` units, and the counts inside
``run_experiment``) differs between seeds.

``blas-pairs`` applies the pairing rule of the metrics guide to the BLAS
thread count on ``cell_full``: ten alternating pairs of
OPENBLAS_NUM_THREADS=1 against the inherited default, with a gain claimed
only when one side wins at least 9 of 10 pairs and the medians differ by more
than the default side's quartile distance.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import _SPEC, COUNTS, END_TO_END, PER_LAYER, WORKLOADS, quartiles  # noqa: E402

RUNS = 10  # seeds 0..9, and the pairs of the pairing rule
SECONDS = _SPEC["run_seconds"]
BOUNDS = {m["name"]: m["bound"] for m in _SPEC["end_to_end"]}


def bench(workload, seed, trace, env=None):
    """One run.py invocation: (result, detail), with result None when it did not finish."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    detail = next((json.loads(l[7:]) for l in lines if l.startswith("detail ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(proc.stderr, file=sys.stderr)
        result = None
    return result, detail


def stats(values):
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0,
            "n": len(values), "values": values}


def cmd_runs(args) -> int:
    entry = {"workloads": {}}
    ok = True
    for workload in WORKLOADS:
        results, traced, digests, guards, setups, counts, walls = [], [], {}, {}, {}, {}, {}
        for seed in range(RUNS):
            for trace in (0, 1):
                result, detail = bench(workload, seed, trace)
                if result is None or not result["correct"]:
                    ok = False
                    print(f"{workload} seed {seed} trace {trace}: FAILED "
                          f"{detail and detail['problems']}")
                    continue
                if trace:
                    traced.append(result)
                    counts[seed] = {name: result["metrics"][name]["value"] for name in COUNTS}
                    counts[seed]["in_run_experiment"] = detail["in_run_experiment"]
                    walls[seed] = detail["iteration_wall_s"]
                else:
                    results.append(result)
                    digests[seed] = detail["digests"]
                    guards[seed] = detail["quality"]
                    setups[seed] = detail["setup_s"]
                    entry.setdefault("machine", detail["machine"])
        # Set-up samples: one per plain iteration.
        # Traced runs alternate traced and plain iterations, traced first.
        row = {"end_to_end": {}, "per_layer": {}, "counts_by_seed": counts,
               "quality_guards": guards, "digests": digests, "setup_samples": setups,
               "traced_run_iteration_wall_s": walls}
        print(f"\n{workload}: {len(results)}/{RUNS} plain and {len(traced)}/{RUNS} traced runs correct")
        for name, unit in END_TO_END.items():
            s = stats([r["metrics"][name]["value"] for r in results])
            s["unit"] = unit
            row["end_to_end"][name] = s
            flag = "" if s["spread"] <= BOUNDS[name] / 3 else "  (spread above a third of the bound)"
            print(f"  {name:<24} {s['median']:.6g} {unit}  q1={s['q1']:.6g} q3={s['q3']:.6g} "
                  f"spread={s['spread']:.4f}{flag}")
        distinct = [s for s in counts if counts[s] != next(iter(counts.values()))]
        if distinct:
            ok = False
            print(f"  CHECK FAILED: traced counts of seeds {distinct} differ from seed "
                  f"{next(iter(counts))}")
        for name, unit in PER_LAYER.items():
            s = stats([r["metrics"][name]["value"] for r in traced])
            row["per_layer"][name] = {k: s[k] for k in ("median", "q1", "q3")}
            print(f"  {name:<32} {s['median']:.6g} {unit}")
        if counts:
            print(f"  in run_experiment: {json.dumps(next(iter(counts.values()))['in_run_experiment'], sort_keys=True)}")
        entry["workloads"][workload] = row
    entry["settings"] = {"runs": RUNS, "seconds": SECONDS, "seeds": list(range(RUNS))}
    if args.out:
        Path(args.out).write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


def cmd_blas_pairs(args) -> int:
    one = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    default = dict(os.environ)
    sides = {"threads_1": [], "default": []}
    for i in range(RUNS):
        order = [("threads_1", one), ("default", default)]
        if i % 2:
            order.reverse()
        for side, env in order:
            result, detail = bench("cell_full", i, 0, env=env)
            if result is None or not result["correct"]:
                print(f"pair {i} {side}: FAILED")
                return 1
            sides[side].append({"wall_s": result["metrics"]["wall_s"]["value"],
                                "blas_threads": detail["machine"]["blas_threads"]})
        print(f"pair {i}: 1 thread {sides['threads_1'][-1]['wall_s']:.3f} s, "
              f"default {sides['default'][-1]['wall_s']:.3f} s", flush=True)
    walls = {k: [r["wall_s"] for r in v] for k, v in sides.items()}
    wins = sum(a < b for a, b in zip(walls["threads_1"], walls["default"]))
    losses = sum(a > b for a, b in zip(walls["threads_1"], walls["default"]))
    s1, s0 = stats(walls["threads_1"]), stats(walls["default"])
    gap = s0["median"] - s1["median"]
    noise = s0["q3"] - s0["q1"]
    winner_pairs = max(wins, losses)
    claim = winner_pairs >= 0.9 * RUNS and abs(gap) > noise
    verdict = ("1 thread faster" if gap > 0 else "default faster") if claim else "no clear gap"
    out = {
        "workload": "cell_full",
        "metric": "wall_s",
        "pairs": RUNS,
        "seconds": SECONDS,
        "threads_1": s1,
        "default": s0,
        "threads_1_wins": wins,
        "default_wins": losses,
        "blas_threads_seen": {k: v[0]["blas_threads"] for k, v in sides.items()},
        "verdict": verdict,
    }
    print(json.dumps({k: v for k, v in out.items() if k not in ("threads_1", "default")}))
    print(f"1 thread: median {s1['median']:.3f} s [{s1['q1']:.3f}, {s1['q3']:.3f}]; "
          f"default: median {s0['median']:.3f} s [{s0['q1']:.3f}, {s0['q3']:.3f}]")
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("runs")
    p.add_argument("--out", default=None, help="write the summary as a trajectory entry")
    p = sub.add_parser("blas-pairs")
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    return cmd_runs(args) if args.command == "runs" else cmd_blas_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
