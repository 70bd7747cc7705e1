"""Run the benchmark several times per workload and report run-to-run spread.

    python3 bench/spread.py --first-seed 1001 --traced --out bench/results/BENCH_baseline.json

Runs every workload of BENCHMARK.json ten times for its run_seconds. Each
run is a fresh `bench/run.py` process with its own seed (first-seed,
first-seed + 1, ...). For every end-to-end metric it prints the median and
the quartile spread, (Q3 - Q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`, next to the metric's bound from
BENCHMARK.json. With --traced it also makes one traced run per workload
(seed first-seed), keeps its per-layer metrics and reports its op median
against the untraced run of the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import machine  # also pins the thread count, as every run does

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result}")
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine(), "seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = range(args.first_seed, args.first_seed + RUNS)
        results = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {"seeds": list(seeds), "metrics": {}}
        print(f"{workload}: {RUNS} runs")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            row = {
                "unit": results[0]["metrics"][name]["unit"],
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bound,
                "values": values,
            }
            entry["metrics"][name] = row
            print(f"  {name:<14} median {row['median']:>12.6g} {row['unit']:<4} "
                  f"spread {row['spread']:.4f} (bound {bound}, third {bound / 3:.4f})")
        if args.traced:
            traced = run_once(workload, args.first_seed, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            untraced = results[0]["metrics"]["op_ms_p50"]["value"]  # same seed
            entry["trace_overhead"] = entry["per_layer"]["trace.op_ms_p50"] / untraced - 1
            print(f"  traced run: op_ms_p50 {entry['per_layer']['trace.op_ms_p50']:.6g} ms, "
                  f"{100 * entry['trace_overhead']:+.1f}% against the untraced run of seed "
                  f"{args.first_seed}")
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
