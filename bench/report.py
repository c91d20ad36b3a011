"""Run every workload and print its metrics, one row per workload.

    python3 bench/report.py                     # one run per workload
    python3 bench/report.py --seeds 1 2 3 4 5   # medians and spreads
    python3 bench/report.py --trace             # per-layer metrics, two traced runs
    python3 bench/report.py --save out.json     # also keep every run's result

Each run is a fresh `python3 bench/run.py` process with the settings of
BENCHMARK.json.  With several seeds, a metric's spread is the distance
between the first and third quartiles of its values over their median; it
is marked "!" when it exceeds a third of the metric's bound.  --trace makes
two traced runs per workload with the first seed and checks that the
machine-independent counts agree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import COUNT_METRICS  # noqa: E402


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    for line in lines[:-1]:
        print(f"  {line}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    results: dict = {}
    for workload in workloads:
        results[workload] = [run(spec, workload, seed, 0) for seed in args.seeds]
    metrics = spec["end_to_end"]
    print("workload      " + "".join(f"{m['name']} [{m['unit']}]".rjust(24) for m in metrics))
    for workload, runs in results.items():
        row, spreads = [], []
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            row.append(f"{statistics.median(values):.5g}".rjust(24))
            flag = "!" if s > m["bound"] / 3 else " "
            spreads.append(f"{100 * s:.1f}%{flag}".rjust(24))
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload:14s}" + "".join(row) + f"   failed {failed}/{attempted}")
        if len(runs) > 1:
            print(f"{'  spread':14s}" + "".join(spreads))
    if args.trace:
        for workload in workloads:
            first, second = (run(spec, workload, args.seeds[0], 1) for _ in range(2))
            results[f"{workload}/trace"] = [first, second]
            differing = [k for k in COUNT_METRICS if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
            print(f"\n{workload} (traced, seed {args.seeds[0]}): counts {'DIFFER: ' + ', '.join(differing) if differing else 'repeat exactly'}")
            for m in spec["per_layer"]:
                value = first["metrics"][m["name"]]["value"]
                print(f"  {m['name']:42s} {value:14.6g} {m['unit']}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
