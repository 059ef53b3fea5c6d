"""Run-to-run spread of the end-to-end metrics.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --seeds 10 [--workloads cold_grid,warm_grid]

Runs ``perfbench/run.py`` once per (seed, workload), interleaving the
workloads so slow drift of the machine spreads over all of them, and
prints for every workload and end-to-end metric the median and the
interquartile range as a share of the median, next to the metric's
bound from ``BENCHMARK.json``. A benchmark is steady when every spread
(``setup_s`` excepted) stays under a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in workloads:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"seed {seed} {workload}: correct={result['correct']} "
                  f"failed={result['failed']} {line}", flush=True)
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])

    for workload in workloads:
        for metric in spec["end_to_end"]:
            vals = values[workload][metric["name"]]
            median = statistics.median(vals)
            q1, _q2, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:14s} {metric['name']:12s} median={median:.4f} "
                  f"spread={(q3 - q1) / median:.4f} bound={metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
