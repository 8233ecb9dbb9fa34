#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads live_track --seeds 0-4

Runs the benchmark once per workload and seed, back to back, for
BENCHMARK.json's run_seconds, and prints for each metric the median and
the distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound. Raw results
go to .perfbench/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    for workload in args.workloads:
        runs = raw[workload] = []
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(workload, seed, result["correct"], result["failed"], "/", result["attempted"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {workload:16s} {name:16s} median {med:12.5g}  "
                  f"spread {(q3 - q1) / med:7.4f}  bound {bound}  "
                  f"{'ok' if (q3 - q1) / med < bound / 3 else 'WIDE'}")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "spread.json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
