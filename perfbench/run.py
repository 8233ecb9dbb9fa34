#!/usr/bin/env python3
"""Benchmark for aisepred: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a source checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload helix_batch --seed 0 --seconds 25 --trace 0

The parent process pins the BLAS thread count and starts fresh child
processes: a few that only set the workload up (for `setup_s`) and one that
sets up again and then measures for `--seconds`. It prints one JSON line with
the environment, counters, checks and layer detail, then, as the last line,
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` they are the per-layer ones from a
run whose second half is traced. Spans and results are written under
`.perfbench/` in the checkout. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from pace import REF_CHUNK_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("helix_batch", "truth_artifacts", "live_track")
SETUP_PROBES = 3                # set-up-only children; the measuring child adds one sample
CHILD_ENV = {                   # BLAS pinned to one thread: one caller, no hidden parallelism
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": SRC,
}
DEADLINE_S = 170                # the whole run, probes included


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("probe", "measure"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_child(mode, args, deadline):
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = {**os.environ, **CHILD_ENV}
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parent(args):
    if not os.path.isfile(os.path.join(SRC, "aisepred", "__init__.py")):
        sys.stderr.write(f"perfbench: no package source at {SRC}/aisepred; "
                         "run from the root of an aisepred checkout\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [run_child("probe", args, deadline) for _ in range(SETUP_PROBES)]
        result = run_child("measure", args, deadline)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run did not finish within {DEADLINE_S} s\n")
        return 1
    setups.append(result)
    detail = result["detail"]
    detail["setup_wall_samples_s"] = [s["setup_wall_s"] for s in setups]
    detail["setup_chunk_samples_s"] = [s["setup_chunk_s"] for s in setups]
    metrics = result["metrics"]
    if not args.trace:
        # Median set-up time, at the reference pace of all the set-ups' chunks.
        scale = REF_CHUNK_S / statistics.median(detail["setup_chunk_samples_s"])
        metrics["setup_s"] = {"value": statistics.median(detail["setup_wall_samples_s"]) * scale,
                              "unit": "s"}
    final = {k: result[k] for k in ("correct", "attempted", "failed")}
    final["metrics"] = {name: metrics[name] for name in sorted(metrics)}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"detail": detail, **final}, fh, indent=1)
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(final))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.child is None:
        return parent(args)
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import measure

    return measure.child(args, start, OUT)


if __name__ == "__main__":
    sys.exit(main())
