#!/usr/bin/env python3
"""Record the output fingerprints the benchmark checks its runs against.

    python3 perfbench/record_fingerprints.py --workloads live_track --seeds 0-19

For each workload and seed, runs one traced round and stores its per-method,
per-axis RMSE, its adaptive-mechanism counters and, for truth_artifacts, the
sha256 of predictions.csv and trace.csv in perfbench/fingerprints.json under
the current numpy and scipy versions. Re-record only when a change is meant to
alter the numbers, and say so in that change.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins the BLAS threads before numpy loads)

os.environ.update(run.CHILD_ENV)

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spread import seeds  # noqa: E402


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS))
    p.add_argument("--seeds", type=seeds, default=seeds("0-19"))
    args = p.parse_args()
    scratch = os.path.join(run.OUT, "record")
    fingerprints = measure.load_fingerprints()
    table = fingerprints.setdefault(measure.version_key(), {})
    for workload in args.workloads:
        for seed in args.seeds:
            wl = workloads.build(workload, seed, scratch)
            tracer = spans.Tracer()
            with spans.installed(tracer, ((workloads.LiveTrack, "sample", "bench.sample"),)):
                _, outputs, _ = measure.one_round(wl, tracer)
            if outputs.pop("nonfinite", 0):
                raise SystemExit(f"{workload} seed {seed}: non-finite predictions")
            table.setdefault(workload, {})[str(seed)] = outputs
            print(workload, seed, outputs["rmse"], flush=True)
            with open(measure.FINGERPRINTS, "w") as fh:
                json.dump(fingerprints, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
