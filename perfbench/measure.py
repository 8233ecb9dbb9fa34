"""Child-process side of the benchmark: set up, measure, check and trace one workload.

Importing this module imports numpy, scipy and the package, so its import
time is part of `setup_s`.
"""

import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
import traceback

import numpy as np
import scipy

import aisepred
import pace
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
# Fingerprinted RMSEs must agree to this relative tolerance; artifact hashes
# and counters must agree exactly.
RMSE_RTOL = 1e-9
# Without a fingerprint for the seed, each RMSE must lie within this factor
# of the range recorded over all fingerprinted seeds.
BAND = 2.0

# Per-layer names that do not apply to a workload, and why; they read 0.
NOT_APPLICABLE = {
    "helix_batch": {
        "harness.write_s": "no out_dir: run_experiment writes no artifacts",
        "harness.bytes_written_mb": "no out_dir: run_experiment writes no artifacts",
    },
    "truth_artifacts": {
        **{f"aise.{m}": "truth_derivatives=True bypasses the estimators"
           for m in ("step_us.o1", "step_us.o2", "step_us.o3", "step_calls", "self_s",
                     "forgetting_share", "eta_bound_share", "zero_surplus_share")},
        **{f"baselines.{m}": "truth_derivatives=True bypasses the baselines"
           for m in ("bdb_step_us", "abg_step_us", "self_s")},
    },
    "live_track": {
        **{f"baselines.{m}": "the live caller runs only the AISE filters"
           for m in ("bdb_step_us", "abg_step_us", "self_s")},
        "harness.loop_self_s": "no run_experiment; the benchmark's own per-sample "
                               "overhead is detail.accounting.layer_self_s.bench",
        "harness.write_s": "the live caller writes no artifacts",
        "harness.bytes_written_mb": "the live caller writes no artifacts",
    },
}


def version_key():
    return f"numpy {np.__version__}, scipy {scipy.__version__}"


def load_fingerprints():
    with open(FINGERPRINTS) as fh:
        return json.load(fh)


def check_source(src):
    origin = os.path.abspath(aisepred.__file__)
    if os.path.commonpath([origin, src]) != src:
        raise SystemExit(f"perfbench: aisepred imported from {origin}, not from {src}")


def one_round(wl, tracer=None):
    """One round of `wl`; when traced, its adaptive counters join the outputs."""
    before = dict(tracer.counters) if tracer is not None else None
    ops, outputs, io = wl.round()
    if tracer is not None:
        counted = {k: v - before.get(k, 0) for k, v in tracer.counters.items()}
        if "counters" in outputs and outputs["counters"] != counted:
            raise AssertionError("traced counters disagree with the live loop's own")
        outputs["counters"] = counted
    return ops, outputs, io


def _close(a, b):
    return all(math.isclose(x, y, rel_tol=RMSE_RTOL, abs_tol=0.0) for x, y in zip(a, b))


def check_outputs(outputs, expected, recorded):
    """Problems with one round's outputs; `expected` is the seed's fingerprint or None."""
    problems = []
    for method, values in outputs["rmse"].items():
        if not all(math.isfinite(x) for x in values):
            problems.append(f"{method} RMSE not finite: {values}")
    if expected is not None:
        for method, values in expected["rmse"].items():
            got = outputs["rmse"].get(method)
            if got is None or not _close(got, values):
                problems.append(f"{method} RMSE {got} != fingerprint {values}")
        if "sha256" in expected and outputs.get("sha256") != expected["sha256"]:
            problems.append(f"artifact hashes {outputs.get('sha256')} != {expected['sha256']}")
        if "counters" in outputs and outputs["counters"] != expected.get("counters"):
            problems.append(f"counters {outputs['counters']} != {expected.get('counters')}")
        return problems
    for method, values in outputs["rmse"].items():
        for axis, x in enumerate(values):
            seen = [fp["rmse"][method][axis] for fp in recorded if method in fp["rmse"]]
            if seen and not min(seen) / BAND <= x <= max(seen) * BAND:
                problems.append(f"{method} axis {axis} RMSE {x} outside "
                                f"[{min(seen) / BAND}, {max(seen) * BAND}]")
    return problems


def same_outputs(a, b):
    """Rounds of one seed must agree exactly; counters only when both have them."""
    keys = {"rmse", "sha256"} | ({"counters"} if "counters" in a and "counters" in b else set())
    return all(a.get(k) == b.get(k) for k in keys)


class Runner:
    """Runs and checks rounds; counts operations attempted and failed."""

    def __init__(self, wl, expected, recorded):
        self.wl, self.expected, self.recorded = wl, expected, recorded
        self.ops_per_round = workloads.TRACK if isinstance(wl, workloads.LiveTrack) else 1
        self.attempted = self.failed = 0
        self.first, self.problems = None, []
        self.rounds = self.traced_rounds = 0
        self.traced_io = {"write_s": 0.0, "bytes_written": 0}

    def run_round(self, tracer=None):
        """One checked round; returns its operations' (start, latency) (none if it raised)."""
        self.attempted += self.ops_per_round
        try:
            ops, outputs, io = one_round(self.wl, tracer)
        except Exception:  # a failed round is counted, reported and survived
            self.failed += self.ops_per_round
            self.problems.append(traceback.format_exc(limit=3))
            return []
        self.rounds += 1
        problems = check_outputs(outputs, self.expected, self.recorded)
        if self.first is None:
            self.first = outputs
        elif not same_outputs(self.first, outputs):
            problems.append("round outputs differ from the first round of this seed")
        if problems:
            self.failed += self.ops_per_round
            self.problems.extend(problems)
        else:
            self.failed += outputs.get("nonfinite", 0)
        if tracer is not None:
            self.traced_rounds += 1
            for k in self.traced_io:
                self.traced_io[k] += io[k]
        return ops


def another_fits(t0, seconds, done):
    """Whether one more unit of work, at the mean pace so far, ends by `seconds` plus half a unit.

    The measured time is then `seconds` on average, not a whole unit short of it.
    """
    elapsed = time.perf_counter() - t0
    return elapsed + elapsed / done / 2 <= seconds


def tail_percentile(n):
    """Highest of p99 and p90 with at least ten of `n` samples beyond it, else p50."""
    for q in (99, 90):
        if n * (100 - q) >= 1000:
            return q
    return 50


# Consecutive samples per tail block: 10 s of live tracking at the 10 ms
# period, the fewest that leave ten samples beyond p99.
TAIL_BLOCK = 1000


def tail(arr, q):
    """The q-th percentile of `arr`; with two or more whole TAIL_BLOCKs, its median over them.

    A neighbour's burst of load inflates the tail of the blocks it overlaps
    and no other; the median over blocks is the tail of a typical stretch.
    """
    blocks = len(arr) // TAIL_BLOCK
    if blocks < 2:
        return float(np.percentile(arr, q))
    per_block = np.percentile(arr[:blocks * TAIL_BLOCK].reshape(blocks, TAIL_BLOCK), q, axis=1)
    return float(np.median(per_block))


def end_to_end(runner, ops, factor, detail):
    """End-to-end metrics; latencies are scaled to the reference pace by `factor`."""
    wall = np.array([lat for _, lat in ops]) * 1e3
    arr = np.array([lat * factor(t0, t0 + lat) for t0, lat in ops]) * 1e3
    have = len(ops) > 0
    q = tail_percentile(min(len(arr), TAIL_BLOCK))
    detail.update(latency_samples=len(arr), tail_percentile=q,
                  tail_blocks=len(arr) // TAIL_BLOCK,
                  share_over_10ms=float(np.mean(wall > 10.0)) if have else None,
                  wall_latency_p50_ms=float(np.median(wall)) if have else None,
                  wall_latency_tail_ms=tail(wall, q) if have else None)
    rmse = runner.first["rmse"] if runner.first else {}

    def mean(method):
        return float(np.mean(rmse[method])) if method in rmse else None

    return {
        "latency_p50_ms": {"value": float(np.median(arr)) if have else None, "unit": "ms"},
        "latency_tail_ms": {"value": tail(arr, q) if have else None, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                        "unit": "MB"},
        "rmse_fs_m": {"value": mean("AISE/FS"), "unit": "m"},
        "rmse_va_m": {"value": mean("AISE/va"), "unit": "m"},
    }


def per_layer(workload, tracer, first, rounds, io, counters, lat_plain, lat_traced):
    """Per-layer metrics from the spans recorded since index `first`, per round.

    Scenario generation happens inside run_experiment in the batch workloads
    and in the workload's set-up (the spans before `first`) in live_track.
    """
    s = tracer.summary(first)
    setup_ns = sum(sp[2] for sp in tracer.spans[:first] if sp[0].startswith("scenarios."))

    def med_us(name):
        return s[name]["median_ns"] / 1e3 if name in s else 0.0

    def calls(prefix):
        return sum(v["calls"] for n, v in s.items() if n.startswith(prefix)) / rounds

    def total_s(prefix):
        return sum(v["total_ns"] for n, v in s.items() if n.startswith(prefix)) / 1e9 / rounds

    def self_s(layer):
        return sum(v["self_ns"] for n, v in s.items() if n.split(".")[0] == layer) / 1e9 / rounds

    def share(kind):
        steps = sum(counters.get(f"aise.steps.o{o}", 0) for o in workloads.ORDERS)
        hits = sum(counters.get(f"aise.{kind}.o{o}", 0) for o in workloads.ORDERS)
        return hits / steps if steps else 0.0

    write_s = io["write_s"] / rounds
    loop_self = (s["harness.run_experiment"]["self_ns"] / 1e9 / rounds - write_s
                 if "harness.run_experiment" in s else 0.0)
    fs_calls = counters.get("prediction.fs_calls", 0)
    values = {
        "aise.step_us.o1": (med_us("aise.step.o1"), "us"),
        "aise.step_us.o2": (med_us("aise.step.o2"), "us"),
        "aise.step_us.o3": (med_us("aise.step.o3"), "us"),
        "aise.step_calls": (calls("aise.step."), "count"),
        "aise.self_s": (self_s("aise"), "s"),
        "aise.forgetting_share": (share("forgetting"), "ratio"),
        "aise.eta_bound_share": (share("eta_bound"), "ratio"),
        "aise.zero_surplus_share": (share("zero_surplus"), "ratio"),
        "baselines.bdb_step_us": (med_us("baselines.bdb_step"), "us"),
        "baselines.abg_step_us": (med_us("baselines.abg_step"), "us"),
        "baselines.self_s": (self_s("baselines"), "s"),
        "frenet.scalar_params_calls": (calls("frenet.scalar_params"), "count"),
        "frenet.scalar_params_us": (med_us("frenet.scalar_params"), "us"),
        "frenet.frenet_model_us": (med_us("frenet.frenet_model"), "us"),
        "frenet.fs_predict_us": (med_us("frenet.fs_predict"), "us"),
        "frenet.self_s": (self_s("frenet"), "s"),
        "prediction.predict_us.fs": (med_us("prediction.predict.fs"), "us"),
        "prediction.predict_us.va": (med_us("prediction.predict.va"), "us"),
        "prediction.fallback_share": (
            counters.get("prediction.fs_fallbacks", 0) / fs_calls if fs_calls else 0.0, "ratio"),
        "prediction.self_s": (self_s("prediction"), "s"),
        "harness.loop_self_s": (loop_self, "s"),
        "harness.rmse_ms": (total_s("harness.rmse") * 1e3, "ms"),
        "harness.write_s": (write_s, "s"),
        "harness.bytes_written_mb": (io["bytes_written"] / 1e6 / rounds, "MB"),
        "scenarios.setup_ms": (setup_ns / 1e6 if first else total_s("scenarios.") * 1e3, "ms"),
        "trace.overhead_share": (statistics.median(lat_traced) / statistics.median(lat_plain) - 1,
                                 "ratio"),
    }
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}

    roots = [sp for sp in tracer.spans[first:] if sp[5] == 0]
    layer_self = {layer: self_s(layer) for layer in spans.LAYERS}
    layer_self["harness.write"] = write_s
    layer_self["harness"] -= write_s
    traced_wall = sum(sp[2] for sp in roots) / 1e9 / rounds
    accounting = {
        "traced_wall_s": traced_wall,
        "layer_self_s": layer_self,
        "unaccounted_s": traced_wall - sum(layer_self.values()),
        "note": "per traced round; harness is harness.loop_self_s plus harness.rmse",
    }
    applies = {name: NOT_APPLICABLE[workload].get(name, "applies") for name in metrics}
    return metrics, {"accounting": accounting, "spans": s, "applicability": applies}


def environment(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(os.path.dirname(HERE)),
        "package": aisepred.__version__,
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root):
    """Commit of the checkout, read from .git without running git; None outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def child(args, start, out_dir):
    src = os.path.join(os.path.dirname(HERE), "src")
    check_source(src)
    scratch = os.path.join(out_dir, f"scratch-{os.getpid()}")
    wl = workloads.build(args.workload, args.seed, scratch)
    setup_wall_s = time.perf_counter() - start
    # Set-up runs in a fresh process, with no chunks between its steps; the
    # chunks run back to back after it give the pace the parent scales by.
    setup = {"setup_wall_s": setup_wall_s, "setup_chunk_s": pace.settle()}
    if args.child == "probe":
        print(json.dumps(setup))
        return 0

    fingerprints = load_fingerprints()
    expected = fingerprints.get(version_key(), {}).get(args.workload, {}).get(str(args.seed))
    recorded = [fp for per_version in fingerprints.values()
                for fp in per_version.get(args.workload, {}).values()]
    runner = Runner(wl, expected, recorded)
    detail = {"environment": environment(args)}
    t0 = time.perf_counter()
    if not args.trace:
        pacer = pace.Pacer()
        workloads.clock = pacer.clock
        ops, n, per_round = [], 0, []
        pacer.start()
        try:
            while True:
                round_ops = runner.run_round()
                ops += round_ops
                per_round.append(float(np.median([lat for _, lat in round_ops])) * 1e3
                                 if round_ops else None)
                n += 1
                if not another_fits(t0, args.seconds, n):
                    break
        finally:
            pacer.stop()
        metrics = end_to_end(runner, ops, pacer.normalizer(), detail)
        detail["round_wall_p50_ms"] = per_round
        detail["chunks"] = len(pacer.took)
        detail["chunk_ms"] = {"mean": float(np.mean(pacer.took)) * 1e3 if pacer.took else None,
                              "median": float(np.median(pacer.took)) * 1e3 if pacer.took else None,
                              "reference": pace.REF_CHUNK_S * 1e3}
    else:
        tracer = spans.Tracer()
        extra = ((workloads.LiveTrack, "sample", "bench.sample"),)
        if args.workload == "live_track":
            # Set up once more under the tracer so the scenario calls are seen.
            with spans.installed(tracer, extra):
                workloads.build(args.workload, args.seed, scratch)
        first = len(tracer.spans)
        # Plain and traced rounds alternate, so that drift in machine speed
        # does not masquerade as tracing overhead.
        lat_plain, lat_traced, n = [], [], 0
        while True:
            lat_plain += [lat for _, lat in runner.run_round()]
            with spans.installed(tracer, extra):
                lat_traced += [lat for _, lat in runner.run_round(tracer)]
            n += 1
            if not another_fits(t0, args.seconds, n):
                break
        rounds, counters = runner.traced_rounds, dict(tracer.counters)
        metrics = {}
        if lat_plain and lat_traced:
            metrics, layer_detail = per_layer(args.workload, tracer, first, rounds,
                                              runner.traced_io, counters, lat_plain, lat_traced)
            detail.update(layer_detail)
            detail["counters"] = {k: v / rounds for k, v in counters.items()}
        detail["traced_rounds"] = rounds
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv"))
    shutil.rmtree(scratch, ignore_errors=True)
    detail["rounds"] = runner.rounds
    detail["fingerprint"] = ("matched" if expected is not None and not runner.problems
                             else "none recorded for this seed; range checks only"
                             if expected is None else "mismatch")
    detail["first_round_outputs"] = runner.first
    detail["problems"] = runner.problems[:10]
    print(json.dumps({
        **setup,
        "correct": runner.failed == 0 and runner.rounds > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "detail": detail,
    }))
    return 0
