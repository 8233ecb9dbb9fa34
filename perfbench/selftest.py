#!/usr/bin/env python3
"""Self-tests of the benchmark itself (about three minutes on two cores).

    python3 perfbench/selftest.py

Checks that the seed argument is honoured, that one seed repeats its
counters and fingerprints exactly, that the tracer's self times add up to its
root spans, that every metric named in BENCHMARK.json is emitted with its
unit (and every per-layer name is reported or explained), and that the
benchmark refuses to run without the package source. Exits non-zero on the
first failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

os.environ.update(run.CHILD_ENV)

import numpy as np  # noqa: E402

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_contract_file():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names)), "names must be unique"
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"]), metric
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in BENCH["end_to_end"])


def test_seed_is_honoured():
    _, m0 = workloads.live_stream(0)
    _, m0_again = workloads.live_stream(0)
    _, m1 = workloads.live_stream(1)
    assert np.array_equal(m0, m0_again), "same seed must give the same stream"
    assert not np.allclose(m0, m1), "different seeds must give different noise"
    assert workloads.build("helix_batch", 7, "unused").config.seed == 7


def test_same_seed_repeats_exactly():
    track = workloads.TRACK
    workloads.TRACK = 600  # shorter stream, same code path
    try:
        runs = []
        for seed in (3, 3, 4):
            tracer = spans.Tracer()
            with spans.installed(tracer, ((workloads.LiveTrack, "sample", "bench.sample"),)):
                _, outputs, _ = measure.one_round(workloads.build("live_track", seed, ""), tracer)
            runs.append(outputs)
    finally:
        workloads.TRACK = track
    assert runs[0] == runs[1], "one seed must repeat counters and RMSE exactly"
    assert runs[0]["rmse"] != runs[2]["rmse"], "another seed must change the outputs"
    assert runs[0]["counters"]["aise.forgetting.o1"] > 0, "bursts must make forgetting fire"


def test_self_times_add_up():
    tracer = spans.Tracer()
    leaf = tracer.wrap("x.leaf", lambda: time.sleep(0.002))

    def parent():
        leaf()
        leaf()
        time.sleep(0.001)

    tracer.wrap("x.parent", parent)()
    roots = [sp for sp in tracer.spans if sp[5] == 0]
    assert [sp[0] for sp in roots] == ["x.parent"]
    assert sum(sp[3] for sp in tracer.spans) == roots[0][2], "self times must sum to the root"
    assert all(sp[4] == roots[0][4] for sp in tracer.spans), "one root id per request"


def test_work_clock_excludes_chunks():
    import pace

    pacer = pace.Pacer()
    pacer.start()
    try:
        w0, t0 = pacer.clock(), time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
        w1, t1 = pacer.clock(), time.perf_counter()
    finally:
        pacer.stop()
    assert len(pacer.took) >= 5, "chunks must run while the work runs"
    slack = max(pacer.took) + 1e-4  # a chunk may land between the paired clock reads
    assert abs((t1 - t0) - (w1 - w0) - pacer.spent) < slack, "the work clock must skip chunks"
    factor = pacer.normalizer()
    ref = pace.REF_CHUNK_S / float(np.mean(pacer.took))
    assert abs(factor(w0, w1) - ref) < 1e-12, "a window over every chunk gives the run's pace"


def run_bench(workload, trace, cwd=ROOT):
    cmd = [*BENCH["command"], "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_every_metric_emitted():
    for workload in run.WORKLOADS:
        for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])["perfbench"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, detail["problems"]
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(v["value"], float) for v in result["metrics"].values())
            if trace:
                assert set(detail["applicability"]) == set(want)
                acct = detail["accounting"]
                assert abs(acct["unaccounted_s"]) < 1e-6 * acct["traced_wall_s"], acct
            print(f"  {workload} trace={trace}: {len(got)} metrics, "
                  f"fingerprint {detail['fingerprint']}", flush=True)


def test_refuses_without_source():
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("helix_batch", 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare)


def main():
    tests = [test_contract_file, test_seed_is_honoured, test_same_seed_repeats_exactly,
             test_self_times_add_up, test_work_clock_excludes_chunks, test_refuses_without_source, test_every_metric_emitted]
    for test in tests:
        print(test.__name__, flush=True)
        test()
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
