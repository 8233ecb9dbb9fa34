"""The benchmark's three workloads, driven only through the package's public API.

Each workload is a closed loop: one caller, one call at a time. Building a
workload object is its set-up; `round()` runs one unit of work and returns
the (start, latency) of every operation in it, read from `clock`, plus the
outputs the checks compare.

* helix_batch: one `run_experiment` on the default helix (5000 steps, four
  methods, no artifacts) per round. The paper's reproduction run; every
  layer executes and the estimators dominate. The stream is stationary, so
  forgetting (lambda < 1) almost never fires.
* truth_artifacts: the same helix with exact derivatives injected and
  artifacts written. The estimators and baselines are bypassed, so the
  prediction/frenet layers and the artifact writers do the work; a change to
  the estimators should leave this workload unchanged.
* live_track: a real-time caller. A noisy helix with periodic noise bursts is
  fed one 3-D sample at a time into nine `AiseFilter`s (orders 1-3 x three
  axes), then `predict` gives the AISE/FS and AISE/va 100-step predictions.
  One operation is one sample. The bursts make forgetting fire on about a
  tenth of the steps.
"""

import hashlib
import os
import shutil
import time
from collections import defaultdict

import numpy as np

import aisepred
from spans import count_step, count_predict

HORIZON = 100
T_S = 0.01

# live_track stream: TRACK samples per round, noise sigma as in the helix
# scenario, scaled by BURST_GAIN on the last BURST_LEN of every BURST_PERIOD
# samples. Endpoint RMSE is scored from anchor LIVE_K0 on.
TRACK = 3000
SIGMA = 0.1
BURST_PERIOD, BURST_LEN, BURST_GAIN = 40, 3, 30.0
LIVE_K0 = 500
ORDERS = (1, 2, 3)

# The clock operations are timed with; the end-to-end run swaps in the
# calibration's work clock (pace.Pacer.clock).
clock = time.perf_counter


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _rmse_lists(methods):
    return {m: [float(x) for x in v] for m, v in methods.items()}


class Batch:
    """One `run_experiment` call per round; with `out_dir`, artifacts are written."""

    def __init__(self, seed, truth_derivatives=False, out_dir=None):
        self.config = aisepred.ExperimentConfig(
            scenario="helical", seed=seed, truth_derivatives=truth_derivatives)
        self.out_dir = out_dir

    def round(self):
        if self.out_dir is not None:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        t0 = clock()
        report = aisepred.run_experiment(self.config, out_dir=self.out_dir)
        wall = clock() - t0
        outputs = {"rmse": _rmse_lists(report.methods)}
        if self.out_dir is None:
            return [(t0, wall)], outputs, {"write_s": 0.0, "bytes_written": 0}
        names = sorted(os.listdir(self.out_dir))
        outputs["sha256"] = {n: sha256(os.path.join(self.out_dir, n))
                             for n in ("predictions.csv", "trace.csv")}
        io = {
            # runtime_s stops before the artifacts are written.
            "write_s": wall - report.runtime_s,
            "bytes_written": sum(os.path.getsize(os.path.join(self.out_dir, n)) for n in names),
        }
        shutil.rmtree(self.out_dir)
        return [(t0, wall)], outputs, io


def live_stream(seed):
    """Noisy helix positions with periodic bursts, and the truth to score against."""
    P = aisepred.truth_arrays("helical", TRACK - 1 + HORIZON, T_S)[0]
    clean = P[:TRACK]
    m = aisepred.add_noise(clean, SIGMA, seed)
    burst = np.arange(TRACK) % BURST_PERIOD >= BURST_PERIOD - BURST_LEN
    m[burst] = clean[burst] + BURST_GAIN * (m[burst] - clean[burst])
    return P, m


class LiveTrack:
    """Sample-by-sample tracking; one round replays the stream with fresh filters."""

    def __init__(self, seed):
        self.truth, self.measurements = live_stream(seed)
        self.filters = self._new_filters()

    @staticmethod
    def _new_filters():
        return {o: [aisepred.AiseFilter(aisepred.benchmark_config(o, T_S)) for _ in range(3)]
                for o in ORDERS}

    def sample(self, k, y):
        """Hand over one 3-D sample; returns the (AISE/FS, AISE/va) predictions."""
        f1, f2, f3 = self.filters[1], self.filters[2], self.filters[3]
        v, a, j = np.empty(3), np.empty(3), np.empty(3)
        for ax in range(3):
            v[ax] = f1[ax].step(y[ax])
            a[ax] = f2[ax].step(y[ax])
            j[ax] = f3[ax].step(y[ax])
        fs = aisepred.predict("AISE/FS", y, aisepred.DerivativeEstimate(v=v, a=a, j=j),
                              HORIZON, T_S, anchor_step=k)
        va = aisepred.predict("AISE/va", y, aisepred.DerivativeEstimate(v=v, a=a),
                              HORIZON, T_S, anchor_step=k)
        return fs, va

    def round(self):
        if self.filters is None:
            self.filters = self._new_filters()
        counts = defaultdict(int)
        ops = []
        traces = {"AISE/FS": [], "AISE/va": []}
        nonfinite = 0
        now = clock
        try:
            for k in range(TRACK):
                y = self.measurements[k]
                t0 = now()
                fs, va = self.sample(k, y)
                ops.append((t0, now() - t0))
                traces["AISE/FS"].append(fs)
                traces["AISE/va"].append(va)
                nonfinite += not (np.isfinite(fs.positions).all()
                                  and np.isfinite(va.positions).all())
                count_predict(counts, fs)
                for o in ORDERS:
                    for filt in self.filters[o]:
                        count_step(counts, filt)
        finally:
            self.filters = None  # the next round replays the stream with fresh filters
        rmse = {m: aisepred.rmse(self.truth, tr, HORIZON, LIVE_K0) for m, tr in traces.items()}
        outputs = {"rmse": _rmse_lists(rmse), "counters": dict(counts), "nonfinite": nonfinite}
        return ops, outputs, {"write_s": 0.0, "bytes_written": 0}


def build(name, seed, scratch):
    """Set up workload `name`; everything it writes goes under `scratch`."""
    if name == "helix_batch":
        return Batch(seed)
    if name == "truth_artifacts":
        return Batch(seed, truth_derivatives=True, out_dir=os.path.join(scratch, "artifacts"))
    if name == "live_track":
        return LiveTrack(seed)
    raise ValueError(f"unknown workload {name!r}")
