"""Machine-pace calibration, interleaved with the measured work.

The hosts this benchmark runs on are shared: other tenants' load slows every
instruction of a run by up to a factor of two or more, for minutes at a time,
and longer runs do not average that out. So the benchmark times a fixed
calibration chunk, written here and never changed by the package, at short
regular intervals *between* the operations it measures, and expresses each
operation's time at a reference pace:

    normalized = measured * REF_CHUNK_S / (mean chunk time around the operation)

A change to the package moves `measured` and leaves the chunk alone; a change
in machine speed moves both by about the same factor. How much a slow spell
slows code depends on the code's working set, so the chunk copies the shape
and size of the package's hot path, the AISE estimator step: nine channels,
each with a 51x51 information matrix, a 50x51 regressor history, deques of
past values, a scipy Cholesky solve, a variance-ratio test and a search over
a 50-point grid, plus a CSV row per step as in the artifact writers. A chunk
with a working set of a few kilobytes missed slow spells that slowed the
package by 15%.

`Pacer.start()` runs one chunk from a SIGALRM handler every INTERVAL_S, in the
main thread, between bytecodes. `Pacer.clock()` is a work clock: wall time
minus the time spent in chunks, so that the chunks never count as the
operation's own time.
"""

import math
import signal
import statistics
import time
from collections import deque
from itertools import islice

import numpy as np
from scipy.linalg import cho_factor, cho_solve

INTERVAL_S = 0.05        # one chunk every 50 ms of wall time
CHUNK_STEPS = 10         # about 2 ms per chunk on a 2-vCPU Xeon VM
WINDOW_S = 0.5           # an operation's pace: chunks within this much work time of it
REF_CHUNK_S = 2.0e-3     # the reference pace: one chunk in 2 ms
SETTLE_S = 0.3           # chunks run back to back after each set-up, for setup_s

N_THETA, N_HIST, N_CHANNELS = 51, 50, 9   # AiseConfig defaults: 2 * n_e + 1, n_f; 9 filters


class _Channel:
    """One estimator-shaped channel; its state stays bounded however long it runs."""

    def __init__(self, index):
        self.k = 1000 * index
        self.p_inv = 10.0 * np.eye(N_THETA)
        self.theta = np.zeros(N_THETA)
        self.phi_hist = np.zeros((N_HIST, N_THETA))
        self.z_hist = deque([0.0] * (N_HIST + 10), maxlen=N_HIST + 10)
        self.d_hist = deque([0.0] * (N_HIST + 10), maxlen=N_HIST + 10)
        self.weights = 0.9 ** np.arange(1, N_HIST + 1)
        self.grid = np.logspace(-12, -2, 50)

    def step(self):
        self.k += 1
        z = math.sin(0.01 * self.k) + 0.1 * math.cos(0.37 * self.k)
        self.z_hist.appendleft(z)
        half = N_THETA // 2
        phi = np.empty(N_THETA)
        phi[:half] = list(islice(self.d_hist, half))
        phi[half:] = list(islice(self.z_hist, N_THETA - half))
        phi_f = self.weights @ self.phi_hist
        dhat_f = float(self.weights @ np.fromiter(islice(self.d_hist, N_HIST), float, N_HIST))
        recent = np.fromiter(islice(self.z_hist, 25), float, 25)
        ratio = float(np.var(recent[:5], ddof=1)) / (float(np.var(recent, ddof=1)) + 1e-12)
        p = 0.98 * self.p_inv + 0.02 * np.eye(N_THETA)
        p += np.outer(phi_f, phi_f) + np.outer(phi, phi)
        p = 0.5 * (p + p.T)
        rhs = (z - dhat_f + float(phi_f @ self.theta)) * phi_f + float(phi @ self.theta) * phi
        self.theta = 0.5 * self.theta - 0.01 * cho_solve(cho_factor(p, lower=True), rhs)
        self.p_inv = p
        eta = float(self.grid[int(np.argmin(np.abs(ratio - self.grid)))])
        d = math.tanh(float(phi @ self.theta) + eta)
        self.d_hist.appendleft(d)
        self.phi_hist = np.roll(self.phi_hist, 1, axis=0)
        self.phi_hist[0] = phi
        return ",".join(f"{v:.9g}" for v in (z, d, dhat_f, ratio, eta))


_CHANNELS = [_Channel(i) for i in range(N_CHANNELS)]
_turn = 0


def chunk():
    """A fixed amount of work: CHUNK_STEPS channel steps, taking the channels in turn."""
    global _turn
    for _ in range(CHUNK_STEPS):
        _CHANNELS[_turn % N_CHANNELS].step()
        _turn += 1


def settle():
    """Run chunks back to back for SETTLE_S; returns their median time."""
    chunk()
    took, end = [], time.perf_counter() + SETTLE_S
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        chunk()
        took.append(time.perf_counter() - t0)
    return statistics.median(took)


class Pacer:
    """Runs calibration chunks between operations and keeps a work clock."""

    def __init__(self):
        self.spent = 0.0     # wall seconds spent in chunks so far
        self.work_at = []    # work-clock time of each chunk
        self.took = []       # wall seconds each chunk took
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        chunk()
        took = time.perf_counter() - t0
        self.work_at.append(t0 - self.spent)
        self.took.append(took)
        self.spent += took

    def clock(self):
        """Wall seconds minus chunk time; a chunk landing mid-read forces a re-read."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:
                return now - spent

    def start(self):
        chunk()  # warm the chunk's code paths before any is timed
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def normalizer(self):
        """A function (start, end) in work time -> factor REF_CHUNK_S / local chunk time.

        The local chunk time is the mean over the chunks that ran within
        WINDOW_S of the operation, widening to the whole run if none did.
        The mean, not the median: when the host takes the CPU away in slices
        longer than a chunk, most chunks run untouched and a few absorb whole
        slices, and an operation loses the same share of its time.
        """
        at, took = np.asarray(self.work_at), np.asarray(self.took)  # `at` ascends
        whole = float(np.mean(took)) if len(took) else REF_CHUNK_S

        def factor(start, end):
            lo, hi = np.searchsorted(at, [start - WINDOW_S, end + WINDOW_S])
            local = float(np.mean(took[lo:hi])) if hi > lo else whole
            return REF_CHUNK_S / local

        return factor
