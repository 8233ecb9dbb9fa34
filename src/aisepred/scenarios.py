"""Ground-truth trajectory generators, measurement noise, and CSV ingestion.

Both benchmark trajectories carry exact analytic derivatives so estimator
output can be scored against truth rather than against another numerical
differentiation. The planar trajectory is embedded in 3D with z = 0 so a
single per-axis pipeline handles every scenario.

Noise draws come from numpy's default_rng (PCG64). The stream for a given
seed is stable for a pinned numpy version; regenerate any stored expected
values after a numpy upgrade.
"""

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SCENARIOS",
    "TruthSample",
    "parabolic",
    "helical",
    "truth_arrays",
    "add_noise",
    "read_timeseries_csv",
    "read_positions_csv",
    "write_truth_csv",
]

SCENARIOS = ("parabolic", "helical")

_GRAVITY = 9.8          # m/s^2, planar scenario
_LAUNCH_SPEED = 400.0   # m/s along each planar axis
_HELIX_RADIUS = 20.0    # m
_HELIX_RATE = 0.5       # rad/s
_HELIX_CLIMB = 1.0      # m/s


@dataclass(frozen=True)
class TruthSample:
    """Exact position and its first three derivatives at step k."""

    k: int
    t: float
    p: np.ndarray
    v: np.ndarray
    a: np.ndarray
    j: np.ndarray


def _parabolic_state(t):
    t = np.asarray(t, dtype=float)
    zero = np.zeros_like(t)
    p = np.stack([_LAUNCH_SPEED * t, _LAUNCH_SPEED * t - 0.5 * _GRAVITY * t**2, zero], axis=-1)
    v = np.stack([np.full_like(t, _LAUNCH_SPEED), _LAUNCH_SPEED - _GRAVITY * t, zero], axis=-1)
    a = np.stack([zero, np.full_like(t, -_GRAVITY), zero], axis=-1)
    j = np.zeros_like(p)
    return p, v, a, j


def _helical_state(t):
    t = np.asarray(t, dtype=float)
    w = _HELIX_RATE
    r = _HELIX_RADIUS
    s, c = np.sin(w * t), np.cos(w * t)
    p = np.stack([r * s, r * c, _HELIX_CLIMB * t], axis=-1)
    v = np.stack([r * w * c, -r * w * s, np.full_like(t, _HELIX_CLIMB)], axis=-1)
    a = np.stack([-r * w**2 * s, -r * w**2 * c, np.zeros_like(t)], axis=-1)
    j = np.stack([-r * w**3 * c, r * w**3 * s, np.zeros_like(t)], axis=-1)
    return p, v, a, j


_STATE_FNS = {"parabolic": _parabolic_state, "helical": _helical_state}


def _sample(scenario, k, t_s):
    if k < 0:
        raise ValueError(f"step index must be >= 0, got {k}")
    t = k * t_s
    p, v, a, j = _STATE_FNS[scenario](t)
    return TruthSample(k=k, t=t, p=p, v=v, a=a, j=j)


def parabolic(k, t_s):
    """Planar constant-gravity trajectory sample at step k."""
    return _sample("parabolic", k, t_s)


def helical(k, t_s):
    """Constant-rate helix sample at step k."""
    return _sample("helical", k, t_s)


def truth_arrays(scenario, last_step, t_s):
    """Vectorized truth for steps 0..last_step: arrays (P, V, A, J), each (last_step+1, 3)."""
    if scenario not in _STATE_FNS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    t = np.arange(last_step + 1) * t_s
    return _STATE_FNS[scenario](t)


def add_noise(p, sigma, seed):
    """Perturb each component of p by independent N(0, sigma^2) draws.

    The generator is numpy's default_rng seeded with `seed`; identical seeds
    give bit-identical noise. sigma = 0 returns the input unchanged.
    """
    if sigma < 0:
        raise ValueError(f"noise standard deviation must be >= 0, got {sigma}")
    p = np.asarray(p, dtype=float)
    if sigma == 0:
        return p.copy()
    rng = np.random.default_rng(seed)
    return p + rng.normal(0.0, sigma, size=p.shape)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

# Absolute tolerance on sample-spacing uniformity, in seconds.
_SPACING_TOL = 1e-9


def read_timeseries_csv(path_or_file):
    """Read a CSV whose first column is `t` followed by one or more value columns.

    Returns (t, columns) with t a float array and columns an ordered dict of
    name -> float array. Raises ValueError (with the offending line number)
    for malformed rows, non-increasing time, or non-uniform spacing.
    """
    if hasattr(path_or_file, "read"):
        close, fh = False, path_or_file
    else:
        close, fh = True, open(path_or_file, "r", newline="")
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty CSV: missing header") from None
        header = [h.strip() for h in header]
        if not header or header[0] != "t" or len(header) < 2:
            raise ValueError(f"CSV header must be 't,<col>[,...]', got {header}")
        names = header[1:]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append([float(x) for x in row])
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric field in {row}") from None
        if len(rows) < 2:
            raise ValueError("CSV must contain at least two data rows")
        data = np.asarray(rows)
        t = data[:, 0]
        dt = np.diff(t)
        if not np.all(dt > 0):  # false for a NaN time as well
            bad = int(np.argmin(dt > 0))
            raise ValueError(f"line {bad + 3}: time column must be strictly increasing")
        if np.any(np.abs(dt - dt[0]) > _SPACING_TOL):
            bad = int(np.argmax(np.abs(dt - dt[0]) > _SPACING_TOL))
            raise ValueError(
                f"line {bad + 3}: non-uniform sample spacing "
                f"({dt[bad]!r} s vs {dt[0]!r} s)"
            )
        return t, {name: data[:, i + 1].copy() for i, name in enumerate(names)}
    finally:
        if close:
            fh.close()


def read_positions_csv(path_or_file):
    """Read a `t,x,y,z` CSV into (t, positions) with positions of shape (N, 3)."""
    t, cols = read_timeseries_csv(path_or_file)
    if list(cols) != ["x", "y", "z"]:
        raise ValueError(f"position CSV header must be 't,x,y,z', got columns {list(cols)}")
    return t, np.column_stack([cols["x"], cols["y"], cols["z"]])


def write_truth_csv(path_or_file, t, p, v, a, j):
    """Write truth positions and derivatives as `t,x,y,z,vx,...,jz`."""
    header = ["t", "x", "y", "z", "vx", "vy", "vz", "ax", "ay", "az", "jx", "jy", "jz"]
    if hasattr(path_or_file, "write"):
        close, fh = False, path_or_file
    else:
        close, fh = True, open(path_or_file, "w", newline="")
    try:
        fh.write(",".join(header) + "\n")
        table = np.asarray(np.column_stack([t, p, v, a, j]), dtype=float)
        fh.write(format_csv_lines(table.T.tolist()))
    finally:
        if close:
            fh.close()


def format_csv_lines(columns, prefix=""):
    """CSV text of the rows of `columns`, one newline-terminated line per row.

    Every artifact writer formats through here, so all share one rule: floats
    in shortest round-trip repr, ints as ints and bools as 0/1. Columns hold
    Python numbers, as ndarray.tolist() and range give them, and each line
    starts with the literal `prefix`.
    """
    fields = ["%d" if col and isinstance(col[0], int) else "%r" for col in columns]
    line = prefix.replace("%", "%%") + ",".join(fields) + "\n"
    return "".join([line % row for row in zip(*columns)])
