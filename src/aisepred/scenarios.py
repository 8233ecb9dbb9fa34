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
import math

import numpy as np

__all__ = [
    "SCENARIOS",
    "truth_arrays",
    "add_noise",
    "read_timeseries_csv",
    "read_positions_csv",
    "sample_time",
]

SCENARIOS = ("parabolic", "helical")

_GRAVITY = 9.8          # m/s^2, planar scenario
_LAUNCH_SPEED = 400.0   # m/s along each planar axis
_HELIX_RADIUS = 20.0    # m
_HELIX_RATE = 0.5       # rad/s
_HELIX_CLIMB = 1.0      # m/s


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


def truth_arrays(scenario, last_step, t_s):
    """Exact truth at t = k * t_s, k = 0..last_step: arrays (P, V, A, J), each (last_step+1, 3)."""
    if scenario not in _STATE_FNS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    if last_step < 0:
        raise ValueError(f"last step must be >= 0, got {last_step}")
    t = np.arange(last_step + 1) * t_s
    return _STATE_FNS[scenario](t)


def add_noise(p, sigma, seed):
    """Perturb each component of p by independent N(0, sigma^2) draws.

    The generator is numpy's default_rng seeded with `seed`; identical seeds
    give bit-identical noise. sigma = 0 returns the input unchanged.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError(f"noise standard deviation must be finite and >= 0, got {sigma}")
    p = np.asarray(p, dtype=float)
    if sigma == 0:
        return p.copy()
    rng = np.random.default_rng(seed)
    return p + rng.normal(0.0, sigma, size=p.shape)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

# Absolute tolerance on sample-spacing uniformity, in seconds, to which the reader adds two
# units in the last place of the largest time: each parsed time is within half of one.
_SPACING_TOL = 1e-9


def read_timeseries_csv(path_or_file):
    """Read a CSV whose first column is `t` followed by one or more value columns.

    Returns (t, columns) with t a float array and columns an ordered dict of
    name -> float array. Raises ValueError (with the offending line number)
    for a repeated or empty column name, malformed rows, non-finite values,
    non-increasing time, or non-uniform spacing.
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
        if "" in header:  # a missing name would become a column named ""
            raise ValueError(f"line {reader.line_num}: column {header.index('') + 1} has no name")
        repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
        if repeated is not None:  # columns are keyed by name: a second one would replace the first
            raise ValueError(f"line {reader.line_num}: column name {repeated!r} is repeated")
        names = header[1:]
        rows, lines = [], []  # each data row and the line it ends on; blank rows are skipped
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append([float(x) for x in row])
            except ValueError:
                raise ValueError(f"line {reader.line_num}: non-numeric field in {row}") from None
            lines.append(reader.line_num)
        if len(rows) < 2:
            raise ValueError("CSV must contain at least two data rows")
        data = np.asarray(rows)
        t = data[:, 0]
        dt = np.diff(t)
        ok = np.isfinite(t) & np.append(True, dt > 0)  # a NaN or infinite time fails its own row
        if not ok.all():
            bad = lines[int(np.argmin(ok))]
            raise ValueError(f"line {bad}: time column must be strictly increasing")
        off = np.abs(dt - dt[0]) > _SPACING_TOL + 2 * math.ulp(max(abs(t[0]), abs(t[-1])))
        if off.any():
            bad = int(np.argmax(off))
            raise ValueError(f"line {lines[bad + 1]}: non-uniform sample spacing "
                             f"({float(dt[bad])} s vs {float(dt[0])} s)")
        finite = np.isfinite(data[:, 1:])
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise ValueError(f"line {lines[row]}: {names[col]} value {data[row, col + 1]} "
                             "is not finite")
        return t, {name: data[:, i + 1].copy() for i, name in enumerate(names)}
    finally:
        if close:
            fh.close()


def sample_time(t):
    """Mean spacing of the uniform times t: a parsed time's rounding error (up to half an ulp)
    is shared among all len(t) - 1 steps, where the first spacing t[1] - t[0] carries it whole."""
    return float(t[-1] - t[0]) / (len(t) - 1)


def read_positions_csv(path_or_file):
    """Read a `t,x,y,z` CSV into (t, positions) with positions of shape (N, 3)."""
    t, cols = read_timeseries_csv(path_or_file)
    if list(cols) != ["x", "y", "z"]:
        raise ValueError(f"position CSV header must be 't,x,y,z', got columns {list(cols)}")
    return t, np.column_stack([cols["x"], cols["y"], cols["z"]])


def format_csv_lines(columns, prefix=""):
    """CSV text of the rows of `columns`, one newline-terminated line per row.

    Every artifact writer formats through here, so all share one rule: floats
    in shortest round-trip repr, ints as ints and bools as 0/1. Columns hold
    Python numbers, as ndarray.tolist() and range give them; a column whose first
    cell is an int must hold only ints (TypeError). Each line starts with `prefix`.
    """
    cells = [map(int.__repr__ if col and isinstance(col[0], int) else repr, col) for col in columns]
    text = ("\n" + prefix).join(map(",".join, zip(*cells)))
    return f"{prefix}{text}\n" if text else ""
