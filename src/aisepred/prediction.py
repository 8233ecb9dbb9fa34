"""Trajectory predictors over derivative estimates.

Two methods share one interface: a second-order extrapolation from velocity
and acceleration (the "/va" family), and the Frenet-Serret propagation which
additionally needs jerk. Degenerate geometry makes the Frenet method fall
back to the second-order one, flagged on the returned trace.
"""

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .frenet import DegenerateGeometry, frenet_model, fs_predict

__all__ = ["METHODS", "DerivativeEstimate", "PredictionTrace", "va_predict", "predict"]

METHODS = ("AISE/va", "AISE/FS", "BDB/va", "ABG/va")


@dataclass(frozen=True)
class DerivativeEstimate:
    """Per-axis velocity/acceleration (and optionally jerk) estimates at one step."""

    v: np.ndarray
    a: np.ndarray
    j: Optional[np.ndarray] = None


@dataclass(frozen=True)
class PredictionTrace:
    """Predicted positions for steps k+1 .. k+horizon from anchor step k, one row each."""

    anchor_step: int
    method: str
    positions: np.ndarray = field(repr=False)
    fallback_used: bool = False


@functools.lru_cache(maxsize=16)
def _va_grid(horizon, t_s):
    """Read-only columns l * t_s and 0.5 * (l * t_s)**2, l = 1..horizon, shared by every call."""
    lt = np.arange(1, horizon + 1)[:, None] * t_s
    half_lt2 = 0.5 * lt**2
    lt.flags.writeable = half_lt2.flags.writeable = False
    return lt, half_lt2


def va_predict(p_k, v_k, a_k, horizon, t_s, anchor_step=0, method="AISE/va",
               fallback_used=False):
    """Constant-velocity/acceleration extrapolation from the anchor position.

    p_k, v_k and a_k may stack anchors along a leading axis; positions then holds one
    (horizon, 3) block per anchor, the first anchored at anchor_step, each with the bits
    a call for that anchor alone gives.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    p_k, v_k, a_k = (np.asarray(x, dtype=float)[..., None, :] for x in (p_k, v_k, a_k))
    lt, half_lt2 = _va_grid(horizon, t_s)
    # Both branches make the same sums, as x + y == y + x. A block is built in place, with one
    # temporary of its size. Built so, single-anchor traces raised the peak RSS of a caller
    # that keeps thousands of them by about 0.4 MB.
    if p_k.ndim == 2:
        positions = p_k + lt * v_k + half_lt2 * a_k
    else:
        positions = lt * v_k
        positions += p_k
        positions += half_lt2 * a_k
    return PredictionTrace(anchor_step=anchor_step, method=method, positions=positions,
                           fallback_used=fallback_used)


def predict(method, p_k, estimates, horizon, t_s, anchor_step=0):
    """Dispatch to the predictor selected by `method` (one of METHODS).

    Frenet prediction takes one anchor and a jerk estimate, and falls back to the
    second-order extrapolation when the local geometry is degenerate. The /va methods
    also take a block of anchors stacked along a leading axis, as va_predict does.
    """
    if method not in METHODS:
        raise ValueError(f"unknown prediction method {method!r}; expected one of {METHODS}")
    if method == "AISE/FS":
        if estimates.j is None:
            raise ValueError("Frenet prediction requires a jerk estimate")
        try:
            model = frenet_model(estimates.v, estimates.a, estimates.j)
        except DegenerateGeometry:
            return va_predict(p_k, estimates.v, estimates.a, horizon, t_s,
                              anchor_step=anchor_step, method=method, fallback_used=True)
        positions = fs_predict(p_k, model, horizon, t_s)
        return PredictionTrace(anchor_step=anchor_step, method=method, positions=positions)
    return va_predict(p_k, estimates.v, estimates.a, horizon, t_s,
                      anchor_step=anchor_step, method=method)
