"""Independent reference computations for derived constants and checks.

The rotation references deliberately avoid the library's closed-form code
paths: rotations come from a truncated power series, integrals from Simpson
quadrature. Helix constants come from their closed-form parameter
expressions. The goldens file checked into the test suite is regenerated from
these, together with the steady-state tracker gains of `abg_gains`, which
solves the algebraic Riccati equation directly.
"""

import math

import numpy as np

from .baselines import abg_gains
from .frenet import gamma0, gamma1, hat

__all__ = [
    "series_rotation_exp",
    "simpson_rotation_integral",
    "helix_constants",
    "compute_goldens",
]


def series_rotation_exp(w, t=1.0, tol=1e-15, max_terms=200):
    """Matrix exponential of hat(w) * t by direct power series."""
    S = hat(np.asarray(w, dtype=float)) * t
    term = np.eye(3)
    total = np.eye(3)
    for n in range(1, max_terms):
        term = term @ S / n
        total = total + term
        if np.max(np.abs(term)) < tol:
            return total
    raise RuntimeError("rotation series did not converge")


def _series_exp_grid(S, ts, tol=1e-18):
    """exp(S * t) for every t in ts, via shared power-series terms."""
    t_max = float(np.max(np.abs(ts)))
    terms = [np.eye(3)]
    power = np.eye(3)
    n = 0
    while True:
        n += 1
        power = power @ S
        terms.append(power / math.factorial(n))
        if np.max(np.abs(terms[-1])) * max(t_max, 1e-300) ** n < tol or n >= 200:
            break
    stack = np.stack(terms)                        # (n_terms, 3, 3)
    tp = np.power.outer(np.asarray(ts, dtype=float), np.arange(len(stack)))
    return np.tensordot(tp, stack, axes=([1], [0]))


def simpson_rotation_integral(w, t_s, panels=10_000):
    """Simpson quadrature of the rotation flow integral over one sample time."""
    if panels % 2:
        raise ValueError("Simpson quadrature needs an even panel count")
    S = hat(np.asarray(w, dtype=float))
    ts = np.linspace(0.0, t_s, panels + 1)
    mats = _series_exp_grid(S, ts)
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = t_s / panels
    return (h / 3.0) * np.einsum("i,ijk->jk", weights, mats)


def helix_constants(radius=20.0, rate=0.5, climb=1.0):
    """Closed-form speed, curvature, and torsion of the benchmark helix.

    The trajectory (r sin wt, r cos wt, ct) has constant speed
    sqrt(r^2 w^2 + c^2); its torsion is negative because this
    parameterization winds left-handed.
    """
    speed_sq = radius**2 * rate**2 + climb**2
    return {
        "speed": math.sqrt(speed_sq),
        "curvature": radius * rate**2 / speed_sq,
        "torsion": -climb * rate / speed_sq,
    }


def compute_goldens(seed=20240615):
    """Regenerate every derived reference value used by the test suite."""
    rng = np.random.default_rng(seed)

    # Rotation operator vs series exponential, angles up to pi.
    n_rot = 100
    g0_err = 0.0
    for _ in range(n_rot):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        phi = direction * rng.uniform(0.0, np.pi)
        g0_err = max(g0_err, float(np.max(np.abs(gamma0(phi) - series_rotation_exp(phi)))))

    # Flow integral vs Simpson quadrature at the benchmark sample time.
    n_quad, panels, t_s = 20, 10_000, 0.01
    g1_err = 0.0
    for _ in range(n_quad):
        w = rng.normal(size=3) * rng.uniform(0.5, 50.0)
        reference = simpson_rotation_integral(w, t_s, panels)
        g1_err = max(g1_err, float(np.max(np.abs(t_s * gamma1(w * t_s) - reference))))

    tracking_index, t_s_abg = 0.6, 0.01
    alpha, beta, gamma = abg_gains(tracking_index, t_s_abg)

    return {
        "schema_version": 1,
        "seed": seed,
        "abg": {
            "tracking_index": tracking_index,
            "t_s": t_s_abg,
            "alpha": alpha,
            "beta": beta,
            "gamma": gamma,
        },
        "helix": {"radius": 20.0, "rate": 0.5, "climb": 1.0, **helix_constants()},
        "gamma0_series": {"count": n_rot, "max_abs_error": g0_err},
        "gamma1_quadrature": {
            "count": n_quad,
            "panels": panels,
            "t_s": t_s,
            "max_abs_error": g1_err,
        },
    }
