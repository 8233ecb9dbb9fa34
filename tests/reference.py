"""Independent reference computations the tests compare the library's closed forms against.

They deliberately avoid the library's closed-form code paths: rotations come
from a truncated power series, integrals from Simpson quadrature, and the
alpha-beta-gamma tracker's poles from the eigenvalues of its error dynamics,
and the polar projection's reflection test from np.linalg.det. step_record
reads the values of one AiseFilter step from the state around it;
information and set_information read and set a filter's RLS information
matrix inv(P_sqrt @ P_sqrt.T), which the filter does not store.
"""

import math
from types import SimpleNamespace

import numpy as np
from scipy.linalg import solve_triangular

from aisepred.frenet import hat
from aisepred.integrators import build_integrator


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


def project_rotation_det(M):
    """Nearest rotation to M by the polar projection, reflected when np.linalg.det says so."""
    U, _, Vt = np.linalg.svd(M)
    R = U @ Vt
    if np.linalg.det(R) < 0:
        R = U @ np.diag([1.0, 1.0, -1.0]) @ Vt
    return R


def abg_error_dynamics_eigenvalues(alpha, beta, gamma, t_s):
    """Eigenvalues of the tracker's error propagation A(I - KC)."""
    A, _ = build_integrator(3, t_s)
    K = np.array([alpha, beta / t_s, 2.0 * gamma / t_s**2])
    closed = A @ (np.eye(3) - np.outer(K, [1.0, 0.0, 0.0]))
    return np.linalg.eigvals(closed)


def step_record(filt, y):
    """Step filt on y and return the step's values: d_hat as step returns it, the filtered
    regressor and the forecast variance from the state before the step, the rest from the
    state it commits. s_hat and forecast_var are None on the steps where the filter has none
    (k < 1 and k < adapt_start, k counting earlier steps).
    """
    k = filt.k
    phi_f, dhat_f = filt.filter_regressor()
    forecast_var = float(filt.A[0].dot(filt.P_da).dot(filt.A[0])) if k >= filt.adapt_start else None
    d_hat = filt.step(y)
    return SimpleNamespace(
        k=k, z=float(filt.z_hist[0]), d_hat=d_hat, phi=filt.phi_hist[0].copy(),
        phi_f=phi_f, dhat_f=dhat_f, lam=filt.lambda_k, eta=filt.eta_k, v2=filt.v2_k,
        s_hat=filt.res_m2 / k if k >= 1 else None, forecast_var=forecast_var)


def information(filt):
    """The RLS information matrix inv(S S^T) of the square root S = filt.P_sqrt."""
    s_inv = np.linalg.inv(filt.P_sqrt)
    return s_inv.T @ s_inv


def set_information(filt, M):
    """Give filt the RLS information matrix M: P_sqrt = L^-T for the Cholesky factor L of M."""
    L = np.linalg.cholesky(M)
    filt.P_sqrt = solve_triangular(L, np.eye(len(L)), lower=True, trans="T")
