"""Adaptive input and state estimation (AISE) for real-time numerical differentiation.

The measured signal is modeled as the output of a discrete integrator chain
driven by an unknown input d, so that d is the chain-order derivative of the
signal. A Kalman filter tracks the chain state; an adaptive FIR/IIR law
reconstructs d from the filter residuals; recursive least squares with
variable-rate forgetting tunes that law online; and the filter's process and
measurement noise covariances are themselves re-estimated every step from the
residual statistics. No prior knowledge of the signal's motion or of the
sensor noise level is required.

Each AiseFilter is single-writer. Instances are independent, so one filter
per signal channel can run on its own thread; a filter can be checkpointed to
JSON and restored with bit-identical continuation.

scipy.special is imported by f_critical, so with the first filter, not with
this module: a truth-derivative run builds no filter and never needs it.
"""

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.linalg.blas import dger, dtrsm

from .integrators import build_integrator

__all__ = [
    "AiseConfig",
    "AiseFilter",
    "InvalidSample",
    "StepDiagnostics",
    "NumericalInvariantError",
    "benchmark_config",
    "f_critical",
    "vrf_lambda",
]


class NumericalInvariantError(RuntimeError):
    """A runtime numerical invariant failed (e.g. covariance lost definiteness)."""

    def __init__(self, step, message):
        self.step = step
        super().__init__(f"step {step}: {message}")


class InvalidSample(NumericalInvariantError, ValueError):
    """A measurement was not a finite number; the filter state is unchanged."""


# LAPACK's Cholesky factor, without scipy's wrapper.
_POTRF = get_lapack_funcs("potrf", dtype=np.float64)


@dataclass(frozen=True)
class AiseConfig:
    """Tuning parameters of one estimator channel.

    order selects first/second/third differentiation. n_e is the order of the
    input-reconstruction law (coefficient count 2*n_e + 1), n_f the window of
    the filtered regressors. r_z and r_d weight the residual and the input
    magnitude in the identification cost; r_theta scales the initial
    coefficient regularization and r_inf the covariance-resetting floor (both
    expanded to scalar * identity). eta_init/eta_l/eta_u bound the adapted
    process-noise level, beta interpolates between the smallest and largest
    admissible residual-variance surplus, and (tau_n, tau_d, alpha_vrf) set
    the variance-ratio test that lowers the forgetting factor after a change.
    """

    order: int = 1
    t_s: float = 0.01
    n_e: int = 25
    n_f: int = 50
    r_z: float = 1.0
    r_d: float = 0.1
    r_theta: float = 10.0**-3.5
    r_inf: float = 1e-4
    eta_init: float = 0.002
    eta_l: float = 1e-6
    eta_u: float = 0.1
    beta: float = 0.55
    tau_n: int = 5
    tau_d: int = 25
    alpha_vrf: float = 0.002
    eta_grid_points: int = 50
    adapt_start: int | None = None
    eta_rule: str = "interpolated"

    def __post_init__(self):
        if self.order not in (1, 2, 3):
            raise ValueError(f"order must be 1, 2, or 3, got {self.order!r}")
        if self.t_s <= 0:
            raise ValueError("t_s must be positive")
        if self.n_e < 1 or self.n_f < 2:  # n_f - 1 closed-loop products are kept
            raise ValueError("need n_e >= 1 and n_f >= 2")
        for name in ("r_z", "r_d", "r_theta", "r_inf"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.eta_l <= self.eta_u:
            raise ValueError("need 0 < eta_l <= eta_u (log-spaced search grid)")
        if not self.eta_l <= self.eta_init <= self.eta_u:
            raise ValueError("eta_init must lie in [eta_l, eta_u]")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if self.tau_n < 2 or self.tau_d <= self.tau_n:
            raise ValueError("need tau_n >= 2 and tau_d > tau_n")
        if self.alpha_vrf < 0:
            raise ValueError("alpha_vrf must be >= 0")
        if self.eta_grid_points < 2:
            raise ValueError("eta_grid_points must be >= 2")
        if self.adapt_start is not None and self.adapt_start < 1:
            raise ValueError("adapt_start must be >= 1")
        if self.eta_rule not in ("interpolated", "floor", "scaled"):
            raise ValueError(
                f"eta_rule must be 'interpolated', 'floor', or 'scaled', got {self.eta_rule!r}"
            )

    @property
    def l_theta(self):
        return 2 * self.n_e + 1


def json_object(value, what):
    """value, after checking that it is a JSON object (a dict); what names it in the error."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


# The JSON types a field of each annotation takes: a bool is neither an integer nor a
# number, a float field takes an integer, and a tuple field is read from a list of strings.
_FIELD_TYPES = {
    int: ("an integer", (int,)), int | None: ("an integer", (int, type(None))),
    float: ("a number", (int, float)), float | None: ("a number", (int, float, type(None))),
    bool: ("a boolean", (bool,)), str: ("a string", (str,)), tuple: ("a list of strings", (list,)),
}


def from_fields(cls, data):
    """cls(**data), after checking that data is a JSON object of fields of the dataclass cls,
    each of a JSON type that its annotation takes (_FIELD_TYPES)."""
    unknown = set(json_object(data, cls.__name__)) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    for f in fields(cls):
        if f.name in data and f.type in _FIELD_TYPES:
            (what, types), value = _FIELD_TYPES[f.type], data[f.name]
            if type(value) not in types or f.type is tuple and not all(type(s) is str for s in value):
                raise ValueError(f"{cls.__name__}: {f.name} must be {what}, got {value!r}")
    return cls(**data)


def benchmark_config(order, t_s=0.01):
    """Parameter set used by the benchmark scenarios for the given order.

    The identification weights, window lengths, noise bounds, and forgetting
    parameters follow the benchmark tuning shared by all three orders. The
    coefficient regularization and the noise-level selection variant are set
    per order for loop stability: lower orders run the floor variant with
    moderate regularization, while the third-derivative channel needs the
    residual-scaled variant and the strongest regularization to keep its
    much more weakly excited identification anchored.
    """
    if order == 1:
        return AiseConfig(order=1, t_s=t_s, r_theta=1e-2, eta_rule="floor")
    if order == 2:
        return AiseConfig(order=2, t_s=t_s, r_theta=3e-1, eta_rule="floor")
    return AiseConfig(order=3, t_s=t_s, r_theta=1e-1, beta=0.5, eta_rule="scaled")


@dataclass
class StepDiagnostics:
    """Internal quantities of the most recent step, for logging and tests."""

    k: int
    z: float
    d_hat: float
    phi: np.ndarray
    phi_f: np.ndarray
    dhat_f: float
    lam: float
    eta: float
    v2: float
    s_hat: float | None
    forecast_var: float | None


def f_critical(dfn, dfd, quantile=0.99):
    """Upper quantile of the F distribution via the regularized incomplete beta inverse."""
    from scipy.special import betaincinv

    w = betaincinv(0.5 * dfn, 0.5 * dfd, quantile)
    return dfd * w / (dfn * (1.0 - w))


def _add_reduce(x):
    """sum(x) with the bits of np.add.reduce on a float64 array: 0.0 plus numpy's pairwise sum."""
    n = len(x)
    if n > 128:  # numpy splits a long run in two at a multiple of 8
        half = n // 2 - n // 2 % 8
        return _add_reduce(x[:half]) + _add_reduce(x[half:])
    total, end = 0.0, n - n % 8
    if end:  # 8 accumulators, then the tail; a run shorter than 8 is summed in order
        r0, r1, r2, r3, r4, r5, r6, r7 = x[:8]
        for i in range(8, end, 8):
            a0, a1, a2, a3, a4, a5, a6, a7 = x[i : i + 8]
            r0, r1, r2, r3, r4, r5, r6, r7 = (
                r0 + a0, r1 + a1, r2 + a2, r3 + a3, r4 + a4, r5 + a5, r6 + a6, r7 + a7)
        total += ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for v in x[end:]:
        total += v
    return total


def vrf_lambda(z_history, tau_n, tau_d, alpha_vrf, f_crit=None):
    """Forgetting factor from a one-sided variance-ratio test on the residuals.

    Compares the sample variance over the last tau_n residuals against the
    last tau_d. If the ratio exceeds the 0.99 F quantile with (tau_n - 1,
    tau_d - 1) degrees of freedom, the factor drops below one,
    lambda = 1 / (1 + alpha_vrf * (F - F_crit)); otherwise it stays at one.
    Fewer than tau_d residuals, or a zero denominator variance, mean no
    evidence of change and return 1. z_history is a list or 1-D array, oldest first.
    """
    if len(z_history) < tau_d:
        return 1.0
    # np.var(ddof=1) in scalar arithmetic, summed in numpy's order.
    z_n, z_d = z_history[-tau_n:], z_history[-tau_d:]
    mean_n, mean_d = _add_reduce(z_n) / tau_n, _add_reduce(z_d) / tau_d
    var_d = _add_reduce([(v - mean_d) * (v - mean_d) for v in z_d]) / (tau_d - 1)
    if var_d <= 0.0:
        return 1.0
    ratio = _add_reduce([(v - mean_n) * (v - mean_n) for v in z_n]) / (tau_n - 1) / var_d
    if f_crit is None:
        f_crit = f_critical(tau_n - 1, tau_d - 1)
    if ratio > f_crit:
        return 1.0 / (1.0 + alpha_vrf * (ratio - f_crit))
    return 1.0


# Checkpointed filter state: (JSON key, AiseFilter attribute), in to_json order after "version"
# and "config". Version 1 had no "version" key and held p_inv and prodstack (matrix products).
_CHECKPOINT_VERSION = 2
_CHECKPOINT = (
    ("k", "k"), ("theta", "theta"), ("P_sqrt", "P_sqrt"), ("x_fc", "x_fc"), ("x_da", "x_da"),
    ("P_fc", "P_fc"), ("P_da", "P_da"), ("dhat_hist", "dhat_hist"), ("z_hist", "z_hist"),
    ("phi_hist", "phi_hist"), ("loop_weights", "loop_weights"), ("res_count", "_res_count"),
    ("res_mean", "_res_mean"), ("res_m2", "_res_m2"), ("eta_k", "eta_k"), ("v2_k", "v2_k"),
    ("lambda_k", "lambda_k"),
)


class AiseFilter:
    """Single-channel derivative estimator; feed one measurement per step.

    step(y) returns the current estimate of the configured derivative of the
    measurement stream. All history buffers are zero-initialized, so the
    filter is well defined from the first sample.
    """

    def __init__(self, config=None):
        self.cfg = config = config or AiseConfig()
        self.model = build_integrator(config.order, config.t_s)
        self.adapt_start = config.adapt_start if config.adapt_start is not None else config.n_f
        self._f_crit = f_critical(config.tau_n - 1, config.tau_d - 1)
        self._eta_grid = np.logspace(np.log10(config.eta_l), np.log10(config.eta_u),
                                     config.eta_grid_points)
        self._log_eta_grid = np.log(self._eta_grid)
        self.reset()

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------

    def reset(self):
        """Zero coefficients, state and windows, and the RLS covariance inv(r_theta I)."""
        cfg = self.cfg
        n, lt = self.model.n, cfg.l_theta
        self.k = 0
        self.theta = np.zeros(lt)
        self.P_sqrt = np.eye(lt) / math.sqrt(cfg.r_theta)
        self._abar = self.model.A.copy()  # scratch, not state: the closed-loop matrix
        self.x_fc = np.zeros(n)
        self.x_da = np.zeros(n)
        self.P_fc = np.zeros((n, n))
        self.P_da = np.zeros((n, n))
        # Every window is newest first and is shifted in place by one step.
        self.dhat_hist = np.zeros(cfg.n_e + cfg.n_f)
        self.z_hist = np.zeros(max(cfg.n_e + cfg.n_f, cfg.tau_d))
        self.phi_hist = np.zeros((cfg.n_f, lt))                 # row i = phi at step k-1-i
        # Row j is (the last j+1 closed-loop matrices, newest leftmost) @ B; its first entry
        # is the filter weight at lag j+2. Zero rows encode missing history.
        self.loop_weights = np.zeros((cfg.n_f - 1, n))
        self._res_count = 0
        self._res_mean = 0.0
        self._res_m2 = 0.0
        self.eta_k = cfg.eta_init
        self.v2_k = 1.0
        self.lambda_k = 1.0
        self.last = None

    @property
    def P_sqrt(self):
        """The stored RLS state S, a square root of the covariance: P_rls = S S^T."""
        return self._p_sqrt

    @P_sqrt.setter
    def P_sqrt(self, value):  # stored as a C-ordered copy, which dger can update in place
        self._p_sqrt = np.array(value, dtype=float, order="C")
        self._s_spare = np.empty_like(self._p_sqrt)  # scratch, not state: the next P_sqrt

    @property
    def P_rls(self):
        """RLS coefficient covariance S S^T, symmetric and semi-definite by construction."""
        return self._p_sqrt @ self._p_sqrt.T

    @property
    def p_inv(self):
        """RLS information matrix, inv(P_rls). Assigning one sets P_sqrt = L^-T for its
        Cholesky factor L; one that is not positive definite raises and changes nothing."""
        s_inv = np.linalg.inv(self._p_sqrt)
        return s_inv.T @ s_inv

    @p_inv.setter
    def p_inv(self, value):  # potrf reads only the lower triangle of value's transpose
        value = np.asarray(value, dtype=float)
        factor, info = _POTRF(value.T, lower=1)
        s = dtrsm(1.0, factor, np.eye(len(factor)), lower=1, trans_a=1)  # solves L^T S = I
        if info != 0 or not (np.isfinite(value).all() and np.isfinite(s).all()):
            raise NumericalInvariantError(self.k, "RLS information matrix is not positive definite")
        self.P_sqrt = s

    def residual_variance(self):
        """Sample variance of all residuals seen so far (None before step 1)."""
        if self._res_count < 2:
            return None
        return self._res_m2 / (self._res_count - 1)

    # ------------------------------------------------------------------
    # Individual operations (composed by step)
    # ------------------------------------------------------------------

    def _filter_weights(self):
        """Impulse-response weights of the residual-to-input closed loop, lags 1..n_f."""
        H = np.empty(self.cfg.n_f)
        H[0] = self.model.B[0] if self.k >= 1 else 0.0
        H[1:] = self.loop_weights[:, 0]
        return H

    def filter_regressor(self):
        """Filtered regressor row and filtered input estimate over the last n_f steps."""
        H = self._filter_weights()
        return np.dot(H, self.phi_hist), float(np.dot(H, self.dhat_hist[: self.cfg.n_f]))

    def rls_update(self, lam, phi, phi_f, z, dhat_f):
        """Forgetting/resetting RLS step on S, S S^T = inv(p_inv), and the coefficients.

        It is the information-form step p_inv <- lam p_inv + (1 - lam) r_inf I + r_z phi_f
        phi_f^T + r_d phi phi^T, theta <- theta - solve(p_inv, rhs), factoring nothing when
        lam == 1; unlike a stored P, S keeps the covariance definite far from unit scale.
        A lam < 1 step forgets with one Cholesky factor, R R^T = lam I + (1 - lam) r_inf S^T S,
        as S <- S R^-T. Each term w (o + v^T theta)^2 is then a gain step and Potter's update:
        with f = S^T v, g = S f and den = 1/w + f^T f, which must be finite, theta <- theta - g
        (o + v^T theta) / den and S <- S - g f^T / (den + sqrt(den / w)). The new S is built in
        a reused buffer and swapped in once every check passes, so a failure changes nothing;
        callers that keep P_sqrt must copy it.
        """
        cfg = self.cfg
        s_old, s_new = self._p_sqrt, self._s_spare
        np.copyto(s_new, s_old)
        if lam != 1.0:
            gram = (1.0 - lam) * cfg.r_inf * np.dot(s_old.T, s_old)
            gram.ravel()[:: len(gram) + 1] += lam
            factor, info = _POTRF(gram.T, lower=1, clean=0, overwrite_a=1)  # gram is symmetric
            if info != 0:
                raise NumericalInvariantError(self.k, "RLS forgetting is not positive definite")
            dtrsm(1.0, factor, s_new.T, side=0, lower=1, overwrite_b=1)  # S^T <- R^-1 S^T
        theta = self.theta
        for weight, v, offset in ((cfg.r_z, phi_f, z - dhat_f), (cfg.r_d, phi, 0.0)):
            f = np.dot(v, s_new)
            g = np.dot(s_new, f)
            den = 1.0 / weight + float(np.dot(f, f))
            if not 0.0 < den < math.inf:
                raise NumericalInvariantError(self.k, "RLS update is not finite")
            theta = theta - g * ((offset + float(np.dot(v, theta))) / den)
            # S^T - f g^T / (den + sqrt(den / w)) in place, on the F-ordered view of S.
            dger(-1.0 / (den + math.sqrt(den / weight)), f, g, a=s_new.T, overwrite_a=1)
        if not (np.isfinite(s_new).all() and np.isfinite(theta).all()):
            raise NumericalInvariantError(self.k, "RLS update is not finite")
        self.theta, self._p_sqrt, self._s_spare = theta, s_new, s_old

    def adapt_noise_covariances(self, forecast_var=None):
        """Choose the process-noise level eta and residual-noise variance V2 for this step.

        Before the warmup horizon the configured initial level is used with
        the running residual variance (1.0 until that exists). Afterwards
        eta + V2 must match the residual-variance surplus c = s_hat -
        forecast_var, with V2 >= 0 and eta on the log-spaced grid from eta_l
        to eta_u. The surplus c - eta falls as eta rises, so the grid points
        that leave V2 = c - eta positive are the first m = searchsorted(grid,
        c), all of which match c exactly; the eta_rule setting picks one:

        * "floor": the first, grid[0]. Every adapted step therefore has eta =
          grid[0] and V2 = max(c - grid[0], 0), so eta_u and eta_grid_points
          have no effect on a "floor" channel: only V2 adapts. This pushes the
          assimilation gain as low as the matching allows, giving the input
          estimator the long residual memory it needs to track.
        * "scaled": the point of grid[:m] nearest in log to t_s^2 * s_hat (the
          input-to-state injection gain squared, clipped to [eta_l, eta_u]),
          which holds the assimilation gain in a narrow band across residual
          scales; the weakly excited third-derivative channel needs this.
        * "interpolated": the point whose V2 is nearest the beta-weighted
          blend of the smallest and largest positive V2, which parks the
          assimilation gain at a roughly beta-sized value. It smooths the
          state estimate but starves the input estimator on gentle motion.

        If no grid point leaves V2 positive (c <= grid[0], or c is NaN), the
        result is (grid[0], 0.0). eta is always a grid value, so it can differ
        from eta_l in the last bit.
        """
        if forecast_var is None and self.k >= self.adapt_start:
            forecast_var = self._forecast_var()
        return self._noise_levels(self.residual_variance(), forecast_var)

    def _noise_levels(self, s_hat, forecast_var):
        """adapt_noise_covariances for the residual variance s_hat (None before two residuals)."""
        if self.k < self.adapt_start:
            return self.cfg.eta_init, (s_hat if s_hat is not None else 1.0)
        cfg, grid = self.cfg, self._eta_grid
        c = s_hat - forecast_var
        if not c > grid[0]:  # searchsorted would count a NaN c past the whole grid
            return float(grid[0]), 0.0
        if cfg.eta_rule == "floor":
            return float(grid[0]), float(c - grid[0])
        m = int(np.searchsorted(grid, c))
        if cfg.eta_rule == "scaled":
            anchor = min(max(cfg.t_s**2 * s_hat, cfg.eta_l), cfg.eta_u)
            idx = int(np.argmin(np.abs(self._log_eta_grid[:m] - np.log(anchor))))
        else:
            target = cfg.beta * (c - grid[m - 1]) + (1.0 - cfg.beta) * (c - grid[0])
            idx = int(np.argmin(np.abs((c - grid[:m]) - target)))
        return float(grid[idx]), float(c - grid[idx])

    def _forecast_var(self):
        return float(np.dot(np.dot(self.model.A[0], self.P_da), self.model.A[0]))

    def _innovation_var(self, v2):
        """Variance of the residual, P_fc[0, 0] + v2; raises unless it is positive."""
        innov_var = self.P_fc[0, 0] + v2
        if innov_var <= 0.0:
            raise NumericalInvariantError(self.k, "innovation variance not positive")
        return innov_var

    def data_assimilate(self, z, eta, v2):
        """Measurement update and forecast-covariance propagation.

        Returns (x_da, K_da, P_da, next P_fc) and advances the stored
        covariances and the closed-loop weight vectors.
        """
        A = self.model.A
        gain = self.P_fc[:, 0] / -self._innovation_var(v2)
        self.x_da = self.x_fc + gain * z
        P_da = self.P_fc + gain[:, None] * self.P_fc[0]
        self.P_da = 0.5 * (P_da + P_da.T)
        if self.k >= 1:
            # Closed-loop matrix A(I + K C): A with its first column shifted by A @ K.
            self._abar[:, 0] = A[:, 0] + np.dot(A, gain)
            # Row j becomes abar @ (old row j - 1), shifted in place: numpy gives
            # overlapping operands the non-overlapping result.
            W = self.loop_weights
            np.matmul(W[:-1], self._abar.T, out=W[1:])
            W[0] = np.dot(self._abar, self.model.B)
        P_fc = np.dot(np.dot(A, self.P_da), A.T)
        P_fc.ravel()[:: len(P_fc) + 1] += eta  # a view: np.dot returns a C-ordered array
        self.P_fc = 0.5 * (P_fc + P_fc.T)
        return self.x_da, gain, self.P_da, self.P_fc

    # ------------------------------------------------------------------
    # Main cycle
    # ------------------------------------------------------------------

    def step(self, y):
        """Process one measurement; returns the derivative estimate for this step.

        A step that raises (InvalidSample, NumericalInvariantError) leaves the filter unchanged.
        """
        cfg = self.cfg
        y = float(y)
        if not math.isfinite(y):
            raise InvalidSample(self.k, f"measurement {y!r} is not finite")
        z = float(self.x_fc[0]) - y

        # phi and the variance-ratio window put z ahead of the stored history. Nothing is
        # committed until every check has passed: a failed step changes nothing.
        phi = np.empty(cfg.l_theta)
        phi[: cfg.n_e] = self.dhat_hist[: cfg.n_e]
        phi[cfg.n_e] = z
        phi[cfg.n_e + 1 :] = self.z_hist[: cfg.n_e]
        d_hat = float(np.dot(phi, self.theta))
        phi_f, dhat_f = self.filter_regressor()

        if self.k < cfg.tau_d:
            lam = 1.0
        else:  # the last tau_d residuals, oldest first
            recent = self.z_hist[cfg.tau_d - 2 :: -1].tolist() + [z]
            lam = vrf_lambda(recent, cfg.tau_n, cfg.tau_d, cfg.alpha_vrf, self._f_crit)

        # Running residual statistics over every step so far, and the noise levels they
        # give; neither reads what the RLS update changes.
        res_count = self._res_count + 1
        delta = z - self._res_mean
        res_mean = self._res_mean + delta / res_count
        res_m2 = self._res_m2 + delta * (z - res_mean)
        s_hat = res_m2 / (res_count - 1) if res_count >= 2 else None
        forecast_var = self._forecast_var() if self.k >= self.adapt_start else None
        eta, v2 = self._noise_levels(s_hat, forecast_var)
        self._innovation_var(v2)  # the one check data_assimilate makes

        self.rls_update(lam, phi, phi_f, z, dhat_f)
        self._res_count, self._res_mean, self._res_m2 = res_count, res_mean, res_m2
        self.z_hist[1:] = self.z_hist[:-1]
        self.z_hist[0] = z
        self.eta_k, self.v2_k = eta, v2

        self.data_assimilate(z, eta, v2)
        self.x_fc = np.dot(self.model.A, self.x_da) + self.model.B * d_hat

        self.dhat_hist[1:] = self.dhat_hist[:-1]
        self.dhat_hist[0] = d_hat
        self.phi_hist[1:] = self.phi_hist[:-1]
        self.phi_hist[0] = phi

        self.lambda_k = lam
        self.last = StepDiagnostics(
            k=self.k, z=z, d_hat=d_hat, phi=phi, phi_f=phi_f, dhat_f=dhat_f,
            lam=lam, eta=eta, v2=v2, s_hat=s_hat, forecast_var=forecast_var,
        )
        self.k += 1
        return d_hat

    def run(self, ys):
        """Convenience: step through a whole array, returning all estimates."""
        return np.array([self.step(y) for y in np.asarray(ys, dtype=float)])

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def to_json(self):
        """Serialize config and full state; restoring continues bit-identically."""
        state = {"version": _CHECKPOINT_VERSION, "config": asdict(self.cfg)}
        state.update((key, getattr(self, attr)) for key, attr in _CHECKPOINT)
        return json.dumps(state, default=np.ndarray.tolist)

    @classmethod
    def from_json(cls, payload):
        state = json_object(json.loads(payload), "checkpoint")
        version = state.get("version", 1)  # the first format had no version key
        if type(version) is not int or version != _CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r}, not {_CHECKPOINT_VERSION}")
        expected = {"version", "config", *(key for key, _ in _CHECKPOINT)}
        missing, unknown = sorted(expected - set(state)), sorted(set(state) - expected)
        if missing or unknown:
            raise ValueError(f"malformed checkpoint: missing {missing}, unknown {unknown}")
        filt = cls(from_fields(AiseConfig, state["config"]))
        for key, attr in _CHECKPOINT:
            # One rule for every state value: a JSON number, or nested lists of them, with
            # the shape the fresh filter gives it. Arrays come back as floats.
            shape, value = np.shape(getattr(filt, attr)), state[key]
            try:
                array = np.asarray(value)
            except ValueError:  # ragged lists
                array = np.asarray(None)
            if array.dtype.kind not in "if" or array.shape != shape:
                raise ValueError(f"malformed checkpoint: {key!r} is not numbers of shape {shape}")
            setattr(filt, attr, array.astype(float) if array.ndim else value)
        # A step counts its residual before it counts itself, so res_count >= k.
        for key in ("k", "res_count"):
            if type(state[key]) is not int or state[key] < 0:
                raise ValueError(f"malformed checkpoint: {key!r} is not a non-negative integer")
        if state["res_count"] < state["k"]:
            raise ValueError("malformed checkpoint: 'res_count' is smaller than 'k'")
        return filt
