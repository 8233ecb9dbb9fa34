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

The F-test quantile that drives the forgetting is computed in pure Python
(f_critical), so the module needs scipy.linalg and nothing else of scipy.
"""

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.linalg.blas import dger, dtrsm

from .integrators import build_integrator, check_sample_time

__all__ = [
    "AiseConfig",
    "AiseFilter",
    "CheckpointVersionError",
    "InvalidSample",
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


class CheckpointVersionError(ValueError):
    """A checkpoint's format version is not the one AiseFilter.from_json reads."""


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
        check_sample_time(self.t_s)
        if self.n_e < 1 or self.n_f < 2:  # n_f - 1 closed-loop products are kept
            raise ValueError("need n_e >= 1 and n_f >= 2")
        for name in ("r_z", "r_d", "r_theta", "r_inf"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0 < self.eta_l <= self.eta_u < math.inf:
            raise ValueError("need 0 < eta_l <= eta_u < inf (log-spaced search grid)")
        if not self.eta_l <= self.eta_init <= self.eta_u:
            raise ValueError("eta_init must lie in [eta_l, eta_u]")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if self.tau_n < 2 or self.tau_d <= self.tau_n:
            raise ValueError("need tau_n >= 2 and tau_d > tau_n")
        if not 0 <= self.alpha_vrf < math.inf:
            raise ValueError("alpha_vrf must be finite and >= 0")
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


def _half_gamma(k):
    """Gamma(k / 2) as an exact (numerator, denominator), over sqrt(pi) for odd k."""
    n = k // 2
    return (math.factorial(k - 1), 4**n * math.factorial(n)) if k % 2 else (math.factorial(n - 1), 1)


def _beta_cf(x, a, b, d0):
    """I_x(a, b) a B(a, b) / (x^a (1 - x)^b) by Lentz's method; d0 = 1 - (a + b) x / (a + 1)."""
    c, d = 1.0, 1.0 / d0
    h, m = d, 1
    while True:
        for dn in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / (1.0 + dn * d or 1e-300)
            c = 1.0 + dn / c or 1e-300
            h *= c * d
        if abs(c * d - 1.0) <= 2.3e-16:
            return h
        m += 1


def _tail_exceeds(x0, x1, dfn, dfd, pn, pd):
    """Whether 1 - I_x(dfn / 2, dfd / 2) > pn / pd at x = (x0 + x1) / 2, exactly, for even dfn.

    The tail is (1 - x)^(dfd / 2) * sum_{j<dfn/2} (dfd / 2)_j / j! * x^j, the sum h / k by Horner;
    both sides are squared so that an odd dfd needs no root. pd is a power of 2.
    """
    (m0, d0), (m1, d1) = x0.as_integer_ratio(), x1.as_integer_ratio()
    big = max(d0, d1)
    m, e = m0 * (big // d0) + m1 * (big // d1), big.bit_length()  # x = m / 2**e
    h = k = 1
    for j in range(dfn // 2 - 1, 0, -1):
        h, k = (2 * j * k << e) + m * (dfd + 2 * j - 2) * h, 2 * j * k << e
    return ((2**e - m) ** dfd * h * h) << 2 * (pd.bit_length() - 1) > (pn * k) ** 2 << e * dfd


def f_critical(dfn, dfd, quantile=0.99):
    """Upper quantile of the F(dfn, dfd) distribution, dfd * w / (dfn * (1 - w)).

    w solves I_w(dfn / 2, dfd / 2) = quantile (I the regularized incomplete beta) by Halley's
    method in a shrinking bracket, I being the density times Lentz's continued fraction. For
    even dfn the upper tail is a finite sum that tells exactly on which side of the root each
    midpoint between neighbouring doubles lies, so w is the double nearest the root (scipy's
    betaincinv value at the default). For odd dfn F is within about 1e-14 of exact, relative.
    """
    if not all(isinstance(df, numbers.Integral) and df >= 1 for df in (dfn, dfd)):
        raise ValueError(f"degrees of freedom must be positive integers, got {dfn!r} and {dfd!r}")
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {quantile!r}")
    dfn, dfd, q = int(dfn), int(dfd), float(quantile)
    a, b = dfn / 2, dfd / 2
    (n_ab, d_ab), (n_a, d_a), (n_b, d_b) = (_half_gamma(k) for k in (dfn + dfd, dfn, dfd))
    inv_beta = n_ab * d_a * d_b / (d_ab * n_a * n_b) / (math.pi if dfn % 2 and dfd % 2 else 1.0)
    lo, hi, x = 0.0, 1.0, a / (a + b)
    while True:
        y = 1.0 - x
        # x^a (1 - x)^b / B(a, b), (1 - x)^b corrected for the rounding of y; the density is g / (x y)
        g = math.pow(x, a) * math.pow(y, b) * math.exp(b * math.log1p((1.0 - y - x) / y)) * inv_beta
        if x < (a + 1.0) / (a + b + 2.0):  # res = I - q, each fraction fast and its d0 from exact x
            res = g * _beta_cf(x, a, b, 1.0 - (a + b) * x / (a + 1.0)) / a - q
        else:  # from the upper tail itself, so that q near 1 loses no digits
            res = (1.0 - q) - g * _beta_cf(y, b, a, (1.0 - a + (a + b) * x) / (b + 1.0)) / b
        lo, hi = (x, hi) if res < 0.0 else (lo, x)
        u = res * x * y / g if g else math.inf  # g underflowed: the step leaves the bracket
        new = x - u / (1.0 - 0.5 * min(1.0, u * ((a - 1.0) / x - (b - 1.0) / y)))  # Halley's
        if new != x and not lo < new < hi:
            new = 0.5 * (lo + hi)
        if not lo < new < hi:  # converged (x is lo or hi), or no double is left inside
            break
        x = new
    if dfn % 2 == 0:  # move to the double nearest the root; the tail falls as x grows
        qn, qd = q.as_integer_ratio()
        while not _tail_exceeds(x, math.nextafter(x, 0.0), dfn, dfd, qd - qn, qd):
            x = math.nextafter(x, 0.0)
        while _tail_exceeds(x, math.nextafter(x, 1.0), dfn, dfd, qd - qn, qd):
            x = math.nextafter(x, 1.0)
    return dfd * x / (dfn * (1.0 - x))


def vrf_lambda(z_history, tau_n, tau_d, alpha_vrf, f_crit):
    """Forgetting factor from a one-sided variance-ratio test on the residuals.

    Compares the sample variance over the last tau_n residuals against the
    last tau_d. If the ratio F exceeds f_crit (AiseFilter passes the 0.99 F
    quantile with (tau_n - 1, tau_d - 1) degrees of freedom), the factor drops
    below one, lambda = 1 / (1 + alpha_vrf * (F - f_crit)); otherwise it stays at one.
    Fewer than tau_d residuals, or a zero denominator variance, mean no
    evidence of change and return 1. z_history is a list or 1-D array, oldest first.
    """
    if len(z_history) < tau_d:
        return 1.0
    def var(window):  # np.var(ddof=1) in scalar arithmetic, summing left to right: numpy's
        mean = sq = 0.0  # sum is pairwise and, from CPython 3.12 on, sum() is compensated
        for v in window:
            mean += v
        mean /= len(window)
        for v in window:
            sq += (v - mean) * (v - mean)
        return sq / (len(window) - 1)
    var_d = var(z_history[-tau_d:])
    if var_d <= 0.0:
        return 1.0
    ratio = var(z_history[-tau_n:]) / var_d
    if ratio > f_crit:
        return 1.0 / (1.0 + alpha_vrf * (ratio - f_crit))
    return 1.0


# Checkpointed filter state, each key the AiseFilter attribute it holds, in to_json order after
# "version" and "config". Version 1 had no "version" key and held p_inv and prodstack (matrix
# products); version 2 also held res_count (always k) and windows longer than the step reads.
_CHECKPOINT_VERSION = 3
_CHECKPOINT = ("k", "theta", "P_sqrt", "x_fc", "x_da", "P_fc", "P_da", "dhat_hist", "z_hist",
               "phi_hist", "loop_weights", "res_mean", "res_m2", "eta_k", "v2_k", "lambda_k")


class AiseFilter:
    """Single-channel derivative estimator; feed one measurement per step.

    step(y) returns the current estimate of the configured derivative of the
    measurement stream. All history buffers are zero-initialized, so the
    filter is well defined from the first sample.
    """

    def __init__(self, config=None):
        self.cfg = cfg = config or AiseConfig()
        self.A, self.B = build_integrator(cfg.order, cfg.t_s)
        self._a_t, self._a_col0, self._a0 = self.A.T, self.A[:, 0], self.A[0]  # constant views
        self.adapt_start = cfg.adapt_start if cfg.adapt_start is not None else cfg.n_f
        self._f_crit = f_critical(cfg.tau_n - 1, cfg.tau_d - 1)
        self._eta_grid = np.logspace(np.log10(cfg.eta_l), np.log10(cfg.eta_u), cfg.eta_grid_points)
        self._log_eta_grid = np.log(self._eta_grid)
        # Zero coefficients, state and windows, and the RLS covariance inv(r_theta I).
        n, lt = len(self.B), cfg.l_theta
        self.k = 0
        self.theta = np.zeros(lt)
        self.P_sqrt = np.eye(lt) / math.sqrt(cfg.r_theta)
        self._abar = self.A.copy()  # scratch, not state: the closed-loop matrix
        self._abar_t = self._abar.T
        self._h = np.zeros(cfg.n_f)  # scratch: the closed loop's impulse response at lags 1..n_f
        self.x_fc = np.zeros(n)
        self.x_da = np.zeros(n)
        self.P_fc = np.zeros((n, n))
        self.P_da = np.zeros((n, n))
        # Windows are newest first, shifted by one row a step, and as long as the step reads:
        # phi takes n_e inputs and residuals, phi_f n_f inputs, the F-test tau_d - 1 residuals.
        self.dhat_hist = np.zeros(max(cfg.n_e, cfg.n_f))
        self.z_hist = np.zeros(max(cfg.n_e, cfg.tau_d - 1))
        self.phi_hist = np.zeros((cfg.n_f, lt))
        # Row j is (the last j+1 closed-loop matrices, newest leftmost) @ B; its first entry
        # is the filter weight at lag j+2. Zero rows encode missing history.
        self.loop_weights = np.zeros((cfg.n_f - 1, n))
        self.res_mean = 0.0  # mean and summed squared deviation of the k residuals so far
        self.res_m2 = 0.0
        self.eta_k = cfg.eta_init
        self.v2_k = 1.0
        self.lambda_k = 1.0

    @property
    def phi_hist(self):
        """Row i is phi at step k-1-i: a window on a buffer twice its length, which a step
        moves up by one row, having built its phi in the row above, and copies back to the
        bottom once it has reached the top: one copy every n_f steps, not a shift a step."""
        return self._phi_buf[self._phi_top : self._phi_top + len(self._phi_buf) // 2]

    @phi_hist.setter
    def phi_hist(self, value):
        value = np.asarray(value, dtype=float)
        self._phi_top = len(value)
        self._phi_buf = np.empty((2 * len(value), *value.shape[1:]))
        self._phi_buf[len(value) :] = value

    @property
    def loop_weights(self):
        return self._loop_weights

    @loop_weights.setter
    def loop_weights(self, value):  # a C-ordered copy, and a spare of its shape (scratch)
        self._loop_weights = np.array(value, dtype=float, order="C")
        self._loop_weights_spare = np.empty_like(self._loop_weights)

    @property
    def P_sqrt(self):
        """The stored RLS state S, a square root of the coefficient covariance S S^T."""
        return self._p_sqrt

    @P_sqrt.setter
    def P_sqrt(self, value):  # stored as a C-ordered copy, which dger can update in place
        self._p_sqrt = np.array(value, dtype=float, order="C")
        self._s_spare = np.empty_like(self._p_sqrt)  # scratch, not state: the next P_sqrt
        self._tiny = np.full(self._p_sqrt.size, 2.0**-64)  # scratch: rls_update's finite check

    # ------------------------------------------------------------------
    # Individual operations (composed by step)
    # ------------------------------------------------------------------

    def filter_regressor(self):
        """Filtered regressor row and filtered input estimate over the last n_f steps."""
        H = self._h  # refilled from k and loop_weights on every call
        H[0] = self.B[0] if self.k >= 1 else 0.0
        H[1:] = self._loop_weights[:, 0]
        return H.dot(self.phi_hist), float(H.dot(self.dhat_hist[: self.cfg.n_f]))

    def rls_update(self, lam, phi, phi_f, z, dhat_f):
        """Forgetting/resetting RLS step on S, S S^T = inv(M), and the coefficients.

        It is the information-form step M <- lam M + (1 - lam) r_inf I + r_z phi_f
        phi_f^T + r_d phi phi^T, theta <- theta - solve(M, rhs), factoring nothing when
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
        s_new[...] = s_old
        if lam != 1.0:
            gram = (1.0 - lam) * cfg.r_inf * s_old.T.dot(s_old)
            gram.ravel()[:: len(gram) + 1] += lam
            factor, info = _POTRF(gram.T, lower=1, clean=0, overwrite_a=1)  # gram is symmetric
            if info != 0:
                raise NumericalInvariantError(self.k, "RLS forgetting is not positive definite")
            dtrsm(1.0, factor, s_new.T, side=0, lower=1, overwrite_b=1)  # S^T <- R^-1 S^T
        theta = self.theta
        for weight, v, offset in ((cfg.r_z, phi_f, z - dhat_f), (cfg.r_d, phi, 0.0)):
            f = v.dot(s_new)
            g = s_new.dot(f)
            den = 1.0 / weight + float(f.dot(f))
            if not 0.0 < den < math.inf:
                raise NumericalInvariantError(self.k, "RLS update is not finite")
            theta = theta - g * ((offset + float(v.dot(theta))) / den)
            # S^T - f g^T / (den + sqrt(den / w)) in place, on the F-ordered view of S.
            dger(-1.0 / (den + math.sqrt(den / weight)), f, g, a=s_new.T, overwrite_a=1)
        # A NaN or an infinity in S or theta makes this weighted sum non-finite, and at weight
        # 2^-64 no finite state can overflow it: the sum is below 2^-64 * size * DBL_MAX.
        if not math.isfinite(s_new.ravel().dot(self._tiny) + theta.dot(self._tiny[: len(theta)])):
            raise NumericalInvariantError(self.k, "RLS update is not finite")
        self.theta, self._p_sqrt, self._s_spare = theta, s_new, s_old

    def _noise_levels(self, s_hat, forecast_var):
        """The process-noise level eta and residual-noise variance V2 for this step.

        s_hat is the sample variance of every residual so far, this step's included (None
        before two), and forecast_var that of the assimilated state's forecast (None before
        adapt_start). Before the warmup horizon the configured initial level is used with
        s_hat (1.0 until that exists). Afterwards eta + V2 must match the residual-variance
        surplus c = s_hat - forecast_var, with V2 >= 0 and eta on the log-spaced grid from
        eta_l to eta_u. The surplus c - eta falls as eta rises, so the grid points that leave
        V2 = c - eta positive are the first m = searchsorted(grid, c), all of which match c
        exactly; the eta_rule setting picks one:

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
        if self.k < self.adapt_start:
            return self.cfg.eta_init, (s_hat if s_hat is not None else 1.0)
        cfg, grid = self.cfg, self._eta_grid
        c = s_hat - forecast_var
        if not c > grid[0]:  # searchsorted would count a NaN c past the whole grid
            return float(grid[0]), 0.0
        if cfg.eta_rule == "floor":
            return float(grid[0]), float(c - grid[0])
        m = int(grid.searchsorted(c))
        if cfg.eta_rule == "scaled":
            anchor = min(max(cfg.t_s**2 * s_hat, cfg.eta_l), cfg.eta_u)
            idx = int(np.abs(self._log_eta_grid[:m] - np.log(anchor)).argmin())
        else:
            target = cfg.beta * (c - grid[m - 1]) + (1.0 - cfg.beta) * (c - grid[0])
            idx = int(np.abs((c - grid[:m]) - target).argmin())
        return float(grid[idx]), float(c - grid[idx])

    def data_assimilate(self, z, eta, innov_var):
        """Measurement update and forecast-covariance propagation.

        innov_var is P_fc[0, 0] + V2, the residual's variance, which step checked is positive.
        Sets x_da, P_da and the next P_fc, and advances the closed-loop weights; returns nothing.
        """
        A = self.A
        gain = self.P_fc[:, 0] / -innov_var
        self.x_da = self.x_fc + gain * z
        # Each covariance M is symmetrized as (M + M^T) / 2 into a new array: numpy would give
        # the in-place M += M^T, whose operands overlap, a temporary copy of M^T.
        M = np.multiply.outer(gain, self.P_fc[0])
        M += self.P_fc
        self.P_da = P_da = M + M.T
        P_da *= 0.5
        if self.k >= 1:
            # Closed-loop matrix A(I + K C): A with its first column shifted by A @ K.
            self._abar[:, 0] = self._a_col0 + A.dot(gain)
            # Row j becomes abar @ (old row j - 1), written into the spare.
            W, spare = self._loop_weights, self._loop_weights_spare
            W[:-1].dot(self._abar_t, out=spare[1:])
            self._abar.dot(self.B, out=spare[0])
            self._loop_weights, self._loop_weights_spare = spare, W
        M = A.dot(P_da).dot(self._a_t)
        for i in range(len(M)):  # + eta I
            M[i, i] += eta
        self.P_fc = P_fc = M + M.T
        P_fc *= 0.5

    # ------------------------------------------------------------------
    # Main cycle
    # ------------------------------------------------------------------

    def step(self, y):
        """Process one measurement; returns the derivative estimate for this step.

        Its values live in the state it commits: z_hist[0], dhat_hist[0], phi_hist[0], lambda_k,
        eta_k and v2_k. A step that raises (InvalidSample, NumericalInvariantError) changes nothing.
        """
        cfg = self.cfg
        y = float(y)
        if not math.isfinite(y):
            raise InvalidSample(self.k, f"measurement {y!r} is not finite")
        z = float(self.x_fc[0]) - y

        # phi and the variance-ratio window put z ahead of the stored history. Nothing is
        # committed until every check has passed: a failed step changes nothing.
        buf, top = self._phi_buf, self._phi_top
        if top == 0:  # the phi_hist window is at the top of its buffer: copy it to the bottom
            top = self._phi_top = len(buf) // 2
            buf[top:] = buf[:top]
        phi = buf[top - 1]  # the row above the window, which becomes its row 0
        phi[: cfg.n_e] = self.dhat_hist[: cfg.n_e]
        phi[cfg.n_e] = z
        phi[cfg.n_e + 1 :] = self.z_hist[: cfg.n_e]
        d_hat = float(phi.dot(self.theta))
        phi_f, dhat_f = self.filter_regressor()

        if self.k < cfg.tau_d:
            lam = 1.0
        else:  # the last tau_d residuals, oldest first
            recent = self.z_hist[cfg.tau_d - 2 :: -1].tolist() + [z]
            lam = vrf_lambda(recent, cfg.tau_n, cfg.tau_d, cfg.alpha_vrf, self._f_crit)

        # Running residual statistics over every step so far, and the noise levels they
        # give; neither reads what the RLS update changes.
        delta = z - self.res_mean
        res_mean = self.res_mean + delta / (self.k + 1)
        res_m2 = self.res_m2 + delta * (z - res_mean)
        s_hat = res_m2 / self.k if self.k >= 1 else None
        A0 = self._a0  # forecast_var is that of the assimilated state's forecast
        forecast_var = float(A0.dot(self.P_da).dot(A0)) if self.k >= self.adapt_start else None
        eta, v2 = self._noise_levels(s_hat, forecast_var)
        innov_var = self.P_fc[0, 0] + v2
        if innov_var <= 0.0:
            raise NumericalInvariantError(self.k, "innovation variance not positive")

        self.rls_update(lam, phi, phi_f, z, dhat_f)
        self.res_mean, self.res_m2 = res_mean, res_m2
        self.z_hist[1:] = self.z_hist[:-1]
        self.z_hist[0] = z
        self.eta_k, self.v2_k = eta, v2

        self.data_assimilate(z, eta, innov_var)
        self.x_fc = self.A.dot(self.x_da) + self.B * d_hat

        self.dhat_hist[1:] = self.dhat_hist[:-1]
        self.dhat_hist[0] = d_hat
        self._phi_top = top - 1

        self.lambda_k = lam
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
        state.update((key, getattr(self, key)) for key in _CHECKPOINT)
        return json.dumps(state, default=np.ndarray.tolist)

    @classmethod
    def from_json(cls, payload):
        state = json_object(json.loads(payload), "checkpoint")
        version = state.get("version", 1)  # the first format had no version key
        if type(version) is not int or version != _CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"unsupported checkpoint version {version!r}, not {_CHECKPOINT_VERSION}")
        expected = {"version", "config", *_CHECKPOINT}
        missing, unknown = sorted(expected - set(state)), sorted(set(state) - expected)
        if missing or unknown:
            raise ValueError(f"malformed checkpoint: missing {missing}, unknown {unknown}")
        filt = cls(from_fields(AiseConfig, state["config"]))
        for key in _CHECKPOINT:
            # One rule for every state value: a finite JSON number (json reads NaN), or nested
            # lists of them, with the shape the fresh filter gives it. Arrays come back as floats.
            shape, value = np.shape(getattr(filt, key)), state[key]
            try:
                array = np.asarray(value)
            except ValueError:  # ragged lists
                array = np.asarray(None)
            if array.dtype.kind not in "if" or array.shape != shape or not np.isfinite(array).all():
                raise ValueError(
                    f"malformed checkpoint: {key!r} is not finite numbers of shape {shape}")
            setattr(filt, key, array.astype(float) if array.ndim else value)
        if type(state["k"]) is not int or state["k"] < 0:
            raise ValueError("malformed checkpoint: 'k' is not a non-negative integer")
        return filt
