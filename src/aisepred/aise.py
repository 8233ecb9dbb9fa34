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
"""

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs
from scipy.special import betaincinv

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


# The LAPACK routines behind cho_factor/cho_solve, without their wrappers.
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


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


# The JSON types an integer field accepts: a bool or a float is not an integer.
_INTEGER_TYPES = {int: (int,), int | None: (int, type(None))}


def from_fields(cls, data):
    """cls(**data), after checking that data is a JSON object of fields of the dataclass cls.

    A field annotated int (or int | None) must hold an int; float fields take any number.
    """
    unknown = set(json_object(data, cls.__name__)) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    for f in fields(cls):
        allowed = _INTEGER_TYPES.get(f.type)
        if allowed and f.name in data and type(data[f.name]) not in allowed:
            raise ValueError(f"{cls.__name__}: {f.name} must be an integer, got {data[f.name]!r}")
    try:
        return cls(**data)
    except TypeError as exc:  # a field of the wrong JSON type, e.g. a string where a number goes
        raise ValueError(f"{cls.__name__}: {exc}") from exc


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
    w = betaincinv(0.5 * dfn, 0.5 * dfd, quantile)
    return dfd * w / (dfn * (1.0 - w))


def vrf_lambda(z_history, tau_n, tau_d, alpha_vrf, f_crit=None):
    """Forgetting factor from a one-sided variance-ratio test on the residuals.

    Compares the sample variance over the last tau_n residuals against the
    last tau_d. If the ratio exceeds the 0.99 F quantile with (tau_n - 1,
    tau_d - 1) degrees of freedom, the factor drops below one,
    lambda = 1 / (1 + alpha_vrf * (F - F_crit)); otherwise it stays at one.
    Fewer than tau_d residuals, or a zero denominator variance, mean no
    evidence of change and return 1.
    """
    z = np.asarray(z_history, dtype=float)
    if len(z) < tau_d:
        return 1.0
    # np.var(ddof=1) without its wrapper: the same sums over the same views.
    dev_n = z[-tau_n:] - np.add.reduce(z[-tau_n:]) / tau_n
    dev_d = z[-tau_d:] - np.add.reduce(z[-tau_d:]) / tau_d
    var_d = float(np.add.reduce(dev_d * dev_d)) / (tau_d - 1)
    if var_d <= 0.0:
        return 1.0
    ratio = float(np.add.reduce(dev_n * dev_n)) / (tau_n - 1) / var_d
    if f_crit is None:
        f_crit = f_critical(tau_n - 1, tau_d - 1)
    if ratio > f_crit:
        return 1.0 / (1.0 + alpha_vrf * (ratio - f_crit))
    return 1.0


# Checkpointed filter state: (JSON key, AiseFilter attribute), in to_json order.
_CHECKPOINT = (
    ("k", "k"), ("theta", "theta"), ("p_inv", "p_inv"), ("x_fc", "x_fc"), ("x_da", "x_da"),
    ("P_fc", "P_fc"), ("P_da", "P_da"), ("dhat_hist", "dhat_hist"), ("z_hist", "z_hist"),
    ("phi_hist", "phi_hist"), ("prodstack", "prodstack"), ("res_count", "_res_count"),
    ("res_mean", "_res_mean"), ("res_m2", "_res_m2"), ("eta_k", "eta_k"), ("v2_k", "v2_k"),
    ("lambda_k", "lambda_k"),
)


class AiseFilter:
    """Single-channel derivative estimator; feed one measurement per step.

    step(y) returns the current estimate of the configured derivative of the
    measurement stream. All history buffers are zero-initialized, so the
    filter is well defined from the first sample.
    """

    def __init__(self, config=None, **overrides):
        if config is None:
            config = AiseConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.cfg = config
        self.model = build_integrator(config.order, config.t_s)
        self.adapt_start = config.adapt_start if config.adapt_start is not None else config.n_f
        self._f_crit = f_critical(config.tau_n - 1, config.tau_d - 1)
        self._eta_grid = np.logspace(
            np.log10(config.eta_l), np.log10(config.eta_u), config.eta_grid_points
        )
        self._r_inf_mat = config.r_inf * np.eye(config.l_theta)
        self.reset()

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------

    def reset(self):
        cfg = self.cfg
        n, lt = self.model.n, cfg.l_theta
        self.k = 0
        self.theta = np.zeros(lt)
        # RLS covariance kept in information form; P_rls is its inverse.
        self.p_inv = cfg.r_theta * np.eye(lt)
        # rls_update scratch: not part of the state, never aliases p_inv.
        self._p_spare, self._outer = np.empty((lt, lt)), np.empty((lt, lt))
        self.x_fc = np.zeros(n)
        self.x_da = np.zeros(n)
        self.P_fc = np.zeros((n, n))
        self.P_da = np.zeros((n, n))
        # Every window is newest first and is shifted in place by one step.
        self.dhat_hist = np.zeros(cfg.n_e + cfg.n_f)
        self.z_hist = np.zeros(max(cfg.n_e + cfg.n_f, cfg.tau_d))
        self.phi_hist = np.zeros((cfg.n_f, lt))                 # row i = phi at step k-1-i
        # Row j holds the product of the last j+1 closed-loop matrices, newest
        # leftmost; row j feeds the filter weight at lag j+2. Zero rows encode
        # missing history.
        self.prodstack = np.zeros((cfg.n_f - 1, n, n))
        self._res_count = 0
        self._res_mean = 0.0
        self._res_m2 = 0.0
        self.eta_k = cfg.eta_init
        self.v2_k = 1.0
        self.lambda_k = 1.0
        self.last = None

    @property
    def P_rls(self):
        """RLS coefficient covariance (inverse of the stored information matrix)."""
        c, lower = cho_factor(self.p_inv, lower=True)
        return cho_solve((c, lower), np.eye(self.cfg.l_theta))

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
        H[1:] = self.prodstack[:, 0, :] @ self.model.B
        return H

    def filter_regressor(self):
        """Filtered regressor row and filtered input estimate over the last n_f steps."""
        H = self._filter_weights()
        return H @ self.phi_hist, float(H @ self.dhat_hist[: self.cfg.n_f])

    def _factor_information(self, p_inv):
        """Lower Cholesky factor of the information matrix, with one lifted retry.

        Exact arithmetic keeps the matrix positive definite (it is a sum of a
        scaled positive-definite matrix and outer products), and every term is
        symmetric elementwise, so factoring its lower triangle loses nothing.
        A failed factorization at machine-precision scale is retried once with
        an epsilon-sized diagonal lift. A failure beyond that scale is a genuine
        invariant violation and raises.
        """
        c, info = _POTRF(p_inv, lower=1, clean=0)
        if info == 0:
            return c, p_inv
        lift = 1e-12 * float(np.max(np.diag(p_inv)))
        if lift > 0:
            p_inv = p_inv + lift * np.eye(len(p_inv))
            c, info = _POTRF(p_inv, lower=1, clean=0)
        if info != 0:
            raise NumericalInvariantError(self.k, "RLS information matrix lost positive definiteness")
        return c, p_inv

    def rls_update(self, lam, phi, phi_f, z, dhat_f):
        """Forgetting/resetting RLS step on the information matrix and coefficients.

        The new matrix is built in a reused buffer and swapped in once it
        factors, so a failure changes nothing; callers that keep p_inv must copy it.
        """
        cfg = self.cfg
        p_old, p_new, outer = self.p_inv, self._p_spare, self._outer
        if p_new.shape != p_old.shape:  # p_inv was assigned from outside
            p_new, outer = np.empty(p_old.shape), np.empty(p_old.shape)
            self._outer = outer
        np.multiply(p_old, lam, out=p_new)  # exact copy when lam == 1
        if lam != 1.0:
            p_new += (1.0 - lam) * self._r_inf_mat
        for weight, v in ((cfg.r_z, phi_f), (cfg.r_d, phi)):
            np.multiply.outer(v, v, out=outer)
            outer *= weight
            p_new += outer
        rhs = cfg.r_z * (z - dhat_f + float(phi_f @ self.theta)) * phi_f
        rhs += cfg.r_d * float(phi @ self.theta) * phi
        if not (np.isfinite(p_new).all() and np.isfinite(rhs).all()):
            raise NumericalInvariantError(self.k, "RLS update is not finite")
        factor, p_new = self._factor_information(p_new)
        # potrs reports only illegal arguments, which the shapes here rule out.
        self.theta = self.theta - _POTRS(factor, rhs, lower=1)[0]
        self.p_inv, self._p_spare = p_new, p_old

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
        if self.k < self.adapt_start:
            s_hat = self.residual_variance()
            return self.cfg.eta_init, (s_hat if s_hat is not None else 1.0)
        if forecast_var is None:
            forecast_var = self._forecast_var()
        cfg, grid = self.cfg, self._eta_grid
        s_hat = self._res_m2 / (self._res_count - 1)
        c = s_hat - forecast_var
        if not c > grid[0]:  # searchsorted would count a NaN c past the whole grid
            return float(grid[0]), 0.0
        m = int(np.searchsorted(grid, c))
        if cfg.eta_rule == "floor":
            idx = 0
        elif cfg.eta_rule == "scaled":
            anchor = min(max(cfg.t_s**2 * s_hat, cfg.eta_l), cfg.eta_u)
            idx = int(np.argmin(np.abs(np.log(grid[:m]) - np.log(anchor))))
        else:
            target = cfg.beta * (c - grid[m - 1]) + (1.0 - cfg.beta) * (c - grid[0])
            idx = int(np.argmin(np.abs((c - grid[:m]) - target)))
        return float(grid[idx]), float(c - grid[idx])

    def _forecast_var(self):
        return float(self.model.A[0] @ self.P_da @ self.model.A[0])

    def data_assimilate(self, z, eta, v2):
        """Measurement update and forecast-covariance propagation.

        Returns (x_da, K_da, P_da, next P_fc) and advances the stored
        covariances and the closed-loop product stack.
        """
        A = self.model.A
        innov_var = self.P_fc[0, 0] + v2
        if innov_var <= 0.0:
            raise NumericalInvariantError(self.k, "innovation variance not positive")
        gain = -self.P_fc[:, 0] / innov_var
        self.x_da = self.x_fc + gain * z
        P_da = self.P_fc + np.outer(gain, self.P_fc[0, :])
        self.P_da = 0.5 * (P_da + P_da.T)
        if self.k >= 1:
            # Closed-loop matrix A(I + K C): A with its first column shifted by A @ K.
            abar = A.copy()
            abar[:, 0] += A @ gain
            # Shifted in place: numpy gives overlapping operands the non-overlapping result.
            np.matmul(abar, self.prodstack[:-1], out=self.prodstack[1:])
            self.prodstack[0] = abar
        P_fc = A @ self.P_da @ A.T
        P_fc.flat[:: len(P_fc) + 1] += eta
        self.P_fc = 0.5 * (P_fc + P_fc.T)
        return self.x_da, gain, self.P_da, self.P_fc

    # ------------------------------------------------------------------
    # Main cycle
    # ------------------------------------------------------------------

    def step(self, y):
        """Process one measurement; returns the derivative estimate for this step."""
        cfg = self.cfg
        y = float(y)
        if not math.isfinite(y):
            raise InvalidSample(self.k, f"measurement {y!r} is not finite")
        z = float(self.x_fc[0]) - y

        # phi and the variance-ratio window put z ahead of the stored history, which is
        # committed only after the RLS update succeeds: a failed step changes nothing.
        phi = np.empty(cfg.l_theta)
        phi[: cfg.n_e] = self.dhat_hist[: cfg.n_e]
        phi[cfg.n_e] = z
        phi[cfg.n_e + 1 :] = self.z_hist[: cfg.n_e]
        d_hat = float(phi @ self.theta)
        phi_f, dhat_f = self.filter_regressor()

        if self.k < cfg.tau_d:
            lam = 1.0
        else:
            recent = np.empty(cfg.tau_d)  # newest first
            recent[0] = z
            recent[1:] = self.z_hist[: cfg.tau_d - 1]
            lam = vrf_lambda(recent[::-1], cfg.tau_n, cfg.tau_d, cfg.alpha_vrf, self._f_crit)

        self.rls_update(lam, phi, phi_f, z, dhat_f)

        # Running residual statistics over every step so far.
        self._res_count += 1
        delta = z - self._res_mean
        self._res_mean += delta / self._res_count
        self._res_m2 += delta * (z - self._res_mean)
        self.z_hist[1:] = self.z_hist[:-1]
        self.z_hist[0] = z

        forecast_var = self._forecast_var() if self.k >= self.adapt_start else None
        eta, v2 = self.adapt_noise_covariances(forecast_var)
        self.eta_k, self.v2_k = eta, v2

        self.data_assimilate(z, eta, v2)
        self.x_fc = self.model.A @ self.x_da + self.model.B * d_hat

        self.dhat_hist[1:] = self.dhat_hist[:-1]
        self.dhat_hist[0] = d_hat
        self.phi_hist[1:] = self.phi_hist[:-1]
        self.phi_hist[0] = phi

        self.lambda_k = lam
        self.last = StepDiagnostics(
            k=self.k, z=z, d_hat=d_hat, phi=phi, phi_f=phi_f, dhat_f=dhat_f,
            lam=lam, eta=eta, v2=v2, s_hat=self.residual_variance(), forecast_var=forecast_var,
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
        state = {"config": asdict(self.cfg)}
        state.update((key, getattr(self, attr)) for key, attr in _CHECKPOINT)
        return json.dumps(state, default=np.ndarray.tolist)

    @classmethod
    def from_json(cls, payload):
        state = json_object(json.loads(payload), "checkpoint")
        expected = {"config", *(key for key, _ in _CHECKPOINT)}
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
