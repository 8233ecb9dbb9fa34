"""Baseline real-time differentiators: filtered backward differences and a fixed-gain tracker.

BDB smooths the position stream with a causal Butterworth low-pass and takes
first/second backward differences. The alpha-beta-gamma tracker is a
steady-state Kalman filter for the constant-acceleration model whose three
gains are parameterized by a single dimensionless tracking index (the
process-to-measurement noise ratio).

scipy.signal is imported when the first ButterworthCascade is built, not with
this module: it loads scipy.stats and most of scipy with it, more than doubling
the time and memory of `import aisepred`, and no AISE filter, truth-derivative
run or `aisepred differentiate` needs it.
"""

import numpy as np

from .integrators import build_integrator

__all__ = [
    "ButterworthCascade",
    "BdbDifferentiator",
    "abg_gains",
    "abg_error_dynamics_eigenvalues",
    "AbgFilter",
]


class ButterworthCascade:
    """Causal low-pass Butterworth filter as streaming second-order sections.

    Designed from the analog prototype by bilinear transform with frequency
    prewarping (the cutoff is exact). Internal delay states are primed on the
    first sample so that a constant input passes through with no transient.
    """

    def __init__(self, order=10, cutoff=0.8 * np.pi):
        if order < 2 or order % 2 != 0:
            raise ValueError(f"order must be a positive even integer, got {order}")
        if not 0.0 < cutoff < np.pi:
            raise ValueError(f"cutoff must be in (0, pi) rad/step, got {cutoff}")
        from scipy.signal import butter, sosfilt, sosfilt_zi

        self.order = order
        self.cutoff = float(cutoff)
        self.sections = butter(order, cutoff / np.pi, btype="low", output="sos")
        self._zi_unit = sosfilt_zi(self.sections)
        self._sosfilt = sosfilt
        self._zi = None

    def step(self, x):
        """Filter one sample."""
        return float(self.filter([x])[0])

    def filter(self, xs):
        """Filter a whole stream in one call; equals filtering it sample by sample, bit for bit."""
        xs = np.asarray(xs, dtype=float)
        if not len(xs):
            return np.empty(0)
        if self._zi is None:
            self._zi = self._zi_unit * xs[0]
        ys, self._zi = self._sosfilt(self.sections, xs, zi=self._zi)
        return ys

    def frequency_response(self, w):
        """Complex response H(e^{jw}) evaluated directly from the section coefficients."""
        w = np.asarray(w, dtype=float)
        zinv = np.exp(-1j * w)
        H = np.ones_like(zinv, dtype=complex)
        for b0, b1, b2, a0, a1, a2 in self.sections:
            H *= (b0 + b1 * zinv + b2 * zinv**2) / (a0 + a1 * zinv + a2 * zinv**2)
        return H


class BdbDifferentiator:
    """Backward differences of the Butterworth-filtered position stream."""

    def __init__(self, t_s, order=10, cutoff=0.8 * np.pi):
        if t_s <= 0:
            raise ValueError("t_s must be positive")
        self.t_s = float(t_s)
        self.cascade = ButterworthCascade(order=order, cutoff=cutoff)
        self.filtered = 0.0  # most recent smoothed position
        self._y1 = None      # filtered value one step back
        self._y2 = None      # two steps back

    def step(self, p):
        """Returns (velocity, acceleration) estimates for this sample."""
        v, a, _ = self.run([p])
        return float(v[0]), float(a[0])

    def run(self, ps):
        """(velocity, acceleration, filtered position) arrays for a whole stream.

        The backward differences are index shifts of the filtered stream; the
        result equals running it sample by sample, bit for bit.
        """
        y = self.cascade.filter(ps)
        if not len(y):
            return y, y, y
        if self._y1 is None:
            self._y1 = self._y2 = y[0]
        ext = np.concatenate(([self._y2, self._y1], y))  # ext[k + 2] = y[k]
        v = (y - ext[1:-1]) / self.t_s
        a = (y - 2.0 * ext[1:-1] + ext[:-2]) / self.t_s**2
        self._y2, self._y1 = float(ext[-2]), float(ext[-1])
        self.filtered = self._y1
        return v, a, y


def _abg_riccati(gamma_index, t_s, tol=1e-12, max_iter=10**6):
    """Converged predicted covariance of the constant-acceleration filtering problem.

    Measurement noise variance is 1; process noise enters through the
    third-order input column B with standard deviation sigma_w such that
    sigma_w * t_s^2 = gamma_index (the tracking-index definition).
    """
    if gamma_index <= 0:
        raise ValueError(f"tracking index must be positive, got {gamma_index}")
    model = build_integrator(3, t_s)
    A, B = model.A, model.B
    Q = (gamma_index / t_s**2) ** 2 * np.outer(B, B)
    P = np.eye(3)
    P_pred = A @ P @ A.T + Q
    for _ in range(max_iter):
        K = P_pred[:, 0] / (P_pred[0, 0] + 1.0)
        P = P_pred - np.outer(K, P_pred[0, :])
        P = 0.5 * (P + P.T)
        P_pred_next = A @ P @ A.T + Q
        if np.max(np.abs(P_pred_next - P_pred)) < tol:
            return P_pred_next
        P_pred = P_pred_next
    raise RuntimeError(
        f"steady-state covariance iteration did not converge for tracking index {gamma_index}"
    )


def abg_gains(gamma_index, t_s):
    """Steady-state (alpha, beta, gamma) gains for the given tracking index."""
    P_pred = _abg_riccati(gamma_index, t_s)
    K = P_pred[:, 0] / (P_pred[0, 0] + 1.0)
    return float(K[0]), float(K[1] * t_s), float(K[2] * t_s**2 / 2.0)


def abg_error_dynamics_eigenvalues(alpha, beta, gamma, t_s):
    """Eigenvalues of the tracker's error propagation A(I - KC)."""
    model = build_integrator(3, t_s)
    A = model.A
    K = np.array([alpha, beta / t_s, 2.0 * gamma / t_s**2])
    closed = A @ (np.eye(3) - np.outer(K, [1.0, 0.0, 0.0]))
    return np.linalg.eigvals(closed)


class AbgFilter:
    """Fixed-gain position/velocity/acceleration tracker.

    Predicts with constant-acceleration kinematics and corrects with the
    residual r = measurement - predicted position:

        p += alpha * r,  v += (beta / t_s) * r,  a += (2 * gamma / t_s^2) * r

    which is the state-space steady-state Kalman correction for the gains
    produced by abg_gains. The position state is primed with the first
    measurement to avoid an arbitrary large initial transient.
    """

    def __init__(self, gamma_index, t_s):
        self.t_s = float(t_s)
        self.gamma_index = float(gamma_index)
        self.alpha, self.beta, self.gamma = abg_gains(gamma_index, t_s)
        eigs = abg_error_dynamics_eigenvalues(self.alpha, self.beta, self.gamma, t_s)
        if np.max(np.abs(eigs)) >= 1.0:
            raise RuntimeError(
                f"unstable tracker gains for tracking index {gamma_index}"
            )
        self.p = 0.0
        self.v = 0.0
        self.a = 0.0
        self._primed = False

    def step(self, p_meas):
        """Returns the corrected (position, velocity, acceleration) estimate."""
        p_meas = float(p_meas)
        if not self._primed:
            self.p = p_meas
            self._primed = True
        t_s = self.t_s
        p_pred = self.p + t_s * self.v + 0.5 * t_s**2 * self.a
        v_pred = self.v + t_s * self.a
        a_pred = self.a
        r = p_meas - p_pred
        self.p = p_pred + self.alpha * r
        self.v = v_pred + (self.beta / t_s) * r
        self.a = a_pred + (2.0 * self.gamma / t_s**2) * r
        return self.p, self.v, self.a

    def run(self, ps):
        """Step through a whole stream; returns (position, velocity, acceleration) arrays."""
        rows = [self.step(p) for p in np.asarray(ps, dtype=float).tolist()]
        return np.array(rows).reshape(-1, 3).T
