"""Baseline real-time differentiators: filtered backward differences and a fixed-gain tracker.

BDB smooths the position stream with a causal Butterworth low-pass and takes
first/second backward differences. The alpha-beta-gamma tracker is a
steady-state Kalman filter for the constant-acceleration model whose three
gains are set by a tracking index (the process-to-measurement noise ratio).
The index has units of 1/s: the gains depend only on lam = gi * t_s, through
the closed-loop poles z = 1 - e, where each root u of u^3 + p u + p = 0,
p = lam^2 / 216, gives the stable root e of (1 + u) e^2 - 6 u e + 6 u = 0. An
index whose poles do not round strictly inside the unit circle is refused.

The Butterworth design and cascade are written in numpy and Python floats in
the arithmetic of scipy.signal's butter, sosfilt_zi and sosfilt, and equal them
bit for bit: importing scipy.signal loads scipy.stats and most of scipy with
it, which would more than double the time and memory of a run.
"""

import math
import sys

import numpy as np

from .integrators import check_sample_time

__all__ = [
    "ButterworthCascade",
    "BdbDifferentiator",
    "abg_gains",
    "AbgFilter",
]


def check_butterworth_design(order, cutoff):
    """Raise ValueError unless order is a positive even integer and cutoff lies in (0, pi)."""
    if order < 2 or order % 2 != 0:
        raise ValueError(f"Butterworth order must be a positive even integer, got {order}")
    if not 0.0 < cutoff < np.pi:
        raise ValueError(f"Butterworth cutoff must be in (0, pi) rad/step, got {cutoff}")


class ButterworthCascade:
    """Causal low-pass Butterworth filter as streaming second-order sections.

    The analog prototype's poles -exp(i pi m / 2N), m = 1-N, 3-N, ..., N-1, are
    prewarped to the cutoff and mapped by the bilinear transform at fs = 2. Each
    upper-half-plane pole q and its conjugate make one section
    [1, 2, 1, 1, -2 Re q, Re(q conj(q))], the double zero at z = -1 on top; the
    sections run farthest from the unit circle first, and the first carries the
    gain. Internal delay states are primed on the first sample so that a constant
    input passes through with no transient. Sections, initial state and output
    equal scipy.signal's butter(order, cutoff / pi, output="sos"), sosfilt_zi and
    sosfilt bit for bit.
    """

    def __init__(self, order=10, cutoff=0.8 * np.pi):
        check_butterworth_design(order, cutoff)
        # Written as scipy computes it: pi * (cutoff / pi) / 2 and cutoff / 2 differ in the last bit.
        warped = float(4.0 * np.tan(np.pi * (cutoff / np.pi) / 2.0))
        s = warped * -np.exp(1j * np.pi * np.arange(1 - order, order, 2.0) / (2 * order))
        z = (4.0 + s) / (4.0 - s)
        upper = z[z.imag > 0]
        upper = upper[np.argsort(-np.abs(1.0 - np.abs(upper)))]
        self.sections = np.array([[1.0, 2.0, 1.0, 1.0, -2.0 * q.real, (q * q.conjugate()).real]
                                  for q in upper])
        self.sections[0, :3] *= warped**order * np.real(1.0 / np.prod(4.0 - s))
        # Each section's steady state under a unit step (lfilter_zi), times the DC gain before it.
        zi, scale = [], 1.0
        for b0, b1, b2, _, a1, a2 in self.sections:
            zi.append(scale * np.linalg.solve([[1.0 + a1, -1.0], [a2, 1.0]],
                                              [b1 - a1 * b0, b2 - a2 * b0]))
            scale *= (b0 + b1 + b2) / (1.0 + a1 + a2)
        self._zi_unit = np.array(zi)
        self._zi = None

    def filter(self, xs):
        """Filter a whole stream in one call; equals filtering it sample by sample, bit for bit."""
        xs = np.asarray(xs, dtype=float)
        if not len(xs):
            return np.empty(0)
        if self._zi is None:
            self._zi = (self._zi_unit * xs[0]).tolist()
        sections = list(zip(self.sections.tolist(), self._zi))
        ys = []
        for x in xs.tolist():  # transposed direct form II, section by section
            for (b0, b1, b2, _, a1, a2), state in sections:
                y = b0 * x + state[0]
                state[0] = b1 * x - a1 * y + state[1]
                state[1] = b2 * x - a2 * y
                x = y
            ys.append(x)
        return np.array(ys)


class BdbDifferentiator:
    """Backward differences of the Butterworth-filtered position stream."""

    def __init__(self, t_s, order=10, cutoff=0.8 * np.pi):
        check_sample_time(t_s)
        self.t_s = float(t_s)
        self.cascade = ButterworthCascade(order=order, cutoff=cutoff)
        self._y1 = None      # filtered value one step back
        self._y2 = None      # two steps back

    def step(self, p):
        """Returns (velocity, acceleration) estimates for this sample."""
        v, a = self.run([p])
        return float(v[0]), float(a[0])

    def run(self, ps):
        """(velocity, acceleration) arrays for a whole stream.

        The backward differences are index shifts of the filtered stream, which
        is not returned: predictions anchor on the measured position. The result
        equals running it sample by sample, bit for bit.
        """
        y = self.cascade.filter(ps)
        if not len(y):
            return y, y
        if self._y1 is None:
            self._y1 = self._y2 = y[0]
        ext = np.concatenate(([self._y2, self._y1], y))  # ext[k + 2] = y[k]
        v = (y - ext[1:-1]) / self.t_s
        a = (y - 2.0 * ext[1:-1] + ext[:-2]) / self.t_s**2
        self._y2, self._y1 = float(ext[-2]), float(ext[-1])
        return v, a


def abg_gains(gamma_index, t_s):
    """Steady-state (alpha, beta, gamma) gains for the given tracking index, in closed form.

    They are the steady-state Kalman gains of the constant-acceleration model with unit
    measurement noise and jerk noise sigma_w = gamma_index / t_s^2 (Kalata, IEEE TAES
    20(2), 1984), and depend only on lam = gamma_index * t_s. With p = lam^2 / 216, each
    root u of u^3 + p u + p = 0 makes (1 + u) e^2 - 6 u e + 6 u = 0, whose roots are a
    closed-loop pole z = 1 - e and its mirror 1 / z; e = 6 / (3 + sqrt(9 + 6 u^2 / p)),
    principal root, is the stable one with nothing cancelling. The real u is
    -2 sqrt(p/3) sinh(asinh(1.5 sqrt(3/p)) / 3), the complex pair follows by Vieta, and
    with s1, s2, s3 the elementary symmetric sums of the three e, alpha = s1 - s2 + s3,
    beta = s2 - 1.5 s3, gamma = s3 / 2 (Gray and Murray, IEEE TAES 29(3), 1993).

    Raises ValueError for a t_s or index that is not finite and positive, and when the
    gains cannot be formed in double precision: p underflows below the normal doubles or
    overflows (lam above about 1e154), or a pole does not round strictly inside the unit
    circle (lam below about 1e-48).
    """
    check_sample_time(t_s)
    if not 0 < gamma_index < math.inf:
        raise ValueError(f"tracking index must be finite and positive, got {gamma_index}")
    lam = float(gamma_index) * float(t_s)
    p = lam * lam / 216.0
    if sys.float_info.min <= p < math.inf:
        u1 = -2.0 * math.sqrt(p / 3.0) * math.sinh(math.asinh(1.5 * math.sqrt(3.0 / p)) / 3.0)
        u2 = complex(-0.5 * u1, math.sqrt(-p / u1 - 0.25 * u1 * u1))  # u3 is its conjugate
        e1, e2 = (6.0 / (3.0 + (9.0 + 6.0 * u * u / p) ** 0.5) for u in (u1, u2))
        if abs(1.0 - e1) < 1.0 and abs(1.0 - e2) < 1.0:
            m2 = abs(e2) ** 2
            s1, s2, s3 = e1 + 2.0 * e2.real, 2.0 * e1 * e2.real + m2, e1 * m2
            return s1 - s2 + s3, s2 - 1.5 * s3, s3 / 2.0
    raise ValueError(f"tracking index must give stable gains in double precision at t_s {t_s}, "
                     f"got {gamma_index}")


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
        self.alpha, self.beta, self.gamma = abg_gains(gamma_index, t_s)
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
