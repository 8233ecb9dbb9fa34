"""Discrete-time integrator chains used as the internal model for derivative estimation.

An order-m chain maps an unknown input d (the m-th derivative of the measured
signal) through m cascaded discrete integrators to the measured output, so
estimating d amounts to m-fold numerical differentiation.
"""

from math import factorial, inf

import numpy as np

__all__ = ["build_integrator"]


def check_sample_time(t_s):
    """Raise ValueError unless the sample time t_s is finite and positive."""
    if not 0 < t_s < inf:  # NaN fails the comparison too
        raise ValueError(f"t_s must be finite and positive, got {t_s!r}")


def build_integrator(order, t_s):
    """The read-only arrays (A, B) of the order-1, -2, or -3 chain for sample time t_s.

    The state is (signal, first derivative, ..., highest derivative), so the
    measurement reads the first state. A is upper triangular with unit diagonal
    (Taylor propagation of the state), B holds t_s^i / i! for i = order down to 1.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"differentiation order must be 1, 2, or 3, got {order!r}")
    check_sample_time(t_s)

    A = np.eye(order)
    for i in range(order):
        for j in range(i + 1, order):
            A[i, j] = t_s ** (j - i) / factorial(j - i)
    B = np.array([t_s ** (order - i) / factorial(order - i) for i in range(order)])
    A.setflags(write=False)
    B.setflags(write=False)
    return A, B
