import math

import numpy as np
import pytest

from aisepred.integrators import build_integrator


def test_order1_matrices():
    A, B = build_integrator(1, 0.01)
    assert A.shape == (1, 1) and A[0, 0] == 1.0
    assert B[0] == pytest.approx(0.01)
    assert len(B) == 1


def test_order2_matrices():
    A, B = build_integrator(2, 0.01)
    np.testing.assert_allclose(A, [[1.0, 0.01], [0.0, 1.0]])
    np.testing.assert_allclose(B, [0.00005, 0.01])
    assert len(B) == 2


def test_order3_input_column():
    A, B = build_integrator(3, 0.01)
    np.testing.assert_allclose(B, [1e-6 / 6.0, 5e-5, 1e-2])
    np.testing.assert_allclose(np.diag(A), 1.0)
    assert np.allclose(A, np.triu(A))


@pytest.mark.parametrize("order", [0, 4, -1])
def test_invalid_order_rejected(order):
    with pytest.raises(ValueError, match="order"):
        build_integrator(order, 0.01)


def test_nonpositive_sample_time_rejected():
    with pytest.raises(ValueError, match="t_s must be finite and positive, got 0.0"):
        build_integrator(1, 0.0)


def test_matrices_read_only():
    A, B = build_integrator(2, 0.01)
    with pytest.raises(ValueError):
        A[0, 0] = 2.0
    with pytest.raises(ValueError):
        B[0] = 2.0


@pytest.mark.parametrize("order", [1, 2, 3])
def test_constant_input_yields_polynomial_output(order):
    # Iterating the chain with a constant input makes the output a degree-m
    # polynomial of time whose m-th finite difference recovers the input.
    t_s = 0.01
    A, B = build_integrator(order, t_s)
    d = 2.7
    x = np.zeros(order)
    ys = []
    for _ in range(200):
        ys.append(x[0])  # the measurement reads the first state
        x = A @ x + B * d
    ys = np.asarray(ys)
    diffed = np.diff(ys, n=order) / t_s**order
    np.testing.assert_allclose(diffed, d, rtol=1e-9)

    # Exactness check against the continuous-time solution from rest.
    k = np.arange(200)
    expected = d * (k * t_s) ** order / math.factorial(order)
    np.testing.assert_allclose(ys, expected, atol=1e-12)
