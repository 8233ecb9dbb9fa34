import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisepred.prediction import (METHODS, DerivativeEstimate, PredictionTrace, _va_grid, predict,
                                 va_predict)
from aisepred.scenarios import truth_arrays


def test_va_zero_derivatives_is_constant():
    tr = va_predict([1.0, 2.0, 3.0], np.zeros(3), np.zeros(3), 10, 0.01)
    np.testing.assert_array_equal(tr.positions, np.tile([1.0, 2.0, 3.0], (10, 1)))


def test_va_unit_velocity():
    tr = va_predict(np.zeros(3), [1.0, 0.0, 0.0], np.zeros(3), 100, 0.01)
    np.testing.assert_allclose(tr.positions[99], [1.0, 0.0, 0.0], atol=1e-12)


def test_va_exact_on_parabola():
    t_s = 0.01
    P, V, A, _ = truth_arrays("parabolic", 3100, t_s)
    for k in (0, 500, 3000):
        tr = va_predict(P[k], V[k], A[k], 100, t_s, anchor_step=k)
        for l in (1, 50, 100):
            assert np.linalg.norm(tr.positions[l - 1] - P[k + l]) < 1e-9


def va_oracle(p_k, v_k, a_k, horizon, t_s):
    lt = np.arange(1, horizon + 1)[:, None] * t_s
    return p_k + lt * v_k + 0.5 * lt**2 * a_k


def test_va_grid_is_shared_read_only():
    # The (l t_s, l^2 t_s^2 / 2) columns are cached per (horizon, t_s); a caller that writes
    # to a returned trace writes to its own positions, never to the shared columns.
    p, v, a = np.array([1.0, -2.0, 0.5]), np.array([3.0, 0.1, -1.0]), np.array([0.2, 9.8, 0.0])
    first = va_predict(p, v, a, 50, 0.01)
    expected = first.positions.copy()
    first.positions[...] = 1e9
    np.testing.assert_array_equal(va_predict(p, v, a, 50, 0.01).positions, expected)
    for column in _va_grid(50, 0.01):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.0


@pytest.mark.parametrize("horizon, t_s", [(50, 0.01), (80, 0.01), (50, 0.02), (1, 0.5)])
def test_va_each_horizon_and_sample_time_has_its_grid(horizon, t_s):
    p, v, a = np.array([1.0, -2.0, 0.5]), np.array([3.0, 0.1, -1.0]), np.array([0.2, 9.8, 0.0])
    for h, dt in [(50, 0.01), (horizon, t_s)]:  # a cached grid is there first
        np.testing.assert_array_equal(va_predict(p, v, a, h, dt).positions,
                                      va_oracle(p, v, a, h, dt))


def test_invalid_horizon_rejected():
    with pytest.raises(ValueError, match="horizon"):
        va_predict(np.zeros(3), np.zeros(3), np.zeros(3), 0, 0.01)


def test_trace_shape_validated():
    with pytest.raises(ValueError, match="positions shape"):
        PredictionTrace(anchor_step=0, horizon=5, method="AISE/va",
                        positions=np.zeros((4, 3)))


def test_dispatch_unknown_method():
    est = DerivativeEstimate(v=np.zeros(3), a=np.zeros(3))
    with pytest.raises(ValueError, match="unknown prediction method"):
        predict("AISE/xx", np.zeros(3), est, 10, 0.01)


def test_dispatch_va_identity():
    p, v, a, _ = (x[0] for x in truth_arrays("helical", 0, 0.01))
    est = DerivativeEstimate(v=v, a=a)
    tr1 = predict("AISE/va", p, est, 20, 0.01, anchor_step=3)
    tr2 = va_predict(p, v, a, 20, 0.01, anchor_step=3)
    np.testing.assert_array_equal(tr1.positions, tr2.positions)
    assert tr1.method == "AISE/va"
    assert not tr1.fallback_used


def test_fs_requires_jerk():
    est = DerivativeEstimate(v=np.array([1.0, 0, 0]), a=np.array([0, 1.0, 0]))
    with pytest.raises(ValueError, match="jerk"):
        predict("AISE/FS", np.zeros(3), est, 10, 0.01)


def test_fs_fallback_on_straight_line():
    v = np.array([3.0, 0.0, 0.0])
    a = np.array([1.5, 0.0, 0.0])  # parallel to v
    est = DerivativeEstimate(v=v, a=a, j=np.zeros(3))
    tr = predict("AISE/FS", np.zeros(3), est, 10, 0.01)
    assert tr.fallback_used
    expected = va_predict(np.zeros(3), v, a, 10, 0.01)
    np.testing.assert_array_equal(tr.positions, expected.positions)
    assert tr.method == "AISE/FS"


def test_fs_exact_on_helix_through_dispatch():
    t_s = 0.01
    P, V, A, J = truth_arrays("helical", 100, t_s)
    est = DerivativeEstimate(v=V[0], a=A[0], j=J[0])
    tr = predict("AISE/FS", P[0], est, 100, t_s)
    assert not tr.fallback_used
    assert np.linalg.norm(tr.positions[99] - P[100]) < 1e-6


@pytest.mark.parametrize("method", METHODS)
def test_prefix_consistency(method):
    t_s = 0.01
    p, v, a, j = (x[10] for x in truth_arrays("helical", 10, t_s))
    est = DerivativeEstimate(v=v, a=a, j=j)
    full = predict(method, p, est, 100, t_s)
    short = predict(method, p, est, 30, t_s)
    np.testing.assert_array_equal(short.positions, full.positions[:30])


_MODERATE = st.floats(min_value=-1e3, max_value=1e3)
_VEC3 = st.lists(_MODERATE, min_size=3, max_size=3).map(np.array)


@settings(max_examples=200, deadline=None)
@given(v=_VEC3, c=_MODERATE, j=_VEC3, p=_VEC3, zero_speed=st.booleans())
def test_fs_falls_back_for_parallel_or_zero_velocity(v, c, j, p, zero_speed):
    v, a = (np.zeros(3), v) if zero_speed else (v, c * v)
    tr = predict("AISE/FS", p, DerivativeEstimate(v=v, a=a, j=j), 7, 0.01, anchor_step=3)
    assert tr.fallback_used and tr.method == "AISE/FS"
    expected = va_predict(p, v, a, 7, 0.01)
    assert tr.positions.tobytes() == expected.positions.tobytes()
