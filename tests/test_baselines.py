import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are, solve_discrete_lyapunov

from aisepred.baselines import AbgFilter, BdbDifferentiator, ButterworthCascade, abg_gains
from aisepred.integrators import build_integrator
from reference import abg_error_dynamics_eigenvalues


# ---------------------------------------------------------------------------
# Butterworth cascade
# ---------------------------------------------------------------------------


def frequency_response(cascade, w):
    """Complex response H(e^{jw}) evaluated directly from the section coefficients."""
    zinv = np.exp(-1j * np.asarray(w, dtype=float))
    H = np.ones_like(zinv, dtype=complex)
    for b0, b1, b2, a0, a1, a2 in cascade.sections:
        H *= (b0 + b1 * zinv + b2 * zinv**2) / (a0 + a1 * zinv + a2 * zinv**2)
    return H


def test_butterworth_dc_gain():
    f = ButterworthCascade()
    H0 = frequency_response(f, np.array([0.0]))[0]
    assert abs(abs(H0) - 1.0) < 1e-10


def test_butterworth_cutoff_magnitude():
    f = ButterworthCascade()
    Hc = frequency_response(f, np.array([0.8 * np.pi]))[0]
    assert abs(abs(Hc) - 1.0 / np.sqrt(2.0)) < 1e-6


def test_butterworth_constant_input_no_transient():
    f = ButterworthCascade()
    out = f.filter(np.full(50, 3.25))
    np.testing.assert_allclose(out, 3.25, atol=1e-9)


def test_butterworth_impulse_energy_matches_frequency_oracle():
    # Parseval: the impulse-response energy equals the mean squared magnitude
    # of the frequency response over a dense uniform grid.
    # A leading zero sample sets the primed internal state to rest, so the
    # second sample excites the true impulse response.
    f = ButterworthCascade()
    n = 1 << 14
    impulse = np.zeros(n + 1)
    impulse[1] = 1.0
    h = f.filter(impulse)[1:]
    energy_time = float((h**2).sum())
    w = 2.0 * np.pi * np.arange(n) / n
    energy_freq = float((np.abs(frequency_response(f, w)) ** 2).mean())
    assert abs(energy_time - energy_freq) < 1e-9


def test_butterworth_causality():
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    f1 = ButterworthCascade()
    full = f1.filter(x)
    f2 = ButterworthCascade()
    prefix = f2.filter(x[:120])
    np.testing.assert_array_equal(full[:120], prefix)


@pytest.mark.parametrize("order,cutoff", [(9, 1.0), (0, 1.0), (10, 0.0), (10, np.pi)])
def test_butterworth_invalid_design(order, cutoff):
    with pytest.raises(ValueError):
        ButterworthCascade(order=order, cutoff=cutoff)


# ---------------------------------------------------------------------------
# Backward-difference differentiator
# ---------------------------------------------------------------------------


def test_bdb_constant_stream():
    bdb = BdbDifferentiator(0.01)
    for _ in range(100):
        v, a = bdb.step(5.0)
    assert abs(v) < 1e-9
    assert abs(a) < 1e-7


def test_bdb_ramp_velocity():
    t_s = 0.01
    bdb = BdbDifferentiator(t_s)
    c = 2.0
    for k in range(400):
        v, a = bdb.step(c * k * t_s)
    assert abs(v - c) / c < 1e-3
    assert abs(a) < 0.1


def test_bdb_quadratic_acceleration():
    t_s = 0.01
    bdb = BdbDifferentiator(t_s)
    g = 9.8
    for k in range(600):
        v, a = bdb.step(0.5 * g * (k * t_s) ** 2)
    assert abs(a - g) / g < 0.01


def bursty_positions(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) * 0.01
    noise = 0.1 * rng.normal(size=n)
    noise[np.arange(n) % 40 >= 37] *= 30.0
    return 5.0 * np.cos(2.0 * t) + noise


def test_butterworth_filter_in_chunks_equals_sample_by_sample():
    x = bursty_positions(300)
    stepped = ButterworthCascade()
    expected = np.concatenate([stepped.filter([v]) for v in x])
    whole = ButterworthCascade()
    np.testing.assert_array_equal(whole.filter(x[:100]), expected[:100])
    np.testing.assert_array_equal(whole.filter(x[100:]), expected[100:])


@pytest.mark.parametrize("order", range(2, 21, 2))
def test_butterworth_equals_scipy_signal_bit_for_bit(order):
    # scipy.signal is the oracle here only: the package designs and filters without it.
    from scipy.signal import butter, sosfilt, sosfilt_zi

    rng = np.random.default_rng(order)
    for cutoff in [*rng.uniform(0.01, np.pi - 0.01, 20), 0.8 * np.pi]:
        sections = butter(order, cutoff / np.pi, output="sos")
        zi = sosfilt_zi(sections)
        x = bursty_positions(300, seed=order)
        expected, _ = sosfilt(sections, x, zi=zi * x[0])
        whole, chunked = ButterworthCascade(order, cutoff), ButterworthCascade(order, cutoff)
        np.testing.assert_array_equal(whole.sections, sections)
        np.testing.assert_array_equal(whole._zi_unit, zi)
        np.testing.assert_array_equal(whole.filter(x), expected)
        got = [chunked.filter(x[:1]), chunked.filter(x[1:120]), chunked.filter(x[120:])]
        np.testing.assert_array_equal(np.concatenate(got), expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 500])
def test_bdb_run_equals_stacked_step(n):
    # The whole-stream differences equal step() sample by sample, bit for bit,
    # from a fresh differentiator and when continuing after earlier samples.
    x = bursty_positions(n + 3, seed=n)
    ref = BdbDifferentiator(0.01)
    v, a = np.array([ref.step(p) for p in x]).T
    fresh = BdbDifferentiator(0.01)
    for got, want in zip(fresh.run(x[:n]), (v[:n], a[:n]), strict=True):
        np.testing.assert_array_equal(got, want)
    cont = BdbDifferentiator(0.01)
    for p in x[:n]:
        cont.step(p)
    for got, want in zip(cont.run(x[n:]), (v[n:], a[n:]), strict=True):
        np.testing.assert_array_equal(got, want)
    assert cont.step(1.0) == ref.step(1.0)
    assert fresh.run(np.empty(0))[0].shape == (0,)


def test_abg_run_equals_stacked_step():
    x = bursty_positions(300)
    ref = AbgFilter(0.6, 0.01)
    expected = np.array([ref.step(p) for p in x]).T
    np.testing.assert_array_equal(AbgFilter(0.6, 0.01).run(x), expected)


# ---------------------------------------------------------------------------
# Tracking-index gains
# ---------------------------------------------------------------------------


def test_abg_gains_match_goldens():
    alpha, beta, gamma = abg_gains(0.6, 0.01)
    assert alpha == pytest.approx(0.30465079975592135, rel=1e-8)
    assert beta == pytest.approx(0.05519425579661558, rel=1e-8)
    assert gamma == pytest.approx(0.0025016280303427315, rel=1e-8)


@pytest.mark.parametrize("gamma_index,t_s", [(0.06, 0.1), (6.0, 0.001)])
def test_abg_gains_depend_only_on_index_times_sample_time(gamma_index, t_s):
    # The tracking index has units of 1/s: the gains are a function of gamma_index * t_s.
    np.testing.assert_allclose(abg_gains(gamma_index, t_s), abg_gains(0.6, 0.01), rtol=1e-12)


def test_abg_gains_vanish_monotonically():
    t_s = 0.01
    gains = [abg_gains(gi, t_s) for gi in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)]
    arr = np.array(gains)
    assert np.all(np.diff(arr, axis=0) < 0)
    assert np.all(arr[-1] < 1e-2)


# At 1e-10 the oracle's Lyapunov solve is ill-conditioned, and scipy warns of it.
@pytest.mark.parametrize("gamma_index", [
    pytest.param(1e-10, marks=pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")),
    1e-5, 0.05, 0.6, 2.0, 1e3, 1e6, 1e10, 1e20, 1e30, 1e40])
def test_abg_fixed_point_residual(gamma_index):
    # The gains are a fixed point of one Riccati sweep: the predicted covariance a tracker with
    # these gains holds in steady state gives these gains back. In the coordinates
    # (p, t_s v, t_s^2 a / 2) the correction is (alpha, beta, gamma) itself, the transition is
    # the Pascal matrix, and the jerk noise enters as (gamma_index * t_s) * (1/6, 1/2, 1/2).
    t_s = 0.01
    k = np.array(abg_gains(gamma_index, t_s))
    A = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
    b = gamma_index * t_s * np.array([1.0 / 6.0, 0.5, 0.5])
    closed = A - np.outer(A @ k, [1.0, 0.0, 0.0])
    P_pred = solve_discrete_lyapunov(closed, np.outer(A @ k, A @ k) + np.outer(b, b))
    k_next = P_pred[:, 0] / (P_pred[0, 0] + 1.0)
    assert np.max(np.abs(k_next - k) / k) <= 1e-12


@pytest.mark.parametrize("gamma_index", [0.05, 0.6, 2.0, 1e3])
def test_abg_gains_match_the_riccati_solution(gamma_index):
    # The predicted covariance solves the discrete algebraic Riccati equation of the
    # constant-acceleration model, with the jerk noise of the tracking-index definition.
    t_s = 0.01
    A, B = build_integrator(3, t_s)
    Q = (gamma_index / t_s**2) ** 2 * np.outer(B, B)
    P_pred = solve_discrete_are(A.T, np.array([[1.0], [0.0], [0.0]]), Q, np.ones((1, 1)))
    K = P_pred[:, 0] / (P_pred[0, 0] + 1.0)
    np.testing.assert_allclose(abg_gains(gamma_index, t_s),
                               [K[0], K[1] * t_s, K[2] * t_s**2 / 2.0], rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(log_lam=st.floats(-30.0, 45.0))
def test_abg_gains_are_stable_across_the_index_range(log_lam):
    # At t_s = 1 the index is lam = gamma_index * t_s itself.
    lam = 10.0**log_lam
    alpha, beta, gamma = abg_gains(lam, 1.0)
    assert all(0.0 < g < math.inf for g in (alpha, beta, gamma))
    assert np.max(np.abs(abg_error_dynamics_eigenvalues(alpha, beta, gamma, 1.0))) < 1.0
    if lam <= 1.0:
        assert lam**2 * (1.0 - alpha) == pytest.approx(4.0 * gamma**2, rel=1e-12)


def test_abg_error_dynamics_stable():
    # At index 1e-30 the Riccati solver returned alpha = -0.5, an unstable tracker.
    for gamma_index in (1e-30, 0.6):
        alpha, beta, gamma = abg_gains(gamma_index, 0.01)
        eigs = abg_error_dynamics_eigenvalues(alpha, beta, gamma, 0.01)
        assert np.max(np.abs(eigs)) < 1.0


def test_abg_large_tracking_index_builds_at_once():
    # The predicted covariance grows as (index / t_s^2)^2, past any absolute tolerance an
    # iterated Riccati recursion could stop at; the closed form iterates nothing.
    start = time.perf_counter()
    filt = AbgFilter(1e6, 0.01)
    assert time.perf_counter() - start < 1.0
    eigs = abg_error_dynamics_eigenvalues(filt.alpha, filt.beta, filt.gamma, 0.01)
    assert np.max(np.abs(eigs)) < 1.0


def test_abg_invalid_tracking_index():
    # Refused by name: not an OverflowError, a ZeroDivisionError, scipy's LinAlgError
    # or NaN gains.
    unformed = "give stable gains in double precision at t_s"
    for gamma_index, t_s, rule in [
        (0.0, 0.01, "be finite and positive"),
        (1e-300, 0.01, f"{unformed} 0.01"),  # lam^2 underflows
        (1e-100, 0.01, f"{unformed} 0.01"),  # the poles round onto the unit circle
        (1e200, 0.01, f"{unformed} 0.01"),   # lam^2 overflows
        (1.7e308, 1.0, f"{unformed} 1.0"),
    ]:
        with pytest.raises(ValueError) as error:
            abg_gains(gamma_index, t_s)
        assert str(error.value) == f"tracking index must {rule}, got {gamma_index}"


@pytest.mark.parametrize("gamma_index", [float("nan"), float("inf")])
def test_abg_non_finite_tracking_index_rejected_at_once(gamma_index):
    # Before the check, the Riccati iteration ran its 10^6 steps and then raised RuntimeError.
    with pytest.raises(ValueError, match="tracking index must be finite and positive"):
        abg_gains(gamma_index, 0.01)


@pytest.mark.parametrize("build", [lambda t_s: build_integrator(2, t_s), BdbDifferentiator,
                                   lambda t_s: AbgFilter(0.6, t_s)],
                         ids=["build_integrator", "BdbDifferentiator", "AbgFilter"])
@pytest.mark.parametrize("t_s", [0.0, -0.01, float("nan"), float("inf")])
def test_bad_sample_time_rejected_at_construction(build, t_s):
    # Refused up front: a NaN t_s would give NaN BDB velocities and an infinite one zeros.
    with pytest.raises(ValueError, match="t_s must be finite and positive, got"):
        build(t_s)


# ---------------------------------------------------------------------------
# Tracker recursion
# ---------------------------------------------------------------------------


def test_abg_zero_residual_invariance():
    filt = AbgFilter(0.6, 0.01)
    filt.step(1.0)  # primes position
    for _ in range(20):
        # feed the filter its own prediction: correction must vanish
        p_pred = filt.p + filt.t_s * filt.v + 0.5 * filt.t_s**2 * filt.a
        v_pred = filt.v + filt.t_s * filt.a
        a_pred = filt.a
        p, v, a = filt.step(p_pred)
        assert p == pytest.approx(p_pred, abs=1e-12)
        assert v == pytest.approx(v_pred, abs=1e-12)
        assert a == pytest.approx(a_pred, abs=1e-12)


def test_abg_converges_on_constant_acceleration():
    t_s = 0.01
    filt = AbgFilter(0.6, t_s)
    a_true, v0 = -9.8, 400.0
    last = None
    for k in range(4000):
        t = k * t_s
        last = filt.step(v0 * t + 0.5 * a_true * t**2)
    p, v, a = last
    t = 3999 * t_s
    assert abs(p - (v0 * t + 0.5 * a_true * t**2)) < 1e-6
    assert abs(v - (v0 + a_true * t)) < 1e-5
    assert abs(a - a_true) < 1e-5


def test_abg_reconverges_after_acceleration_step():
    t_s = 0.01
    filt = AbgFilter(0.6, t_s)
    # constant velocity, then a sudden acceleration change
    history = []
    p = v = 0.0
    for k in range(6000):
        a_true = 0.0 if k < 3000 else 5.0
        v += a_true * t_s
        p += v * t_s + 0.5 * a_true * t_s**2
        est = filt.step(p)
        history.append(abs(est[2] - a_true))
    assert max(history[2900:3000]) < 1e-4   # converged before the switch
    assert max(history[3000:]) < 50.0       # bounded transient
    assert history[-1] < 1e-3               # reconverged
