import inspect
import math
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaincinv

from aisepred.aise import (
    AiseConfig,
    AiseFilter,
    _tail_exceeds,
    benchmark_config,
    f_critical,
    from_fields,
    vrf_lambda,
)
from reference import information, set_information, step_record


def make_filter(**overrides):
    defaults = dict(order=1, t_s=0.01)
    defaults.update(overrides)
    return AiseFilter(AiseConfig(**defaults))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_config_l_theta():
    assert AiseConfig(n_e=25).l_theta == 51


def test_config_default_parameter_set():
    # The documented single-differentiation tuning.
    cfg = AiseConfig()
    assert (cfg.n_e, cfg.n_f) == (25, 50)
    assert (cfg.r_z, cfg.r_d) == (1.0, 0.1)
    assert cfg.r_theta == pytest.approx(10.0**-3.5)
    assert cfg.r_inf == 1e-4
    assert (cfg.eta_init, cfg.eta_l, cfg.eta_u) == (0.002, 1e-6, 0.1)
    assert cfg.beta == 0.55
    assert (cfg.tau_n, cfg.tau_d, cfg.alpha_vrf) == (5, 25, 0.002)
    assert cfg.eta_rule == "interpolated"


@pytest.mark.parametrize("bad", [
    dict(order=4),
    dict(t_s=0.0),
    dict(r_z=0.0),
    dict(eta_l=0.0),
    dict(eta_l=0.2, eta_u=0.1),
    dict(eta_init=1.0),
    dict(beta=1.5),
    dict(tau_n=1),
    dict(tau_d=5, tau_n=5),
    dict(eta_grid_points=1),
    dict(eta_rule="median"),
    dict(n_f=1),
    # NaN and infinity fail every range check: r_theta=inf would pin the estimate at 0.0,
    # and r_d=nan would raise only at step 0.
    dict(t_s=float("nan")), dict(t_s=float("inf")),
    dict(r_z=float("inf")), dict(r_d=float("nan")),
    dict(r_theta=float("inf")), dict(r_inf=float("nan")),
    dict(eta_u=float("inf")),
    dict(alpha_vrf=float("nan")), dict(alpha_vrf=float("inf")),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        AiseConfig(**bad)


@pytest.mark.parametrize("field, value", [
    ("n_e", 2.5), ("order", True), ("eta_grid_points", 50.0), ("n_f", None), ("adapt_start", 60.0),
])
def test_integer_field_holds_an_int(field, value):
    with pytest.raises(ValueError, match=f"AiseConfig: {field} must be an integer, got {value}"):
        from_fields(AiseConfig, {field: value})


def test_float_field_takes_an_int():
    cfg = from_fields(AiseConfig, {"r_theta": 1, "eta_u": 1, "adapt_start": None})
    assert (cfg.r_theta, cfg.eta_u, cfg.adapt_start) == (1, 1, None)


def test_benchmark_config_orders():
    for order in (1, 2, 3):
        cfg = benchmark_config(order)
        assert cfg.order == order
        assert cfg.l_theta == 51
    assert benchmark_config(3).beta == 0.5


# ---------------------------------------------------------------------------
# Input estimate
# ---------------------------------------------------------------------------


def test_estimate_input_zero_theta():
    f = make_filter()
    f.x_fc = np.array([1.0])
    d = step_record(f, 0.0)  # residual z = 1.0 enters the regressor
    assert d.z == 1.0
    assert d.d_hat == 0.0


def test_estimate_input_single_tap():
    f = make_filter(n_e=2)
    f.dhat_hist[0] = 1.0  # phi[0] = 1
    f.theta = np.array([0.7, 0.0, 0.0, 0.0, 0.0])
    assert step_record(f, 0.0).d_hat == pytest.approx(0.7)


def test_estimate_input_dot_product():
    # regressor [d(k-1), z(k), z(k-1)] = [0.5, 2.0, 1.0] against [0.1, 0.2, 0.3]
    f = make_filter(n_e=1)
    f.dhat_hist[0] = 0.5
    f.z_hist[0] = 1.0
    f.x_fc = np.array([2.0])
    f.theta = np.array([0.1, 0.2, 0.3])
    d = step_record(f, 0.0)  # z(k) = 2.0 - 0.0
    np.testing.assert_array_equal(d.phi, [0.5, 2.0, 1.0])
    assert d.d_hat == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# Forecast
# ---------------------------------------------------------------------------


def test_forecast_all_zero():
    f = make_filter()
    d = step_record(f, 0.0)
    assert d.z == 0.0 and d.d_hat == 0.0
    np.testing.assert_array_equal(f.x_fc, [0.0])


def test_forecast_order1_hand_value():
    # x_da = 2.0 (a zero residual leaves the forecast unchanged) and d_hat = 3.0
    # give the next forecast 2.0 + t_s * 3.0.
    f = make_filter()
    f.x_fc = np.array([2.0])
    f.dhat_hist[0] = 1.0
    f.theta = np.zeros(f.cfg.l_theta)
    f.theta[0] = 3.0
    d = step_record(f, 2.0)
    assert d.z == 0.0 and d.d_hat == 3.0
    np.testing.assert_array_equal(f.x_da, [2.0])
    assert f.x_fc[0] == pytest.approx(2.03)


def test_forecast_residual_definition():
    # z = forecast output - measurement
    f = make_filter()
    f.x_fc = np.array([1.5])
    assert step_record(f, 1.0).z == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Regressor filtering
# ---------------------------------------------------------------------------


def test_filter_regressor_zero_at_start():
    f = make_filter()
    phi_f, dhat_f = f.filter_regressor()
    assert dhat_f == 0.0
    np.testing.assert_array_equal(phi_f, np.zeros(f.cfg.l_theta))


def test_filter_weights_geometric_for_constant_gain():
    # Order 1 with a constant closed-loop factor: the weights are a geometric
    # sequence t_s * (1 + K)^(i-1).
    f = make_filter(n_f=6)
    K = -0.3
    abar = 1.0 + K
    f.k = 10
    for j in range(f.cfg.n_f - 1):
        f.loop_weights[j] = abar ** (j + 1) * f.B
    f.filter_regressor()
    H = f._h  # the weights filter_regressor has just refilled
    expected = 0.01 * abar ** np.arange(6)
    np.testing.assert_allclose(H, expected, rtol=1e-12)


def test_filter_regressor_direct_sum():
    # H = (0.01, 0.02) against lagged inputs (1, -1) gives -0.01.
    f = make_filter(n_e=1, n_f=2)
    f.k = 5
    f.loop_weights[0] = 2.0 * f.B  # H_2 = 2 * t_s = 0.02
    f.dhat_hist[:2] = [1.0, -1.0]
    f.phi_hist[0] = [1.0, 0.0, 0.0]
    f.phi_hist[1] = [0.0, 1.0, 0.0]
    phi_f, dhat_f = f.filter_regressor()
    assert dhat_f == pytest.approx(-0.01)
    np.testing.assert_allclose(phi_f, [0.01, 0.02, 0.0], atol=1e-15)


# ---------------------------------------------------------------------------
# Variable-rate forgetting
# ---------------------------------------------------------------------------


def test_f_critical_matches_scipy():
    # scipy is the oracle here only. Its own quantile is up to several hundred units in the
    # last place of w off the root on this grid (430 at F(10, 197), 0.95), hence 1e-13.
    for quantile in (0.95, 0.99, 0.999):
        for dfn in range(1, 41):
            for dfd in range(dfn + 1, 201):
                w = float(betaincinv(dfn / 2, dfd / 2, quantile))
                expected = dfd * w / (dfn * (1.0 - w))
                assert f_critical(dfn, dfd, quantile) == pytest.approx(expected, rel=1e-13, abs=0)


def test_f_critical_default_is_scipys_double():
    # The default config's forgetting test, F(4, 24) at 0.99: scipy's double, which is also the
    # correctly rounded quantile, so every default-config output is unchanged bit for bit.
    assert f_critical(4, 24) == 4.218445267356267
    assert AiseFilter()._f_crit == 4.218445267356267


@settings(max_examples=200, deadline=None)
@given(half_dfn=st.integers(1, 20), dfd=st.integers(1, 200), x=st.floats(1e-4, 0.9),
       up=st.booleans())
def test_tail_test_is_exact_at_a_near_tie(half_dfn, dfd, x, up):
    # The upper tail of Beta(dfn / 2, dfd / 2) at the midpoint of x and a neighbouring double,
    # in fractions, against a bound p that is the double nearest that tail: the two differ
    # only in the last bits, which the integer test must still order.
    x1 = math.nextafter(x, 1.0 if up else 0.0)
    mid = (Fraction(x) + Fraction(x1)) / 2
    total, term = Fraction(0), Fraction(1)
    for j in range(half_dfn):
        total, term = total + term, term * (Fraction(dfd, 2) + j) / (j + 1) * mid
    tail_squared = (1 - mid) ** dfd * total**2
    p = Fraction(math.sqrt(tail_squared))
    assert _tail_exceeds(x, x1, 2 * half_dfn, dfd, *p.as_integer_ratio()) == (tail_squared > p * p)


@settings(max_examples=200, deadline=None)
@given(dfn=st.integers(1, 40), extra=st.integers(1, 160), quantile=st.floats(0.001, 0.99),
       gap=st.floats(1e-6, 0.009))
def test_f_critical_increases_with_the_quantile(dfn, extra, quantile, gap):
    assert f_critical(dfn, dfn + extra, quantile) < f_critical(dfn, dfn + extra, quantile + gap)


@pytest.mark.parametrize("args", [
    (0, 24), (4, 0), (-1, 24), (4.0, 24), (4, 24.0), ("4", 24),
    (4, 24, 0.0), (4, 24, 1.0), (4, 24, -0.5), (4, 24, 1.5), (4, 24, float("nan")),
])
def test_f_critical_refuses_bad_arguments(args):
    with pytest.raises(ValueError):
        f_critical(*args)


def test_vrf_constant_residuals():
    assert vrf_lambda(np.ones(30), 5, 25, 0.002, f_critical(4, 24)) == 1.0


def test_vrf_short_history():
    assert vrf_lambda(np.ones(10), 5, 25, 0.002, f_critical(4, 24)) == 1.0


def test_vrf_no_rejection_below_critical():
    rng = np.random.default_rng(0)
    z = rng.normal(size=25)
    f_crit = 1e9  # impossible to exceed
    assert vrf_lambda(z, 5, 25, 0.002, f_crit) == 1.0


def test_vrf_formula_on_rejection():
    # Engineered history: arrange for F - F_crit = 100 with alpha = 0.002.
    z = np.zeros(25)
    z[-5:] = [3.0, -3.0, 3.0, -3.0, 3.0]
    var_n = np.var(z[-5:], ddof=1)
    var_d = np.var(z, ddof=1)
    F = var_n / var_d
    f_crit = F - 100.0
    lam = vrf_lambda(z, 5, 25, 0.002, f_crit)
    assert lam == pytest.approx(1.0 / 1.2)
    assert 0.0 < lam <= 1.0


# 3000 windows of 25 residuals from a 64-bit LCG, so every interpreter draws the same floats,
# at scales 2^-20 to 2^20, every third with a burst in its last five; then each one's lambda.
_VRF_WINDOWS = """
def vrf_lambdas(f_crit, count=3000):
    state, lams = 7, []
    def uniform():
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        return (state >> 11) * 2.0**-53 - 0.5
    for i in range(count):
        scale = 2.0 ** (i % 41 - 20)
        window = [scale * (3.0 + uniform()) for _ in range(25)]
        if i % 3 == 0:
            for j in range(20, 25):
                window[j] += scale * 20.0 * uniform()
        lams.append(vrf_lambda(window, 5, 25, 0.002, f_crit).hex())
    return lams
"""


def test_vrf_same_bits_on_every_python():
    # From CPython 3.12 on, sum() over floats is compensated, so a lambda built on it differed
    # between interpreters in 3 of these windows. Each other python3.1x on PATH that starts runs
    # vrf_lambda's source on the same windows and must give the same bits.
    found = (shutil.which(f"python3.{minor}") for minor in range(10, 20)
             if minor != sys.version_info.minor)
    others = [exe for exe in found if exe and subprocess.run(  # a name on PATH may not run
        [exe, "-c", ""], capture_output=True, timeout=60).returncode == 0]
    if not others:
        pytest.skip("no other python3.1x on PATH")
    f_crit = f_critical(4, 24)
    namespace = {"vrf_lambda": vrf_lambda}
    exec(_VRF_WINDOWS, namespace)
    expected = namespace["vrf_lambdas"](f_crit)
    assert sum(lam != (1.0).hex() for lam in expected) > 500  # the test does exercise forgetting
    script = (inspect.getsource(vrf_lambda) + _VRF_WINDOWS
              + f"print(' '.join(vrf_lambdas(float.fromhex({f_crit.hex()!r}))))")
    for exe in others:
        run = subprocess.run([exe, "-c", script], capture_output=True, text=True, check=True,
                             timeout=120)
        got = run.stdout.split()
        assert len(got) == len(expected)
        differ = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
        assert not differ, f"{exe}: lambda differs in windows {differ}"


# ---------------------------------------------------------------------------
# RLS update
# ---------------------------------------------------------------------------


def test_rls_no_excitation_no_change():
    f = make_filter(n_e=1)
    theta0 = f.theta.copy()
    p0 = information(f)
    f.rls_update(1.0, np.zeros(3), np.zeros(3), 0.0, 0.0)
    np.testing.assert_array_equal(f.theta, theta0)
    np.testing.assert_array_equal(information(f), p0)


def test_rls_scalar_oracle():
    # One-dimensional instance: P0 = 10, stacked regressor (1, 0),
    # weights diag(1, 0.1), stacked residual (-1, 0):
    # P1^-1 = 0.1 + 1 = 1.1 and theta1 = 1/1.1.
    f = make_filter(n_e=1)
    f.theta = np.zeros(1)
    set_information(f, np.array([[0.1]]))
    f.rls_update(1.0, np.zeros(1), np.ones(1), -1.0, 0.0)
    assert information(f)[0, 0] == pytest.approx(1.1)
    assert f.theta[0] == pytest.approx(1.0 / 1.1, rel=1e-12)
    assert f.theta[0] == pytest.approx(0.9091, abs=5e-5)


def test_rls_forgetting_eigenvalue_bound():
    # With no excitation, forgetting pulls the covariance toward the
    # resetting level: max eig P_new <= max(max eig P_old, max eig R_inf^-1).
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = make_filter(n_e=2, r_inf=1e-4)
        M = rng.normal(size=(5, 5))
        set_information(f, M @ M.T + 0.01 * np.eye(5))
        p_old_max = np.linalg.eigvalsh(np.linalg.inv(information(f))).max()
        lam = rng.uniform(0.2, 0.99)
        f.rls_update(lam, np.zeros(5), np.zeros(5), 0.0, 0.0)
        p_new_max = np.linalg.eigvalsh(np.linalg.inv(information(f))).max()
        bound = max(p_old_max, 1.0 / 1e-4)
        assert p_new_max <= bound * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Data assimilation
# ---------------------------------------------------------------------------


def test_assimilation_zero_uncertainty():
    f = make_filter()
    f.x_fc = np.array([3.0])
    assert f.data_assimilate(z=1.0, eta=0.0, innov_var=f.P_fc[0, 0] + 1.0) is None
    gain = f.x_da - f.x_fc  # x_da = x_fc + gain z at the unit residual
    assert gain[0] == 0.0
    np.testing.assert_array_equal(f.x_da, [3.0])
    assert f.P_da[0, 0] == 0.0


def test_assimilation_scalar_values():
    f = make_filter()
    f.P_fc = np.array([[1.0]])
    f.data_assimilate(z=1.0, eta=0.0, innov_var=f.P_fc[0, 0] + 1.0)
    gain = f.x_da - f.x_fc  # x_da = x_fc + gain z at the unit residual
    assert gain[0] == pytest.approx(-0.5)
    assert f.P_da[0, 0] == pytest.approx(0.5)


def test_forecast_covariance_propagation():
    f = make_filter()
    f.P_fc = np.array([[1.0]])
    eta = 0.25
    f.data_assimilate(z=0.0, eta=eta, innov_var=f.P_fc[0, 0] + 1.0)
    assert f.P_fc[0, 0] == pytest.approx(f.P_da[0, 0] + eta)
    assert f.P_fc[0, 0] == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# Noise covariance adaptation
# ---------------------------------------------------------------------------


def _adapted_levels(s_hat, p_da, **overrides):
    """A filter forced past warmup with P_da, and its noise levels for residual variance s_hat."""
    f = make_filter(**overrides)
    f.k = f.adapt_start
    f.P_da = np.atleast_2d(p_da).astype(float)
    return f, f._noise_levels(s_hat, float(f.A[0].dot(f.P_da).dot(f.A[0])))


def test_adapt_warmup_values():
    f = make_filter()
    eta, v2 = f._noise_levels(None, None)
    assert eta == f.cfg.eta_init
    assert v2 == 1.0  # no residuals yet
    eta, v2 = f._noise_levels(0.2, None)
    assert v2 == 0.2


def test_adapt_interpolated_grid_example():
    # Two-point grid {0.1, 1.0}: surpluses are {1.4, 0.5}; the 0.55/0.45
    # blend targets 0.905, whose nearest surplus is 0.5 at the upper level.
    _, (eta, v2) = _adapted_levels(2.0, 0.5, eta_l=0.1, eta_u=1.0, eta_grid_points=2,
                                   beta=0.55, eta_init=0.5, eta_rule="interpolated")
    assert eta == pytest.approx(1.0)
    assert v2 == pytest.approx(0.5)


def test_adapt_floor_grid_example():
    # Same setup under the floor rule: smallest admissible level wins.
    _, (eta, v2) = _adapted_levels(2.0, 0.5, eta_l=0.1, eta_u=1.0, eta_grid_points=2,
                                   beta=0.55, eta_init=0.5, eta_rule="floor")
    assert eta == pytest.approx(0.1)
    assert v2 == pytest.approx(1.4)


def test_adapt_beta_one_targets_min_positive():
    f, (eta, v2) = _adapted_levels(2.0, 0.5, eta_l=0.01, eta_u=1.0, eta_grid_points=20,
                                   beta=1.0, eta_init=0.5, eta_rule="interpolated")
    surplus = 2.0 - 0.5 - f._eta_grid
    assert v2 == pytest.approx(surplus[surplus > 0].min())
    assert eta == pytest.approx(f._eta_grid[surplus > 0][-1])


def test_adapt_all_negative_gives_zero_v2():
    f, (eta, v2) = _adapted_levels(0.1, 5.0)  # surplus negative everywhere
    assert v2 == 0.0
    surplus = 0.1 - 5.0 - f._eta_grid
    assert eta == pytest.approx(f._eta_grid[np.argmin(np.abs(surplus))])


@pytest.mark.parametrize("rule", ["interpolated", "floor", "scaled"])
def test_adapt_minimizer_property(rule):
    # The returned pair always attains the exhaustive-enumeration minimum of
    # |surplus(eta) - V2| with V2 chosen per the positive/empty split.
    rng = np.random.default_rng(9)
    for _ in range(50):
        s_hat = rng.uniform(0.001, 3.0)
        p_da = rng.uniform(0.0, 1.0)
        f, (eta, v2) = _adapted_levels(s_hat, p_da, eta_rule=rule)
        surplus = s_hat - p_da - f._eta_grid
        candidate_v2 = np.where(surplus > 0, surplus, 0.0)
        enumerated = np.abs(surplus - candidate_v2).min()
        achieved = abs((s_hat - p_da - eta) - v2)
        assert achieved <= enumerated + 1e-15
        assert f.cfg.eta_l <= eta <= f.cfg.eta_u
        assert v2 >= 0.0


def grid_search_reference(f, s_hat, forecast_var):
    """The adapted branch of _noise_levels as a search over the whole grid."""
    surplus = s_hat - forecast_var - f._eta_grid
    positive = surplus > 0.0
    if positive.any():
        if f.cfg.eta_rule == "floor":
            idx = int(np.argmax(positive))
        elif f.cfg.eta_rule == "scaled":
            anchor = min(max(f.cfg.t_s**2 * s_hat, f.cfg.eta_l), f.cfg.eta_u)
            cand = np.flatnonzero(positive)
            offset = np.abs(np.log(f._eta_grid[cand]) - np.log(anchor))
            idx = int(cand[np.argmin(offset)])
        else:
            pos_vals = surplus[positive]
            target = f.cfg.beta * pos_vals.min() + (1.0 - f.cfg.beta) * pos_vals.max()
            idx = int(np.argmin(np.abs(surplus - target)))
        return float(f._eta_grid[idx]), float(surplus[idx])
    idx = int(np.argmin(np.abs(surplus)))
    return float(f._eta_grid[idx]), 0.0


@st.composite
def surplus_cases(draw):
    """A config and a residual-variance surplus c on, next to, or far from its grid."""
    eta_l = draw(st.floats(1e-9, 1e-1))
    eta_u = eta_l * 10.0 ** draw(st.sampled_from([0.0, 0.5, 3.0, 8.0]))
    cfg = AiseConfig(
        order=1, t_s=draw(st.floats(1e-3, 10.0)), n_e=1, n_f=2,
        eta_l=eta_l, eta_u=eta_u, eta_init=eta_l, beta=draw(st.sampled_from([0.0, 0.55, 1.0])),
        eta_grid_points=draw(st.integers(2, 60)),
        eta_rule=draw(st.sampled_from(["floor", "scaled", "interpolated"])),
    )
    grid = AiseFilter(cfg)._eta_grid
    on_grid = float(grid[draw(st.integers(0, len(grid) - 1))])
    c = draw(st.one_of(
        st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
        st.sampled_from([-np.inf, 0.0, np.inf]).map(lambda to: float(np.nextafter(on_grid, to))),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(0.0, 2.0 * eta_u),
    ))
    forecast_var = draw(st.sampled_from([0.0, 1e-7, 0.25]))
    return cfg, c, forecast_var


# An infinite c puts 0 * inf into the beta blend of both forms when beta is 0 or 1.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(case=surplus_cases())
def test_adapt_closed_form_matches_grid_search(case):
    # The residual variance is c + forecast_var, so the surplus is c when forecast_var
    # is 0 and c rounded through that sum otherwise.
    cfg, c, forecast_var = case
    f = AiseFilter(cfg)
    f.k, s_hat = f.adapt_start, c + forecast_var
    got = f._noise_levels(s_hat, forecast_var)
    assert got == grid_search_reference(f, s_hat, forecast_var)
    assert all(type(value) is float for value in got)


# ---------------------------------------------------------------------------
# Full step
# ---------------------------------------------------------------------------


def test_step_zero_stream_stays_zero():
    f = make_filter()
    for _ in range(120):
        assert f.step(0.0) == 0.0
    assert np.all(f.theta == 0.0)


def test_step_determinism():
    rng = np.random.default_rng(1)
    ys = rng.normal(size=300)
    out1 = AiseFilter(benchmark_config(1)).run(ys)
    out2 = AiseFilter(benchmark_config(1)).run(ys)
    np.testing.assert_array_equal(out1, out2)


def test_step_invariants_on_noisy_run():
    rng = np.random.default_rng(2)
    ys = np.sin(0.05 * np.arange(2000)) + 0.05 * rng.normal(size=2000)
    f = AiseFilter(benchmark_config(1))
    for y in ys:
        f.step(y)
        assert 0.0 < f.lambda_k <= 1.0
        assert f.cfg.eta_l <= f.eta_k <= f.cfg.eta_u
        assert f.v2_k >= 0.0
    # positive definiteness of the coefficient covariance
    np.linalg.cholesky(information(f))
    np.linalg.cholesky(f.P_sqrt @ f.P_sqrt.T)


def test_serialization_roundtrip_exact():
    rng = np.random.default_rng(3)
    ys = rng.normal(size=200)
    f = AiseFilter(benchmark_config(2))
    f.run(ys)
    restored = AiseFilter.from_json(f.to_json())
    np.testing.assert_array_equal(restored.theta, f.theta)
    np.testing.assert_array_equal(restored.P_sqrt, f.P_sqrt)
    np.testing.assert_array_equal(restored.loop_weights, f.loop_weights)
    assert list(restored.z_hist) == list(f.z_hist)
    assert restored.k == f.k
    # continuation is bit-identical
    more = rng.normal(size=100)
    np.testing.assert_array_equal(f.run(more), restored.run(more))


def test_batch_least_squares_equivalence():
    # With the forgetting factor pinned at one, the recursion solves the
    # accumulated regularized least-squares problem exactly.
    cfg = AiseConfig(order=1, t_s=0.01, n_e=3, n_f=5, alpha_vrf=0.0)
    f = AiseFilter(cfg)
    rng = np.random.default_rng(8)
    records = []
    for y in rng.normal(size=50):
        d = step_record(f, y)
        records.append((d.phi.copy(), d.phi_f.copy(), d.z, d.dhat_f))
        assert d.lam == 1.0
    lt = cfg.l_theta
    G = cfg.r_theta * np.eye(lt)
    b = np.zeros(lt)
    for phi, phi_f, z, dhat_f in records:
        G += cfg.r_z * np.outer(phi_f, phi_f) + cfg.r_d * np.outer(phi, phi)
        b -= cfg.r_z * (z - dhat_f) * phi_f
    theta_batch = np.linalg.solve(G, b)
    np.testing.assert_allclose(f.theta, theta_batch, rtol=1e-8, atol=1e-12)


def test_short_ramp_tracking_sanity():
    # Fast functional check; the acceptance suite tests the full tolerance.
    t = np.arange(2500) * 0.01
    f = AiseFilter(benchmark_config(1))
    d = f.run(3.0 * t)
    assert abs(d[-1] - 3.0) / 3.0 < 0.05
