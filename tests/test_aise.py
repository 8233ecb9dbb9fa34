import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from aisepred.aise import (
    AiseConfig,
    AiseFilter,
    benchmark_config,
    f_critical,
    from_fields,
    vrf_lambda,
)


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
    f.step(0.0)  # residual z = 1.0 enters the regressor
    assert f.last.z == 1.0
    assert f.last.d_hat == 0.0


def test_estimate_input_single_tap():
    f = make_filter(n_e=2)
    f.dhat_hist[0] = 1.0  # phi[0] = 1
    f.theta = np.array([0.7, 0.0, 0.0, 0.0, 0.0])
    f.step(0.0)
    assert f.last.d_hat == pytest.approx(0.7)


def test_estimate_input_dot_product():
    # regressor [d(k-1), z(k), z(k-1)] = [0.5, 2.0, 1.0] against [0.1, 0.2, 0.3]
    f = make_filter(n_e=1)
    f.dhat_hist[0] = 0.5
    f.z_hist[0] = 1.0
    f.x_fc = np.array([2.0])
    f.theta = np.array([0.1, 0.2, 0.3])
    f.step(0.0)  # z(k) = 2.0 - 0.0
    np.testing.assert_array_equal(f.last.phi, [0.5, 2.0, 1.0])
    assert f.last.d_hat == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# Forecast
# ---------------------------------------------------------------------------


def test_forecast_all_zero():
    f = make_filter()
    f.step(0.0)
    assert f.last.z == 0.0 and f.last.d_hat == 0.0
    np.testing.assert_array_equal(f.x_fc, [0.0])


def test_forecast_order1_hand_value():
    # x_da = 2.0 (a zero residual leaves the forecast unchanged) and d_hat = 3.0
    # give the next forecast 2.0 + t_s * 3.0.
    f = make_filter()
    f.x_fc = np.array([2.0])
    f.dhat_hist[0] = 1.0
    f.theta = np.zeros(f.cfg.l_theta)
    f.theta[0] = 3.0
    f.step(2.0)
    assert f.last.z == 0.0 and f.last.d_hat == 3.0
    np.testing.assert_array_equal(f.x_da, [2.0])
    assert f.x_fc[0] == pytest.approx(2.03)


def test_forecast_residual_definition():
    # z = forecast output - measurement
    f = make_filter()
    f.x_fc = np.array([1.5])
    f.step(1.0)
    assert f.last.z == pytest.approx(0.5)


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
        f.loop_weights[j] = abar ** (j + 1) * f.model.B
    H = f._filter_weights()
    expected = 0.01 * abar ** np.arange(6)
    np.testing.assert_allclose(H, expected, rtol=1e-12)


def test_filter_regressor_direct_sum():
    # H = (0.01, 0.02) against lagged inputs (1, -1) gives -0.01.
    f = make_filter(n_e=1, n_f=2)
    f.k = 5
    f.loop_weights[0] = 2.0 * f.model.B  # H_2 = 2 * t_s = 0.02
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
    assert f_critical(4, 24) == pytest.approx(stats.f.ppf(0.99, 4, 24), rel=1e-10)
    assert f_critical(9, 40, 0.95) == pytest.approx(stats.f.ppf(0.95, 9, 40), rel=1e-10)


def test_vrf_constant_residuals():
    assert vrf_lambda(np.ones(30), 5, 25, 0.002) == 1.0


def test_vrf_short_history():
    assert vrf_lambda(np.ones(10), 5, 25, 0.002) == 1.0


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


# ---------------------------------------------------------------------------
# RLS update
# ---------------------------------------------------------------------------


def test_rls_no_excitation_no_change():
    f = make_filter(n_e=1)
    theta0 = f.theta.copy()
    p0 = f.p_inv.copy()
    f.rls_update(1.0, np.zeros(3), np.zeros(3), 0.0, 0.0)
    np.testing.assert_array_equal(f.theta, theta0)
    np.testing.assert_array_equal(f.p_inv, p0)


def test_rls_scalar_oracle():
    # One-dimensional instance: P0 = 10, stacked regressor (1, 0),
    # weights diag(1, 0.1), stacked residual (-1, 0):
    # P1^-1 = 0.1 + 1 = 1.1 and theta1 = 1/1.1.
    f = make_filter(n_e=1)
    f.theta = np.zeros(1)
    f.p_inv = np.array([[0.1]])
    f.rls_update(1.0, np.zeros(1), np.ones(1), -1.0, 0.0)
    assert f.p_inv[0, 0] == pytest.approx(1.1)
    assert f.theta[0] == pytest.approx(1.0 / 1.1, rel=1e-12)
    assert f.theta[0] == pytest.approx(0.9091, abs=5e-5)


def test_rls_forgetting_eigenvalue_bound():
    # With no excitation, forgetting pulls the covariance toward the
    # resetting level: max eig P_new <= max(max eig P_old, max eig R_inf^-1).
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = make_filter(n_e=2, r_inf=1e-4)
        M = rng.normal(size=(5, 5))
        f.p_inv = M @ M.T + 0.01 * np.eye(5)
        p_old_max = np.linalg.eigvalsh(np.linalg.inv(f.p_inv)).max()
        lam = rng.uniform(0.2, 0.99)
        f.rls_update(lam, np.zeros(5), np.zeros(5), 0.0, 0.0)
        p_new_max = np.linalg.eigvalsh(np.linalg.inv(f.p_inv)).max()
        bound = max(p_old_max, 1.0 / 1e-4)
        assert p_new_max <= bound * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Data assimilation
# ---------------------------------------------------------------------------


def test_assimilation_zero_uncertainty():
    f = make_filter()
    f.x_fc = np.array([3.0])
    x_da, gain, P_da, _ = f.data_assimilate(z=0.7, eta=0.0, v2=1.0)
    assert gain[0] == 0.0
    np.testing.assert_array_equal(x_da, [3.0])
    assert P_da[0, 0] == 0.0


def test_assimilation_scalar_values():
    f = make_filter()
    f.P_fc = np.array([[1.0]])
    _, gain, P_da, _ = f.data_assimilate(z=0.0, eta=0.0, v2=1.0)
    assert gain[0] == pytest.approx(-0.5)
    assert P_da[0, 0] == pytest.approx(0.5)


def test_forecast_covariance_propagation():
    f = make_filter()
    f.P_fc = np.array([[1.0]])
    eta = 0.25
    _, _, P_da, P_fc_next = f.data_assimilate(z=0.0, eta=eta, v2=1.0)
    assert P_fc_next[0, 0] == pytest.approx(P_da[0, 0] + eta)
    assert P_fc_next[0, 0] == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# Noise covariance adaptation
# ---------------------------------------------------------------------------


def _prepared_filter(s_hat, p_da, **overrides):
    """Filter forced past warmup with a chosen residual variance and P_da."""
    f = make_filter(**overrides)
    f.k = f.adapt_start
    f._res_count = 101
    f._res_m2 = s_hat * 100
    f.P_da = np.atleast_2d(p_da).astype(float)
    return f


def test_adapt_warmup_values():
    f = make_filter()
    eta, v2 = f.adapt_noise_covariances()
    assert eta == f.cfg.eta_init
    assert v2 == 1.0  # no residuals yet
    f._res_count = 5
    f._res_m2 = 0.8
    eta, v2 = f.adapt_noise_covariances()
    assert v2 == pytest.approx(0.2)


def test_adapt_interpolated_grid_example():
    # Two-point grid {0.1, 1.0}: surpluses are {1.4, 0.5}; the 0.55/0.45
    # blend targets 0.905, whose nearest surplus is 0.5 at the upper level.
    f = _prepared_filter(2.0, 0.5, eta_l=0.1, eta_u=1.0, eta_grid_points=2,
                         beta=0.55, eta_init=0.5, eta_rule="interpolated")
    eta, v2 = f.adapt_noise_covariances()
    assert eta == pytest.approx(1.0)
    assert v2 == pytest.approx(0.5)


def test_adapt_floor_grid_example():
    # Same setup under the floor rule: smallest admissible level wins.
    f = _prepared_filter(2.0, 0.5, eta_l=0.1, eta_u=1.0, eta_grid_points=2,
                         beta=0.55, eta_init=0.5, eta_rule="floor")
    eta, v2 = f.adapt_noise_covariances()
    assert eta == pytest.approx(0.1)
    assert v2 == pytest.approx(1.4)


def test_adapt_beta_one_targets_min_positive():
    f = _prepared_filter(2.0, 0.5, eta_l=0.01, eta_u=1.0, eta_grid_points=20,
                         beta=1.0, eta_init=0.5, eta_rule="interpolated")
    eta, v2 = f.adapt_noise_covariances()
    surplus = 2.0 - 0.5 - f._eta_grid
    assert v2 == pytest.approx(surplus[surplus > 0].min())
    assert eta == pytest.approx(f._eta_grid[surplus > 0][-1])


def test_adapt_all_negative_gives_zero_v2():
    f = _prepared_filter(0.1, 5.0)  # surplus negative everywhere
    eta, v2 = f.adapt_noise_covariances()
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
        f = _prepared_filter(s_hat, p_da, eta_rule=rule)
        eta, v2 = f.adapt_noise_covariances()
        surplus = s_hat - p_da - f._eta_grid
        candidate_v2 = np.where(surplus > 0, surplus, 0.0)
        enumerated = np.abs(surplus - candidate_v2).min()
        achieved = abs((s_hat - p_da - eta) - v2)
        assert achieved <= enumerated + 1e-15
        assert f.cfg.eta_l <= eta <= f.cfg.eta_u
        assert v2 >= 0.0


def grid_search_reference(f, forecast_var):
    """The adapted branch of adapt_noise_covariances as a search over the whole grid."""
    s_hat = f._res_m2 / (f._res_count - 1)
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
    f.k, f._res_count, f._res_m2 = f.adapt_start, 2, c + forecast_var
    got = f.adapt_noise_covariances(forecast_var)
    assert got == grid_search_reference(f, forecast_var)
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
    np.linalg.cholesky(f.p_inv)
    np.linalg.cholesky(f.P_rls)


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
        f.step(y)
        d = f.last
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
