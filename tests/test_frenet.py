import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisepred.frenet import (
    DegenerateGeometry,
    _cross,
    _norm,
    _project_rotation,
    frenet_model,
    fs_predict,
    gamma0,
    gamma1,
    hat,
    scalar_params,
)
from aisepred.scenarios import truth_arrays
from reference import project_rotation_det, series_rotation_exp, simpson_rotation_integral


def helix_at(k, t_s=0.01):
    """(p, v, a, j) of the helix at step k."""
    return [x[k] for x in truth_arrays("helical", k, t_s)]


def test_hat_zero():
    np.testing.assert_array_equal(hat([0, 0, 0]), np.zeros((3, 3)))


def test_hat_cross_product_identity():
    e1, e2, e3 = np.eye(3)
    np.testing.assert_allclose(hat(e3) @ e1, e2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        w, v = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(hat(w) @ v, np.cross(w, v), atol=1e-15)
        np.testing.assert_allclose(hat(w).T, -hat(w))


def test_frame_axis_aligned_circle():
    t_vec, n_vec, b_vec = frenet_model([1, 0, 0], [0, 1, 0], [0, 0, 0]).R.T
    np.testing.assert_allclose(t_vec, [1, 0, 0])
    np.testing.assert_allclose(n_vec, [0, 1, 0])
    np.testing.assert_allclose(b_vec, [0, 0, 1])


def test_frame_orthonormal_on_helix():
    _, v, a, j = helix_at(0)
    t_vec, n_vec, b_vec = frenet_model(v, a, j).R.T
    for u in (t_vec, n_vec, b_vec):
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
    assert abs(b_vec @ t_vec) < 1e-12
    assert abs(b_vec @ n_vec) < 1e-12
    assert abs(t_vec @ n_vec) < 1e-12


def test_frame_degenerate_when_parallel():
    with pytest.raises(DegenerateGeometry):
        frenet_model([1, 2, 3], [2, 4, 6], [0, 0, 0])
    with pytest.raises(DegenerateGeometry):
        frenet_model([0, 0, 0], [1, 0, 0], [0, 0, 0])


def test_helix_scalar_params():
    _, v, a, j = helix_at(0)
    u, kappa, tau = scalar_params(v, a, j)
    assert u == pytest.approx(np.sqrt(101.0), abs=1e-12)
    assert kappa == pytest.approx(5.0 / 101.0, abs=1e-12)
    assert tau == pytest.approx(-0.5 / 101.0, abs=1e-12)


def test_parabola_scalar_params():
    # launch state of the planar trajectory: v = (400, 400), a = (0, -9.8)
    v = np.array([400.0, 400.0, 0.0])
    a = np.array([0.0, -9.8, 0.0])
    j = np.zeros(3)
    u, kappa, tau = scalar_params(v, a, j)
    assert u == pytest.approx(400.0 * np.sqrt(2.0))
    assert kappa == pytest.approx(3920.0 / (400.0 * np.sqrt(2.0)) ** 3, rel=1e-12)
    assert tau == 0.0


def test_planar_motion_has_zero_torsion():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = np.append(rng.normal(size=2), 0.0)
        a = np.append(rng.normal(size=2), 0.0)
        j = np.append(rng.normal(size=2), 0.0)
        if np.linalg.norm(np.cross(v, a)) < 1e-6:
            continue
        _, _, tau = scalar_params(v, a, j)
        assert abs(tau) < 1e-12


def test_scaling_behavior():
    # Scaling all derivatives by c leaves the frame fixed, scales the speed
    # by c, the curvature/torsion by 1/c, and leaves the turning rates fixed.
    _, v, a, j = helix_at(7)
    c = 3.7
    u1, k1, t1 = scalar_params(v, a, j)
    u2, k2, t2 = scalar_params(c * v, c * a, c * j)
    assert u2 == pytest.approx(c * u1, rel=1e-12)
    assert k2 == pytest.approx(k1 / c, rel=1e-12)
    assert t2 == pytest.approx(t1 / c, rel=1e-12)
    assert u2 * k2 == pytest.approx(u1 * k1, rel=1e-12)
    R1 = frenet_model(v, a, j).R
    R2 = frenet_model(c * v, c * a, c * j).R
    np.testing.assert_allclose(R1, R2, atol=1e-12)


def test_omega_matches_frenet_coefficient_matrix():
    model = frenet_model(*helix_at(0)[1:])
    kappa = model.u * model.kappa_t
    tau = model.u * model.tau_t
    expected = np.array([
        [0.0, -kappa, 0.0],
        [kappa, 0.0, -tau],
        [0.0, tau, 0.0],
    ])
    np.testing.assert_allclose(hat(model.omega), expected, atol=1e-14)
    assert model.omega[1] == 0.0


def test_frenet_model_rotation_invariants():
    model = frenet_model(*helix_at(123)[1:])
    np.testing.assert_allclose(model.R.T @ model.R, np.eye(3), atol=1e-10)
    assert np.linalg.det(model.R) == pytest.approx(1.0, abs=1e-10)


def test_gamma0_identity_at_zero():
    np.testing.assert_array_equal(gamma0([0, 0, 0]), np.eye(3))


def test_gamma0_quarter_turn():
    R = gamma0(np.array([0.0, 0.0, np.pi / 2]))
    np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def test_gamma0_matches_series_exponential():
    rng = np.random.default_rng(20240615)
    for _ in range(100):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        phi = direction * rng.uniform(0.0, np.pi)
        np.testing.assert_allclose(gamma0(phi), series_rotation_exp(phi), atol=1e-9)


def test_gamma0_is_rotation_both_branches():
    rng = np.random.default_rng(5)
    mags = [1e-6, 5e-5, 9e-5, 2e-4, 0.5, np.pi]
    for mag in mags:
        for _ in range(5):
            d = rng.normal(size=3)
            phi = d / np.linalg.norm(d) * mag
            R = gamma0(phi)
            np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-9)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)


def test_gamma1_identity_at_zero():
    np.testing.assert_array_equal(gamma1([0, 0, 0]), np.eye(3))


def test_gamma1_matches_quadrature():
    rng = np.random.default_rng(77)
    t_s = 0.01
    for _ in range(20):
        w = rng.normal(size=3) * rng.uniform(0.5, 50.0)
        reference = simpson_rotation_integral(w, t_s, panels=10_000)
        np.testing.assert_allclose(t_s * gamma1(w * t_s), reference, atol=1e-8)


def test_gamma_branch_boundary_consistency():
    # Closed form and series agree at the small-angle switchover.
    d = np.array([1.0, -2.0, 0.5])
    d /= np.linalg.norm(d)
    for mag in (0.99e-4, 1.01e-4):
        phi = d * mag
        g0_closed = np.eye(3) + (np.sin(mag) / mag) * hat(phi) + (
            (1 - np.cos(mag)) / mag**2
        ) * (hat(phi) @ hat(phi))
        np.testing.assert_allclose(gamma0(phi), g0_closed, atol=1e-12)
        g1_closed = np.eye(3) + ((1 - np.cos(mag)) / mag**2) * hat(phi) + (
            (mag - np.sin(mag)) / mag**3
        ) * (hat(phi) @ hat(phi))
        np.testing.assert_allclose(gamma1(phi), g1_closed, atol=1e-12)


def test_fs_predict_straight_line_when_omega_zero():
    from aisepred.frenet import FrenetModel

    R = np.eye(3)
    model = FrenetModel(R=R, u=2.0, kappa_t=0.0, tau_t=0.0, omega=np.zeros(3))
    t_s = 0.01
    traj = fs_predict([1.0, 2.0, 3.0], model, 50, t_s)
    for l in range(1, 51):
        np.testing.assert_allclose(traj[l - 1], [1.0 + 2.0 * l * t_s, 2.0, 3.0], atol=1e-12)


def _circle_state(radius, rate, t):
    p = radius * np.array([np.cos(rate * t), np.sin(rate * t), 0.0])
    v = radius * rate * np.array([-np.sin(rate * t), np.cos(rate * t), 0.0])
    a = -radius * rate**2 * np.array([np.cos(rate * t), np.sin(rate * t), 0.0])
    j = radius * rate**3 * np.array([np.sin(rate * t), -np.cos(rate * t), 0.0])
    return p, v, a, j


def test_fs_predict_exact_on_circle():
    radius, rate, t_s = 50.0, 0.3, 0.01
    p, v, a, j = _circle_state(radius, rate, 0.0)
    model = frenet_model(v, a, j)
    traj = fs_predict(p, model, 100, t_s)
    for l in (1, 10, 100):
        expected, _, _, _ = _circle_state(radius, rate, l * t_s)
        assert np.linalg.norm(traj[l - 1] - expected) < 1e-9 * radius


def test_fs_predict_exact_on_helix():
    t_s = 0.01
    P, V, A, J = truth_arrays("helical", 100, t_s)
    model = frenet_model(V[0], A[0], J[0])
    traj = fs_predict(P[0], model, 100, t_s)
    for l in (1, 25, 100):
        assert np.linalg.norm(traj[l - 1] - P[l]) < 1e-6


def test_fs_predict_single_step_matches_one_step_update():
    t_s = 0.01
    p, v, a, j = helix_at(5, t_s)
    model = frenet_model(v, a, j)
    traj = fs_predict(p, model, 1, t_s)
    expected = p + t_s * model.R @ gamma1(model.omega * t_s) @ np.array([model.u, 0, 0])
    np.testing.assert_array_equal(traj[0], expected)


# Vector components for the helper properties: signed zeros, subnormals and
# magnitudes from 1e-150 to 1e150, besides hypothesis' own float choices.
_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                            -1e-310, 1e-150, -1e150])
_SCALED = st.builds(lambda m, e: m * 10.0**e, st.floats(-9.99, 9.99), st.integers(-150, 149))
_COMPONENT = st.one_of(st.floats(min_value=-1e150, max_value=1e150), _SPECIAL, _SCALED)
_VEC3 = st.lists(_COMPONENT, min_size=3, max_size=3).map(np.array)


@settings(max_examples=400, deadline=None)
@given(a=_VEC3, b=_VEC3)
def test_cross_helper_is_np_cross_bit_for_bit(a, b):
    ours, ref = _cross(a, b), np.cross(a, b)
    assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()


@settings(max_examples=400, deadline=None)
@given(x=_VEC3)
def test_norm_helper_is_np_linalg_norm_bit_for_bit(x):
    ours, ref = _norm(x), np.linalg.norm(x)
    assert type(ours) is type(ref) and ours.tobytes() == ref.tobytes()


_MODERATE = st.floats(min_value=-1e3, max_value=1e3)


@settings(max_examples=200, deadline=None)
@given(v=st.lists(_MODERATE, min_size=3, max_size=3).map(np.array),
       c=_MODERATE, j=st.lists(_MODERATE, min_size=3, max_size=3).map(np.array))
def test_frenet_model_degenerate_for_parallel_or_zero_velocity(v, c, j):
    with pytest.raises(DegenerateGeometry):
        frenet_model(v, c * v, j)
    with pytest.raises(DegenerateGeometry):
        frenet_model(np.zeros(3), v, j)


def test_project_rotation_reflects_as_the_det_rule_does():
    # The reflection branch reads the sign of the columns' triple product, which is det R;
    # |det R| is 1 to rounding, so the branch is the one np.linalg.det picks.
    rng = np.random.default_rng(11)
    drifted = np.linalg.matrix_power(gamma0([0.3, -0.2, 0.5]), 64)
    cases = [np.diag([1.0, 1.0, -1.0]), -np.eye(3), drifted, -drifted]
    cases += [rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3, 3) for _ in range(400)]
    reflected = 0
    for M in cases:
        R = _project_rotation(M)
        np.testing.assert_array_equal(R, project_rotation_det(M))
        assert np.linalg.det(R) > 0
        reflected += np.linalg.det(M) < 0  # the sign of det(U Vt)
    assert reflected > 150
