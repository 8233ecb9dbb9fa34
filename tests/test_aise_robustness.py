"""Bad samples, checkpoint restore, per-step pins, RLS buffers and the arithmetic of AiseFilter."""

import copy
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dgemm

from aisepred.aise import (
    AiseConfig,
    AiseFilter,
    InvalidSample,
    NumericalInvariantError,
    benchmark_config,
    f_critical,
    vrf_lambda,
)
from aisepred.scenarios import add_noise, truth_arrays

N_STREAM = 160


def bursty_stream(seed, n=N_STREAM):
    """Noisy circular motion whose noise grows 30x on the last 3 of every 40 samples."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) * 0.01
    clean = 5.0 * np.cos(2.0 * t)
    noise = 0.1 * rng.normal(size=n)
    noise[np.arange(n) % 40 >= 37] *= 30.0
    return clean + noise


def test_bursty_stream_fires_forgetting():
    # The stream used below exercises the lambda < 1 path of the RLS update.
    f = AiseFilter(benchmark_config(1))
    lams = []
    for y in bursty_stream(0):
        f.step(y)
        lams.append(f.lambda_k)
    assert min(lams) < 1.0


@pytest.mark.parametrize("order", [1, 2])
def test_floor_rule_adapts_only_v2(order):
    # Under eta_rule="floor" eta is the first grid point on every adapted step,
    # and V2 is what is left of the residual-variance surplus, or zero.
    f = AiseFilter(benchmark_config(order))
    assert f.cfg.eta_rule == "floor"
    adapted = 0
    for y in bursty_stream(3, 400):
        f.step(y)
        last = f.last
        if last.k < f.adapt_start:
            continue
        adapted += 1
        assert last.eta == f._eta_grid[0]
        assert last.v2 == max(last.s_hat - last.forecast_var - f._eta_grid[0], 0.0)
    assert adapted == 400 - f.adapt_start


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_bad_sample_leaves_state_unchanged(order, bad):
    ys = bursty_stream(1)
    f = AiseFilter(benchmark_config(order))
    twin = AiseFilter(benchmark_config(order))
    for y in ys[:100]:
        f.step(y)
        twin.step(y)
    snapshot = f.to_json()
    with pytest.raises(InvalidSample) as info:
        f.step(bad)
    # Callers that guard against ValueError keep catching it.
    assert isinstance(info.value, ValueError)
    assert isinstance(info.value, NumericalInvariantError)
    assert info.value.step == 100
    assert f.to_json() == snapshot
    for y in ys[100:]:
        assert f.step(y) == twin.step(y)
    assert f.to_json() == twin.to_json()


def test_failed_factorization_leaves_coefficients_unchanged():
    f = AiseFilter(benchmark_config(1))
    for y in bursty_stream(2)[:60]:
        f.step(y)
    S = f.P_sqrt.copy()
    f.p_inv = -f.p_inv  # no diagonal lift can make this positive definite
    p_inv, theta = f.p_inv.copy(), f.theta.copy()
    phi = np.ones(len(theta))
    with pytest.raises(NumericalInvariantError):
        f.rls_update(1.0, phi, phi, 0.5, 0.0)
    np.testing.assert_array_equal(f.p_inv, p_inv)
    np.testing.assert_array_equal(f.P_sqrt, S)
    np.testing.assert_array_equal(f.theta, theta)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_failed_rls_update_leaves_step_state_unchanged(order):
    # A step whose RLS update fails commits nothing: not the residual history,
    # not the residual statistics. Restoring P_sqrt makes the retry match a twin.
    ys = bursty_stream(2)
    f = AiseFilter(benchmark_config(order))
    twin = AiseFilter(benchmark_config(order))
    for y in ys[:60]:
        f.step(y)
        twin.step(y)
    good = f.P_sqrt
    f.p_inv = -f.p_inv  # no diagonal lift can make this positive definite
    snapshot = f.to_json()
    with pytest.raises(NumericalInvariantError):
        f.step(0.5)
    assert f.to_json() == snapshot
    f.P_sqrt = good
    assert f.step(0.5) == twin.step(0.5)
    assert f.to_json() == twin.to_json()


@pytest.mark.parametrize("order", [1, 2, 3])
def test_failed_assimilation_leaves_step_state_unchanged(order):
    # The innovation-variance check fails after the RLS update would have run: the
    # step still commits nothing, not theta, P_sqrt, the histories or V2.
    f = AiseFilter(benchmark_config(order))
    twin = AiseFilter(benchmark_config(order))
    for y in bursty_stream(4)[:80]:
        f.step(y)
        twin.step(y)
    good = f.P_fc
    f.P_fc = -1e3 * np.eye(order)  # P_fc[0, 0] + V2 < 0 for any V2 the step can choose
    snapshot = f.to_json()
    with pytest.raises(NumericalInvariantError, match="innovation variance"):
        f.step(0.5)
    assert f.to_json() == snapshot
    f.P_fc = good
    assert f.step(0.5) == twin.step(0.5)
    assert f.to_json() == twin.to_json()


def vrf_lambda_reference(z, tau_n, tau_d, alpha_vrf, f_crit):
    """The variance-ratio test written with np.var(ddof=1)."""
    z = np.asarray(z, dtype=float)
    if len(z) < tau_d:
        return 1.0
    var_n = float(np.var(z[-tau_n:], ddof=1))
    var_d = float(np.var(z[-tau_d:], ddof=1))
    if var_d <= 0.0:
        return 1.0
    ratio = var_n / var_d
    if ratio > f_crit:
        return 1.0 / (1.0 + alpha_vrf * (ratio - f_crit))
    return 1.0


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3])
def test_vrf_lambda_matches_np_var_bit_for_bit(scale):
    rng = np.random.default_rng(int(-np.log10(scale)) + 10)
    f_crit = f_critical(4, 24)
    rejected = 0
    for _ in range(500):
        z = scale * (rng.uniform(-3, 3) + rng.normal(size=40))
        z[-rng.integers(1, 6):] *= rng.uniform(1.0, 10.0)
        for view in (z, z[::-1], z[3:28], z[28:3:-1]):
            # alpha = 1 and a low critical value make lambda sensitive to
            # the last bit of either variance.
            for crit in (f_crit, 0.25):
                lam = vrf_lambda(view, 5, 25, 1.0, crit)
                assert lam == vrf_lambda_reference(view, 5, 25, 1.0, crit)
                rejected += lam < 1.0
    assert rejected > 1000


@settings(max_examples=30, deadline=None)
@given(z=st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1.0]),
                  min_size=40, max_size=40),
       scale=st.sampled_from([1e-6, 1.0, 1e6]),
       crit=st.sampled_from([0.25, 2.0, f_critical(4, 24)]))
def test_vrf_lambda_matches_np_var_at_every_window_length(z, scale, crit):
    # The scalar sums follow numpy's order at every length: sequential below 8 terms,
    # 8 accumulators from 8 on. alpha = 1 makes lambda sensitive to the last bit.
    z = [v * scale for v in z]
    for tau_d in range(3, 41):
        for tau_n in range(2, tau_d):
            lam = vrf_lambda(z, tau_n, tau_d, 1.0, crit)
            assert lam == vrf_lambda_reference(z, tau_n, tau_d, 1.0, crit)
        assert vrf_lambda(np.array(z), 2, tau_d, 1.0, crit) == vrf_lambda(z, 2, tau_d, 1.0, crit)
    # Past 128 terms numpy sums each half of the run on its own.
    long = [v * (1.0 + i / 320) for i, v in enumerate(z * 8)]
    for tau_n, tau_d in ((9, 129), (150, 320), (200, 257)):
        assert vrf_lambda(long, tau_n, tau_d, 1.0, crit) == vrf_lambda_reference(
            long, tau_n, tau_d, 1.0, crit)


@st.composite
def rank_one_cases(draw):
    """A matrix, a vector and a weight, with magnitudes from 1e-100 to 1e100 and signed zeros."""
    size = draw(st.sampled_from([1, 2, 3, 7, 8, 9, 16, 25, 51, 60]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(shape):
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-100, 101, size=shape)
        zero = rng.random(shape) < 0.1
        x[zero] = np.copysign(0.0, rng.normal(size=shape))[zero]
        return x

    weight = draw(st.sampled_from([1.0, 0.1]) | st.floats(1e-6, 1e6))
    return values((size, size)), values(size), weight


@settings(max_examples=200, deadline=None)
@given(case=rank_one_cases())
def test_dgemm_rank_one_update_matches_numpy_outer(case):
    # The in-place accumulate of AiseFilter.rls_update gives the bits of the numpy form,
    # with one exception: BLAS sums the product from +0.0, so where an entry of p is -0.0
    # and v_i v_j is a zero, the result is +0.0 where numpy keeps -0.0. The filter's p_inv
    # starts with no -0.0 entry and gets one only if lambda times a negative subnormal
    # entry underflows to it.
    p, v, weight = case
    expected = p + np.multiply.outer(v, v) * weight
    got = p.copy()
    dgemm(weight, v[:, None], v[None, :], beta=1.0, c=got.T, overwrite_c=1)
    differ = got.view(np.int64) != expected.view(np.int64)
    signed_zero = np.signbit(p) & (p == 0.0) & (np.multiply.outer(v, v) == 0.0)
    assert not (differ & ~signed_zero).any()
    assert (got[differ] == 0.0).all() and not np.signbit(got[differ]).any()
    if not signed_zero.any():
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=30, deadline=None)
@given(order=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2**16),
       split=st.integers(0, N_STREAM))
def test_restore_at_any_step_continues_bit_identically(order, seed, split):
    ys = bursty_stream(seed)
    reference = AiseFilter(benchmark_config(order))
    expected = [reference.step(y) for y in ys]

    f = AiseFilter(benchmark_config(order))
    got = [f.step(y) for y in ys[:split]]
    payload = f.to_json()
    assert not any("spare" in key or "outer" in key for key in json.loads(payload))
    restored = AiseFilter.from_json(payload)
    # Step the original and the restored filter in turn: any buffer shared
    # between them would make one corrupt the other.
    for y in ys[split:]:
        got.append(restored.step(y))
        assert f.step(y) == got[-1]
    assert got == expected
    assert restored.to_json() == reference.to_json() == f.to_json()


# sha256 of to_json() after the first 400 samples of bursty_stream(4, 500),
# and after a filter restored from that checkpoint takes the last 100.
PINNED_CHECKPOINTS = {
    1: ("b59b6440cfaad67f73a1a7a720e45f6793ef5f82b8cb18cc6aa85746531af96d",
        "ad8ceaf6445e443974eddf8889b49d47e733e440733d4f95c654a8f76dc134f4"),
    2: ("12efd64a3c27a1deb860255c0ed8e704e9e89c65c489ad4577ebd8f0aa1f4d14",
        "35f4dffb3ad9c34877c9ed5ca2b1e31910e30b20538ebcdece75ff0f1fc1f60b"),
    3: ("3f746a17aeb58e3b44b2f46923d8f363fb8ba2f6a07b106a225c1ef59e9c742a",
        "0dd14ab56769ce06fbd8dc0d72d8249606529fc182136272ce942db7887763d2"),
}


@pytest.mark.parametrize("order", sorted(PINNED_CHECKPOINTS))
def test_checkpoint_bytes_are_pinned(order):
    digest = lambda payload: hashlib.sha256(payload.encode()).hexdigest()
    ys = bursty_stream(4, 500)
    f = AiseFilter(benchmark_config(order))
    for y in ys[:400]:
        f.step(y)
    payload = f.to_json()
    restored = AiseFilter.from_json(payload)
    for y in ys[400:]:
        restored.step(y)
    assert (digest(payload), digest(restored.to_json())) == PINNED_CHECKPOINTS[order]


def test_small_window_checkpoint_bytes_are_pinned():
    # Windows the benchmark tuning never has: z_hist is tau_d = 12 long, longer than
    # n_e + n_f = 5, and there are 2 closed-loop weight rows. sha256 of to_json() after the
    # first 200 samples of bursty_stream(4, 300), and after a restored filter takes the rest.
    digest = lambda payload: hashlib.sha256(payload.encode()).hexdigest()
    ys = bursty_stream(4, 300)
    f = AiseFilter(AiseConfig(order=2, n_e=2, n_f=3, tau_n=3, tau_d=12))
    for y in ys[:200]:
        f.step(y)
    payload = f.to_json()
    restored = AiseFilter.from_json(payload)
    for y in ys[200:]:
        restored.step(y)
    assert (digest(payload), digest(restored.to_json())) == (
        "329a8710d4f8af644f1c2a9e1f5c5dc9587400c3a7aa43c047c4967483682c22",
        "0b76319cd22205aaa48df1d7d132536a32c19bce2b848fa52183c054dc391f01")


@pytest.mark.parametrize("edit, key", [
    (lambda state: state.pop("z_hist"), "z_hist"),
    (lambda state: state.pop("res_count"), "res_count"),
    (lambda state: state.pop("config"), "config"),
    (lambda state: state.update(rls_cov=[]), "rls_cov"),
    (lambda state: state["config"].update(gain=2.0), "gain"),
    (lambda state: state.update(z_hist=[0.0] * 10), "z_hist"),
    (lambda state: state.update(theta=[0.0] * 3), "theta"),
    (lambda state: state.update(k="7"), "k"),
    (lambda state: state.update(res_mean=None), "res_mean"),
    (lambda state: state.update(eta_k=[0.002]), "eta_k"),
    (lambda state: state["phi_hist"][1].pop(), "phi_hist"),
    (lambda state: state["P_sqrt"][0].__setitem__(0, "1.0"), "P_sqrt"),
    (lambda state: state.update(k=7.5, res_count=2.5), "k"),
    (lambda state: state.update(res_count=30.0), "res_count"),
    (lambda state: state.update(k=True), "k"),
    (lambda state: state.update(k=-1), "k"),
    (lambda state: state.update(res_count=0), "res_count"),
    (lambda state: state.update(res_count=29), "res_count"),
], ids=["missing-z_hist", "missing-res_count", "missing-config", "unknown-key",
        "unknown-config-field", "short-z_hist", "short-theta", "string-k", "null-res_mean",
        "list-eta_k", "ragged-phi_hist", "string-in-P_sqrt", "float-counters", "float-res_count",
        "bool-k", "negative-k", "zero-res_count", "res_count-below-k"])
def test_malformed_checkpoint_is_rejected(edit, key):
    f = AiseFilter(benchmark_config(2))
    for y in bursty_stream(5)[:30]:
        f.step(y)
    state = json.loads(f.to_json())
    edit(state)
    with pytest.raises(ValueError, match=f"'{key}'"):
        AiseFilter.from_json(json.dumps(state))


@pytest.mark.parametrize("version, found", [
    (None, "1"), (1, "1"), (3, "3"), ("2", "'2'"), (2.0, "2.0"), (True, "True")])
def test_unknown_checkpoint_version_is_rejected(version, found):
    # A checkpoint without a version key is the first format, which held p_inv and prodstack.
    f = AiseFilter(benchmark_config(2))
    for y in bursty_stream(5)[:30]:
        f.step(y)
    state = json.loads(f.to_json())
    assert state["version"] == 2
    if version is None:
        del state["version"]
    else:
        state["version"] = version
    with pytest.raises(ValueError, match=f"unsupported checkpoint version {found},"):
        AiseFilter.from_json(json.dumps(state))


def helix_column(axis, seed, n):
    """One axis of the benchmark helix with N(0, 0.1^2) measurement noise."""
    return add_noise(truth_arrays("helical", n - 1, 0.01)[0], 0.1, seed)[:, axis]


# Configs whose every step is pinned: the benchmark orders, an "interpolated" channel,
# small windows (z_hist longer than n_e + n_f, 2 closed-loop weight rows) and variance
# windows of 9 and 40 residuals. Forgetting fires on every one of them.
STEP_PIN_CONFIGS = {
    "benchmark-o1": benchmark_config(1),
    "benchmark-o2": benchmark_config(2),
    "benchmark-o3": benchmark_config(3),
    "interpolated-o2": AiseConfig(order=2, r_theta=1e-2),
    "small-window-o3": AiseConfig(order=3, n_e=2, n_f=3, tau_n=3, tau_d=30, alpha_vrf=0.5),
    "long-vrf-o2": AiseConfig(order=2, r_theta=1e-2, tau_n=9, tau_d=40, alpha_vrf=0.5),
}

# sha256 over every step of bursty_stream(6, 1200) and the x and z helix columns
# (seed 8, 1200 samples): the estimate, each field of `last`, and to_json() every 300
# steps, with the filter replaced by its restored checkpoint at step 600.
PINNED_STEPS = {
    "benchmark-o1": "d7716cfecc67a0404d59dd8dae79429fd01bb91e30bfb8760855be38ed49f222",
    "benchmark-o2": "13c69d457f3f05bf7df82132156e3aa8ea2d8ad817c421a147bf7641ddd5a46a",
    "benchmark-o3": "b8c28051b0e310fd55bd869884fa18ebfdef34cca95aa52ca979f8394205ae37",
    "interpolated-o2": "66d73301002411f01aaaeac807110ac7e2365f0238aef89b2199c29585b75ccd",
    "small-window-o3": "1436ba71f1f00fa6b3b9aee27caaa8d37724b43fc453d7aafda57c8d21463bec",
    "long-vrf-o2": "2ab21586dae8b3f3014ee17a48aa53c0a8eb3a9cb951693a63e4fb822aaef8e0",
}


@pytest.mark.parametrize("name", sorted(STEP_PIN_CONFIGS))
def test_every_step_is_pinned(name):
    digest, forgetting = hashlib.sha256(), 0
    for ys in (bursty_stream(6, 1200), helix_column(0, 8, 1200), helix_column(2, 8, 1200)):
        f = AiseFilter(STEP_PIN_CONFIGS[name])
        for i, y in enumerate(ys):
            estimate, last = f.step(y), f.last
            values = [estimate, last.k, last.z, last.d_hat, last.dhat_f, last.lam,
                      last.eta, last.v2, last.s_hat, last.forecast_var]
            digest.update(repr([v if v is None else float(v) for v in values]).encode())
            digest.update(last.phi.tobytes() + last.phi_f.tobytes())
            forgetting += last.lam < 1.0
            if i % 300 == 299:
                payload = f.to_json()
                digest.update(payload.encode())
                if i == 599:
                    f = AiseFilter.from_json(payload)
    assert forgetting > 0
    assert digest.hexdigest() == PINNED_STEPS[name]


class InformationFormRls:
    """The RLS step in information form, which AiseFilter.rls_update makes on a covariance root."""

    def __init__(self, cfg):
        self.cfg, self.theta = cfg, np.zeros(cfg.l_theta)
        self.p_inv = cfg.r_theta * np.eye(cfg.l_theta)

    def update(self, lam, phi, phi_f, z, dhat_f):
        cfg = self.cfg
        self.p_inv = (lam * self.p_inv + (1.0 - lam) * cfg.r_inf * np.eye(cfg.l_theta)
                      + cfg.r_z * np.outer(phi_f, phi_f) + cfg.r_d * np.outer(phi, phi))
        rhs = (cfg.r_z * (z - dhat_f + phi_f @ self.theta) * phi_f
               + cfg.r_d * (phi @ self.theta) * phi)
        self.theta = self.theta - np.linalg.solve(self.p_inv, rhs)


def assert_close(got, expected, step, p_inv=None):
    """Within 1e-9 relative, or, for theta, within the conditioning of its normal equations.

    Solving p_inv theta = b loses up to cond(p_inv) * eps of relative accuracy in any form:
    with the long variance windows, where cond reaches 3e10, two information-form solvers
    already differ by 1e-7.
    """
    error, size = np.linalg.norm(got - expected), np.linalg.norm(expected)
    if error > 1e-9 * size:
        assert p_inv is not None, f"step {step}: relative error {error / size:.2e}"
        bound = np.finfo(float).eps * np.linalg.cond(p_inv)
        assert error <= bound * size, f"step {step}: relative error {error / size:.2e} > {bound:.2e}"


@pytest.mark.parametrize("name", sorted(STEP_PIN_CONFIGS))
def test_covariance_form_tracks_the_information_form(name):
    # The reference steps its own theta and information matrix on the regressors,
    # residuals and forgetting factors of the filter, over the streams of the step pins.
    forgetting = 0
    for ys in (bursty_stream(6, 1200), helix_column(0, 8, 1200), helix_column(2, 8, 1200)):
        f = AiseFilter(STEP_PIN_CONFIGS[name])
        reference = InformationFormRls(f.cfg)
        for y in ys:
            f.step(y)
            last = f.last
            reference.update(last.lam, last.phi, last.phi_f, last.z, last.dhat_f)
            forgetting += last.lam < 1.0
            assert_close(f.theta, reference.theta, last.k, reference.p_inv)
            assert_close(f.p_inv, reference.p_inv, last.k)
    assert forgetting > 0


@settings(max_examples=20, deadline=None)
@given(order=st.sampled_from([1, 2, 3]), axis=st.sampled_from([0, 2]),
       seed=st.integers(0, 2**16), scale=st.floats(-6.0, 6.0))
def test_covariance_stays_symmetric_and_definite_at_any_scale(order, axis, seed, scale):
    f = AiseFilter(benchmark_config(order))
    for y in helix_column(axis, seed, 200) * 10.0**scale:
        before = copy.deepcopy(f)
        try:
            f.step(y)
        except NumericalInvariantError:
            assert f.to_json() == before.to_json()
            continue
        P = f.P_rls
        assert np.abs(P - P.T).max() <= 1e-12 * np.abs(P).max()
        # P = S S^T = R^T R for the QR factor R of S^T, a Cholesky factor of P whose diagonal
        # is nonzero exactly when P is definite. Far from unit scale P's condition number
        # passes 1e16, where factoring P itself in floating point fails.
        r = np.linalg.qr(f.P_sqrt.T, mode="r")
        assert np.isfinite(r).all() and np.abs(np.diag(r)).min() > 0.0


@pytest.mark.parametrize("order", [1, 2, 3])
def test_no_step_raises_from_1e_minus_6_to_1e6(order):
    # The square-root form keeps the RLS update finite and definite at every scale. A
    # covariance P updated by Sherman-Morrison, and the information form past 1e5 (where
    # its right-hand side overflows), both raise on some of these streams.
    for axis in (0, 2):
        column = helix_column(axis, 0, 200)
        for exponent in range(-6, 7):
            f = AiseFilter(benchmark_config(order))
            for y in column * 10.0**exponent:
                f.step(y)
            assert np.isfinite(f.theta).all() and np.isfinite(f.P_sqrt).all()


@pytest.mark.parametrize("layout", ["read-only", "fortran", "transposed"])
def test_filter_owns_its_rls_buffers(layout):
    # A P_sqrt assigned from outside must not become the RLS spare a step later: numpy
    # refuses to write a read-only one, and dger would update a copy of one that is not
    # C-ordered, so the step would lose its rank-one terms.
    ys = bursty_stream(7)
    f = AiseFilter(benchmark_config(2))
    twin = AiseFilter(benchmark_config(2))
    for y in ys[:50]:
        f.step(y)
        twin.step(y)
    S = twin.P_sqrt.copy()
    if layout == "read-only":
        S.setflags(write=False)
    elif layout == "fortran":
        S = np.asfortranarray(S)
    else:  # a transposed view of a copy of the transpose holds the same values
        S = S.T.copy().T
    f.P_sqrt = S
    for y in ys[50:]:
        assert f.step(y) == twin.step(y)
        np.testing.assert_array_equal(f.P_sqrt, twin.P_sqrt)
    assert f.to_json() == twin.to_json()
