"""Bad samples, checkpoint restore, per-step pins, RLS buffers and the arithmetic of AiseFilter."""

import copy
import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dger

from aisepred.aise import (
    AiseConfig,
    AiseFilter,
    CheckpointVersionError,
    InvalidSample,
    NumericalInvariantError,
    benchmark_config,
    f_critical,
    vrf_lambda,
)
from aisepred.scenarios import add_noise, truth_arrays
from reference import information, step_record

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
        last = step_record(f, y)
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
    # With S = 0 and lam = 0 the forgetting's Gram matrix lam I + (1 - lam) r_inf S^T S is
    # zero, so its Cholesky factorization fails: the update raises and changes nothing.
    f = AiseFilter(benchmark_config(1))
    for y in bursty_stream(2)[:60]:
        f.step(y)
    f.P_sqrt = np.zeros_like(f.P_sqrt)
    S, theta, phi = f.P_sqrt.copy(), f.theta.copy(), f.phi_hist[0].copy()
    with pytest.raises(NumericalInvariantError, match="RLS forgetting is not positive definite"):
        f.rls_update(0.0, phi, phi, 1.0, 0.0)
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
    f.P_sqrt = np.full_like(good, np.nan)  # every RLS denominator is then NaN
    snapshot = f.to_json()
    with pytest.raises(NumericalInvariantError):
        f.step(0.5)
    assert f.to_json() == snapshot
    f.P_sqrt = good
    assert f.step(0.5) == twin.step(0.5)
    assert f.to_json() == twin.to_json()


@pytest.mark.parametrize("big", ["P_sqrt", "theta"])
def test_finite_state_whose_sum_would_overflow_is_accepted(big):
    # rls_update finds a NaN or an infinity in S and theta by one weighted sum of each. Its
    # 2^-64 weights keep the sum of a finite state finite where a plain sum overflows, with no
    # overflow warning. With zero regressors and residual the update leaves the state alone.
    f = AiseFilter(AiseConfig(n_e=1))
    S, theta = np.eye(3), np.array([1.0, -2.0, 3.0])
    if big == "P_sqrt":
        S = np.full((3, 3), 1e308)
    else:
        theta = np.array([1e308, 1e308, 3.0])
    f.P_sqrt, f.theta = S, theta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f.rls_update(1.0, np.zeros(3), np.zeros(3), 0.0, 0.0)
    np.testing.assert_array_equal(f.P_sqrt, S)
    np.testing.assert_array_equal(f.theta, theta)


@pytest.mark.parametrize("key, bad", [("theta", np.nan), ("P_sqrt", np.inf)])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_non_finite_rls_state_is_refused(order, key, bad):
    # A NaN coefficient or an infinite entry of S makes the update non-finite; the step
    # raises and commits nothing. The failed step has written into the buffers a step builds
    # phi_hist, loop_weights and S in, and at k = 2 n_f it has first moved the phi_hist window
    # to the bottom of its buffer: restoring the good value makes the retry match a twin
    # that never failed.
    f = AiseFilter(benchmark_config(order))
    twin = AiseFilter(benchmark_config(order))
    assert f._phi_top == f.cfg.n_f == 50
    for y in bursty_stream(3)[:100]:
        f.step(y)
        twin.step(y)
    good = getattr(f, key)
    value = good.copy()
    value.flat[7] = bad
    setattr(f, key, value)
    snapshot = {name: np.copy(getattr(f, name)) for name in ("theta", "P_sqrt", "x_fc", "x_da",
                "P_fc", "P_da", "dhat_hist", "z_hist", "phi_hist", "loop_weights")}
    with pytest.raises(NumericalInvariantError, match="RLS update is not finite"):
        f.step(0.5)
    for name, array in snapshot.items():
        np.testing.assert_array_equal(getattr(f, name), array)
    assert f.k == 100 and f._phi_top == 50
    setattr(f, key, good)
    assert f.step(0.5) == twin.step(0.5)
    assert f.to_json() == twin.to_json()


@pytest.mark.parametrize("size", [1, 2, 7])
def test_rls_update_checks_a_state_of_any_size(size):
    # The sums that find a non-finite state are sized from the assigned S, not from the
    # config's l_theta = 5. With S = I and theta = 0 the update has the information form
    # M = I + r_z phi_f phi_f^T + r_d phi phi^T and theta = -solve(M, r_z phi_f residual).
    cfg = AiseConfig(n_e=2)
    phi, phi_f = np.linspace(-1.0, 1.0, size), np.linspace(0.5, 2.0, size)
    f = AiseFilter(cfg)
    f.P_sqrt, f.theta = np.eye(size), np.zeros(size)
    f.rls_update(1.0, phi, phi_f, -1.0, 0.0)
    M = np.eye(size) + cfg.r_z * np.outer(phi_f, phi_f) + cfg.r_d * np.outer(phi, phi)
    np.testing.assert_allclose(information(f), M, rtol=1e-12)
    np.testing.assert_allclose(f.theta, np.linalg.solve(M, cfg.r_z * phi_f), rtol=1e-12)
    S = f.P_sqrt.copy()
    f.theta = np.full(size, np.nan)
    with pytest.raises(NumericalInvariantError, match="RLS update is not finite"):
        f.rls_update(1.0, phi, phi_f, -1.0, 0.0)
    np.testing.assert_array_equal(f.P_sqrt, S)
    assert np.isnan(f.theta).all()


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


def assert_vrf_lambda_matches_np_var(z, tau_n, tau_d, crit):
    """vrf_lambda sums with sum(), np.var pairwise: lambda agrees to 1e-13 relative, and so does
    the decision to forget unless the ratio ties the critical value to that bound. A window
    whose spread is at the rounding level of its values has a variance of rounding noise in
    either sum, and only the range of lambda is checked. alpha = 1 passes the ratio's rounding
    error into lambda undamped."""
    lam = vrf_lambda(z, tau_n, tau_d, 1.0, crit)
    reference = vrf_lambda_reference(z, tau_n, tau_d, 1.0, crit)
    z_d = np.asarray(z, dtype=float)[-tau_d:]
    if np.std(z_d) <= 1e-6 * np.abs(z_d).max():
        assert 0.0 < lam <= 1.0
        return lam
    assert abs(lam - reference) <= 1e-13 * reference
    ratio = np.var(z_d[-tau_n:], ddof=1) / np.var(z_d, ddof=1)
    if abs(ratio - crit) > 1e-13 * crit:
        assert (lam < 1.0) == (reference < 1.0)
    return lam


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3])
def test_vrf_lambda_matches_np_var_to_1e_minus_13(scale):
    rng = np.random.default_rng(int(-np.log10(scale)) + 10)
    f_crit = f_critical(4, 24)
    rejected = 0
    for _ in range(500):
        z = scale * (rng.uniform(-3, 3) + rng.normal(size=40))
        z[-rng.integers(1, 6):] *= rng.uniform(1.0, 10.0)
        for view in (z, z[::-1], z[3:28], z[28:3:-1]):
            for crit in (f_crit, 0.25):  # a low critical value makes most windows forget
                rejected += assert_vrf_lambda_matches_np_var(view, 5, 25, crit) < 1.0
    assert rejected > 1000


@settings(max_examples=30, deadline=None)
@given(z=st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1.0]),
                  min_size=40, max_size=40),
       scale=st.sampled_from([1e-6, 1.0, 1e6]),
       crit=st.sampled_from([0.25, 2.0, f_critical(4, 24)]))
def test_vrf_lambda_matches_np_var_at_every_window_length(z, scale, crit):
    # numpy sums sequentially below 8 terms, with 8 accumulators from 8 on, and each half of
    # a run on its own past 128; sum() adds in order at every length.
    z = [v * scale for v in z]
    for tau_d in range(3, 41):
        for tau_n in range(2, tau_d):
            assert_vrf_lambda_matches_np_var(z, tau_n, tau_d, crit)
        assert vrf_lambda(np.array(z), 2, tau_d, 1.0, crit) == vrf_lambda(z, 2, tau_d, 1.0, crit)
    long = [v * (1.0 + i / 320) for i, v in enumerate(z * 8)]
    for tau_n, tau_d in ((9, 129), (150, 320), (200, 257)):
        assert_vrf_lambda_matches_np_var(long, tau_n, tau_d, crit)


@st.composite
def rank_one_cases(draw):
    """A matrix, two vectors and a weight, with magnitudes from 1e-100 to 1e100 and signed zeros."""
    size = draw(st.sampled_from([1, 2, 3, 7, 8, 9, 16, 25, 51, 60]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(shape):
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-100, 101, size=shape)
        zero = rng.random(shape) < 0.1
        x[zero] = np.copysign(0.0, rng.normal(size=shape))[zero]
        return x

    weight = draw(st.sampled_from([-1.0, -0.1]) | st.floats(-1e6, -1e-6))
    return values((size, size)), values(size), values(size), weight


@settings(max_examples=200, deadline=None)
@given(case=rank_one_cases())
def test_dger_updates_the_transposed_view_in_place(case):
    # AiseFilter.rls_update makes its Potter update S^T <- S^T + w f g^T with one dger call
    # on the F-ordered view of its C-ordered S, with overwrite_a=1. That view is written in
    # place, no copy: the returned array shares S's memory. Its bits are those of dger on a
    # copy, which it leaves alone; and they are the numpy rank-one update to within the
    # three roundings each form makes.
    s, f, g, weight = case
    copy = s.T.copy(order="F")
    expected = dger(weight, f, g, a=copy, overwrite_a=0)
    got = s.copy()
    out = dger(weight, f, g, a=got.T, overwrite_a=1)
    assert np.shares_memory(out, got)
    assert got.T.tobytes(order="F") == expected.tobytes(order="F")
    np.testing.assert_array_equal(copy, s.T)
    product = np.multiply.outer(f, g) * weight
    bound = 4 * np.finfo(float).eps * (np.abs(s.T) + np.abs(product))
    assert (np.abs(got.T - (s.T + product)) <= bound).all()


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
    1: ("edc4b538665a88bc098f3a339204585c21c186311a5c808917318469fd682913",
        "4024575fbbc8b92200dd4efa28a3e3efaa7996cfab2c88f3dcc964aa9264f2a3"),
    2: ("9cc8677db19a965bbed175672bd8f8a15cce161de356835f3516f244a54a159c",
        "6091eaa877cc85f60d9eee35544961b1fbe1ab262003f306b77d715a89180e43"),
    3: ("bdb7ba209678bc58375795c103f0cc8350e8954f756134bf3c7205696aaf8089",
        "95c5994039f8ddfb6243856d3d812958e62723f0d5a027b7cd73e1d6b3e1d008"),
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
    # Windows the benchmark tuning never has: z_hist is tau_d - 1 = 11 long, longer than
    # n_e = 2, and there are 2 closed-loop weight rows. sha256 of to_json() after the
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
        "c40e7fa53d3d88b59958177a2a9a38726680aa327d29caa0c114d9aa234b151f",
        "22cd2b5875d3819ecc00514b0872daa9f008ced06503fea2c0bd9a546852d727")


@pytest.mark.parametrize("edit, key", [
    (lambda state: state.pop("z_hist"), "z_hist"),
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
    (lambda state: state.update(k=7.5), "k"),
    (lambda state: state.update(k=True), "k"),
    (lambda state: state.update(k=-1), "k"),
    # json reads NaN and Infinity; a filter restored with one could never step again.
    (lambda state: state["theta"].__setitem__(0, float("nan")), "theta"),
    (lambda state: state["P_sqrt"][1].__setitem__(1, float("inf")), "P_sqrt"),
    (lambda state: state.update(res_m2=float("nan")), "res_m2"),
], ids=["missing-z_hist", "missing-config", "unknown-key", "unknown-config-field",
        "short-z_hist", "short-theta", "string-k", "null-res_mean", "list-eta_k",
        "ragged-phi_hist", "string-in-P_sqrt", "float-k", "bool-k", "negative-k",
        "nan-theta", "inf-P_sqrt", "nan-res_m2"])
def test_malformed_checkpoint_is_rejected(edit, key):
    f = AiseFilter(benchmark_config(2))
    for y in bursty_stream(5)[:30]:
        f.step(y)
    state = json.loads(f.to_json())
    edit(state)
    with pytest.raises(ValueError, match=f"'{key}'"):
        AiseFilter.from_json(json.dumps(state))


@pytest.mark.parametrize("version, found", [
    (None, "1"), (1, "1"), (2, "2"), (4, "4"), ("2", "'2'"), (2.0, "2.0"), ("3", "'3'"),
    (3.0, "3.0"), (True, "True")])
def test_unknown_checkpoint_version_is_rejected(version, found):
    # A checkpoint without a version key is the first format, which held p_inv and prodstack;
    # the second also held res_count and longer windows.
    f = AiseFilter(benchmark_config(2))
    for y in bursty_stream(5)[:30]:
        f.step(y)
    state = json.loads(f.to_json())
    assert state["version"] == 3
    assert AiseFilter.from_json(json.dumps(state)).to_json() == f.to_json()
    if version is None:
        del state["version"]
    else:
        state["version"] = version
    with pytest.raises(CheckpointVersionError, match=f"unsupported checkpoint version {found},"):
        AiseFilter.from_json(json.dumps(state))


def helix_column(axis, seed, n):
    """One axis of the benchmark helix with N(0, 0.1^2) measurement noise."""
    return add_noise(truth_arrays("helical", n - 1, 0.01)[0], 0.1, seed)[:, axis]


# Configs whose every step is pinned: the benchmark orders, an "interpolated" channel,
# small windows (z_hist longer than n_e, 2 closed-loop weight rows) and variance
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
# (seed 8, 1200 samples) of the estimate and each field of its step_record, with the filter
# replaced by its restored checkpoint at step 600. They do not depend on the checkpoint
# format, so a change to what a checkpoint holds must leave them as they are. The
# small-window-o3 and long-vrf-o2 pins were re-recorded when vrf_lambda's variances came to
# be summed with sum() in place of numpy's pairwise order, and long-vrf-o2's again when its
# F(8, 39) quantile became the correctly rounded one, 3.0064384617979205, where scipy's
# betaincinv gave 3.0064384617979214 (its w is 0.65 units in the last place off the root).
PINNED_STEPS = {
    "benchmark-o1": "54eea2a7b0ba59690a79ef3f419ac2a38767d4c6d6c54c9ee642cb27385c1334",
    "benchmark-o2": "917cf94af86b53915b1bf1445fbbe9b29c77d566447fa77a5d9561c78ad03d2d",
    "benchmark-o3": "a0225874d073ff2ce5db5b56e14142032cafed5f722709b694a54ad5bc12cc73",
    "interpolated-o2": "6e9556e88582516267e0215d242048805f89f7d190c8058fe889c106732e4c22",
    "small-window-o3": "0ce698de359c683749469fa6b438acd6b72524626289ec717499296f64fef611",
    "long-vrf-o2": "6455b214104c37ffd7a98aa082cf3f80c6beb6cb58cd01c1af2858b814dfa198",
}

# sha256 over the to_json() bytes of the same runs, every 300 steps.
PINNED_STEP_CHECKPOINTS = {
    "benchmark-o1": "f561bca94c86e143a0458dd9dddebe93cabe0517f8561061f9c13379b6996e46",
    "benchmark-o2": "bbc8b755a2b860935bb8143bc27e5fce7e5b5344ee6f980ee24b8f038c5c7bb9",
    "benchmark-o3": "de8653e4bdc3765288d1158b2de6b79c36d7967714acd99a5ca47e7d323add80",
    "interpolated-o2": "5546fd0d749ff269869799ba678d7544913bfec917ae97e43ba16b5ab8b59f0a",
    "small-window-o3": "32f7890e718aa5fee4613e6a4ecd1a38d50f5314a0a5bf1461c433b83b9f3e92",
    "long-vrf-o2": "12573458b1504b146c0c7b0157b4b4e3f4645a4d03d9ce948108f3a2f000789d",
}


@pytest.mark.parametrize("name", sorted(STEP_PIN_CONFIGS))
def test_every_step_is_pinned(name):
    values, checkpoints, forgetting = hashlib.sha256(), hashlib.sha256(), 0
    for ys in (bursty_stream(6, 1200), helix_column(0, 8, 1200), helix_column(2, 8, 1200)):
        f = AiseFilter(STEP_PIN_CONFIGS[name])
        for i, y in enumerate(ys):
            last = step_record(f, y)
            estimate = last.d_hat
            fields = [estimate, last.k, last.z, last.d_hat, last.dhat_f, last.lam,
                      last.eta, last.v2, last.s_hat, last.forecast_var]
            values.update(repr([v if v is None else float(v) for v in fields]).encode())
            values.update(last.phi.tobytes() + last.phi_f.tobytes())
            forgetting += last.lam < 1.0
            if i % 300 == 299:
                payload = f.to_json()
                checkpoints.update(payload.encode())
                if i == 599:
                    f = AiseFilter.from_json(payload)
    assert forgetting > 0
    assert (values.hexdigest(), checkpoints.hexdigest()) == (
        PINNED_STEPS[name], PINNED_STEP_CHECKPOINTS[name])


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
            last = step_record(f, y)
            reference.update(last.lam, last.phi, last.phi_f, last.z, last.dhat_f)
            forgetting += last.lam < 1.0
            assert_close(f.theta, reference.theta, last.k, reference.p_inv)
            assert_close(information(f), reference.p_inv, last.k)
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
        P = f.P_sqrt @ f.P_sqrt.T
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
