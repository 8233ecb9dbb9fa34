"""Bad samples, checkpoint restore and the variance-ratio arithmetic of AiseFilter."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisepred.aise import (
    AiseConfig,
    AiseFilter,
    InvalidSample,
    NumericalInvariantError,
    benchmark_config,
    f_critical,
    vrf_lambda,
)

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
    f.p_inv = -f.p_inv  # no diagonal lift can make this positive definite
    p_inv, theta = f.p_inv.copy(), f.theta.copy()
    phi = np.ones(len(theta))
    with pytest.raises(NumericalInvariantError):
        f.rls_update(1.0, phi, phi, 0.5, 0.0)
    np.testing.assert_array_equal(f.p_inv, p_inv)
    np.testing.assert_array_equal(f.theta, theta)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_failed_rls_update_leaves_step_state_unchanged(order):
    # A step whose RLS update fails commits nothing: not the residual history,
    # not the residual statistics. Restoring p_inv makes the retry match a twin.
    ys = bursty_stream(2)
    f = AiseFilter(benchmark_config(order))
    twin = AiseFilter(benchmark_config(order))
    for y in ys[:60]:
        f.step(y)
        twin.step(y)
    good = f.p_inv
    f.p_inv = -good  # no diagonal lift can make this positive definite
    snapshot = f.to_json()
    with pytest.raises(NumericalInvariantError):
        f.step(0.5)
    assert f.to_json() == snapshot
    f.p_inv = good
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
    1: ("c030a5cbeb51c8be38416d367db57edab09dee5c9f4873bce6605d37e0e6f6fd",
        "95598223a9386fc339b4ff6e38f94006acbbd845e634f4f12dca66e7184fc986"),
    2: ("f3035b4656fe3fc1d866b5ceed8e8bdd9e59e20d2a82fe5d55b881864ce774ce",
        "f8a7fa61e5f6de511069f7c621981d6237c271ad1c69d6dfe65642f5e041a08e"),
    3: ("e85510aa820285a393483b48ebbd9b4d8b93a5d911150cf63324345884a979a7",
        "3b601c3f4193e9e02389c51d8bb2a7f6b052c05775ac06d1bb30993aa047c9b8"),
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
    # n_e + n_f = 5, and the product stack has 2 rows. sha256 of to_json() after the
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
        "de5522eb366ccf2c864877105475bb5905e353dac0fc5b602b54c62713e4437a",
        "eac54fc721e9025a09d7a3cf0dc8c5633a382ebdc23bc20ff96009b91f36fc71")


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
    (lambda state: state["p_inv"][0].__setitem__(0, "1.0"), "p_inv"),
    (lambda state: state.update(k=7.5, res_count=2.5), "k"),
    (lambda state: state.update(res_count=30.0), "res_count"),
    (lambda state: state.update(k=True), "k"),
    (lambda state: state.update(k=-1), "k"),
    (lambda state: state.update(res_count=0), "res_count"),
    (lambda state: state.update(res_count=29), "res_count"),
], ids=["missing-z_hist", "missing-res_count", "missing-config", "unknown-key",
        "unknown-config-field", "short-z_hist", "short-theta", "string-k", "null-res_mean",
        "list-eta_k", "ragged-phi_hist", "string-in-p_inv", "float-counters", "float-res_count",
        "bool-k", "negative-k", "zero-res_count", "res_count-below-k"])
def test_malformed_checkpoint_is_rejected(edit, key):
    f = AiseFilter(benchmark_config(2))
    for y in bursty_stream(5)[:30]:
        f.step(y)
    state = json.loads(f.to_json())
    edit(state)
    with pytest.raises(ValueError, match=f"'{key}'"):
        AiseFilter.from_json(json.dumps(state))
