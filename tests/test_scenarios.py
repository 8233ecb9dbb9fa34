import io

import numpy as np
import pytest

from aisepred.scenarios import (
    add_noise,
    format_csv_lines,
    helical,
    parabolic,
    read_positions_csv,
    read_timeseries_csv,
    truth_arrays,
    write_truth_csv,
)
from aisepred.scenarios import _helical_state, _parabolic_state


def test_parabolic_launch_state():
    s = parabolic(0, 0.01)
    np.testing.assert_allclose(s.p, [0, 0, 0])
    np.testing.assert_allclose(s.v, [400, 400, 0])
    np.testing.assert_allclose(s.a, [0, -9.8, 0])
    np.testing.assert_allclose(s.j, [0, 0, 0])


def test_parabolic_sample_value():
    s = parabolic(100, 0.01)
    np.testing.assert_allclose(s.p, [400.0, 400.0 - 4.9, 0.0])
    assert s.t == pytest.approx(1.0)


def test_parabolic_zero_jerk_everywhere():
    _, _, _, J = truth_arrays("parabolic", 500, 0.01)
    assert np.all(J == 0)


def test_helical_initial_state():
    s = helical(0, 0.01)
    np.testing.assert_allclose(s.p, [0, 20, 0])
    np.testing.assert_allclose(s.v, [10, 0, 1])


def test_helical_constant_speed_and_orthogonality():
    _, V, A, _ = truth_arrays("helical", 1000, 0.01)
    np.testing.assert_allclose(np.linalg.norm(V, axis=1), np.sqrt(101.0), rtol=1e-12)
    np.testing.assert_allclose((V * A).sum(axis=1), 0.0, atol=1e-9)


@pytest.mark.parametrize("state_fn", [_parabolic_state, _helical_state])
def test_derivatives_match_finite_differences(state_fn):
    h = 1e-6
    for t in (0.0, 0.37, 5.0, 42.1):
        p0, v0, a0, j0 = state_fn(t)
        pp, vp, ap, _ = state_fn(t + h)
        pm, vm, am, _ = state_fn(t - h)
        scale_v = max(1.0, np.linalg.norm(v0))
        assert np.linalg.norm((pp - pm) / (2 * h) - v0) < 1e-6 * scale_v
        assert np.linalg.norm((vp - vm) / (2 * h) - a0) < 1e-6 * max(1.0, np.linalg.norm(a0))
        assert np.linalg.norm((ap - am) / (2 * h) - j0) < 1e-6 * max(1.0, np.linalg.norm(j0))


def test_negative_step_rejected():
    with pytest.raises(ValueError):
        parabolic(-1, 0.01)


def test_add_noise_zero_sigma_is_identity():
    p = np.arange(12.0).reshape(4, 3)
    out = add_noise(p, 0.0, 123)
    np.testing.assert_array_equal(out, p)
    assert out is not p


def test_add_noise_seed_determinism():
    p = np.zeros((100, 3))
    a = add_noise(p, 0.5, 42)
    b = add_noise(p, 0.5, 42)
    c = add_noise(p, 0.5, 43)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_add_noise_sample_std():
    draws = add_noise(np.zeros((100_000, 1)), 1.0, 7)
    assert 0.99 < draws.std() < 1.01


def test_add_noise_negative_sigma_rejected():
    with pytest.raises(ValueError):
        add_noise(np.zeros(3), -0.1, 0)


def test_timeseries_roundtrip():
    buf = io.StringIO()
    t = np.arange(5) * 0.01
    P, V, A, J = truth_arrays("helical", 4, 0.01)
    write_truth_csv(buf, t, P, V, A, J)
    buf.seek(0)
    t2, cols = read_timeseries_csv(buf)
    np.testing.assert_array_equal(t2, t)
    np.testing.assert_array_equal(np.column_stack([cols["x"], cols["y"], cols["z"]]), P)
    np.testing.assert_array_equal(np.column_stack([cols["jx"], cols["jy"], cols["jz"]]), J)


def test_csv_number_format():
    # Floats in shortest round-trip repr, ints as ints, bools as 0/1.
    values = np.array([0.1, -0.0, 1e-320, 2.5e16, np.nan, 1.0 / 3.0])
    text = format_csv_lines([range(7, 13), values.tolist(), [True, False] * 3], prefix="5,AISE/FS,")
    lines = text.splitlines()
    assert text.endswith("\n") and len(lines) == 6
    assert lines[0] == "5,AISE/FS,7,0.1,1"
    assert [line.split(",")[3] for line in lines] == [repr(float(v)) for v in values]
    assert lines[5] == "5,AISE/FS,12,0.3333333333333333,0"


def test_positions_csv_requires_xyz_header():
    buf = io.StringIO("t,x,y\n0.0,1,2\n0.01,3,4\n")
    with pytest.raises(ValueError, match="t,x,y,z"):
        read_positions_csv(buf)


def test_nonuniform_spacing_rejected_with_line_number():
    buf = io.StringIO("t,x,y,z\n0.0,0,0,0\n0.01,0,0,0\n0.025,0,0,0\n")
    with pytest.raises(ValueError, match="line 4"):
        read_positions_csv(buf)


def test_nonincreasing_time_rejected():
    buf = io.StringIO("t,x,y,z\n0.0,0,0,0\n0.01,0,0,0\n0.01,0,0,0\n")
    with pytest.raises(ValueError, match="strictly increasing"):
        read_positions_csv(buf)


def test_nan_time_rejected_with_its_line():
    # NaN compares false, so neither the increasing nor the spacing test may read it as a pass.
    buf = io.StringIO("t,x\n0.0,1\n0.01,1\nnan,1\n0.03,1\n")
    with pytest.raises(ValueError, match="line 4: time column must be strictly increasing"):
        read_timeseries_csv(buf)


def test_malformed_field_reports_line():
    buf = io.StringIO("t,x,y,z\n0.0,0,0,0\n0.01,oops,0,0\n")
    with pytest.raises(ValueError, match="line 3"):
        read_positions_csv(buf)


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        truth_arrays("circular", 10, 0.01)
