import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisepred.scenarios import (
    add_noise,
    format_csv_lines,
    read_positions_csv,
    read_timeseries_csv,
    sample_time,
    truth_arrays,
)
from aisepred.scenarios import _helical_state, _parabolic_state
from reference import format_csv_lines_template


def test_parabolic_launch_state():
    p, v, a, j = (x[0] for x in truth_arrays("parabolic", 0, 0.01))
    np.testing.assert_allclose(p, [0, 0, 0])
    np.testing.assert_allclose(v, [400, 400, 0])
    np.testing.assert_allclose(a, [0, -9.8, 0])
    np.testing.assert_allclose(j, [0, 0, 0])


def test_parabolic_sample_value():
    # Row 100 at t_s = 0.01 is the state at t = 1 s.
    P = truth_arrays("parabolic", 100, 0.01)[0]
    np.testing.assert_allclose(P[100], [400.0, 400.0 - 4.9, 0.0])


def test_parabolic_zero_jerk_everywhere():
    _, _, _, J = truth_arrays("parabolic", 500, 0.01)
    assert np.all(J == 0)


def test_helical_initial_state():
    P, V, _, _ = truth_arrays("helical", 0, 0.01)
    assert P.shape == V.shape == (1, 3)
    np.testing.assert_allclose(P[0], [0, 20, 0])
    np.testing.assert_allclose(V[0], [10, 0, 1])


@pytest.mark.parametrize("scenario, state_fn",
                         [("parabolic", _parabolic_state), ("helical", _helical_state)])
def test_truth_rows_are_the_state_at_their_own_time(scenario, state_fn):
    # Row k holds the bits of the state at t = k * t_s, evaluated on its own.
    rows = truth_arrays(scenario, 600, 0.01)
    for k in (0, 1, 7, 123, 600):
        for row, exact in zip(rows, state_fn(k * 0.01)):
            assert row[k].tobytes() == exact.tobytes()


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
    with pytest.raises(ValueError, match="last step must be >= 0, got -1"):
        truth_arrays("parabolic", -1, 0.01)


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


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_add_noise_non_finite_sigma_rejected(sigma):
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        add_noise(np.zeros(3), sigma, 0)


def test_timeseries_roundtrip():
    buf = io.StringIO()
    t = np.arange(5) * 0.01
    P, V, A, J = truth_arrays("helical", 4, 0.01)
    table = np.column_stack([t, P, V, A, J]).T.tolist()
    buf.write("t,x,y,z,vx,vy,vz,ax,ay,az,jx,jy,jz\n" + format_csv_lines(table))
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


FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2e-308, 1e16, 1e-5])
INTS = st.integers(-2**70, 2**70) | st.sampled_from([-1, 0, 2**63 - 1, 2**63, 2**64 + 1])


@st.composite
def csv_columns(draw):
    """Columns of one length as the writers pass them: lists of floats, ints or bools, and ranges."""
    n = draw(st.integers(0, 6))
    start = draw(st.integers(-5, 10**6))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "bool", "range"]), min_size=1, max_size=5))
    cells = {"float": FLOATS, "int": INTS, "bool": st.booleans()}
    return [range(start, start + n) if kind == "range" else draw(st.lists(cells[kind], min_size=n, max_size=n))
            for kind in kinds]


@settings(max_examples=300, deadline=None)
@given(columns=csv_columns(), prefix=st.text(alphabet="%,sd7AISE/\t ", max_size=8))
def test_csv_lines_match_the_percent_template(columns, prefix):
    assert format_csv_lines(columns, prefix) == format_csv_lines_template(columns, prefix)


@pytest.mark.parametrize("column", [[1, 2.5], [True, 0.5]], ids=["int", "bool"])
def test_a_float_in_an_int_column_is_a_type_error(column):
    # A column takes its type from its first cell; the % template's %d truncated 2.5 to 2.
    assert format_csv_lines_template([column]).splitlines()[1] == str(int(column[1]))
    with pytest.raises(TypeError):
        format_csv_lines([range(2), column])


def test_positions_csv_requires_xyz_header():
    buf = io.StringIO("t,x,y\n0.0,1,2\n0.01,3,4\n")
    with pytest.raises(ValueError, match="t,x,y,z"):
        read_positions_csv(buf)


def test_nonuniform_spacing_rejected_with_line_number():
    buf = io.StringIO("t,x,y,z\n0.0,0,0,0\n0.01,0,0,0\n0.025,0,0,0\n")
    with pytest.raises(ValueError, match="line 4"):
        read_positions_csv(buf)


def epoch_stamped_csv(shift=lambda k: 0.0):
    """A 100 Hz t,x,y,z CSV stamped in seconds from 1700000000, row k moved by shift(k) s."""
    rows = (f"{1_700_000_000 + k / 100 + shift(k):.3f},0,0,0\n" for k in range(400))
    return io.StringIO("t,x,y,z\n" + "".join(rows))


def test_uniform_epoch_stamps_read_as_uniform():
    # One unit in the last place of 1.7e9 is 2.4e-7 s, so parsed spacings differ by that
    # much; the tolerance adds two such units, and t_s is still the first spacing.
    t, positions = read_positions_csv(epoch_stamped_csv())
    assert positions.shape == (400, 3)
    assert t[1] - t[0] == 1_700_000_000.01 - 1_700_000_000.0
    assert np.ptp(np.diff(t)) > 1e-9


def test_epoch_stamps_give_the_mean_spacing_as_sample_time():
    # The first spacing of this 400-row file is 9.5e-7 relative off 0.01 s, which puts an
    # order-3 derivative (a factor t_s^-3) 2.9e-6 off; the mean of its 399 spacings is 2.4e-9 off.
    t, _ = read_positions_csv(epoch_stamped_csv())
    assert abs((t[1] - t[0]) / 0.01 - 1.0) > 9e-7
    assert sample_time(t) == (1_700_000_003.99 - 1_700_000_000.0) / 399 == 0.010000000023901612
    assert abs(sample_time(t) / 0.01 - 1.0) < 3e-9


def test_sample_time_of_exact_stamps():
    assert sample_time(np.arange(301) * 0.01) == 0.01
    assert sample_time(np.array([5.0, 5.25])) == 0.25


@pytest.mark.parametrize("shift, message", [
    (lambda k: 0.001 * (k == 7),
     "line 9: non-uniform sample spacing (0.01100015640258789 s vs 0.009999990463256836 s)"),
    (lambda k: 0.015 * (k >= 2),
     "line 4: non-uniform sample spacing (0.02500009536743164 s vs 0.009999990463256836 s)"),
], ids=["1ms-jitter", "25ms-step"])
def test_non_uniform_epoch_stamps_are_refused(shift, message):
    with pytest.raises(ValueError) as error:
        read_positions_csv(epoch_stamped_csv(shift))
    assert str(error.value) == message


def test_nonincreasing_time_rejected():
    buf = io.StringIO("t,x,y,z\n0.0,0,0,0\n0.01,0,0,0\n0.01,0,0,0\n")
    with pytest.raises(ValueError, match="strictly increasing"):
        read_positions_csv(buf)


def test_nan_time_rejected_with_its_line():
    # NaN compares false, so neither the increasing nor the spacing test may read it as a pass.
    buf = io.StringIO("t,x\n0.0,1\n0.01,1\nnan,1\n0.03,1\n")
    with pytest.raises(ValueError, match="line 4: time column must be strictly increasing"):
        read_timeseries_csv(buf)


@pytest.mark.parametrize("text, message", [
    ("t,x\n0,1\n\n0.01,1\n0.01,1\n", "line 5: time column must be strictly increasing"),
    ("t,x\nnan,1\n0.01,1\n0.02,1\n", "line 2: time column must be strictly increasing"),
    ("t,x\n0.0,1\n0.01,1\n0.03,1\n",
     "line 4: non-uniform sample spacing (0.019999999999999997 s vs 0.01 s)"),
], ids=["after-a-blank-row", "nan-in-the-first-row", "spacing-as-plain-floats"])
def test_time_errors_name_the_line_of_their_row(text, message):
    # Each data row keeps its own line number, so a skipped blank row shifts nothing.
    with pytest.raises(ValueError) as error:
        read_timeseries_csv(io.StringIO(text))
    assert str(error.value) == message


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_value_rejected_with_its_line(value):
    buf = io.StringIO(f"t,x,y,z\n0.0,0,0,0\n0.01,0,0,0\n\n0.02,0,{value},0\n0.03,0,0,0\n")
    with pytest.raises(ValueError) as error:
        read_positions_csv(buf)
    assert str(error.value) == f"line 5: y value {float(value)} is not finite"


@pytest.mark.parametrize("text, message", [
    ("t,x,y,z\n0.0,0,0,0\n0.01,oops,0,0\n",
     "line 3: non-numeric field in ['0.01', 'oops', '0', '0']"),
    # Columns are keyed by name, so the second a replaced the first and its data was lost.
    ("t,a,a\n0.0,1,2\n0.01,1,2\n", "line 1: column name 'a' is repeated"),
    ("t,x,t\n0.0,1,2\n0.01,1,2\n", "line 1: column name 't' is repeated"),
    # A missing name became a column named "" (differentiate wrote its header as t,d,dx).
    ("t,,x\n0.0,1,2\n0.01,1,2\n", "line 1: column 2 has no name"),
    ("", "empty CSV: missing header"),
    ("x,t\n1,0.0\n1,0.01\n", "CSV header must be 't,<col>[,...]', got ['x', 't']"),
    ("t,x\n0.0,1\n0.01,1,2\n", "line 3: expected 2 fields, got 3"),
    ("t,x\n0.0,1\n\n", "CSV must contain at least two data rows"),
], ids=["non-numeric-field", "repeated-name", "repeated-t", "empty-name", "empty-file",
        "header-not-t", "wrong-field-count", "one-data-row"])
def test_malformed_field_reports_line(text, message):
    with pytest.raises(ValueError) as error:
        read_timeseries_csv(io.StringIO(text))
    assert str(error.value) == message


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        truth_arrays("circular", 10, 0.01)
