import hashlib
import json
import time
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from aisepred import harness
from aisepred.aise import AiseConfig, AiseFilter, InvalidSample, benchmark_config
from aisepred.harness import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    estimate,
    method_family,
    normalize_method,
    rmse,
    run_experiment,
)
from aisepred.prediction import DerivativeEstimate, PredictionTrace, predict, va_predict
from aisepred.scenarios import SCENARIOS, add_noise, format_csv_lines, truth_arrays


def make_traces(truth, horizon, k0, offset=0.0, method="AISE/va"):
    n_last = len(truth) - 1
    traces = []
    for k in range(k0, n_last - horizon + 1):
        positions = truth[k + 1 : k + horizon + 1] + offset
        traces.append(PredictionTrace(anchor_step=k, method=method, positions=positions))
    return traces


def test_rmse_perfect_predictions():
    truth = np.arange(300.0).reshape(100, 3)
    traces = make_traces(truth, 10, 20)
    np.testing.assert_array_equal(rmse(truth, traces, 10, 20), [0.0, 0.0, 0.0])


def test_rmse_constant_error_forms():
    truth = np.zeros((200, 3))
    traces = make_traces(truth, 10, 50, offset=2.0)
    np.testing.assert_allclose(rmse(truth, traces, 10, 50, "standard"), 2.0)
    n_tilde = 199 - 10 - 50 + 1
    np.testing.assert_allclose(
        rmse(truth, traces, 10, 50, "literal"), 2.0 / np.sqrt(n_tilde)
    )


def test_rmse_anchor_count_arithmetic():
    # N = 5000, horizon 100, k0 = 2000 -> 2901 anchors.
    truth = np.zeros((5001, 3))
    traces = make_traces(truth, 100, 2000)
    assert len(traces) == 2901
    rmse(truth, traces, 100, 2000)


def test_rmse_missing_anchor_reported():
    truth = np.zeros((100, 3))
    traces = make_traces(truth, 10, 20)
    del traces[5]
    with pytest.raises(ValueError, match="anchor step 25"):
        rmse(truth, traces, 10, 20)


def test_rmse_short_trace_reported():
    truth = np.zeros((100, 3))
    traces = make_traces(truth, 10, 20)
    traces[5] = PredictionTrace(anchor_step=25, method="AISE/va", positions=np.zeros((4, 3)))
    with pytest.raises(ValueError, match="anchor step 25 has 4 positions"):
        rmse(truth, traces, 10, 20)


def test_rmse_repeated_anchor_reported():
    # A second trace for one anchor would otherwise silently replace the first.
    truth = np.zeros((100, 3))
    traces = make_traces(truth, 10, 20)
    traces.append(make_traces(truth, 10, 20, offset=1.0)[5])
    with pytest.raises(ValueError, match="repeated prediction trace for anchor step 25"):
        rmse(truth, traces, 10, 20)


@pytest.mark.parametrize("k0, horizon", [(91, 10), (95, 10), (20, 0)],
                         ids=["one-past-the-last-anchor", "far-past-it", "horizon-0"])
def test_rmse_refuses_an_empty_anchor_range_or_a_horizon_below_one(k0, horizon):
    # These gave NaN with a RuntimeWarning, numpy's "negative dimensions" error, and a
    # score of each trace's last position.
    truth = np.zeros((101, 3))
    traces = make_traces(truth, 10, 20)
    with pytest.raises(ValueError) as error:
        rmse(truth, traces, horizon, k0)
    assert str(error.value) == (f"no anchor to score: k0 {k0} with horizon {horizon} "
                                "on 101 truth rows")


def test_normalize_method():
    assert normalize_method("aise-fs") == "AISE/FS"
    assert normalize_method("AISE/va") == "AISE/va"
    with pytest.raises(ValueError, match="unknown method"):
        normalize_method("kalman")


@pytest.mark.parametrize("data, message", [
    ({"n_steps": 100, "k0": 80, "horizon": 30}, "need k0 + horizon < n_steps, got 80 + 30 >= 100"),
    ({"rmse_form": "rms"}, "rmse_form must be 'standard' or 'literal', got 'rms'"),
    ({"scenario": "spiral"}, f"scenario must be one of {SCENARIOS} or 'csv:<path>', got 'spiral'"),
    ({"scenario": "csv:x.csv", "truth_derivatives": True},
     "truth-derivative injection requires an analytic scenario"),
    ({"methods": []}, "at least one prediction method is required"),
    ({"horizon": 0}, "horizon must be >= 1"),
    ({"k0": -1}, "k0 must be >= 0"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"schema_version": 2}, "unsupported config schema version 2"),
], ids=["k0-plus-horizon", "rmse-form", "scenario", "csv-with-truth", "no-methods",
        "horizon-0", "negative-k0", "negative-seed", "schema-version"])
def test_config_validation(data, message):
    with pytest.raises(ValueError) as error:
        config_from_dict(data)
    assert str(error.value) == message


@pytest.mark.parametrize("t_s", [0.0, -0.01, float("nan"), float("inf")])
def test_config_rejects_a_bad_sample_time_at_construction(t_s):
    # Caught here, not after a whole run has been predicted.
    with pytest.raises(ValueError, match="t_s must be finite and positive"):
        ExperimentConfig(t_s=t_s, truth_derivatives=True)
    data = config_to_dict(ExperimentConfig())
    data["t_s"] = t_s
    with pytest.raises(ValueError, match="t_s must be finite and positive"):
        config_from_dict(data)


@pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
def test_config_rejects_a_bad_sigma_at_construction(sigma):
    # A NaN sigma used to run to the end and report NaN for every RMSE.
    with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
        ExperimentConfig(sigma=sigma, truth_derivatives=True)


_BASELINE_RULES = {
    "tracking_index": "tracking index must be finite and positive",
    "butterworth_order": "Butterworth order must be a positive even integer",
    "butterworth_cutoff": "Butterworth cutoff must be in (0, pi) rad/step",
    # Finite and positive, but its gains overflow at the default t_s.
    ("tracking_index", 1e200):
        "tracking index must give stable gains in double precision at t_s 0.01",
}


@pytest.mark.parametrize("field, value", [
    ("tracking_index", -1), ("tracking_index", 0.0), ("tracking_index", float("nan")),
    ("tracking_index", float("inf")), ("tracking_index", 1e200), ("butterworth_order", 3),
    ("butterworth_order", 0),
    ("butterworth_cutoff", 4.0), ("butterworth_cutoff", 0.0), ("butterworth_cutoff", float("nan")),
])
def test_config_rejects_a_bad_baseline_field_at_construction(field, value):
    # These failed only once estimate() built the baseline, after every AISE channel had run;
    # a config whose methods build no baseline is refused too.
    for methods in (("BDB/va", "ABG/va"), ("AISE/va",)):
        with pytest.raises(ValueError) as error:
            ExperimentConfig(methods=methods, **{field: value})
        rule = _BASELINE_RULES.get((field, value), _BASELINE_RULES[field])
        assert str(error.value) == f"{rule}, got {value}"


def test_config_dict_roundtrip():
    cfg = ExperimentConfig(scenario="parabolic", n_steps=400, k0=100, horizon=50,
                           sigma=0.5, seed=3, methods=("aise-va",))
    data = config_to_dict(cfg)
    restored = config_from_dict(data)
    assert config_to_dict(restored) == data
    assert restored.methods == ("AISE/va",)


def test_config_unknown_key_rejected():
    data = config_to_dict(ExperimentConfig())
    data["noise_model"] = "uniform"
    with pytest.raises(ValueError, match="unknown config fields"):
        config_from_dict(data)


def test_default_config_hash_is_pinned():
    # The manifest's config_sha256 hashes the resolved config_to_dict output;
    # the serializer may change only if this hash stays put. It was re-recorded
    # when ExperimentConfig lost its anchor option, whose key it hashed.
    cfg = ExperimentConfig()
    resolved = config_to_dict(cfg)
    resolved["sigma"] = cfg.resolved_sigma()
    digest = hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()
    assert digest == "92772a09e7d10a02d1214c44e219353f56e21e757eae6292f7ffd1601728e83c"
    assert list(resolved["aise"]["order1"]) == [f.name for f in fields(AiseConfig)]


def test_experiment_default_parameters():
    cfg = ExperimentConfig()
    assert (cfg.n_steps, cfg.k0, cfg.horizon) == (5000, 2000, 100)
    assert cfg.methods == ("BDB/va", "ABG/va", "AISE/va", "AISE/FS")
    assert cfg.butterworth_order == 10
    assert cfg.butterworth_cutoff == pytest.approx(0.8 * np.pi)
    assert cfg.tracking_index == 0.6
    assert cfg.rmse_form == "standard"


def test_default_sigma_per_scenario():
    assert ExperimentConfig(scenario="parabolic").resolved_sigma() == 1.0
    assert ExperimentConfig(scenario="helical").resolved_sigma() == 0.1
    assert ExperimentConfig(scenario="helical", sigma=0.25).resolved_sigma() == 0.25


SMALL = dict(n_steps=320, k0=150, horizon=60, seed=5)


def test_run_experiment_truth_injection_exactness():
    # Injected true derivatives make the second-order extrapolation exact on
    # the planar trajectory and the frame propagation exact on the helix.
    cfg = ExperimentConfig(scenario="parabolic", sigma=0.0, truth_derivatives=True,
                           methods=("AISE/va",), **SMALL)
    rep = run_experiment(cfg)
    assert np.all(rep.methods["AISE/va"] < 1e-9)

    cfg = ExperimentConfig(scenario="helical", sigma=0.0, truth_derivatives=True,
                           methods=("AISE/FS",), **SMALL)
    rep = run_experiment(cfg)
    assert np.all(rep.methods["AISE/FS"] < 1e-6)


def test_run_experiment_artifacts(tmp_path):
    cfg = ExperimentConfig(scenario="helical", methods=("aise-va", "aise-fs"), **SMALL)
    rep = run_experiment(cfg, out_dir=tmp_path)
    assert rep.n_tilde == 320 - 60 - 150 + 1

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_tilde"] == rep.n_tilde
    assert set(report["methods"]) == {"AISE/va", "AISE/FS"}
    for vals in report["methods"].values():
        assert all(v >= 0 for v in vals.values())

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert len(manifest["config_sha256"]) == 64

    trace_lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(trace_lines) == 1 + 320 + 1  # header + rows for steps 0..n_steps
    header = trace_lines[0].split(",")
    assert header[:8] == ["step", "t", "px", "py", "pz", "mx", "my", "mz"]
    assert "kappa" in header and "fs_fallback" in header

    pred_lines = (tmp_path / "predictions.csv").read_text().splitlines()
    anchors = 320 - 60 - 150 + 1
    assert len(pred_lines) == 1 + anchors * 60 * 2
    first = pred_lines[1].split(",")
    assert first[0] == "150" and first[1] == "AISE/va" and first[2] == "1"


def test_run_experiment_deterministic_bytes(tmp_path):
    cfg = ExperimentConfig(scenario="helical", **SMALL)
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    for name in ("report.json", "trace.csv", "predictions.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# sha256 of predictions.csv and trace.csv. The writers may not move a byte; the
# helix and parabolic pins were re-recorded when the RLS update of AiseFilter moved
# to square-root covariance form, when the ABG gains came to be solved from the
# Riccati equation in place of iterating it, and when they came to be computed in
# closed form from the tracker's poles: each changes the estimates in their last
# bits. The parabolic predictions pin was re-recorded when every prediction came to
# anchor on the measured position: its config had anchored on the AISE position
# estimate. Its trace.csv pin held, as no estimate moved.
PINNED_ARTIFACTS = {
    "helix": (
        dict(scenario="helical", n_steps=600, k0=300, horizon=50, seed=11),
        "71e2e60deddf1c93794b94173895723fbeaafcad414a8e1f02fd0912b0d60a9d",
        "aa37aeec95b183a05d9f4e8793647ea81249fa5de93239630af6031f78122fa6",
    ),
    "parabolic": (
        dict(scenario="parabolic", n_steps=600, k0=300, horizon=50, seed=11),
        "4ade63cb59e9fedd6903b1dcadedea361bc9718d026399f7b6a237d3841eb376",
        "4acb8e2fe8cd47c06b8141fc652d11c28fe0e584e17cbe4bb72d256b900a110b",
    ),
    # Recorded while every /va method still formatted its own prediction set.
    "truth": (
        dict(scenario="helical", n_steps=600, k0=300, horizon=50, seed=11,
             truth_derivatives=True),
        "c34205c306b1a0939fb917dddfe203d81dc4214c0f531d31b08c659825690e79",
        "f922e5a62119729f5eaea725b7df5ec1f9dc39411e2619414191afd5ce139f98",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
def test_artifact_bytes_are_pinned(tmp_path, name):
    # The helix run has all four methods, so the kappa/tau/u/fs_fallback
    # columns of trace.csv are written too.
    kwargs, predictions_sha, trace_sha = PINNED_ARTIFACTS[name]
    run_experiment(ExperimentConfig(**kwargs), out_dir=tmp_path)
    digest = lambda f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
    assert digest("predictions.csv") == predictions_sha
    assert digest("trace.csv") == trace_sha


def test_csv_scenario_filters_use_the_csv_sample_time(tmp_path):
    t_s = 0.02
    P, _, _, _ = truth_arrays("helical", 320, t_s)
    path = tmp_path / "input.csv"
    with open(path, "w") as fh:
        fh.write("t,x,y,z\n")
        for k in range(321):
            fh.write(",".join(repr(float(v)) for v in [k * t_s, *P[k]]) + "\n")
    cfg = ExperimentConfig(scenario=f"csv:{path}", sigma=0.0, methods=("aise-fs",), **SMALL)
    run_experiment(cfg, out_dir=tmp_path / "out")

    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["t_s"] == t_s
    assert all(manifest["config"]["aise"][f"order{o}"]["t_s"] == t_s for o in (1, 2, 3))
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    header = lines[0].split(",")
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    for order, key in enumerate(("aise_v", "aise_a", "aise_j"), start=1):
        for ax, name in enumerate("xyz"):
            expected = AiseFilter(benchmark_config(order, t_s)).run(P[:, ax])
            np.testing.assert_array_equal(table[:, header.index(f"{key}{name}")], expected)


def test_csv_scenario_takes_the_mean_spacing_of_epoch_stamps(tmp_path):
    # The first spacing of these stamps is 9.5e-7 relative off 0.01 s; their mean spacing is
    # the sample time of the filters and the manifest.
    P = truth_arrays("helical", 320, 0.01)[0]
    t = 1_700_000_000 + np.arange(321) / 100
    path = tmp_path / "input.csv"
    path.write_text("t,x,y,z\n" + format_csv_lines([t.tolist(), *P.T.tolist()]))
    cfg = ExperimentConfig(scenario=f"csv:{path}", sigma=0.0, methods=("aise-va",), **SMALL)
    run_experiment(cfg, out_dir=tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    t_s = (t[-1] - t[0]) / 320
    assert t_s != t[1] - t[0]
    assert manifest["config"]["t_s"] == t_s
    assert all(manifest["config"]["aise"][f"order{o}"]["t_s"] == t_s for o in (1, 2, 3))


def test_run_experiment_csv_scenario(tmp_path):
    t_s = 0.01
    P = truth_arrays("helical", 320, t_s)[0]
    path = tmp_path / "input.csv"
    t = (np.arange(321) * t_s).tolist()
    path.write_text("t,x,y,z\n" + format_csv_lines([t, *P.T.tolist()]))

    cfg = ExperimentConfig(scenario=f"csv:{path}", sigma=0.0, methods=("bdb-va",),
                           **SMALL)
    rep = run_experiment(cfg)
    assert "BDB/va" in rep.methods
    assert np.all(np.isfinite(rep.methods["BDB/va"]))


def test_run_experiment_rejects_short_csv(tmp_path):
    t_s = 0.01
    P, V, A, J = truth_arrays("helical", 50, t_s)
    path = tmp_path / "short.csv"
    with open(path, "w") as fh:
        fh.write("t,x,y,z\n")
        for k in range(51):
            fh.write(",".join(repr(float(v)) for v in [k * t_s, *P[k]]) + "\n")
    cfg = ExperimentConfig(scenario=f"csv:{path}", **SMALL)
    with pytest.raises(ValueError, match="rows"):
        run_experiment(cfg)


# sha256 of report.json and manifest.json for the PINNED_ARTIFACTS configs. The manifest
# pins, and the parabolic report pin, were re-recorded with the parabolic predictions pin:
# each manifest lost the retired anchor option's key. The helix and parabolic report pins
# move with the ABG gains, as their predictions pins do.
PINNED_JSON_ARTIFACTS = {
    "helix": ("493cc5b3c3d00d5936ffa3b778fa0cdf3d26c56693d258417cb54c310a7a7ea7",
              "dc34acce7606c0d05e85cc953a1802e520c7d1942b7a8ad81b87076ad28cb529"),
    "parabolic": ("c0963bbde3b1aa66a68e0b80840ce9dacf2f3be119d88aa2c12a0e86cb5a4591",
                  "0195f5450be5109d2f3e428ec357d6ada7a783b957011d9d6ffa6ec7ad2abb1f"),
    "truth": ("fff78320a15fbc22f94fd23110d57b1ab76f6e7c4c6909f420dd2838e3e0982f",
              "ad2d719f98fbcddcd9abab2386544f622dfc69207f439484e6fe51109248212d"),
}


@pytest.mark.parametrize("name", sorted(PINNED_JSON_ARTIFACTS))
def test_json_artifact_bytes_are_pinned(tmp_path, name):
    run_experiment(ExperimentConfig(**PINNED_ARTIFACTS[name][0]), out_dir=tmp_path)
    digest = lambda f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
    assert (digest("report.json"), digest("manifest.json")) == PINNED_JSON_ARTIFACTS[name]


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(scenario="helical", **SMALL),
    ExperimentConfig(scenario="parabolic", methods=("bdb-va", "aise-fs"), sigma=0.5,
                     rmse_form="literal", butterworth_order=6, butterworth_cutoff=0.5,
                     aise_order2=replace(benchmark_config(2), r_theta=0.05), **SMALL),
], ids=["helix", "parabolic-tuned"])
def test_manifest_config_reproduces_the_run(tmp_path, cfg):
    run_experiment(cfg, out_dir=tmp_path / "a")
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    run_experiment(config_from_dict(manifest["config"]), out_dir=tmp_path / "b")
    for name in ("report.json", "manifest.json", "trace.csv", "predictions.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("edit, unknown", [
    (lambda d: d["butterworth"].update(cuttoff=1.0), "butterworth_cuttoff"),
    (lambda d: d["aise"].update(order4=d["aise"]["order1"]), "aise_order4"),
    (lambda d: d["aise"]["order1"].update(bogus=1), "bogus"),
    (lambda d: d.update(butterworth_order=8), "butterworth_order"),
    # Written by manifests before every prediction anchored on the measured position.
    (lambda d: d.update(anchor_on_estimate=False), "anchor_on_estimate"),
], ids=["butterworth", "aise-block", "aise-field", "flat-butterworth", "retired-anchor-option"])
def test_config_unknown_nested_key_rejected(edit, unknown):
    data = config_to_dict(ExperimentConfig())
    edit(data)
    with pytest.raises(ValueError, match=f"unknown config fields: \\['{unknown}'\\]"):
        config_from_dict(data)


def test_partial_aise_block_goes_on_top_of_the_benchmark_tuning():
    # A block changes only the fields it names, as the differentiate file does; its own
    # order and t_s are ignored.
    config = config_from_dict({"t_s": 0.02, "aise": {"order1": {"r_d": 0.1},
                                                     "order3": {"beta": 0.6, "order": 1}}})
    assert config.aise_config(1) == benchmark_config(1, 0.02)
    assert config.aise_config(2) == benchmark_config(2, 0.02)
    assert config.aise_config(3) == replace(benchmark_config(3, 0.02), beta=0.6)


def test_config_to_dict_writes_every_field():
    # A field the serializer dropped would come back as its default on both
    # sides of a round trip, and the manifest would lose it silently.
    data = config_to_dict(ExperimentConfig())
    written = {key for key in data if key not in ("schema_version", "aise", "butterworth")}
    written |= {f"aise_{name}" for name in data["aise"]}
    written |= {f"butterworth_{name}" for name in data["butterworth"]}
    assert written == {f.name for f in fields(ExperimentConfig)}


def test_estimate_returns_one_record_per_family():
    cfg = ExperimentConfig(**SMALL)
    measurements = add_noise(truth_arrays("helical", 320, cfg.t_s)[0], 0.1, 5)
    est = estimate(measurements, cfg, {"abg", "bdb", "aise"}, jerk=False)
    assert list(est) == ["aise", "bdb", "abg"]
    assert all(set(record) == {"v", "a"} for record in est.values())
    assert all(a.shape == (321, 3) for record in est.values() for a in record.values())
    with_jerk = estimate(measurements, cfg, {"aise"}, jerk=True)
    assert list(with_jerk) == ["aise"] and set(with_jerk["aise"]) == {"v", "a", "j"}
    for key in "va":
        np.testing.assert_array_equal(with_jerk["aise"][key], est["aise"][key])


def test_aise_va_run_runs_order_three_for_its_trace_only(tmp_path):
    # AISE/va reads orders 1-2; trace.csv still carries the jerk estimates.
    cfg = ExperimentConfig(scenario="helical", methods=("aise-va",), **SMALL)
    traced = run_experiment(cfg, out_dir=tmp_path)
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    header = lines[0].split(",")
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    for name in "xyz":
        filt = AiseFilter(benchmark_config(3))
        expected = [filt.step(y) for y in table[:, header.index(f"m{name}")]]
        np.testing.assert_array_equal(table[:, header.index(f"aise_j{name}")], expected)
    plain = run_experiment(cfg)
    assert list(plain.methods) == list(traced.methods) == ["AISE/va"]
    np.testing.assert_array_equal(plain.methods["AISE/va"], traced.methods["AISE/va"])


def test_repeated_method_rejected():
    # aise-va and AISE/va name one method: a run would score it once and write it twice.
    with pytest.raises(ValueError, match="AISE/va is repeated"):
        ExperimentConfig(methods=("aise-va", "bdb-va", "AISE/va"))


@pytest.mark.parametrize("truth, calls_per_anchor", [(True, 2), (False, 4)],
                         ids=["truth", "estimated"])
def test_methods_reading_one_record_share_one_prediction_set(monkeypatch, truth,
                                                             calls_per_anchor):
    # With exact derivatives the three /va methods read one record, so the first
    # of them predicts for all three; estimated runs predict once per method.
    predicted = []  # one trace per anchor and method predicted
    _recording_predict(monkeypatch, kept=predicted)
    rep = run_experiment(ExperimentConfig(scenario="helical", truth_derivatives=truth, **SMALL))
    assert len(predicted) == calls_per_anchor * rep.n_tilde
    va = [rep.methods[m] for m in ("BDB/va", "ABG/va", "AISE/va")]
    if truth:
        assert va[0].tobytes() == va[1].tobytes() == va[2].tobytes()
    assert va[0] is not va[1] and va[1] is not va[2] and va[0] is not va[2]


def test_copied_prediction_sets_keep_their_bytes_in_tiny_blocks(tmp_path, monkeypatch):
    # Blocks of a few bytes split every line and every method name; the copy
    # must still write the bytes pinned for the truth run.
    monkeypatch.setattr(harness, "_COPY_BLOCK_BYTES", 5)
    run_experiment(ExperimentConfig(**PINNED_ARTIFACTS["truth"][0]), out_dir=tmp_path)
    digest = hashlib.sha256((tmp_path / "predictions.csv").read_bytes()).hexdigest()
    assert digest == PINNED_ARTIFACTS["truth"][1]


@pytest.mark.parametrize("block", [1, 7, 10_000])
@pytest.mark.parametrize("name", ["helix", "truth"])
def test_prediction_blocks_of_any_size_write_the_pinned_bytes(tmp_path, monkeypatch, name, block):
    # One trace per block, a block that splits no set evenly, and one block per set.
    monkeypatch.setattr(harness, "_PREDICTION_BLOCK_TRACES", block)
    run_experiment(ExperimentConfig(**PINNED_ARTIFACTS[name][0]), out_dir=tmp_path)
    digest = hashlib.sha256((tmp_path / "predictions.csv").read_bytes()).hexdigest()
    assert digest == PINNED_ARTIFACTS[name][1]


def test_runtime_leaves_out_the_predictions_written_during_prediction(tmp_path, monkeypatch):
    # The first format_csv_lines call formats the first block of predictions.csv.
    calls = []

    def slow_first(*args, **kwargs):
        if not calls:
            time.sleep(0.2)
        calls.append(None)
        return format_csv_lines(*args, **kwargs)

    monkeypatch.setattr(harness, "format_csv_lines", slow_first)
    start = time.perf_counter()
    rep = run_experiment(ExperimentConfig(scenario="helical", truth_derivatives=True, **SMALL),
                         out_dir=tmp_path)
    assert time.perf_counter() - start - rep.runtime_s >= 0.2


def test_an_estimator_failure_leaves_no_artifact(tmp_path, monkeypatch):
    # A CSV refuses a non-finite position, so the NaN goes into the measurements.
    def nan_at_step_200(P, sigma, seed):
        measurements = add_noise(P, sigma, seed)
        measurements[200, 1] = np.nan
        return measurements

    monkeypatch.setattr(harness, "add_noise", nan_at_step_200)
    cfg = ExperimentConfig(sigma=0.0, **SMALL)
    with pytest.raises(InvalidSample):
        run_experiment(cfg, out_dir=tmp_path / "out")
    # predictions.csv is opened only once estimate() has returned.
    assert not (tmp_path / "out" / "predictions.csv").exists()
    assert not (tmp_path / "out").exists()


def _anchor_traces(trace):
    """The per-anchor traces of a trace that holds one anchor or a block of them."""
    if trace.positions.ndim == 2:
        return [trace]
    return [PredictionTrace(anchor_step=trace.anchor_step + i, method=trace.method,
                            positions=positions) for i, positions in enumerate(trace.positions)]


def _recording_predict(monkeypatch, alive_at_call=None, kept=None):
    """Route harness.predict (AISE/FS, one anchor a call) and harness.va_predict (a /va
    set, a block of anchors a call) through wrappers that record, at each call, how many
    anchors the positions of the traces made so far still hold and how many they held,
    and keep the traces split into one per anchor."""
    refs = []

    def recording(predictor):
        def recorded(*args, **kwargs):
            trace = predictor(*args, **kwargs)
            refs.append((weakref.ref(trace.positions), len(_anchor_traces(trace))))
            if alive_at_call is not None:
                alive_at_call.append((sum(n for ref, n in refs if ref() is not None),
                                      sum(n for _, n in refs)))
            if kept is not None:
                kept.extend(_anchor_traces(trace))
            return trace
        return recorded

    monkeypatch.setattr(harness, "predict", recording(predict))
    monkeypatch.setattr(harness, "va_predict", recording(va_predict))


@pytest.mark.parametrize("truth", [True, False], ids=["truth", "estimated"])
def test_no_trace_outlives_its_block(monkeypatch, tmp_path, truth):
    # With or without artifacts, at any call the predicted positions still alive hold
    # at most one block of anchors, the new call's included, never a whole set.
    monkeypatch.setattr(harness, "_PREDICTION_BLOCK_TRACES", 16)
    cfg = ExperimentConfig(scenario="helical", truth_derivatives=truth, **SMALL)
    for out_dir in (None, tmp_path):
        alive = []
        _recording_predict(monkeypatch, alive_at_call=alive)
        rep = run_experiment(cfg, out_dir=out_dir)
        assert alive[-1][1] == (2 if truth else 4) * rep.n_tilde
        assert rep.n_tilde > 2 * 16
        assert max(now for now, _ in alive) == 16


@pytest.mark.parametrize("form", ["standard", "literal"])
@pytest.mark.parametrize("truth", [True, False], ids=["truth", "estimated"])
def test_scores_as_predicted_match_rmse_of_the_traces(monkeypatch, truth, form):
    cfg = ExperimentConfig(scenario="helical", truth_derivatives=truth, rmse_form=form, **SMALL)
    kept = []
    _recording_predict(monkeypatch, kept=kept)
    rep = run_experiment(cfg)
    truth_p = truth_arrays(cfg.scenario, cfg.n_steps, cfg.t_s)[0]
    by_method = {}
    for trace in kept:
        by_method.setdefault(trace.method, []).append(trace)
    # Under truth_derivatives the /va methods share the first one's traces.
    assert set(by_method) == ({"BDB/va", "AISE/FS"} if truth else set(cfg.methods))
    for method, values in rep.methods.items():
        traces = by_method.get(method, by_method["BDB/va"])
        expected = rmse(truth_p, traces, cfg.horizon, cfg.k0, form)
        assert values.tobytes() == expected.tobytes()


def test_va_sets_predicted_in_blocks_score_as_per_anchor_predictions():
    # Each /va set is predicted a block of anchors per call; its RMSE has the bits of
    # rmse() over one predict() trace per anchor. 453 anchors split into 64-anchor blocks
    # unevenly, and neither k0 nor the horizon is the default.
    cfg = ExperimentConfig(scenario="helical", n_steps=700, k0=211, horizon=37, seed=4,
                           methods=("BDB/va", "ABG/va", "AISE/va"), rmse_form="literal")
    rep = run_experiment(cfg)
    truth_p = truth_arrays(cfg.scenario, cfg.n_steps, cfg.t_s)[0]
    measurements = add_noise(truth_p, cfg.resolved_sigma(), cfg.seed)
    est = estimate(measurements, cfg, {"aise", "bdb", "abg"}, jerk=False)
    anchors = range(cfg.k0, cfg.n_steps - cfg.horizon + 1)
    assert rep.n_tilde == len(anchors) == 453
    for method in cfg.methods:
        v, a = est[method_family(method)]["v"], est[method_family(method)]["a"]
        traces = [predict(method, measurements[k], DerivativeEstimate(v[k], a[k]),
                          cfg.horizon, cfg.t_s, anchor_step=k) for k in anchors]
        expected = rmse(truth_p, traces, cfg.horizon, cfg.k0, "literal")
        assert rep.methods[method].tobytes() == expected.tobytes()


@pytest.mark.parametrize("truth", [True, False], ids=["truth", "estimated"])
def test_runs_with_and_without_out_dir_report_the_same_bytes(tmp_path, truth):
    cfg = ExperimentConfig(scenario="helical", truth_derivatives=truth, **SMALL)
    plain, written = run_experiment(cfg), run_experiment(cfg, out_dir=tmp_path)
    assert list(plain.methods) == list(written.methods)
    for method, values in plain.methods.items():
        assert values.tobytes() == written.methods[method].tobytes()
