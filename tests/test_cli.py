import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from aisepred.aise import AiseFilter, benchmark_config
from aisepred.baselines import AbgFilter, BdbDifferentiator
from aisepred.cli import main
from aisepred.harness import ExperimentConfig, normalize_method, run_experiment
from aisepred.oracles import compute_goldens
from aisepred.prediction import DerivativeEstimate, predict
from aisepred.scenarios import add_noise, truth_arrays


def write_csv(path, t, columns):
    with open(path, "w", newline="") as fh:
        fh.write("t," + ",".join(columns) + "\n")
        for i in range(len(t)):
            row = [t[i]] + [columns[name][i] for name in columns]
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_columns(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


def test_differentiate_constant_column(tmp_path):
    t = np.arange(300) * 0.01
    write_csv(tmp_path / "in.csv", t, {"x": np.full(300, 7.5)})
    out = tmp_path / "out.csv"
    assert main(["differentiate", str(tmp_path / "in.csv"), "--order", "1",
                 "--out", str(out)]) == 0
    header, rows = read_columns(out)
    assert header == ["t", "dx"]
    assert len(rows) == 300
    assert abs(float(rows[-1][1])) < 1e-4


def test_differentiate_ramp_tracks_slope(tmp_path):
    t = np.arange(2500) * 0.01
    write_csv(tmp_path / "in.csv", t, {"x": 2.0 * t})
    out = tmp_path / "out.csv"
    assert main(["differentiate", str(tmp_path / "in.csv"), "--out", str(out)]) == 0
    _, rows = read_columns(out)
    assert abs(float(rows[-1][1]) - 2.0) / 2.0 < 0.1


def test_differentiate_matches_harness_trace_bit_exact(tmp_path):
    # The same measurement stream through the CLI reproduces the harness's
    # velocity-estimate column byte for byte.
    cfg = ExperimentConfig(scenario="helical", n_steps=400, k0=200, horizon=50,
                           seed=7, methods=("aise-va",))
    run_experiment(cfg, out_dir=tmp_path / "exp")
    header, rows = read_columns(tmp_path / "exp" / "trace.csv")
    t_idx, mx_idx, vx_idx = header.index("t"), header.index("mx"), header.index("aise_vx")
    with open(tmp_path / "in.csv", "w") as fh:
        fh.write("t,x\n")
        for row in rows:
            fh.write(f"{row[t_idx]},{row[mx_idx]}\n")
    out = tmp_path / "out.csv"
    assert main(["differentiate", str(tmp_path / "in.csv"), "--order", "1",
                 "--out", str(out)]) == 0
    _, drows = read_columns(out)
    assert [r[1] for r in drows] == [r[vx_idx] for r in rows]


def test_differentiate_malformed_csv_exit_code(tmp_path, capsys):
    (tmp_path / "bad.csv").write_text("t,x\n0.0,1.0\n0.01,zzz\n")
    assert main(["differentiate", str(tmp_path / "bad.csv")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_predict_subcommand(tmp_path):
    t_s = 0.01
    P, _, _, _ = truth_arrays("helical", 500, t_s)
    write_csv(tmp_path / "in.csv", np.arange(501) * t_s,
              {"x": P[:, 0], "y": P[:, 1], "z": P[:, 2]})
    out = tmp_path / "pred.csv"
    assert main(["predict", str(tmp_path / "in.csv"), "--method", "aise-fs",
                 "--horizon", "40", "--out", str(out)]) == 0
    header, rows = read_columns(out)
    assert header == ["l", "x", "y", "z"]
    assert len(rows) == 40
    assert all(np.isfinite(float(v)) for v in rows[-1])


def twin_prediction(P, method, horizon, t_s):
    """The CLI's prediction rebuilt by stepping the public filter classes sample by sample."""
    if method.startswith("AISE/"):
        orders = (1, 2, 3) if method == "AISE/FS" else (1, 2)
        banks = [[AiseFilter(benchmark_config(o, t_s)) for _ in range(3)] for o in orders]
    elif method == "BDB/va":
        banks = [[BdbDifferentiator(t_s) for _ in range(3)]]
    else:
        banks = [[AbgFilter(0.6, t_s) for _ in range(3)]]
    for row in P:
        last = [np.array([f.step(p) for f, p in zip(bank, row)]).T for bank in banks]
    if method.startswith("AISE/"):
        estimates = DerivativeEstimate(*last)  # one order per field: v, a[, j]
    else:
        estimates = DerivativeEstimate(*last[0][-2:])  # BDB gives (v, a), ABG (p, v, a)
    return predict(method, P[-1], estimates, horizon, t_s, anchor_step=len(P) - 1).positions


@pytest.mark.parametrize("method", ["aise-fs", "aise-va", "bdb-va", "abg-va"])
def test_predict_subcommand_matches_stepped_filters(tmp_path, method):
    t_s = 0.01
    P, _, _, _ = truth_arrays("helical", 300, t_s)
    P = add_noise(P, 0.1, 3)
    write_csv(tmp_path / "in.csv", np.arange(301) * t_s,
              {"x": P[:, 0], "y": P[:, 1], "z": P[:, 2]})
    out = tmp_path / "pred.csv"
    assert main(["predict", str(tmp_path / "in.csv"), "--method", method,
                 "--horizon", "30", "--out", str(out)]) == 0
    _, rows = read_columns(out)
    expected = twin_prediction(P, normalize_method(method), 30, t_s)
    assert [r[1:] for r in rows] == [[repr(float(x)) for x in pos] for pos in expected]


def test_experiment_cli_with_flags(tmp_path, capsys):
    code = main([
        "experiment", "--scenario", "parabolic", "--n-steps", "320",
        "--k0", "150", "--horizon", "60", "--seed", "2", "--sigma", "0",
        "--truth-derivatives", "--methods", "aise-va,aise-fs",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "AISE/va" in out and "AISE/FS" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["scenario"] == "parabolic"
    assert report["methods"]["AISE/va"]["rmse_x"] < 1e-9


def test_experiment_cli_config_file_with_override(tmp_path):
    config = {
        "schema_version": 1,
        "scenario": "helical",
        "n_steps": 320,
        "k0": 150,
        "horizon": 60,
        "seed": 1,
        "sigma": 0.0,
        "methods": ["aise-va"],
        "truth_derivatives": True,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "run"
    assert main(["experiment", "--config", str(cfg_path), "--seed", "9",
                 "--out-dir", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 9  # flag overrides file


def test_experiment_rejects_unknown_flag():
    with pytest.raises(SystemExit):
        main(["experiment", "--scenario", "helical", "--turbo"])


def test_experiment_invalid_config_is_error(capsys):
    assert main(["experiment", "--scenario", "helical", "--n-steps", "100",
                 "--k0", "90", "--horizon", "60"]) == 2
    assert "k0 + horizon" in capsys.readouterr().err


def test_experiment_repeated_method_is_error(capsys):
    assert main(["experiment", "--scenario", "helical", "--n-steps", "100", "--k0", "20",
                 "--horizon", "10", "--methods", "aise-va,AISE/va"]) == 2
    assert "AISE/va is repeated" in capsys.readouterr().err


def test_goldens_regeneration_matches_checked_in(tmp_path):
    out = tmp_path / "goldens.json"
    assert main(["goldens", "--out", str(out)]) == 0
    fresh = json.loads(out.read_text())
    import pathlib

    stored = json.loads((pathlib.Path(__file__).parent / "goldens.json").read_text())
    assert fresh["abg"] == pytest.approx(stored["abg"])
    assert fresh["helix"] == pytest.approx(stored["helix"])
    assert fresh["gamma0_series"]["max_abs_error"] < 1e-9
    assert fresh["gamma1_quadrature"]["max_abs_error"] < 1e-8


def test_compute_goldens_deterministic():
    a = compute_goldens()
    b = compute_goldens()
    assert a == b


def test_differentiate_unknown_config_key_is_error(tmp_path, capsys):
    t = np.arange(100) * 0.01
    write_csv(tmp_path / "in.csv", t, {"x": np.sin(t)})
    (tmp_path / "cfg.json").write_text(json.dumps({"beta": 0.6, "bogus": 1}))
    assert main(["differentiate", str(tmp_path / "in.csv"), "--config",
                 str(tmp_path / "cfg.json")]) == 2
    assert "error: unknown config fields: ['bogus']" in capsys.readouterr().err


def test_experiment_unknown_aise_config_key_is_error(tmp_path, capsys):
    config = {"scenario": "helical", "n_steps": 320, "k0": 150, "horizon": 60,
              "aise": {"order1": {"bogus": 1}}}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["experiment", "--config", str(tmp_path / "cfg.json")]) == 2
    assert "error: unknown config fields: ['bogus']" in capsys.readouterr().err


def test_differentiate_config_overrides_all_but_order_and_sample_time(tmp_path):
    # order and t_s in the file are ignored: --order and the CSV's spacing set them.
    t = np.arange(300) * 0.02
    x = np.sin(t) + 0.01 * np.random.default_rng(0).normal(size=300)
    write_csv(tmp_path / "in.csv", t, {"x": x})
    (tmp_path / "cfg.json").write_text(json.dumps({"order": 3, "t_s": 1.0, "r_theta": 0.05}))
    out = tmp_path / "out.csv"
    assert main(["differentiate", str(tmp_path / "in.csv"), "--order", "2",
                 "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    _, rows = read_columns(out)
    cfg = replace(benchmark_config(2, float(t[1] - t[0])), r_theta=0.05)
    assert [r[1] for r in rows] == [repr(float(v)) for v in AiseFilter(cfg).run(x)]


def test_experiment_truth_derivatives_flag_keeps_the_file_value(tmp_path):
    # Without --truth-derivatives the file's value stands; with it, the flag sets it.
    config = {"scenario": "parabolic", "n_steps": 320, "k0": 150, "horizon": 60,
              "sigma": 0.0, "methods": ["aise-va"], "truth_derivatives": True}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["experiment", "--config", str(tmp_path / "cfg.json"),
                 "--out-dir", str(tmp_path / "run")]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["config"]["truth_derivatives"] is True


@pytest.mark.parametrize("command, payload", [
    ("differentiate", [1]),
    ("experiment", []),
    ("experiment", {"aise": [1]}),
    ("experiment", {"butterworth": 3}),
    ("experiment", {"aise": {"order1": 5}}),
    ("checkpoint", 5),
    ("checkpoint", None),
], ids=["differentiate-list", "experiment-list", "aise-list", "butterworth-int",
        "aise-order-int", "checkpoint-int", "checkpoint-null"])
def test_config_of_the_wrong_json_type_is_an_error(tmp_path, capsys, command, payload):
    if command == "checkpoint":
        with pytest.raises(ValueError, match="checkpoint must be a JSON object"):
            AiseFilter.from_json(json.dumps(payload))
        return
    t = np.arange(100) * 0.01
    write_csv(tmp_path / "in.csv", t, {"x": np.sin(t)})
    (tmp_path / "cfg.json").write_text(json.dumps(payload))
    inputs = [str(tmp_path / "in.csv")] if command == "differentiate" else []
    assert main([command, *inputs, "--config", str(tmp_path / "cfg.json")]) == 2
    assert "must be a JSON object, got" in capsys.readouterr().err


@pytest.mark.parametrize("payload, record", [
    ({"n_steps": "400"}, "ExperimentConfig"),
    ({"aise": {"order1": {"r_theta": "x"}}}, "AiseConfig"),
    ({"n_steps": 400.5, "k0": 100, "horizon": 50}, "ExperimentConfig"),
    ({"aise": {"order1": {"n_e": 2.5}}}, "AiseConfig"),
    ({"seed": True}, "ExperimentConfig"),
    ({"aise": {"order3": {"adapt_start": 60.0}}}, "AiseConfig"),
    ({"truth_derivatives": "false"}, "ExperimentConfig"),
    ({"sigma": "0.1"}, "ExperimentConfig"),
    ({"scenario": 5}, "ExperimentConfig"),
    ({"methods": [1]}, "ExperimentConfig"),
], ids=["n_steps-string", "r_theta-string", "n_steps-float", "n_e-float", "seed-bool",
        "adapt_start-float", "truth_derivatives-string", "sigma-string", "scenario-int",
        "methods-int"])
def test_config_value_of_the_wrong_scalar_type_is_an_error(tmp_path, capsys, payload, record):
    # Beside the wrong-container cases above: a string where a number goes, or a float
    # or bool where an integer goes, is a usage error naming the record, not a traceback.
    (tmp_path / "cfg.json").write_text(json.dumps(payload))
    assert main(["experiment", "--config", str(tmp_path / "cfg.json")]) == 2
    assert f"{record}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["differentiate", "--order", "2"],
    ["predict", "--method", "aise-fs", "--horizon", "20"],
], ids=["differentiate", "predict"])
def test_stdout_gets_the_bytes_of_the_out_file(tmp_path, capsys, argv):
    t_s = 0.01
    P = add_noise(truth_arrays("helical", 200, t_s)[0], 0.1, 2)
    write_csv(tmp_path / "in.csv", np.arange(201) * t_s, {"x": P[:, 0], "y": P[:, 1], "z": P[:, 2]})
    command, options = argv[0], [str(tmp_path / "in.csv"), *argv[1:]]
    assert main([command, *options, "--out", str(tmp_path / "out.csv")]) == 0
    capsys.readouterr()
    assert main([command, *options]) == 0
    assert capsys.readouterr().out.encode() == (tmp_path / "out.csv").read_bytes()
