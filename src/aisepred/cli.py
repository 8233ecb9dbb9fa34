"""Command-line front end: differentiation, prediction, experiment reproduction.

Every experiment run writes a manifest (config hash, package version, seed)
alongside its artifacts so results can be reproduced byte-for-byte.
"""

import argparse
import contextlib
import json
import sys
from dataclasses import fields, replace

from . import __version__
from .aise import AiseFilter
from .harness import (ExperimentConfig, estimate, load_config, method_family, normalize_method,
                      run_experiment, tuned_aise_config)
from .prediction import DerivativeEstimate, predict
from .scenarios import format_csv_lines, read_positions_csv, read_timeseries_csv, sample_time


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aisepred",
        description="Real-time differentiation of noisy position streams and trajectory prediction",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_diff = sub.add_parser("differentiate", help="estimate a derivative of each CSV column")
    p_diff.add_argument("csv_in", help="input CSV with header t,<col>[,...] at a uniform rate")
    p_diff.add_argument("--order", type=int, default=1, choices=(1, 2, 3),
                        help="derivative order (default 1)")
    p_diff.add_argument("--config", help="JSON file of estimator parameter overrides")
    p_diff.add_argument("--out", help="output CSV path (default: stdout)")
    p_diff.set_defaults(func=_cmd_differentiate)

    p_pred = sub.add_parser("predict", help="predict ahead from the last row of a position CSV")
    p_pred.add_argument("csv_in", help="input CSV with header t,x,y,z at a uniform rate")
    p_pred.add_argument("--method", default="aise-fs",
                        help="aise-va, aise-fs, bdb-va, or abg-va (default aise-fs)")
    p_pred.add_argument("--horizon", type=int, default=100, help="steps ahead (default 100)")
    p_pred.add_argument("--tracking-index", type=float, default=0.6)
    p_pred.add_argument("--out", help="output CSV path (default: stdout)")
    p_pred.set_defaults(func=_cmd_predict)

    p_exp = sub.add_parser("experiment", help="run a benchmark scenario and report RMSE")
    p_exp.add_argument("--config", help="JSON experiment config (flags override its values)")
    p_exp.add_argument("--scenario", help="parabolic, helical, or csv:<path>")
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--sigma", type=float, help="measurement noise std dev, meters")
    p_exp.add_argument("--horizon", type=int)
    p_exp.add_argument("--n-steps", type=int)
    p_exp.add_argument("--k0", type=int)
    p_exp.add_argument("--methods", type=lambda s: [m for m in s.split(",") if m.strip()],
                       help="comma-separated method list, e.g. aise-va,aise-fs")
    p_exp.add_argument("--rmse-form", choices=("standard", "literal"))
    p_exp.add_argument("--out-dir", help="directory for report.json/trace.csv/predictions.csv")
    p_exp.add_argument("--truth-derivatives", action="store_true", default=None,
                       help="bypass estimators and inject exact derivatives")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def _output(path):
    """The --out file to write, or stdout when no path is given."""
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


def _cmd_differentiate(args):
    t, cols = read_timeseries_csv(args.csv_in)
    t_s = sample_time(t)
    overrides = {}
    if args.config:
        with open(args.config) as fh:
            overrides = json.load(fh)
    # The file's order and t_s are ignored: --order and the CSV set them.
    config = tuned_aise_config(args.order, overrides, t_s)
    derivatives = [AiseFilter(config).run(column).tolist() for column in cols.values()]
    with _output(args.out) as out:
        out.write("t," + ",".join(f"d{name}" for name in cols) + "\n")
        out.write(format_csv_lines([t.tolist(), *derivatives]))
    return 0


def _cmd_predict(args):
    method = normalize_method(args.method)
    t, P = read_positions_csv(args.csv_in)
    t_s = sample_time(t)
    config = ExperimentConfig(t_s=t_s, tracking_index=args.tracking_index)
    family = method_family(method)
    record = estimate(P, config, {family}, jerk=method == "AISE/FS")[family]
    estimates = DerivativeEstimate(v=record["v"][-1], a=record["a"][-1],
                                   j=record["j"][-1] if "j" in record else None)
    trace = predict(method, P[-1], estimates, args.horizon, t_s, anchor_step=len(P) - 1)
    with _output(args.out) as out:
        out.write("l,x,y,z\n")
        out.write(format_csv_lines([range(1, len(trace.positions) + 1), *trace.positions.T.tolist()]))
    return 0


def _cmd_experiment(args):
    config = load_config(args.config) if args.config else ExperimentConfig()
    # Every flag whose dest is a config field overrides the file when given.
    overrides = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                 if getattr(args, f.name, None) is not None}
    config = replace(config, **overrides)
    report = run_experiment(config, out_dir=args.out_dir)
    print(f"scenario={config.scenario} n_steps={config.n_steps} k0={config.k0} "
          f"horizon={config.horizon} sigma={report.config['sigma']} seed={config.seed} "
          f"n_tilde={report.n_tilde}")
    for method, values in report.methods.items():
        print(f"{method:8s} RMSE_x={values[0]:.4f} RMSE_y={values[1]:.4f} "
              f"RMSE_z={values[2]:.4f}")
    print(f"runtime: {report.runtime_s:.2f} s")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
