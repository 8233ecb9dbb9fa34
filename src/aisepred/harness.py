"""End-to-end experiment runner for the two benchmark scenarios.

A run has three phases. estimate() runs the estimator families the methods
name (AISE orders 1-3 per axis, and the two baselines) over the whole noisy
measurement stream, one channel at a time, and returns one record of
position, velocity, acceleration (and AISE jerk) per family; with
truth_derivatives the exact derivatives stand in as the AISE record.
Prediction then anchors a trace at every step in [k0, n_steps - horizon],
reading the record of the method's family, and rmse() scores the horizon
endpoints against noiseless truth. Runs are deterministic for a fixed
config and seed: repeated runs produce byte-identical artifacts.
"""

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .aise import AiseConfig, AiseFilter, benchmark_config, from_fields, json_object
from .baselines import AbgFilter, BdbDifferentiator
from .frenet import DegenerateGeometry, scalar_params
from .prediction import METHODS, DerivativeEstimate, predict
from .scenarios import SCENARIOS, add_noise, format_csv_lines, read_positions_csv, truth_arrays

__all__ = [
    "ExperimentConfig",
    "RmseReport",
    "normalize_method",
    "method_family",
    "rmse",
    "estimate",
    "run_experiment",
    "config_to_dict",
    "config_from_dict",
    "load_config",
]

_DEFAULT_SIGMA = {"parabolic": 1.0, "helical": 0.1}
# Rows of trace.csv formatted per write: larger blocks raise peak RSS.
_TRACE_BLOCK_ROWS = 100


def normalize_method(name):
    """Map a CLI-style method name (aise-fs) or canonical tag (AISE/FS) to the tag."""
    if name in METHODS:
        return name
    aliases = {m.lower().replace("/", "-"): m for m in METHODS}
    key = name.strip().lower()
    if key in aliases:
        return aliases[key]
    raise ValueError(f"unknown method {name!r}; expected one of {sorted(aliases)}")


def method_family(method):
    """The estimator family whose record a method reads: "aise", "bdb" or "abg"."""
    return method.split("/")[0].lower()


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run.

    Steps run k = 0..n_steps inclusive; predictions are anchored at every
    k in [k0, n_steps - horizon]. sigma = None selects the scenario default
    (1.0 m for the planar trajectory, 0.1 m for the helix, 0 for CSV input).
    """

    scenario: str = "helical"
    n_steps: int = 5000
    k0: int = 2000
    horizon: int = 100
    sigma: float | None = None
    seed: int = 0
    t_s: float = 0.01
    methods: tuple = ("BDB/va", "ABG/va", "AISE/va", "AISE/FS")
    rmse_form: str = "standard"
    truth_derivatives: bool = False
    anchor_on_estimate: bool = False
    aise_order1: AiseConfig | None = None
    aise_order2: AiseConfig | None = None
    aise_order3: AiseConfig | None = None
    butterworth_order: int = 10
    butterworth_cutoff: float = 0.8 * np.pi
    tracking_index: float = 0.6

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(normalize_method(m) for m in self.methods))
        if not self.methods:
            raise ValueError("at least one prediction method is required")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.k0 < 0:
            raise ValueError("k0 must be >= 0")
        if self.k0 + self.horizon >= self.n_steps:
            raise ValueError(
                f"need k0 + horizon < n_steps, got {self.k0} + {self.horizon} >= {self.n_steps}"
            )
        if self.rmse_form not in ("standard", "literal"):
            raise ValueError(f"rmse_form must be 'standard' or 'literal', got {self.rmse_form!r}")
        if not (self.scenario in SCENARIOS or self.scenario.startswith("csv:")):
            raise ValueError(
                f"scenario must be one of {SCENARIOS} or 'csv:<path>', got {self.scenario!r}"
            )
        if self.scenario.startswith("csv:") and self.truth_derivatives:
            raise ValueError("truth-derivative injection requires an analytic scenario")

    def resolved_sigma(self):
        if self.sigma is not None:
            return self.sigma
        return _DEFAULT_SIGMA.get(self.scenario, 0.0)

    def aise_config(self, order):
        override = getattr(self, f"aise_order{order}")
        if override is not None:
            return replace(override, order=order, t_s=self.t_s)
        return benchmark_config(order, t_s=self.t_s)


@dataclass
class RmseReport:
    """Per-method horizon-endpoint RMSE (x, y, z), in meters."""

    methods: dict
    n_tilde: int
    runtime_s: float
    config: dict


def rmse(truth_positions, traces, horizon, k0, form="standard"):
    """Per-axis RMSE of horizon-endpoint predictions against noiseless truth.

    truth_positions has one row per step 0..N; traces is the collection of
    prediction traces for one method, holding every anchor in [k0, N - horizon].
    The standard form is sqrt(mean(e^2)); the literal form divides the root of
    the summed squares by the anchor count instead.
    """
    truth_positions = np.asarray(truth_positions, dtype=float)
    n_last = len(truth_positions) - 1
    by_anchor = {tr.anchor_step: tr for tr in traces}
    errors = np.empty((n_last - horizon - k0 + 1, 3))
    for i, k in enumerate(range(k0, n_last - horizon + 1)):
        trace = by_anchor.get(k)
        if trace is None:
            raise ValueError(f"missing prediction trace for anchor step {k}")
        errors[i] = truth_positions[k + horizon] - trace.positions[horizon - 1]
    n_tilde = len(errors)
    root = np.sqrt((errors**2).sum(axis=0))
    if form == "standard":
        return root / np.sqrt(n_tilde)
    if form == "literal":
        return root / n_tilde
    raise ValueError(f"unknown RMSE form {form!r}")


def _load_scenario(config):
    """Resolve truth arrays and sample time for the configured scenario."""
    if config.scenario.startswith("csv:"):
        path = config.scenario[4:]
        t, P = read_positions_csv(path)
        n_steps = min(config.n_steps, len(P) - 1)
        if config.k0 + config.horizon >= n_steps:
            raise ValueError(
                f"CSV provides {len(P)} rows; need k0 + horizon < {n_steps}"
            )
        t_s = float(t[1] - t[0])
        return P, None, None, None, n_steps, t_s
    P, V, A, J = truth_arrays(config.scenario, config.n_steps, config.t_s)
    return P, V, A, J, config.n_steps, config.t_s


def estimate(measurements, config, families, jerk):
    """Run the named estimator families over a whole (N, 3) measurement stream.

    families is a collection of "aise" (AISE orders 1-2, and order 3 when
    jerk is set, tuned by config.aise_config), "bdb" and "abg" (the
    baselines), all at sample time config.t_s. Returns one record per
    family, in the order aise, bdb, abg, mapping "p", "v", "a" (and "j" for
    AISE with jerk) to (N, 3) arrays; p is the family's position estimate,
    for AISE the order-1 filter's assimilated position. The channels are
    independent, so each runs over its whole column in turn, with the same
    bits as a sample-by-sample interleaving.
    """
    measurements = np.asarray(measurements, dtype=float)
    est = {}
    if "aise" in families:
        record = est["aise"] = {"p": np.empty(measurements.shape)}
        pos = record["p"]
        for order, key in enumerate("vaj" if jerk else "va", start=1):
            out = record[key] = np.empty(measurements.shape)
            for ax, column in enumerate(measurements.T):
                filt = AiseFilter(config.aise_config(order))
                for k, y in enumerate(column.tolist()):
                    out[k, ax] = filt.step(y)
                    if order == 1:
                        pos[k, ax] = filt.x_da[0]
    # Each run() returns its outputs in the order the zip names them.
    if "bdb" in families:
        est["bdb"] = dict(zip("vap", np.stack([
            BdbDifferentiator(config.t_s, config.butterworth_order, config.butterworth_cutoff).run(c)
            for c in measurements.T], axis=2)))
    if "abg" in families:
        est["abg"] = dict(zip("pva", np.stack(
            [AbgFilter(config.tracking_index, config.t_s).run(c) for c in measurements.T], axis=2)))
    return est


def run_experiment(config, out_dir=None):
    """Run one experiment; returns the RMSE report and optionally writes artifacts.

    With out_dir set, writes report.json, trace.csv, predictions.csv, and
    manifest.json into it.
    """
    start = time.perf_counter()
    P, V, A, J, n_steps, t_s = _load_scenario(config)
    # A CSV brings its own sample time: the AISE filters and the manifest use it.
    config = replace(config, t_s=t_s)
    sigma = config.resolved_sigma()
    measurements = add_noise(P[: n_steps + 1], sigma, config.seed)

    if config.truth_derivatives:
        # Every method reads the exact derivatives; the measurements stand in for p.
        est = {"aise": {"p": measurements, "v": V, "a": A, "j": J}}
    else:
        # trace.csv carries all three AISE orders, so writing it runs order 3.
        est = estimate(measurements, config, {method_family(m) for m in config.methods},
                       jerk="AISE/FS" in config.methods or out_dir is not None)

    first_anchor, last_anchor = config.k0, n_steps - config.horizon
    traces = {}
    for method in config.methods:
        record = est["aise" if config.truth_derivatives else method_family(method)]
        v, a, j = record["v"], record["a"], record.get("j")
        anchors = record["p"] if config.anchor_on_estimate else measurements
        traces[method] = [
            predict(method, anchors[k],
                    DerivativeEstimate(v=v[k], a=a[k], j=None if j is None else j[k]),
                    config.horizon, t_s, anchor_step=k)
            for k in range(first_anchor, last_anchor + 1)
        ]

    report_methods = {
        m: rmse(P[: n_steps + 1], traces[m], config.horizon, config.k0, config.rmse_form)
        for m in config.methods
    }
    resolved = config_to_dict(config)
    resolved["sigma"] = sigma
    report = RmseReport(
        methods=report_methods,
        n_tilde=last_anchor - first_anchor + 1,
        runtime_s=time.perf_counter() - start,
        config=resolved,
    )

    if out_dir is not None:
        _write_artifacts(out_dir, config, report, n_steps, P, measurements, est, traces)
    return report


# ---------------------------------------------------------------------------
# Config serialization
# ---------------------------------------------------------------------------


def config_to_dict(config):
    """JSON-ready dict of every experiment parameter (schema version 1).

    The fields of ExperimentConfig in order, except that aise_orderN (resolved
    through aise_config) and butterworth_* sit in nested aise and butterworth blocks.
    """
    out = {"schema_version": 1}
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        block, _, key = f.name.partition("_")
        if block == "aise":
            out.setdefault(block, {})[key] = asdict(config.aise_config(int(key[-1])))
        elif block == "butterworth":
            out.setdefault(block, {})[key] = value
        else:
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def config_from_dict(data):
    """Inverse of config_to_dict; unknown keys are rejected at every level."""
    data = dict(json_object(data, "config"))
    version = data.pop("schema_version", 1)
    if version != 1:
        raise ValueError(f"unsupported config schema version {version!r}")
    flat = sorted(key for key in data if key.startswith(("aise_", "butterworth_")))
    if flat:  # these fields are read only from their nested blocks
        raise ValueError(f"unknown config fields: {flat}")
    for name, block in json_object(data.pop("aise", {}), "aise").items():
        data[f"aise_{name}"] = None if block is None else from_fields(AiseConfig, block)
    for name, value in json_object(data.pop("butterworth", {}), "butterworth").items():
        data[f"butterworth_{name}"] = value
    return from_fields(ExperimentConfig, data)


def load_config(path):
    with open(path) as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def _write_artifacts(out_dir, config, report, n_steps, truth, measurements, est, traces):
    os.makedirs(out_dir, exist_ok=True)
    resolved = report.config

    payload = {
        "schema_version": 1,
        "scenario": config.scenario,
        "n_steps": n_steps,
        "k0": config.k0,
        "horizon": config.horizon,
        "sigma": resolved["sigma"],
        "seed": config.seed,
        "rmse_form": config.rmse_form,
        "truth_derivatives": config.truth_derivatives,
        "n_tilde": report.n_tilde,
        "methods": {
            m: {"rmse_x": float(v[0]), "rmse_y": float(v[1]), "rmse_z": float(v[2])}
            for m, v in report.methods.items()
        },
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    config_json = json.dumps(resolved, sort_keys=True)
    manifest = {
        "schema_version": 1,
        "package_version": __version__,
        "seed": config.seed,
        "config_sha256": hashlib.sha256(config_json.encode()).hexdigest(),
        "config": resolved,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")

    columns = ["step", "t", "px", "py", "pz", "mx", "my", "mz"]
    table = [np.arange(n_steps + 1)[:, None] * config.t_s, truth, measurements]
    for family, record in est.items():
        for key, values in record.items():
            if key != "p":  # the position estimates are not written
                columns += [f"{family}_{key}{ax}" for ax in "xyz"]
                table.append(values)
    if "AISE/FS" in config.methods:
        aise = est["aise"]
        columns += ["kappa", "tau", "u", "fs_fallback"]
        params = np.full((n_steps + 1, 3), np.nan)
        fallback = np.zeros((n_steps + 1, 1), dtype=int)
        for k in range(n_steps + 1):
            try:
                speed, curvature, torsion = scalar_params(aise["v"][k], aise["a"][k], aise["j"][k])
                params[k] = curvature, torsion, speed
            except DegenerateGeometry:
                fallback[k] = 1
        table += [params, fallback]
    with open(os.path.join(out_dir, "trace.csv"), "w") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, n_steps + 1, _TRACE_BLOCK_ROWS):
            hi = min(lo + _TRACE_BLOCK_ROWS, n_steps + 1)
            cols = [range(lo, hi)] + [c for part in table for c in part[lo:hi].T.tolist()]
            fh.write(format_csv_lines(cols))

    with open(os.path.join(out_dir, "predictions.csv"), "w") as fh:
        fh.write("anchor,method,l,x,y,z\n")
        for method in config.methods:
            for trace in traces[method]:
                fh.write(format_csv_lines([range(1, trace.horizon + 1), *trace.positions.T.tolist()],
                                          prefix=f"{trace.anchor_step},{method},"))
