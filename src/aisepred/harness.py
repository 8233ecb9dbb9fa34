"""End-to-end experiment runner for the two benchmark scenarios.

A run has three phases. estimate() runs the estimator families the methods
name (AISE orders 1-3 per axis, and the two baselines) over the whole noisy
measurement stream, one channel at a time, and returns one record of
velocity, acceleration (and AISE jerk) estimates per family; with
truth_derivatives the exact derivatives stand in as the AISE record.
Prediction then anchors a trace on the measured position at every step in
[k0, n_steps - horizon], reading the derivatives from the record of the
method's family. The anchors go in blocks: a /va set predicts a block in one
call, AISE/FS one trace per anchor. Each block's horizon endpoints are scored
against noiseless truth as the block is made, with the reduction rmse()
applies. With artifacts, each block goes to predictions.csv as it is made,
so no trace outlives its block. Runs are deterministic
for a fixed config and seed: repeated runs produce byte-identical artifacts.
"""

import hashlib
import json
import os
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .aise import AiseConfig, AiseFilter, benchmark_config, from_fields, json_object
from .baselines import AbgFilter, BdbDifferentiator, abg_gains, check_butterworth_design
from .frenet import DegenerateGeometry, scalar_params
from .integrators import check_sample_time
from .prediction import METHODS, DerivativeEstimate, predict, va_predict
from .scenarios import (SCENARIOS, add_noise, format_csv_lines, read_positions_csv, sample_time,
                        truth_arrays)

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
# Anchors predicted, scored and written per block: one costs time, a whole set memory.
_PREDICTION_BLOCK_TRACES = 64
# Bytes of predictions.csv read back per block when a prediction set is copied.
_COPY_BLOCK_BYTES = 1 << 18


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
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"method {max(self.methods, key=self.methods.count)} is repeated")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        check_sample_time(self.t_s)
        if self.sigma is not None and not 0 <= self.sigma < float("inf"):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        if self.k0 < 0:
            raise ValueError("k0 must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
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
        check_butterworth_design(self.butterworth_order, self.butterworth_cutoff)
        abg_gains(self.tracking_index, self.t_s)

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
    """Per-method horizon-endpoint RMSE (x, y, z), in meters.

    runtime_s is the run's wall time in seconds, less every artifact write.
    """

    methods: dict
    n_tilde: int
    runtime_s: float
    config: dict


def rmse(truth_positions, traces, horizon, k0, form="standard"):
    """Per-axis RMSE of horizon-endpoint predictions against noiseless truth.

    truth_positions has one row per step 0..N; traces is the collection of
    prediction traces for one method, holding every anchor in [k0, N - horizon]
    exactly once, each at least `horizon` positions long (ValueError naming the
    anchor step otherwise, or k0 and horizon if the range is empty or horizon < 1).
    The endpoint errors go through _rms_of_errors, the reduction run_experiment
    applies to the errors it collects as it predicts.
    """
    truth_positions = np.asarray(truth_positions, dtype=float)
    n_last = len(truth_positions) - 1
    if horizon < 1 or k0 > n_last - horizon:
        raise ValueError(f"no anchor to score: k0 {k0} with horizon {horizon} "
                         f"on {n_last + 1} truth rows")
    by_anchor = {}
    for tr in traces:
        if tr.anchor_step in by_anchor:
            raise ValueError(f"repeated prediction trace for anchor step {tr.anchor_step}")
        by_anchor[tr.anchor_step] = tr
    errors = np.empty((n_last - horizon - k0 + 1, 3))
    for i, k in enumerate(range(k0, n_last - horizon + 1)):
        trace = by_anchor.get(k)
        if trace is None:
            raise ValueError(f"missing prediction trace for anchor step {k}")
        if len(trace.positions) < horizon:
            raise ValueError(f"prediction trace for anchor step {k} has "
                             f"{len(trace.positions)} positions, fewer than horizon {horizon}")
        errors[i] = truth_positions[k + horizon] - trace.positions[horizon - 1]
    return _rms_of_errors(errors, form)


def _rms_of_errors(errors, form):
    """Per-axis RMSE of an (anchors, 3) error array, in the given form.

    The standard form is sqrt(mean(e^2)); the literal form divides the root of
    the summed squares by the anchor count instead.
    """
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
        t_s = sample_time(t)
        return P, None, None, None, n_steps, t_s
    P, V, A, J = truth_arrays(config.scenario, config.n_steps, config.t_s)
    return P, V, A, J, config.n_steps, config.t_s


def estimate(measurements, config, families, jerk):
    """Run the named estimator families over a whole (N, 3) measurement stream.

    families is a collection of "aise" (AISE orders 1-2, and order 3 when
    jerk is set, tuned by config.aise_config), "bdb" and "abg" (the
    baselines), all at sample time config.t_s. Returns one record per
    family, in the order aise, bdb, abg, mapping "v", "a" (and "j" for
    AISE with jerk) to (N, 3) arrays of derivative estimates. The channels
    are independent, so each runs over its whole column in turn, with the
    same bits as a sample-by-sample interleaving.
    """
    measurements = np.asarray(measurements, dtype=float)
    est = {}
    if "aise" in families:
        est["aise"] = {key: np.column_stack([AiseFilter(config.aise_config(order)).run(column)
                                             for column in measurements.T])
                       for order, key in enumerate("vaj" if jerk else "va", start=1)}
    if "bdb" in families:
        v, a = np.stack([
            BdbDifferentiator(config.t_s, config.butterworth_order, config.butterworth_cutoff).run(c)
            for c in measurements.T], axis=2)
        est["bdb"] = {"v": v, "a": a}
    if "abg" in families:  # the tracker's position state is not read
        _, v, a = np.stack(
            [AbgFilter(config.tracking_index, config.t_s).run(c) for c in measurements.T], axis=2)
        est["abg"] = {"v": v, "a": a}
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
        # Every method reads the exact derivatives.
        est = {"aise": {"v": V, "a": A, "j": J}}
    else:
        # trace.csv carries all three AISE orders, so writing it runs order 3.
        est = estimate(measurements, config, {method_family(m) for m in config.methods},
                       jerk="AISE/FS" in config.methods or out_dir is not None)

    first_anchor, last_anchor = config.k0, n_steps - config.horizon
    h = config.horizon
    # Methods reading one record through one predictor (with truth_derivatives, all /va
    # methods) share one prediction set; the first predicts, scores and writes it a block of
    # anchors at a time.
    report_methods, first_of, sections, write_s = {}, {}, {}, 0.0
    with ExitStack() as files:
        if out_dir is not None:  # opened only once the estimators have run
            tick = time.perf_counter()
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, "predictions.csv")
            fh, src = files.enter_context(open(path, "wb")), files.enter_context(open(path, "rb"))
            fh.write(b"anchor,method,l,x,y,z\n")
            write_s = time.perf_counter() - tick
        for method in config.methods:
            family = "aise" if config.truth_derivatives else method_family(method)
            first = first_of.setdefault((family, method == "AISE/FS"), method)
            if first != method:
                report_methods[method] = report_methods[first].copy()
                if out_dir is not None:
                    write_s += _copy_section(fh, src, first, *sections[first], method)
                continue
            record = est[family]
            v, a, j = record["v"], record["a"], record.get("j")
            errors = np.empty((last_anchor - first_anchor + 1, 3))
            begin = fh.tell() if out_dir is not None else None
            for lo in range(first_anchor, last_anchor + 1, _PREDICTION_BLOCK_TRACES):
                hi = min(lo + _PREDICTION_BLOCK_TRACES, last_anchor + 1)
                if method == "AISE/FS":  # a frame per anchor
                    positions = np.array([
                        predict(method, measurements[k], DerivativeEstimate(v[k], a[k], j[k]),
                                h, t_s, anchor_step=k).positions for k in range(lo, hi)])
                else:  # one broadcast per block
                    positions = va_predict(measurements[lo:hi], v[lo:hi], a[lo:hi], h, t_s,
                                           anchor_step=lo, method=method).positions
                errors[lo - first_anchor : hi - first_anchor] = (
                    P[lo + h : hi + h] - positions[:, h - 1])
                if out_dir is not None:
                    write_s += _write_traces(fh, method, lo, positions)
                del positions  # before the next block is predicted
            sections[method] = begin, fh.tell() if out_dir is not None else None
            report_methods[method] = _rms_of_errors(errors, config.rmse_form)
        report = RmseReport(report_methods, last_anchor - first_anchor + 1,
                            time.perf_counter() - start - write_s,
                            config_to_dict(config) | {"sigma": sigma})

    if out_dir is not None:
        _write_artifacts(out_dir, config, report, n_steps, P, measurements, est)
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


def tuned_aise_config(order, overrides, t_s=0.01):
    """benchmark_config(order, t_s) with the fields of the JSON object overrides on top.

    The overrides' own order and t_s are ignored. An experiment config's aise.orderN blocks
    and the differentiate command's config file are read this way, so a partial block
    changes only the fields it names.
    """
    base = asdict(benchmark_config(order, t_s))
    return from_fields(AiseConfig, {**base, **json_object(overrides, "AiseConfig"),
                                    "order": order, "t_s": t_s})


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
        if name not in ("order1", "order2", "order3"):
            raise ValueError(f"unknown config fields: ['aise_{name}']")
        data[f"aise_{name}"] = None if block is None else tuned_aise_config(int(name[-1]), block)
    for name, value in json_object(data.pop("butterworth", {}), "butterworth").items():
        data[f"butterworth_{name}"] = value
    return from_fields(ExperimentConfig, data)


def load_config(path):
    with open(path) as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def _write_artifacts(out_dir, config, report, n_steps, truth, measurements, est):
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


def _write_traces(fh, method, first, positions):
    """Append a block of traces, one (horizon, 3) array per anchor from anchor step first on,
    to predictions.csv; returns the seconds taken."""
    tick = time.perf_counter()
    fh.write("".join([format_csv_lines([range(1, len(trace) + 1), *trace.T.tolist()],
                                       prefix=f"{first + i},{method},")
                      for i, trace in enumerate(positions)]).encode())
    return time.perf_counter() - tick


def _copy_section(fh, src, first, start, end, method):
    """Append first's predictions.csv lines [start, end), read back in line-aligned blocks
    and renamed to method rather than re-formatted; returns the seconds taken."""
    tick = time.perf_counter()
    old, new, carry = f",{first},".encode(), f",{method},".encode(), b""
    fh.flush()
    src.seek(start)
    for pos in range(start, end, _COPY_BLOCK_BYTES):
        block = carry + src.read(min(_COPY_BLOCK_BYTES, end - pos))
        cut = block.rfind(b"\n") + 1
        fh.write(block[:cut].replace(old, new))
        carry = block[cut:]
    return time.perf_counter() - tick
