"""Span tracer that wraps the package's public names from outside.

`installed(tracer)` replaces each traced name with a timing wrapper in every
loaded `aisepred` module that binds it (the harness imports the functions by
name, so the wrapper has to be installed where the caller looks it up), and
restores the originals on exit. Nothing under `src/` is edited. Spans stay in
memory until the run ends.

A span's self time is its duration minus the durations of the spans it
directly encloses, so the self times of all spans of one root add up to that
root's duration exactly.
"""

import contextlib
import sys
import time
from collections import defaultdict

import numpy as np

_PREDICT_KIND = {"AISE/FS": "fs", "AISE/va": "va", "BDB/va": "va", "ABG/va": "va"}
# (public name of `aisepred`, method or None, span name). A callable span name
# is given the call's positional arguments. Methods are wrapped on their class.
TARGETS = (
    ("run_experiment", None, "harness.run_experiment"),
    ("AiseFilter", "step", lambda args: f"aise.step.o{args[0].cfg.order}"),
    ("BdbDifferentiator", "step", "baselines.bdb_step"),
    ("AbgFilter", "step", "baselines.abg_step"),
    ("scalar_params", None, "frenet.scalar_params"),
    ("frenet_model", None, "frenet.frenet_model"),
    ("fs_predict", None, "frenet.fs_predict"),
    ("predict", None, lambda args: "prediction.predict." + _PREDICT_KIND[args[0]]),
    ("rmse", None, "harness.rmse"),
    ("truth_arrays", None, "scenarios.truth_arrays"),
    ("add_noise", None, "scenarios.add_noise"),
)

LAYERS = ("aise", "baselines", "frenet", "prediction", "harness", "scenarios", "bench")


class Tracer:
    """Collects spans and adaptive-mechanism counters.

    A span is (name, start_ns, duration_ns, self_ns, root, depth); spans of one
    root call share `root`, and a root span has depth 0.
    """

    def __init__(self):
        self.spans = []
        self._child_ns = []          # one accumulator per open span, innermost last
        self._root = 0               # id of the current root call
        self.counters = defaultdict(int)

    def wrap(self, name, fn, after=None):
        spans, child_ns, clock = self.spans, self._child_ns, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            if not child_ns:
                self._root += 1
            child_ns.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_ns = dur - child_ns.pop()
                depth = len(child_ns)
                if depth:
                    child_ns[-1] += dur
                spans.append((span, t0, dur, self_ns, self._root, depth))
            if after is not None:
                after(self.counters, args, result)
            return result

        return traced

    def summary(self, first=0):
        """Per span name, over spans[first:]: calls, median and total duration, self time (ns)."""
        by_name = defaultdict(list)
        for name, _, dur, self_ns, _, _ in self.spans[first:]:
            by_name[name].append((dur, self_ns))
        out = {}
        for name, rows in by_name.items():
            arr = np.asarray(rows, dtype=np.int64)
            out[name] = {
                "calls": len(rows),
                "median_ns": float(np.median(arr[:, 0])),
                "total_ns": int(arr[:, 0].sum()),
                "self_ns": int(arr[:, 1].sum()),
            }
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_ns,duration_ns,self_ns,root,depth\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


def count_step(counters, filt):
    """Adaptive mechanisms of one AiseFilter step, read from its public state."""
    cfg = filt.cfg
    key = f"o{cfg.order}"
    counters[f"aise.steps.{key}"] += 1
    counters[f"aise.forgetting.{key}"] += bool(filt.lambda_k < 1.0)
    counters[f"aise.eta_bound.{key}"] += bool(filt.eta_k <= cfg.eta_l * (1 + 1e-9)
                                              or filt.eta_k >= cfg.eta_u * (1 - 1e-9))
    counters[f"aise.zero_surplus.{key}"] += bool(filt.v2_k == 0.0)


def count_predict(counters, trace):
    if trace.method == "AISE/FS":
        counters["prediction.fs_calls"] += 1
        counters["prediction.fs_fallbacks"] += bool(trace.fallback_used)


_AFTER = {
    "AiseFilter": lambda counters, args, _: count_step(counters, args[0]),
    "predict": lambda counters, _, trace: count_predict(counters, trace),
}


@contextlib.contextmanager
def installed(tracer, extra=()):
    """Route every traced name through `tracer` for the duration of the block.

    `extra` adds (owner, attribute, span name) triples owned by the benchmark,
    such as the live-track sample, which becomes a root span.
    """
    import aisepred

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "aisepred" or n.startswith("aisepred."))]
    undo = []
    try:
        for public, method, name in TARGETS:
            obj = getattr(aisepred, public)
            after = _AFTER.get(public)
            if method is not None:
                undo.append((obj, method, obj.__dict__[method]))
                setattr(obj, method, tracer.wrap(name, getattr(obj, method), after))
                continue
            wrapper = tracer.wrap(name, obj, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is obj:
                        undo.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for owner, attr, name in extra:
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
