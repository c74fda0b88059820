"""Outside-in tracing of secondorder's modules for the benchmark's traced runs.

`Tracer.install` wraps the public functions and constructors of each module
at every place the call is looked up: names bound by ``from .x import y`` in
other modules, the package namespace, class attributes, and the function
references held inside ``ENTROPY_NATS``. ``kl_to`` closures look up
``integrate.kl_nats_rows`` when they run, so patching the module global
covers them. Nothing in the library is edited; `uninstall` restores every
original.

Spans nest on one stack (the library is single-threaded here). A span's
self time is its duration minus the time of its direct child spans, which
never overlap. A key's total time counts only its outermost span, so a
``validate`` that builds a mixture of point masses is counted once.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("distributions", "integrate", "measures", "ensemble", "simulate", "cli")
EXPECT_METHODS = ("exact", "closed_form", "quadrature", "monte_carlo")
FAILURE_NAMES = ("ConsistencyFailure", "IntegrationFailure")
CONSISTENCY_FLOOR = 1e-9  # decompose trips at max(10 x combined bound, this floor)

# Spans each workload exists to stress; a traced run reports any that did not fire.
STRESSED_SPANS = {
    "corpus_mc": (
        "distributions.sample_rows", "integrate.expect", "integrate.mc_expect",
        "integrate.row_kernel", "measures.decompose", "measures.check", "measures.bounds",
    ),
    "learning_curve": (
        "simulate.curve", "measures.decompose", "measures.check", "integrate.mc_expect",
        "distributions.sample_rows", "distributions.construct", "integrate.row_kernel",
    ),
    "exact_scoring": (
        "distributions.construct", "integrate.expect", "integrate.quadrature",
        "integrate.row_kernel", "measures.decompose", "measures.check", "measures.bounds",
        "ensemble.construct", "ensemble.decompose",
    ),
    "cli": (
        "distributions.construct", "integrate.quadrature", "integrate.mc_expect",
        "measures.decompose", "ensemble.construct", "ensemble.decompose", "simulate.curve",
    ),
}


class _Frame:
    __slots__ = ("key", "child_s", "results")

    def __init__(self, key):
        self.key = key
        self.child_s = 0.0
        self.results = {}


class Tracer:
    """Span and counter aggregates for one traced window."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.failures = defaultdict(int)
        self.gap_ratio_max = 0.0
        self._stack: list[_Frame] = []
        self._depth = defaultdict(int)
        self._paused = False
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, key, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            frame = _Frame(key)
            tag = before(parent, args, kwargs) if before else None
            tracer._stack.append(frame)
            tracer._depth[key] += 1
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                result = exc
                raise
            finally:
                dur = perf_counter() - t0
                tracer._stack.pop()
                tracer._depth[key] -= 1
                tracer.calls[key] += 1
                if tracer._depth[key] == 0:
                    tracer.seconds[key] += dur
                tracer.self_seconds[key] += dur - frame.child_s
                if parent is not None:
                    parent.child_s += dur
                if after:
                    t1 = perf_counter()
                    tracer._paused = True
                    try:
                        after(args, kwargs, result, dur, frame, parent, tag)
                    finally:
                        tracer._paused = False
                    if parent is not None:
                        # Keep the hook's own cost out of the parent's self time.
                        parent.child_s += perf_counter() - t1
            return result

        return wrapper

    # -- per-layer hooks ---------------------------------------------------

    def _after_sample_rows(self, args, kwargs, rows, dur, frame, parent, tag):
        if isinstance(rows, np.ndarray) and self._depth["distributions.sample_rows"] == 0:
            self.counts["sampled_rows"] += rows.shape[0]
            self.counts["nan_rows"] += int(np.isnan(rows.sum(axis=1)).sum())

    def _before_expect(self, parent, args, kwargs):
        f = args[1] if len(args) > 1 else kwargs.get("f")
        if parent is not None and parent.key == "measures.decompose":
            return "entropy" if getattr(f, "kind", None) == "entropy" else "check"
        return None

    def _after_expect(self, args, kwargs, result, dur, frame, parent, tag):
        if tag == "check":
            self.seconds["measures.check"] += dur
            self.calls["measures.check"] += 1
        if tag is not None:
            parent.results[tag] = result
        method = getattr(result, "method", None)
        if method in EXPECT_METHODS:
            self.counts[f"expect_calls.{method}"] += 1
            self.counts[f"expect_s.{method}"] += dur

    def _after_mc(self, args, kwargs, result, dur, frame, parent, tag):
        evaluations = getattr(result, "evaluations", None)
        if evaluations is not None:
            self.counts["mc_samples"] += evaluations
            self.counts["mc_bytes_computed"] += evaluations * args[0].k * 8

    def _after_quadrature(self, args, kwargs, result, dur, frame, parent, tag):
        self.counts["quad_evals"] += getattr(result, "evaluations", 0)

    def _before_decompose(self, parent, args, kwargs):
        if parent is not None and parent.key == "simulate.curve":
            self.counts["posteriors"] += 1

    def _after_decompose(self, args, kwargs, result, dur, frame, parent, tag):
        au, direct = frame.results.get("entropy"), frame.results.get("check")
        if hasattr(au, "value") and hasattr(direct, "value"):
            mean = args[0].predictive_mean().probs
            with np.errstate(divide="ignore", invalid="ignore"):
                total = float(-np.where(mean > 0, mean * np.log(mean), 0.0).sum())
            gap = abs(direct.value - max(total - au.value, 0.0))
            limit = max(10.0 * (au.error_bound + direct.error_bound), CONSISTENCY_FLOOR)
            self.gap_ratio_max = max(self.gap_ratio_max, gap / limit)
        self._after_measures(args, kwargs, result, dur, frame, parent, tag)

    def _after_measures(self, args, kwargs, result, dur, frame, parent, tag):
        if isinstance(result, Exception):
            name = type(result).__name__
            self.failures[name if name in FAILURE_NAMES else "other"] += 1

    # -- installation ------------------------------------------------------

    def _patch(self, owner, name, replacement, setter=setattr):
        self._undo.append((setter, owner, name, getattr(owner, name)))
        setter(owner, name, replacement)

    def _patch_function(self, modules, original, key, before=None, after=None):
        wrapper = self._wrap(key, original, before, after)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, wrapper)
        return wrapper

    def install(self) -> "Tracer":
        pkg = importlib.import_module("secondorder")
        mods = {name: importlib.import_module(f"secondorder.{name}") for name in MODULES}
        d, i, m, e, s = (mods[n] for n in ("distributions", "integrate", "measures", "ensemble", "simulate"))
        everywhere = [pkg, *mods.values()]

        for cls in (d.Categorical, d.PointMass, d.Dirichlet, d.IntervalUniform,
                    d.FiniteMixture, d.EmpiricalEnsemble):
            self._patch(cls, "__init__", self._wrap("distributions.construct", cls.__init__))
        for cls in (d.PointMass, d.Dirichlet, d.IntervalUniform, d.FiniteMixture, d.EmpiricalEnsemble):
            self._patch(cls, "sample_rows", self._wrap(
                "distributions.sample_rows", cls.sample_rows, after=self._after_sample_rows))
        self._patch_function(everywhere, d.validate, "distributions.construct")

        self._patch_function(everywhere, i.expect, "integrate.expect",
                             self._before_expect, self._after_expect)
        self._patch_function(everywhere, i.mc_expect, "integrate.mc_expect", after=self._after_mc)
        self._patch_function(everywhere, i.quadrature_1d, "integrate.quadrature",
                             after=self._after_quadrature)
        entropy_rows = self._patch_function(everywhere, i.entropy_nats_rows, "integrate.row_kernel")
        self._patch_function(everywhere, i.kl_nats_rows, "integrate.row_kernel")
        self._patch(i.ENTROPY_NATS, "rows_fn", entropy_rows, setter=object.__setattr__)  # frozen dataclass

        self._patch_function(everywhere, m.decompose, "measures.decompose",
                             self._before_decompose, self._after_decompose)
        self._patch_function(everywhere, m.aleatoric_bounds, "measures.bounds",
                             after=self._after_measures)

        self._patch(e.EnsemblePrediction, "__init__",
                    self._wrap("ensemble.construct", e.EnsemblePrediction.__init__))
        self._patch_function(everywhere, e.ensemble_decompose, "ensemble.decompose")
        self._patch_function(everywhere, s.learning_curve, "simulate.curve")
        return self

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, name, original = self._undo.pop()
            setter(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def raw(self) -> dict:
        """Plain aggregates, summable across processes with `merge_raw`."""
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "counts": dict(self.counts),
            "failures": dict(self.failures),
            "gap_ratio_max": self.gap_ratio_max,
        }


def merge_raw(parts) -> dict:
    merged = {"calls": {}, "seconds": {}, "self_seconds": {}, "counts": {}, "failures": {},
              "gap_ratio_max": 0.0}
    for part in parts:
        for field in ("calls", "seconds", "self_seconds", "counts", "failures"):
            for key, value in part[field].items():
                merged[field][key] = merged[field].get(key, 0) + value
        merged["gap_ratio_max"] = max(merged["gap_ratio_max"], part["gap_ratio_max"])
    return merged


def layer_metrics(raw: dict, ops: int) -> dict:
    """Per-layer metrics from merged aggregates; work and time are per traced op."""
    calls, secs, self_s, counts = raw["calls"], raw["seconds"], raw["self_seconds"], raw["counts"]
    per_op = 1.0 / max(ops, 1)
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    put("distributions.construct_calls", calls.get("distributions.construct", 0) * per_op, "count/op")
    put("distributions.construct_s", secs.get("distributions.construct", 0.0) * per_op, "s/op")
    put("distributions.sample_rows_calls", calls.get("distributions.sample_rows", 0) * per_op, "count/op")
    put("distributions.sample_rows_s", secs.get("distributions.sample_rows", 0.0) * per_op, "s/op")
    rows = counts.get("sampled_rows", 0)
    put("distributions.sampled_rows", rows * per_op, "count/op")
    put("distributions.nan_row_frac", counts.get("nan_rows", 0) / rows if rows else 0.0, "ratio")

    for method in EXPECT_METHODS:
        put(f"integrate.expect_calls.{method}", counts.get(f"expect_calls.{method}", 0) * per_op, "count/op")
        put(f"integrate.expect_s.{method}", counts.get(f"expect_s.{method}", 0.0) * per_op, "s/op")
    put("integrate.mc_samples", counts.get("mc_samples", 0) * per_op, "count/op")
    put("integrate.mc_bytes_computed", counts.get("mc_bytes_computed", 0) * per_op, "B/op")
    put("integrate.quad_evals", counts.get("quad_evals", 0) * per_op, "count/op")
    put("integrate.row_kernel_calls", calls.get("integrate.row_kernel", 0) * per_op, "count/op")
    put("integrate.row_kernel_s", secs.get("integrate.row_kernel", 0.0) * per_op, "s/op")

    decompose_s = secs.get("measures.decompose", 0.0)
    put("measures.decompose_calls", calls.get("measures.decompose", 0) * per_op, "count/op")
    put("measures.decompose_s", decompose_s * per_op, "s/op")
    put("measures.decompose_self_s", self_s.get("measures.decompose", 0.0) * per_op, "s/op")
    put("measures.check_s", secs.get("measures.check", 0.0) * per_op, "s/op")
    put("measures.check_share", secs.get("measures.check", 0.0) / decompose_s if decompose_s else 0.0, "ratio")
    put("measures.check_gap_ratio_max", raw["gap_ratio_max"], "ratio")
    put("measures.bounds_s", secs.get("measures.bounds", 0.0) * per_op, "s/op")
    for name in (*FAILURE_NAMES, "other"):
        put(f"measures.failures.{name}", raw["failures"].get(name, 0) * per_op, "count/op")

    put("ensemble.construct_calls", calls.get("ensemble.construct", 0) * per_op, "count/op")
    put("ensemble.construct_s", secs.get("ensemble.construct", 0.0) * per_op, "s/op")
    put("ensemble.decompose_calls", calls.get("ensemble.decompose", 0) * per_op, "count/op")
    put("ensemble.decompose_s", secs.get("ensemble.decompose", 0.0) * per_op, "s/op")

    put("simulate.curve_calls", calls.get("simulate.curve", 0) * per_op, "count/op")
    put("simulate.curve_s", secs.get("simulate.curve", 0.0) * per_op, "s/op")
    put("simulate.curve_self_s", self_s.get("simulate.curve", 0.0) * per_op, "s/op")
    put("simulate.posteriors", counts.get("posteriors", 0) * per_op, "count/op")
    return out


def fired(raw: dict) -> set:
    return {key for key, n in raw["calls"].items() if n}
