"""Seeded inputs, the operation a user waits on, and its check, per workload.

Each workload builds a fixed structure of inputs (how many items of each
family and size) and draws only their values from the seed, so runs on
different seeds do the same amount of work. An item's cost class names the
kind of work it does; the warm-up runs one item of each class.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import numpy as np

import reference

WORKLOADS = ("corpus_mc", "learning_curve", "exact_scoring", "cli")

CURVE_REPLICATIONS = 20
CHILD_TIMEOUT_S = 120.0


class Item:
    """One distinct input: its raw spec, its cost class, and what the op consumes."""

    __slots__ = ("spec", "cls", "payload")

    def __init__(self, spec, cls, payload=None):
        self.spec = spec
        self.cls = cls
        self.payload = payload


class Workload:
    """Pool of items, the op run on each, and the check of its output."""

    name = ""
    probe: list[Item] = []

    @staticmethod
    def exit_code(output) -> int:
        return 0


# -- spec generators ---------------------------------------------------------


def categorical(rng, k: int) -> list[float]:
    """A random simplex point; occasionally with exact zero cells."""
    probs = rng.dirichlet(np.full(k, rng.uniform(0.3, 3.0)))
    if rng.random() < 0.2:
        keep = rng.random(k) < 0.6
        keep[rng.integers(k)] = True
        probs = np.where(keep, probs, 0.0)
        probs = probs / probs.sum()
    return probs.tolist()


def point(rng, k):
    return {"kind": "point", "theta": categorical(rng, k)}


def dirichlet(rng, k, lo=0.1, hi=50.0):
    return {"kind": "dirichlet", "alpha": rng.uniform(lo, hi, size=k).tolist()}


def log_dirichlet(rng, k, lo_exp, hi_exp):
    return {"kind": "dirichlet", "alpha": (10.0 ** rng.uniform(lo_exp, hi_exp, size=k)).tolist()}


def ensemble(rng, k, m):
    return {"kind": "ensemble", "members": [categorical(rng, k) for _ in range(m)]}


def interval(lo, hi):
    return {"kind": "interval_uniform", "lo": float(lo), "hi": float(hi)}


def mixture(rng, components):
    weights = np.maximum(rng.dirichlet(np.ones(len(components))), 1e-9)
    return {"kind": "mixture", "weights": (weights / weights.sum()).tolist(), "components": components}


def build(so, spec):
    """Library object for a spec, through the constructors (not `validate`)."""
    kind = spec["kind"]
    if kind == "point":
        return so.PointMass(spec["theta"])
    if kind == "dirichlet":
        return so.Dirichlet(spec["alpha"])
    if kind == "interval_uniform":
        return so.IntervalUniform(spec["lo"], spec["hi"])
    if kind == "ensemble":
        return so.EmpiricalEnsemble(spec["members"])
    return so.FiniteMixture(spec["weights"], [build(so, c) for c in spec["components"]])


def _reference(item, cache) -> reference.Reference:
    if id(item) not in cache:
        cache[id(item)] = reference.Reference(item.spec)
    return cache[id(item)]


# -- corpus_mc ---------------------------------------------------------------


def random_interval(rng):
    return interval(*sorted(rng.uniform(0.0, 1.0, size=2)))


def corpus_mixture(rng, k, with_dirichlet: bool) -> dict:
    """A mixture of leaves and of one mixture of leaves, as deep as the acceptance corpus's."""
    if with_dirichlet:
        return mixture(rng, [mixture(rng, [dirichlet(rng, k), point(rng, k)]), ensemble(rng, k, 4),
                             dirichlet(rng, k)])
    leaf = random_interval(rng) if k == 2 else ensemble(rng, k, 3)
    return mixture(rng, [point(rng, k), mixture(rng, [leaf, point(rng, k)])])


# Mixtures (K, index) that hold no Dirichlet: 5 of the 24 at K = 3..10 and 1 of the 3 at K = 2,
# the acceptance generator's odds (0.79 and 0.66).
PLAIN_MIXTURES = {(2, 2), (3, 2), (5, 2), (7, 2), (9, 2), (10, 2)}
# Member counts at the quartiles of the acceptance generator's uniform 1..32.
CORPUS_ENSEMBLE_M = (9, 24)


def corpus_specs(rng) -> list[tuple[dict, str]]:
    """The acceptance corpus's families over K = 2..10, plus a wide-K and a sparse slice.

    The structure is fixed and only values come from the seed. Per K there
    are three Dirichlets with alpha in (0.1, 50) and three nested mixtures,
    of which the acceptance generator's share hold a Dirichlet, and two each
    of points, ensembles and, at K = 2, binary intervals. Items without a
    Dirichlet are 48 % of the base, against 57 % in the acceptance corpus,
    so that the median op is a Dirichlet checked by Monte Carlo, the
    cost this workload exists to measure. With the acceptance shares the
    median op was a sub-millisecond mixture of atoms, which `exact_scoring`
    measures, and op_p50_ms spread by 0.20 to 0.26 over five seeds.

    The slices are sized by their share of pass time, which the run record
    prints: the one K = 100 Dirichlet, the output of a 100-class classifier,
    takes about a fifth of a pass, and the four sparse items, one per
    K = 2..5, about a thirtieth.
    """
    out = []
    for k in range(2, 11):
        out += [(point(rng, k), "cheap") for _ in range(2)]
        out += [(ensemble(rng, k, m), "cheap") for m in CORPUS_ENSEMBLE_M]
        out += [(dirichlet(rng, k), "dirichlet") for _ in range(3)]
        if k == 2:
            out += [(random_interval(rng), "cheap") for _ in range(2)]
        for j in range(3):
            holds = (k, j) not in PLAIN_MIXTURES
            out.append((corpus_mixture(rng, k, holds), "dirichlet" if holds else "cheap"))
    out.append((dirichlet(rng, 100), "wide"))
    # Sparse concentrations that still sample without 0/0 rows.
    out += [(log_dirichlet(rng, k, -2.0, -1.0), "sparse") for k in (2, 3, 4, 5)]
    return out


def probe_specs(rng) -> list[dict]:
    """Concentrations near 1e-3, where gamma-normalized sampling yields 0/0 rows.

    The K = 2 item is Dirichlet(1e-3, 1e-3), the documented worst case.
    """
    return [{"kind": "dirichlet", "alpha": [1e-3, 1e-3]}] + [
        log_dirichlet(rng, k, -3.0, np.log10(1.5e-3)) for k in (3, 4, 5)]


class CorpusMC(Workload):
    """decompose(Q) with the default check plus aleatoric_bounds(Q) on pre-built Q."""

    name = "corpus_mc"

    def __init__(self, so, seed):
        self.so = so
        rng = np.random.default_rng([seed, 1])
        self.items = [Item(s, c, build(so, s)) for s, c in corpus_specs(rng)]
        self.probe = [Item(s, "probe", build(so, s)) for s in probe_specs(rng)]

    def op(self, item):
        so = self.so
        return so.decompose(item.payload), so.aleatoric_bounds(item.payload)

    def check(self, item, output, cache):
        triple, bounds = output
        ref = _reference(item, cache)
        return reference.check_triple(triple, ref) + reference.check_bounds(bounds, ref)


# -- exact_scoring -------------------------------------------------------------


class ExactScoring(Workload):
    """validate(spec), decompose with the check, aleatoric_bounds; ensembles also
    through EnsemblePrediction + ensemble_decompose. No Dirichlet appears."""

    name = "exact_scoring"

    def __init__(self, so, seed):
        self.so = so
        rng = np.random.default_rng([seed, 2])
        specs = []
        for m in (2, 4, 8, 16, 32, 64):
            specs += [(ensemble(rng, k, m), "ensemble") for k in (2, 3, 5, 10)]
        specs.append((interval(0.0, 1.0), "interval"))
        specs.append((interval(0.0, rng.uniform(0.2, 0.8)), "interval"))
        specs.append((interval(rng.uniform(0.2, 0.8), 1.0), "interval"))
        specs.append((interval(rng.uniform(0.05, 0.15), rng.uniform(0.85, 0.95)), "interval"))
        for _ in range(2):
            lo = rng.uniform(0.1, 0.8)
            specs.append((interval(lo, lo + 0.1), "interval"))
        for k in range(2, 11):
            specs += [(point(rng, k), "point") for _ in range(2)]
            specs.append((mixture(rng, [point(rng, k) for _ in range(3)]), "mixture"))
            specs.append((mixture(rng, [point(rng, k), mixture(rng, [point(rng, k) for _ in range(3)])]),
                          "mixture"))
        self.items = [Item(s, c, s) for s, c in specs]

    def op(self, item):
        so = self.so
        Q = so.validate(item.payload)
        triple, bounds = so.decompose(Q), so.aleatoric_bounds(Q)
        if item.cls != "ensemble":
            return triple, bounds, None
        return triple, bounds, so.ensemble_decompose(so.EnsemblePrediction(item.payload["members"]))

    def check(self, item, output, cache):
        triple, bounds, ens = output
        ref = _reference(item, cache)
        problems = reference.check_triple(triple, ref) + reference.check_bounds(bounds, ref)
        if ens is not None:
            problems += [f"ensemble_decompose: {p}" for p in reference.check_triple(ens, ref)]
        return problems


# -- learning_curve ------------------------------------------------------------


class LearningCurve(Workload):
    """One learning_curve(theta*, replications=20) call on the default schedule."""

    name = "learning_curve"

    def __init__(self, so, seed):
        self.so = so
        rng = np.random.default_rng([seed, 3])
        # One K = 10 curve in five: its ops are the slowest fifth, so the 11th-slowest
        # op sits mid-class and the median sits mid-way through the K = 2 curves.
        self.items = []
        for k in (2, 2, 2, 2, 10):
            theta = categorical(rng, k) if k > 2 else [u := float(rng.uniform(0.1, 0.9)), 1.0 - u]
            curve_seed = int(rng.integers(0, 2**31))
            self.items.append(Item({"theta": theta, "seed": curve_seed}, f"k{k}", (theta, curve_seed)))

    def op(self, item):
        theta, curve_seed = item.payload
        return self.so.learning_curve(theta, replications=CURVE_REPLICATIONS, seed=curve_seed)

    def check(self, item, output, cache):
        schedule = list(self.so.DEFAULT_SCHEDULE)
        expected = cache.get(id(item))
        if expected is None:
            theta, curve_seed = item.payload
            expected = cache[id(item)] = reference.curve_reference(
                theta, CURVE_REPLICATIONS, curve_seed, schedule)
        return reference.check_curve(output, expected, schedule)


# -- cli -----------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (str, int)):
        return str(value)
    return format(float(value), ".9g")


def _csv(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


EVAL_HEADER = ("name", "total", "aleatoric", "epistemic", "alea_lower", "alea_upper", "error_bound")


def run_child(argv, env, cwd):
    """Run a child to completion: (exit code, stdout, stderr). A child past the timeout is killed."""
    proc = subprocess.run(argv, capture_output=True, env=env, cwd=cwd, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


class CLI(Workload):
    """One `python -m secondorder.cli` subprocess per op; stdout checked byte for byte."""

    name = "cli"

    def __init__(self, so, seed):
        self.so = so
        rng = np.random.default_rng([seed, 4])
        cli_seed = str(int(rng.integers(0, 2**31)))
        alpha = rng.uniform(0.5, 20.0, size=3).tolist()
        lo, hi = sorted(rng.uniform(0.0, 1.0, size=2).tolist())
        members = [categorical(rng, 4) for _ in range(8)]
        self.members_text = "".join(" ".join(repr(p) for p in row) + "\n" for row in members)
        u = float(rng.uniform(0.1, 0.9))
        commands = [
            ("panel", ["panel"], None),
            ("eval", ["eval", json.dumps({"kind": "dirichlet", "alpha": alpha}), "--seed", cli_seed],
             {"kind": "dirichlet", "alpha": alpha, "seed": int(cli_seed)}),
            ("eval", ["eval", json.dumps({"kind": "interval_uniform", "lo": lo, "hi": hi})],
             {"kind": "interval_uniform", "lo": lo, "hi": hi, "seed": 0}),
            ("ensemble", ["ensemble", "MEMBERS"], {"members": members}),
            ("curve", ["curve", "--theta-star", f"{u!r},{1.0 - u!r}", "--replications",
                       str(CURVE_REPLICATIONS), "--seed", cli_seed],
             {"theta": [u, 1.0 - u], "seed": int(cli_seed)}),
        ]
        self.items = [Item(spec, command, argv) for command, argv, spec in commands]

    def prepare(self, workdir: Path, env, python):
        self.workdir = workdir
        members_path = workdir / "members.txt"
        members_path.write_text(self.members_text)
        self.env = env
        self.python = python
        for item in self.items:
            item.payload = [str(members_path) if a == "MEMBERS" else a for a in item.payload]

    def op(self, item):
        return run_child([self.python, "-m", "secondorder.cli", *item.payload], self.env, self.workdir)

    def child_argv(self, mode, report: Path, item) -> list[str]:
        """The same CLI call run in-process by `cli_child.py`, which writes a `mode` report."""
        return [self.python, str(Path(__file__).resolve().parent / "cli_child.py"), mode, str(report),
                *item.payload]

    def peak_above_import_kib(self) -> tuple[int, dict]:
        """Largest CLI peak RSS above its own RSS after `import secondorder`, over the commands.

        Each distinct call runs once more, untimed, through `cli_child.py`,
        which reads VmHWM (reset at exec, so it is the child's own peak) at
        exit. Returns the largest figure and each call's report.
        """
        reports = {}
        for index, item in enumerate(self.items):
            report = self.workdir / f"memory{index}.json"
            code, _, _ = run_child(self.child_argv("memory", report, item), self.env, self.workdir)
            if code == 0 and report.exists():  # a failing call is counted by the timed window
                reports[f"{index}:{item.cls}"] = json.loads(report.read_text())
        peak = max((r["hwm_kib"] - r["post_import_rss_kib"] for r in reports.values()), default=0)
        return peak, reports

    @staticmethod
    def exit_code(output) -> int:
        return output[0]

    def expected_stdout(self, item) -> bytes:
        so = self.so
        if item.cls == "panel":
            half, dirac0, dirac1 = so.PointMass((0.5, 0.5)), so.PointMass((0.0, 1.0)), so.PointMass((1.0, 0.0))
            panels = [
                ("uniform_full", so.IntervalUniform(0.0, 1.0)),
                ("dirac_half", half),
                ("uniform_03_10", so.IntervalUniform(0.3, 1.0)),
                ("uniform_03_07", so.IntervalUniform(0.3, 0.7)),
                ("uniform_06_10", so.IntervalUniform(0.6, 1.0)),
                ("dirac_mixture_01", so.FiniteMixture((0.5, 0.5), (dirac0, dirac1))),
            ]
            rows = []
            for name, Q in panels:
                t = so.decompose(Q)
                rows.append((name, t.total, t.aleatoric, t.epistemic))
            return _csv(("name", "total", "aleatoric", "epistemic"), rows)
        if item.cls == "eval":
            spec = {k: v for k, v in item.spec.items() if k != "seed"}
            Q = so.validate(spec)
            t = so.decompose(Q, config=so.EngineConfig(seed=item.spec["seed"]))
            b = so.aleatoric_bounds(Q)
            return _csv(EVAL_HEADER, [(Q.kind, t.total, t.aleatoric, t.epistemic, b.lower, b.upper,
                                       t.error_bound)])
        if item.cls == "ensemble":
            members = item.spec["members"]
            e = so.EnsemblePrediction(members)
            t = so.ensemble_decompose(e)
            b = so.aleatoric_bounds(so.EmpiricalEnsemble(members))
            return _csv(EVAL_HEADER, [(f"ensemble_M{e.m}_K{e.k}", t.total, t.aleatoric, t.epistemic,
                                       b.lower, b.upper, t.error_bound)])
        curve = so.learning_curve(item.spec["theta"], replications=CURVE_REPLICATIONS,
                                  seed=item.spec["seed"])
        rows = [(p.n, p.triple.total, p.triple.aleatoric, p.triple.epistemic, p.total_minus_epistemic)
                for p in curve]
        return _csv(("n", "total", "aleatoric", "epistemic", "total_minus_epistemic"), rows)

    def check(self, item, output, cache):
        code, out, _ = output
        expected = cache.get(id(item))
        if expected is None:
            expected = cache[id(item)] = self.expected_stdout(item)
        if out != expected:
            return [f"{item.cls} stdout differs from the library values: {out[:200]!r} vs {expected[:200]!r}"]
        return []


def make(name, so, seed):
    return {"corpus_mc": CorpusMC, "learning_curve": LearningCurve,
            "exact_scoring": ExactScoring, "cli": CLI}[name](so, seed)
