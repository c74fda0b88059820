"""Independent references for the benchmark's correctness gate.

Every reference is computed from the raw JSON-style spec that generated an
input, never from a library object or code path:

- total uncertainty: scalar entropy of the predictive mean, -sum p log p;
- Dirichlet aleatoric: the digamma closed form with ``scipy.special.digamma``;
- atoms (points, ensembles, mixtures of them): plain weighted sums;
- binary intervals: fixed-grid composite Simpson.

The checks compare normalized-bits outputs (the library's defaults) within
``max(10 * error_bound, 1e-9)``; a non-empty return value lists what is wrong.
"""

from __future__ import annotations

import math

import numpy as np

EXACT_TOL = 1e-9
SIMPSON_PANELS = 1 << 20


def entropy(p) -> float:
    """Shannon entropy in nats of a probability vector, 0 log 0 = 0."""
    return -sum(pi * math.log(pi) for pi in p if pi > 0.0)


def _normalized(values) -> list[float]:
    arr = np.asarray(values, dtype=float)
    return (arr / arr.sum()).tolist()


def _binary_entropy_grid(t: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where((t > 0) & (t < 1), t * np.log(t) + (1 - t) * np.log(1 - t), 0.0)
    return -inner


def interval_mean_entropy(lo: float, hi: float) -> float:
    """Mean binary entropy (nats) over [lo, hi] by fixed-grid composite Simpson."""
    if lo == hi:
        return entropy((lo, 1.0 - lo))
    x = np.linspace(lo, hi, 2 * SIMPSON_PANELS + 1)
    y = _binary_entropy_grid(x)
    integral = (hi - lo) / SIMPSON_PANELS / 6.0 * (
        y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum()
    )
    return float(integral) / (hi - lo)


def dirichlet_mean_entropy(alpha) -> float:
    """E[H(theta)] in nats for theta ~ Dirichlet(alpha), via scipy's digamma."""
    from scipy.special import digamma

    a = np.asarray(alpha, dtype=float)
    a0 = a.sum()
    return float(max(digamma(a0 + 1.0) - np.sum(a / a0 * digamma(a + 1.0)), 0.0))


def outcome_count(spec) -> int:
    kind = spec["kind"]
    if kind == "point":
        return len(spec["theta"])
    if kind == "dirichlet":
        return len(spec["alpha"])
    if kind == "interval_uniform":
        return 2
    if kind == "ensemble":
        return len(spec["members"][0])
    return outcome_count(spec["components"][0])


def _mixture_parts(spec):
    weights = _normalized(spec["weights"])
    return list(zip(weights, spec["components"]))


def predictive_mean(spec) -> list[float]:
    kind = spec["kind"]
    if kind == "point":
        return _normalized(spec["theta"])
    if kind == "dirichlet":
        return _normalized(spec["alpha"])
    if kind == "interval_uniform":
        mid = 0.5 * (spec["lo"] + spec["hi"])
        return [mid, 1.0 - mid]
    if kind == "ensemble":
        rows = [_normalized(m) for m in spec["members"]]
        return [sum(col) / len(rows) for col in zip(*rows)]
    mean = [0.0] * outcome_count(spec)
    for w, comp in _mixture_parts(spec):
        mean = [m + w * c for m, c in zip(mean, predictive_mean(comp))]
    return mean


def aleatoric_nats(spec) -> float:
    """Expected level-1 entropy E[H(theta)] in nats."""
    kind = spec["kind"]
    if kind == "point":
        return entropy(_normalized(spec["theta"]))
    if kind == "dirichlet":
        return dirichlet_mean_entropy(spec["alpha"])
    if kind == "interval_uniform":
        return interval_mean_entropy(spec["lo"], spec["hi"])
    if kind == "ensemble":
        return sum(entropy(_normalized(m)) for m in spec["members"]) / len(spec["members"])
    return sum(w * aleatoric_nats(comp) for w, comp in _mixture_parts(spec))


def entropy_range_nats(spec) -> tuple[float, float]:
    """Smallest and largest H(theta) over the support of the spec."""
    kind = spec["kind"]
    if kind == "point":
        h = entropy(_normalized(spec["theta"]))
        return h, h
    if kind == "dirichlet":
        return 0.0, math.log(len(spec["alpha"]))
    if kind == "interval_uniform":
        lo, hi = spec["lo"], spec["hi"]
        h_lo, h_hi = entropy((lo, 1.0 - lo)), entropy((hi, 1.0 - hi))
        upper = math.log(2.0) if lo <= 0.5 <= hi else max(h_lo, h_hi)
        return min(h_lo, h_hi), upper
    if kind == "ensemble":
        hs = [entropy(_normalized(m)) for m in spec["members"]]
        return min(hs), max(hs)
    ranges = [entropy_range_nats(comp) for _, comp in _mixture_parts(spec)]
    return min(lo for lo, _ in ranges), max(hi for _, hi in ranges)


class Reference:
    """Normalized reference values for one spec, computed once."""

    def __init__(self, spec):
        k = outcome_count(spec)
        scale = math.log(k)
        self.total = entropy(predictive_mean(spec)) / scale
        self.aleatoric = aleatoric_nats(spec) / scale
        lo, hi = entropy_range_nats(spec)
        self.lower, self.upper = lo / scale, hi / scale


def check_triple(triple, ref: Reference) -> list[str]:
    """Problems with an UncertaintyTriple against its reference (empty if none)."""
    tol = max(10.0 * triple.error_bound, EXACT_TOL)
    epistemic = max(ref.total - ref.aleatoric, 0.0)
    problems = []
    for name, got, want, allowed in (
        ("total", triple.total, ref.total, EXACT_TOL),
        ("aleatoric", triple.aleatoric, ref.aleatoric, tol),
        ("epistemic", triple.epistemic, epistemic, tol + EXACT_TOL),
    ):
        if not abs(got - want) <= allowed:
            problems.append(f"{name} {got!r} != reference {want!r} (tolerance {allowed:.1e})")
    return problems


def check_bounds(bounds, ref: Reference) -> list[str]:
    """Problems with an EntropyBounds against its reference (empty if none)."""
    problems = []
    for name, got, want in (("lower", bounds.lower, ref.lower), ("upper", bounds.upper, ref.upper)):
        if not abs(got - want) <= EXACT_TOL:
            problems.append(f"bounds.{name} {got!r} != reference {want!r}")
    return problems


def curve_reference(theta_star, replications: int, seed: int, schedule) -> list[tuple]:
    """Replication-averaged (total, aleatoric, epistemic) per schedule point.

    Follows the documented protocol of ``learning_curve``: replication r
    draws its outcomes from ``default_rng([seed, r])`` under a uniform
    Dirichlet prior, and each posterior is scored in closed form.
    """
    probs = np.asarray(theta_star, dtype=float)
    probs = probs / probs.sum()
    k = probs.shape[0]
    scale = math.log(k)
    sums = np.zeros((len(schedule), 3))
    for rep in range(replications):
        rng = np.random.default_rng([seed, rep])
        outcomes = rng.choice(k, size=schedule[-1], p=probs) if schedule[-1] else np.empty(0, int)
        for j, n in enumerate(schedule):
            counts = 1.0 + np.bincount(outcomes[:n], minlength=k)
            total = entropy((counts / counts.sum()).tolist()) / scale
            aleatoric = dirichlet_mean_entropy(counts) / scale
            sums[j] += (total, aleatoric, max(total - aleatoric, 0.0))
    return [tuple(row / replications) for row in sums]


def check_curve(curve, expected, schedule) -> list[str]:
    """Problems with a learning curve against `curve_reference` (empty if none)."""
    if [p.n for p in curve] != list(schedule):
        return [f"curve sample sizes {[p.n for p in curve]} != schedule {list(schedule)}"]
    problems = []
    for point, want in zip(curve, expected):
        got = (point.triple.total, point.triple.aleatoric, point.triple.epistemic)
        for name, g, w in zip(("total", "aleatoric", "epistemic"), got, want):
            if not abs(g - w) <= EXACT_TOL:
                problems.append(f"n={point.n} {name} {g!r} != reference {w!r}")
    return problems
