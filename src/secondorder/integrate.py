"""Expectation engines over second-order distributions.

`expect` evaluates E[f(theta)] for theta ~ Q along one of four routes, each
with explicit error accounting:

- exact weighted sums over the atoms of an `EmpiricalEnsemble` (the one
  finite-atoms class: ensembles, and point masses as its one-atom case);
- a digamma closed form for the expected Shannon entropy of a Dirichlet;
- adaptive Simpson quadrature for interval uniforms;
- seeded Monte Carlo for everything else, with a 3-sigma error bound.

Mixtures split linearly over their components and combine error bounds
additively (conservative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import (
    Categorical,
    Dirichlet,
    EmpiricalEnsemble,
    FiniteMixture,
    IntervalUniform,
    SecondOrderDistribution,
)
from .errors import IntegrationFailure
from .units import divisor

METHODS = ("exact", "closed_form", "quadrature", "monte_carlo")

# Weakest-link ordering when a mixture combines results from several engines.
_METHOD_RANK = {m: i for i, m in enumerate(METHODS)}

MAX_QUAD_DEPTH = 60


@dataclass(frozen=True)
class ExpectationResult:
    """Value of an expectation together with how it was obtained.

    `error_bound` is an absolute bound (estimate) on the numerical error:
    zero for the exact and closed-form routes, the accumulated Simpson
    estimate for quadrature, and three standard errors for Monte Carlo.
    """

    value: float
    error_bound: float
    method: str
    evaluations: int

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.error_bound < 0.0:
            raise ValueError("error bound must be non-negative")
        if self.method in ("exact", "closed_form") and self.error_bound != 0.0:
            raise ValueError(f"{self.method} results carry no numerical error")
        if self.method in ("quadrature", "monte_carlo") and self.evaluations <= 0:
            raise ValueError(f"{self.method} requires a positive evaluation count")

    def scaled(self, divisor: float) -> "ExpectationResult":
        """Same result with value and error bound divided by `divisor`."""
        return ExpectationResult(
            self.value / divisor, self.error_bound / divisor, self.method, self.evaluations
        )


@dataclass(frozen=True)
class EngineConfig:
    """Tunable knobs for the expectation engines.

    `seed` feeds the Monte Carlo fallback (PCG64); it must be set whenever a
    Monte Carlo path can trigger so results stay reproducible.
    """

    tolerance: float = 1e-10
    max_evals: int = 1_000_000
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not self.tolerance > 0.0:  # also rejects NaN
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if self.max_evals < 5:
            raise ValueError("max_evals too small for a single Simpson panel")
        if self.mc_samples < 2:
            raise ValueError("need at least 2 Monte Carlo samples")


DEFAULT_CONFIG = EngineConfig()


@dataclass(frozen=True)
class Integrand:
    """A real-valued function of a level-1 distribution.

    `fn` is the defining scalar form. The optional forms are performance
    shortcuts the engines exploit when present: `rows_fn` maps an (n, K)
    matrix of simplex points to n values (Monte Carlo, ensembles), and
    `binary_fn` maps the first-outcome probability t to f((t, 1-t))
    (quadrature over binary intervals). `kind` tags integrands with a known
    closed form; "entropy" enables the Dirichlet route.
    """

    fn: Callable[[Categorical], float]
    rows_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    binary_fn: Optional[Callable[[float], float]] = None
    kind: Optional[str] = None

    def __call__(self, theta: Categorical) -> float:
        return self.fn(theta)


def as_integrand(f) -> Integrand:
    if isinstance(f, Integrand):
        return f
    if callable(f):
        return Integrand(fn=f)
    raise TypeError(f"expected a callable or Integrand, got {type(f).__name__}")


def _eval_rows(integrand: Integrand, rows: np.ndarray) -> np.ndarray:
    if integrand.rows_fn is not None:
        return np.asarray(integrand.rows_fn(rows), dtype=float)
    frozen = rows if not rows.flags.writeable else rows.copy()
    frozen.flags.writeable = False
    return np.array(
        [integrand.fn(Categorical._from_row(frozen[i])) for i in range(frozen.shape[0])]
    )


# ---------------------------------------------------------------------------
# Entropy and KL helpers (nats). These back both the standard integrands and
# the measures module; 0 log 0 is taken as its limit value 0 throughout.
# ---------------------------------------------------------------------------


def entropy_nats_rows(rows: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats of each row of an (n, K) matrix."""
    rows = np.asarray(rows, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = np.where(rows > 0.0, -rows * np.log(rows), 0.0)
    return np.maximum(contrib.sum(axis=1), 0.0)


def kl_nats_rows(rows: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """KL(row || reference) in nats for each row; +inf where absolute continuity fails."""
    rows = np.asarray(rows, dtype=float)
    reference = np.asarray(reference, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(rows) - np.log(reference)
        contrib = np.where(rows > 0.0, rows * log_ratio, 0.0)
    return contrib.sum(axis=1)


def entropy_nats(probs: np.ndarray) -> float:
    """Shannon entropy in nats of one probability vector."""
    return float(entropy_nats_rows(probs[np.newaxis, :])[0])


def binary_entropy_nats(t: float) -> float:
    """Shannon entropy in nats of (t, 1 - t)."""
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return -t * math.log(t) - (1.0 - t) * math.log(1.0 - t)


def _entropy_scalar(theta: Categorical) -> float:
    return entropy_nats(theta.probs)


ENTROPY_NATS = Integrand(
    fn=_entropy_scalar,
    rows_fn=entropy_nats_rows,
    binary_fn=binary_entropy_nats,
    kind="entropy",
)


def kl_to(reference: Categorical) -> Integrand:
    """Integrand theta -> KL(theta || reference) in nats."""
    ref = reference.probs

    def scalar(theta: Categorical) -> float:
        return float(kl_nats_rows(theta.probs[np.newaxis, :], ref)[0])

    def binary(t: float) -> float:
        return float(kl_nats_rows(np.array([[t, 1.0 - t]]), ref)[0])

    return Integrand(fn=scalar, rows_fn=lambda rows: kl_nats_rows(rows, ref), binary_fn=binary)


# ---------------------------------------------------------------------------
# Digamma and the Dirichlet closed form
# ---------------------------------------------------------------------------


def digamma(x: float) -> float:
    """Digamma function psi(x) for x > 0.

    Uses the recurrence psi(x) = psi(x + 1) - 1/x to raise the argument to
    at least 8, then the asymptotic expansion through the x**-12 term;
    absolute error is below 1e-12 on the raised range.
    """
    if not x > 0.0:
        raise ValueError(f"digamma requires a positive argument, got {x!r}")
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = inv2 * (
        1.0 / 12.0
        - inv2
        * (
            1.0 / 120.0
            - inv2
            * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * 691.0 / 32760.0)))
        )
    )
    return acc + math.log(x) - 0.5 * inv - series


def dirichlet_expected_entropy(alpha, unit: str = "nats") -> float:
    """Expected Shannon entropy of theta ~ Dirichlet(alpha), in closed form.

    E[H(theta)] = psi(a0 + 1) - sum_k (alpha_k / a0) psi(alpha_k + 1) in
    nats, with a0 the concentration total.
    """
    arr = Dirichlet(alpha).alpha
    a0 = float(arr.sum())
    nats = digamma(a0 + 1.0) - sum(
        float(ai) / a0 * digamma(float(ai) + 1.0) for ai in arr
    )
    return max(nats, 0.0) / divisor(unit)


# ---------------------------------------------------------------------------
# Adaptive Simpson quadrature
# ---------------------------------------------------------------------------


def quadrature_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
    tolerance: float = 1e-10,
    max_evals: int = 1_000_000,
) -> ExpectationResult:
    """Integrate f over [a, b] by adaptive Simpson bisection.

    A panel is accepted when the classic embedded estimate |S_fine - S_coarse|
    is within 15x its share of the tolerance; the Richardson-corrected value
    is returned with the accumulated estimate as the error bound. Degenerate
    intervals (a == b) return 0 exactly.
    """
    if a > b:
        raise ValueError(f"need a <= b, got a={a!r}, b={b!r}")
    if not tolerance > 0.0:  # also rejects NaN
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    if a == b:
        return ExpectationResult(0.0, 0.0, "exact", 0)

    evals = 0

    def ev(x: float) -> float:
        nonlocal evals
        evals += 1
        if evals > max_evals:
            raise IntegrationFailure(
                f"quadrature exceeded {max_evals} evaluations before reaching tolerance {tolerance}"
            )
        return f(x)

    error_acc = 0.0

    def recurse(x0, f0, xm, fm, x2, f2, whole, eps, depth):
        nonlocal error_acc
        lm = 0.5 * (x0 + xm)
        rm = 0.5 * (xm + x2)
        flm, frm = ev(lm), ev(rm)
        left = (xm - x0) / 6.0 * (f0 + 4.0 * flm + fm)
        right = (x2 - xm) / 6.0 * (fm + 4.0 * frm + f2)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps:
            error_acc += abs(delta) / 15.0
            return left + right + delta / 15.0
        if depth >= MAX_QUAD_DEPTH:
            raise IntegrationFailure(
                f"quadrature hit depth {MAX_QUAD_DEPTH} with panel error {abs(delta) / 15.0:.3e} "
                f"over [{x0}, {x2}] (tolerance {tolerance})"
            )
        return recurse(x0, f0, lm, flm, xm, fm, left, 0.5 * eps, depth + 1) + recurse(
            xm, fm, rm, frm, x2, f2, right, 0.5 * eps, depth + 1
        )

    fa, fb = ev(a), ev(b)
    mid = 0.5 * (a + b)
    fmid = ev(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fmid + fb)
    value = recurse(a, fa, mid, fmid, b, fb, whole, tolerance, 0)
    return ExpectationResult(float(value), float(error_acc), "quadrature", evals)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def mc_expect(
    Q: SecondOrderDistribution,
    f,
    n_samples: int = 100_000,
    seed: int = 0,
) -> ExpectationResult:
    """Monte Carlo estimate of E[f(theta)] with a 3-standard-error bound.

    Deterministic given `seed`: a fresh PCG64 generator is created per call
    and samples are drawn in a single pass.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    integrand = as_integrand(f)
    rng = np.random.default_rng(seed)
    rows = Q.sample_rows(n_samples, rng)
    values = _eval_rows(integrand, rows)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1)) / math.sqrt(n_samples)
    return ExpectationResult(mean, 3.0 * stderr, "monte_carlo", n_samples)


# ---------------------------------------------------------------------------
# Dispatching front end
# ---------------------------------------------------------------------------


def expect(
    Q: SecondOrderDistribution,
    f,
    config: EngineConfig | None = None,
) -> ExpectationResult:
    """Evaluate E[f(theta)] for theta ~ Q with the best available engine."""
    cfg = config if config is not None else DEFAULT_CONFIG
    return _expect(Q, as_integrand(f), cfg)


def _expect(Q: SecondOrderDistribution, integrand: Integrand, cfg: EngineConfig) -> ExpectationResult:
    if isinstance(Q, EmpiricalEnsemble):
        values = _eval_rows(integrand, Q.member_matrix)
        return ExpectationResult(float(Q.weights @ values), 0.0, "exact", Q.m)

    if isinstance(Q, FiniteMixture):
        parts = [_expect(comp, integrand, cfg) for comp in Q.components]
        value = float(sum(w * p.value for w, p in zip(Q.weights, parts)))
        error = float(sum(w * p.error_bound for w, p in zip(Q.weights, parts)))
        method = max((p.method for p in parts), key=_METHOD_RANK.__getitem__)
        evaluations = sum(p.evaluations for p in parts)
        return ExpectationResult(value, error, method, evaluations)

    if isinstance(Q, Dirichlet):
        if integrand.kind == "entropy":
            return ExpectationResult(
                dirichlet_expected_entropy(Q.alpha, "nats"), 0.0, "closed_form", 0
            )
        return mc_expect(Q, integrand, cfg.mc_samples, cfg.seed)

    if isinstance(Q, IntervalUniform):
        if Q.lo == Q.hi:
            theta = Categorical((Q.lo, 1.0 - Q.lo))
            return ExpectationResult(float(integrand.fn(theta)), 0.0, "exact", 1)
        if integrand.binary_fn is not None:
            g = integrand.binary_fn
        else:
            g = lambda t: integrand.fn(Categorical((t, 1.0 - t)))  # noqa: E731
        width = Q.hi - Q.lo
        integral = quadrature_1d(
            g, Q.lo, Q.hi, tolerance=cfg.tolerance * width, max_evals=cfg.max_evals
        )
        return integral.scaled(width)

    raise TypeError(f"unsupported distribution type {type(Q).__name__}")
