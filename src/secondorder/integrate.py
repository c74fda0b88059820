"""Expectation engines over second-order distributions.

`expect` evaluates E[f(theta)] for theta ~ Q along one of four routes, each
with explicit error accounting:

- exact weighted sums over the atoms of an `EmpiricalEnsemble` (the one
  finite-atoms class: ensembles, and point masses as its one-atom case);
- closed forms for the expected Shannon entropy: digamma for a Dirichlet,
  and for an interval uniform the divided difference of the antiderivative
  of -t ln t plus a Gauss-Legendre rule for the smooth remainder, each
  written in the variable that is small near its simplex edge;
- adaptive Simpson quadrature for every other integrand on an interval
  uniform, as a mean over u in [0, 1] with t = lo + (hi - lo) u, so that no
  area underflows; it evaluates each refinement level as one batch
  (`quadrature_1d` calls its integrand on 1-d arrays of abscissae);
- seeded Monte Carlo for everything else, with a 3-sigma error bound; it
  draws and scores chunks of at most `MC_CHUNK_CELLS` cells (rows x K) and
  merges their sums and squared deviations, so its memory is bounded
  whatever K and the sample count are, and a Dirichlet draws the same
  seeded rows as in one pass.

Mixtures split linearly over their components and combine error bounds
additively (conservative). Every route that evaluates an integrand calls
one form, its `rows_fn` on an (n, K) matrix of simplex points.
"""

from __future__ import annotations

import math
import numbers
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
    row_sums,
)
from .errors import IntegrationFailure
from .units import divisor

METHODS = ("exact", "closed_form", "quadrature", "monte_carlo")

# Weakest-link ordering when a mixture combines results from several engines.
_METHOD_RANK = {m: i for i, m in enumerate(METHODS)}

MAX_QUAD_DEPTH = 60

# Monte Carlo draws and scores at most this many cells (rows x K) at a time:
# 64 KiB per float64 array, under glibc's default 128 KiB mmap threshold.
# Larger chunk arrays were mapped and unmapped per chunk, and the page faults
# to map them again cost more than the extra chunk iterations.
MC_CHUNK_CELLS = 1 << 13

# The most cells one call may ask for: Monte Carlo rows x K, or a learning
# curve's replications x (last scheduled size + `simulate.REPLICATION_CELLS`).
# Monte Carlo ran at 28-45 M cells/s for K = 2..1000 on a 2-core host, and a
# curve draws about 36 M outcomes/s, so this is about 30 s of work.
MAX_WORK_CELLS = 1 << 30


def check_count(value, name: str, least: int, error: type = ValueError) -> None:
    """Raise `error` naming `name` unless `value` is an integer (not a bool) >= `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")


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
    Monte Carlo path can trigger so results stay reproducible. `mc_samples`
    is the Monte Carlo sample count of `expect`; `decompose`'s consistency
    check draws at most `measures.CHECK_SAMPLES` of them and trips at
    `measures.MC_MARGIN` times their 3-standard-error bound. Since K >= 2,
    a count above `MAX_WORK_CELLS // 2` could never run and is rejected.
    """

    tolerance: float = 1e-10
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not self.tolerance > 0.0:  # also rejects NaN
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
        check_count(self.mc_samples, "mc_samples", 2)
        if self.mc_samples > MAX_WORK_CELLS // 2:
            raise ValueError(
                f"mc_samples must be at most MAX_WORK_CELLS // 2 = {MAX_WORK_CELLS // 2}, got {self.mc_samples!r}"
            )
        check_count(self.seed, "seed", 0)


DEFAULT_CONFIG = EngineConfig()


@dataclass(frozen=True)
class Integrand:
    """A real-valued function of a level-1 distribution, evaluated on a batch.

    `rows_fn` maps an (n, K) matrix of simplex points to n values; every
    engine calls it (ensembles and Monte Carlo on their atom or sample rows,
    quadrature on one (t, 1 - t) row per abscissa of a refinement level).
    `kind` tags integrands with a known closed form; "entropy" enables the
    Dirichlet and interval-uniform closed forms.
    """

    rows_fn: Callable[[np.ndarray], np.ndarray]
    kind: Optional[str] = None


def as_integrand(f) -> Integrand:
    """`f` as an Integrand; a scalar f(Categorical) is lifted to rows by calling it per row."""
    if isinstance(f, Integrand):
        return f
    if not callable(f):
        raise TypeError(f"expected a callable or Integrand, got {type(f).__name__}")

    def rows_fn(rows: np.ndarray) -> np.ndarray:
        frozen = rows if not rows.flags.writeable else rows.copy()
        frozen.flags.writeable = False
        return np.array([f(Categorical._from_row(row)) for row in frozen])

    return Integrand(rows_fn)


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
    """KL(row || reference) in nats for each row; +inf where absolute continuity fails.

    Zero and NaN entries of `rows` contribute 0; `rows` is never written.
    """
    rows = np.asarray(rows, dtype=float)
    reference = np.asarray(reference, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = np.log(rows)  # a new array: the terms are built in place on it
        contrib -= np.log(reference)
        contrib *= rows
    np.copyto(contrib, 0.0, where=~(rows > 0.0))
    return row_sums(contrib)


def entropy_nats(probs: np.ndarray) -> float:
    """Shannon entropy in nats of one probability vector."""
    return float(entropy_nats_rows(probs[np.newaxis, :])[0])


ENTROPY_NATS = Integrand(entropy_nats_rows, kind="entropy")


def kl_to(reference: Categorical) -> Integrand:
    """Integrand theta -> KL(theta || reference) in nats."""
    ref = reference.probs
    return Integrand(lambda rows: kl_nats_rows(rows, ref))


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
    return _dirichlet_expected_entropy_nats(Dirichlet(alpha).alpha) / divisor(unit)


def _dirichlet_expected_entropy_nats(alpha: np.ndarray) -> float:
    """The closed form in nats on an already validated concentration vector."""
    a0 = float(alpha.sum())
    nats = digamma(a0 + 1.0) - sum(
        float(ai) / a0 * digamma(float(ai) + 1.0) for ai in alpha
    )
    return max(nats, 0.0)


# ---------------------------------------------------------------------------
# The interval closed form
# ---------------------------------------------------------------------------

# Ten-point Gauss-Legendre rule on [-1, 1] as (node, weight / 2) pairs, so that it
# averages. On any subinterval of [0, 0.5] it meets the mean of the smooth part
# of the binary entropy, -(1 - s) log1p(-s), to about 1e-16 relative.
_GL_RULE = tuple(
    (sign * node, half_weight)
    for node, half_weight in (
        (0.14887433898163122, 0.1477621123573764),
        (0.4333953941292472, 0.13463335965499826),
        (0.6794095682990244, 0.109543181257991),
        (0.8650633666889845, 0.0747256745752902),
        (0.9739065285171717, 0.03333567215434407),
    )
    for sign in (-1.0, 1.0)
)


def _mean_half_entropy(a: float, b: float) -> float:
    """Mean of H((s, 1 - s)) in nats over s uniform on [a, b], 0 <= a < b <= 0.5.

    The singular part -s ln s is the divided difference of its antiderivative
    s**2 (1/4 - ln(s) / 2): (a + b)/4 - (a + b) ln(b)/2 - a log1p(x)/(2x)
    with x = (b - a)/a, whose last term vanishes at a = 0 or when x
    overflows. The smooth part -(1 - s) log1p(-s) gets the Gauss-Legendre
    rule, which cannot cancel however narrow [a, b] is.
    """
    x = (b - a) / a if a > 0.0 else math.inf
    tail = a * (math.log1p(x) / x) if x < math.inf else 0.0
    total = a + b
    singular = total / 4.0 - total * math.log(b) / 2.0 - tail / 2.0
    centre, radius = 0.5 * total, 0.5 * (b - a)
    smooth = 0.0
    for node, weight in _GL_RULE:
        s = centre + radius * node
        smooth -= weight * (1.0 - s) * math.log1p(-s)
    return singular + smooth


def _interval_expected_entropy_nats(lo: float, hi: float) -> float:
    """E[H((t, 1 - t))] in nats for t uniform on [lo, hi], lo < hi.

    Each side of 0.5 is written in the variable that is small near its
    simplex edge: t below 0.5, and 1 - t above it, which is exact there
    (Sterbenz). A straddling interval weights its halves by their share of
    the width, so no weight underflows.
    """
    if hi <= 0.5:
        return _mean_half_entropy(lo, hi)
    if lo >= 0.5:
        return _mean_half_entropy(1.0 - hi, 1.0 - lo)
    below, above = 0.5 - lo, hi - 0.5
    share = below / (below + above)
    return share * _mean_half_entropy(lo, 0.5) + (1.0 - share) * _mean_half_entropy(1.0 - hi, 0.5)


# ---------------------------------------------------------------------------
# Adaptive Simpson quadrature
# ---------------------------------------------------------------------------


def quadrature_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tolerance: float = 1e-10,
    max_evals: int = 1_000_000,
) -> ExpectationResult:
    """Integrate f over [a, b] by adaptive Simpson bisection, one level at a time.

    `f` maps a 1-d array of abscissae to as many values (a scalar broadcasts).
    It is called once on (a, mid, b), then once per refinement level on the
    two new midpoints of every open panel; f never sees more than `max_evals`
    points. A panel is accepted when |S_fine - S_coarse| is within 15x its
    share of the tolerance, which halves per level; the Richardson-corrected
    value is returned with the accumulated estimate as the error bound.
    Degenerate intervals (a == b) return 0 exactly.
    """
    if a > b:
        raise ValueError(f"need a <= b, got a={a!r}, b={b!r}")
    if not tolerance > 0.0:  # also rejects NaN
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    if a == b:
        return ExpectationResult(0.0, 0.0, "exact", 0)

    evals = 0

    def ev(ts: np.ndarray) -> np.ndarray:
        nonlocal evals
        if evals + ts.size > max_evals:
            raise IntegrationFailure(
                f"quadrature exceeded {max_evals} evaluations before reaching tolerance {tolerance}"
            )
        evals += ts.size
        return np.full(ts.shape, f(ts), dtype=float)

    # One column per open panel: x0, x2, f(x0), f((x0 + x2) / 2), f(x2). Each level
    # recomputes the midpoint and coarse Simpson estimate from them bit for bit.
    panels = np.concatenate(([a, b], ev(np.array([a, 0.5 * (a + b), b]))))[:, np.newaxis]
    value = error = 0.0
    eps = tolerance
    for _ in range(MAX_QUAD_DEPTH + 1):
        x0, x2, f0, fm, f2 = panels
        xm = 0.5 * (x0 + x2)
        whole = (x2 - x0) / 6.0 * (f0 + 4.0 * fm + f2)
        flm, frm = ev(np.concatenate((0.5 * (x0 + xm), 0.5 * (xm + x2)))).reshape(2, -1)
        left = (xm - x0) / 6.0 * (f0 + 4.0 * flm + fm)
        right = (x2 - xm) / 6.0 * (fm + 4.0 * frm + f2)
        delta = left + right - whole
        done = np.abs(delta) <= 15.0 * eps
        value += float(np.sum((left + right + delta / 15.0)[done]))
        error += float(np.sum(np.abs(delta[done]) / 15.0))
        if done.all():
            return ExpectationResult(value, error, "quadrature", evals)
        lefts = np.stack((x0, xm, f0, flm, fm))
        rights = np.stack((xm, x2, fm, frm, f2))
        panels = np.concatenate((lefts, rights), axis=1)[:, np.tile(~done, 2)]
        eps *= 0.5
    raise IntegrationFailure(
        f"quadrature hit depth {MAX_QUAD_DEPTH} with panel error "
        f"{float(np.abs(delta).max()) / 15.0:.3e} (tolerance {tolerance})"
    )


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

    Deterministic given `seed`: a fresh PCG64 generator is created per call.
    Samples are drawn from it and scored in chunks of
    max(1, MC_CHUNK_CELLS // K) rows, so memory stays bounded whatever K and
    `n_samples` are; the chunk count depends on n and K only. The chunk sums
    add up to the value's numerator, and each chunk's sum of squared
    deviations is merged into the running one pairwise (Chan, Golub &
    LeVeque). With one chunk the value is sum / n and the variance the
    two-pass ((x - mean)**2).sum() / (n - 1); an infinite value stays
    infinite.

    A Dirichlet or interval uniform draws the same rows in chunks as in one
    pass. A mixture or ensemble passed here directly draws its component
    indices per chunk, a different stream from one pass (`expect` never
    samples those: it splits mixtures and sums ensembles exactly).
    `n_samples * K` may not exceed `MAX_WORK_CELLS`.
    """
    check_count(n_samples, "n_samples", 2)
    check_count(seed, "seed", 0)
    if n_samples * Q.k > MAX_WORK_CELLS:
        raise ValueError(f"n_samples * K = {n_samples * Q.k} exceeds MAX_WORK_CELLS = {MAX_WORK_CELLS}")
    integrand = as_integrand(f)
    rng = np.random.default_rng(seed)
    chunk = max(1, MC_CHUNK_CELLS // Q.k)
    done = 0
    total = m2 = 0.0
    while done < n_samples:
        n = min(chunk, n_samples - done)
        values = np.asarray(integrand.rows_fn(Q.sample_rows(n, rng)), dtype=float)
        chunk_sum = values.sum()
        chunk_m2 = float(((values - chunk_sum / n) ** 2).sum())
        if done:
            delta = chunk_sum / n - total / done
            m2 += delta * delta * done * n / (done + n)
        m2 += chunk_m2
        total += chunk_sum
        done += n
    stderr = math.sqrt(m2 / (n_samples - 1)) / math.sqrt(n_samples)
    return ExpectationResult(float(total / n_samples), 3.0 * stderr, "monte_carlo", n_samples)


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
        values = integrand.rows_fn(Q.member_matrix)
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
            return ExpectationResult(_dirichlet_expected_entropy_nats(Q.alpha), 0.0, "closed_form", 0)
        return mc_expect(Q, integrand, cfg.mc_samples, cfg.seed)

    if isinstance(Q, IntervalUniform):
        if Q.lo == Q.hi:
            value = integrand.rows_fn(np.array([[Q.lo, 1.0 - Q.lo]]))[0]
            return ExpectationResult(float(value), 0.0, "exact", 1)
        if integrand.kind == "entropy":
            return ExpectationResult(_interval_expected_entropy_nats(Q.lo, Q.hi), 0.0, "closed_form", 0)
        # The mean over u in [0, 1] with t = lo + width * u: no area to underflow.
        lo, width = Q.lo, Q.hi - Q.lo

        def mean_fn(us: np.ndarray) -> np.ndarray:
            ts = lo + width * us
            return integrand.rows_fn(np.column_stack((ts, 1.0 - ts)))

        # Called by its module name, so that a patched `quadrature_1d` sees every call.
        return quadrature_1d(mean_fn, 0.0, 1.0, tolerance=cfg.tolerance)

    raise TypeError(f"unsupported distribution type {type(Q).__name__}")
