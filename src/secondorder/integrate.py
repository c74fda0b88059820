"""Expectation engines over second-order distributions.

`expect` evaluates E[f(theta)] for theta ~ Q along one of four routes, each
with explicit error accounting:

- exact weighted sums over the atoms of an `EmpiricalEnsemble` (the one
  finite-atoms class: ensembles, and point masses as its one-atom case);
- closed forms for the expected Shannon entropy: digamma for a Dirichlet,
  and for an interval uniform the divided difference of the antiderivative
  of -t ln t plus a mean on the 15 Kronrod nodes of the quadrature's rule
  for the smooth remainder, each written in the variable that is small near
  its simplex edge;
- adaptive Gauss-Kronrod (G7/K15) quadrature for every other integrand on
  an interval uniform, as a mean over u in [0, 1] with t = lo + (hi - lo) u,
  so that no area underflows; it starts from panels graded toward both
  ends, where the t ln t terms of entropy and KL are singular, and
  evaluates the nodes of that start mesh, then of each refinement level, as
  one batch (`quadrature_1d` calls its integrand on 1-d arrays of
  abscissae); the start mesh alone resolves the entropy and the consistency
  check's KL;
- seeded Monte Carlo for everything else, with a 3-sigma error bound; it
  draws and scores chunks of at most `MC_CHUNK_CELLS` cells (rows x K) and
  merges their sums and squared deviations, so its memory is bounded
  whatever K and the sample count are, and a Dirichlet draws the same
  seeded rows as in one pass.

Mixtures split linearly over their components and combine error bounds
additively (conservative); their point masses and ensembles are one
ensemble component (`FiniteMixture` folds them), so one exact sum. Every
route that evaluates an integrand calls one form, its `rows_fn` on an
(n, K) matrix of simplex points, and takes one value per row from it.
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
    check_count,
    row_sums,
)
from .errors import IntegrationFailure
from .units import divisor

METHODS = ("exact", "closed_form", "quadrature", "monte_carlo")

# Weakest-link ordering when a mixture combines results from several engines.
_METHOD_RANK = {m: i for i, m in enumerate(METHODS)}

# Refinement levels of adaptive Gauss-Kronrod after its start mesh, whose panel
# widths halve toward both ends of [a, b] down to 2**-QUAD_GRADING of b - a.
MAX_QUAD_DEPTH = 60
QUAD_GRADING = 20

# Monte Carlo draws and scores at most this many cells (rows x K) at a time:
# 64 KiB per float64 array, under glibc's default 128 KiB mmap threshold.
# Larger chunk arrays were mapped and unmapped per chunk, and the page faults
# to map them again cost more than the extra chunk iterations.
MC_CHUNK_CELLS = 1 << 13

# The most cells one call may ask for: Monte Carlo rows x K, or a learning
# curve's outcome draws plus `simulate.posterior_cells` per decomposition.
# Monte Carlo ran at 28-45 M cells/s for K = 2..1000 on a 2-core host, and a
# curve draws about 36 M outcomes/s, so this is about 30 s of work.
MAX_WORK_CELLS = 1 << 30


@dataclass(frozen=True)
class ExpectationResult:
    """Value of an expectation together with how it was obtained.

    `error_bound` is an absolute bound (estimate) on the numerical error:
    zero for the exact and closed-form routes, the summed |K15 - G7| of the
    accepted panels for quadrature, and three standard errors for Monte Carlo.
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
    """A real-valued function of level-1 points, evaluated on a batch of probability rows.

    `rows_fn` maps an (n, K) matrix of simplex points to n values; every
    engine calls it (ensembles and Monte Carlo on their atom or sample rows,
    quadrature on one (t, 1 - t) row per abscissa of a refinement level).
    A plain callable given to `expect` or `mc_expect` is taken as the
    `rows_fn`. `kind` tags integrands with a known closed form; "entropy"
    enables the Dirichlet and interval-uniform closed forms.
    """

    rows_fn: Callable[[np.ndarray], np.ndarray]
    kind: Optional[str] = None


def as_integrand(f) -> Integrand:
    """`f` as an Integrand: an Integrand as it is, a plain callable as its `rows_fn`."""
    if isinstance(f, Integrand):
        return f
    if not callable(f):
        raise TypeError(f"expected a callable or Integrand, got {type(f).__name__}")
    return Integrand(f)


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
# The G7/K15 rule, shared by the interval closed form and the quadrature
# ---------------------------------------------------------------------------

# The 15-point Kronrod rule on [-1, 1] and its embedded 7-point Gauss rule, as in
# QUADPACK's qk15 (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner 1983): rows
# of (node >= 0, Kronrod weight, Gauss weight), the Gauss weight 0 at a node that
# only the Kronrod rule uses. K15 is exact to degree 22 and G7 to degree 13.
_GK_HALF = (
    (0.0, 0.20948214108472782, 0.4179591836734694),
    (0.20778495500789848, 0.20443294007529889, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.9914553711208126, 0.022935322010529224, 0.0),
)
_GK_NODES = np.array([-x for x, _, _ in _GK_HALF[:0:-1]] + [x for x, _, _ in _GK_HALF])
# Row 0 weighs those 15 ascending nodes for K15, row 1 for G7.
_GK_WEIGHTS = np.array([[row[i] for row in _GK_HALF[:0:-1] + _GK_HALF] for i in (1, 2)])


# ---------------------------------------------------------------------------
# The interval closed form
# ---------------------------------------------------------------------------

# The K15 rule as (node, weight / 2) pairs, so that it averages over [-1, 1]. On
# any subinterval of [0, 0.5] it meets the mean of the smooth part of the binary
# entropy, -(1 - s) log1p(-s), to a few units in the last place.
_K15_MEAN = tuple(zip(_GK_NODES.tolist(), (_GK_WEIGHTS[0] / 2.0).tolist()))


def _mean_half_entropy(a: float, b: float) -> float:
    """Mean of H((s, 1 - s)) in nats over s uniform on [a, b], 0 <= a < b <= 0.5.

    The singular part -s ln s is the divided difference of its antiderivative
    s**2 (1/4 - ln(s) / 2): (a + b)/4 - (a + b) ln(b)/2 - a log1p(x)/(2x)
    with x = (b - a)/a, whose last term vanishes at a = 0 or when x
    overflows. The smooth part -(1 - s) log1p(-s) is averaged on the 15
    Kronrod nodes, which cannot cancel however narrow [a, b] is.
    """
    x = (b - a) / a if a > 0.0 else math.inf
    tail = a * (math.log1p(x) / x) if x < math.inf else 0.0
    total = a + b
    singular = total / 4.0 - total * math.log(b) / 2.0 - tail / 2.0
    centre, radius = 0.5 * total, 0.5 * (b - a)
    smooth = 0.0
    for node, weight in _K15_MEAN:
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
# Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# The start mesh's breakpoints are a + (b - a) * _RISE, then b - (b - a) * _FALL:
# the panels widen from 2**-QUAD_GRADING of b - a to 1/2 of it, then narrow again.
_RISE = np.concatenate(([0.0], 0.5 ** np.arange(QUAD_GRADING, 0, -1)))
_FALL = _RISE[-2::-1]


def quadrature_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tolerance: float = 1e-10,
    max_evals: int = 1_000_000,
) -> ExpectationResult:
    """Integrate f over [a, b] by adaptive Gauss-Kronrod (G7/K15) bisection, one level at a time.

    `f` maps a 1-d array of abscissae to as many values (a scalar broadcasts).
    The start mesh has 2 * QUAD_GRADING panels whose widths halve toward both
    ends, from half of b - a down to 2**-QUAD_GRADING of it, so that a
    singular end is resolved at once. f is called once per level on the 15
    Kronrod nodes of every open panel, the start mesh being level 0, and
    never sees more than `max_evals` points. The rule is open: f is never
    evaluated at a or b, nor at a panel's ends, unless rounding puts a node
    there (a panel only a few float spacings wide). A panel is accepted when
    |K15 - G7| <= tolerance * width / (b - a); the sum of the accepted K15
    values is returned with the sum of their |K15 - G7| as the error bound.
    A value of f that is NaN or infinite raises at once, naming its
    abscissa. Degenerate intervals (a == b) return 0 exactly.
    """
    for name, x in (("a", a), ("b", b)):
        if not math.isfinite(x):
            raise ValueError(f"integration limit {name} must be finite, got {x!r}")
    if a > b:
        raise ValueError(f"need a <= b, got a={a!r}, b={b!r}")
    if not tolerance > 0.0:  # also rejects NaN
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    if a == b:
        return ExpectationResult(0.0, 0.0, "exact", 0)
    width = b - a
    if width == math.inf:
        raise ValueError(f"b - a overflows, got a={a!r}, b={b!r}")

    evals = 0

    def ev(ts: np.ndarray) -> np.ndarray:
        nonlocal evals
        if evals + ts.size > max_evals:
            raise IntegrationFailure(
                f"quadrature exceeded {max_evals} evaluations before reaching tolerance {tolerance}"
            )
        evals += ts.size
        values = np.asarray(f(ts), dtype=float)
        if values.shape != ts.shape:  # a scalar broadcasts; a wrong length raises here
            values = np.full(ts.shape, values)
        finite = np.isfinite(values)
        if not finite.all():
            i = np.flatnonzero(~finite)[np.argmin(ts[~finite])]
            raise IntegrationFailure(f"integrand is {float(values[i])!r} at abscissa {float(ts[i])!r}")
        return values

    breaks = np.concatenate((a + width * _RISE, b - width * _FALL))
    x0, x2 = breaks[:-1], breaks[1:]
    # The level sums are added exactly: added one at a time, the 25 levels of
    # |t - 0.3| on [0, 1] rounded its integral 0.29 by 8 units in the last place.
    level_sums = []
    error = 0.0
    for depth in range(MAX_QUAD_DEPTH + 1):
        centre, radius = 0.5 * (x0 + x2), 0.5 * (x2 - x0)
        nodes = centre[:, np.newaxis] + radius[:, np.newaxis] * _GK_NODES
        values = ev(nodes.ravel()).reshape(nodes.shape)
        # einsum gives each panel the same sums whatever the number of panels.
        kronrod, gauss = radius * np.einsum("pj,rj->rp", values, _GK_WEIGHTS)
        size = np.abs(kronrod - gauss)
        limit = (x2 - x0) / width * tolerance
        done = size <= limit
        level_sums.append(float(kronrod[done].sum()))
        error += float(size[done].sum())
        if done.all():
            return ExpectationResult(math.fsum(level_sums), error, "quadrature", evals)
        if depth == MAX_QUAD_DEPTH:
            worst = np.argmax(size - limit)
            raise IntegrationFailure(
                f"quadrature hit depth {MAX_QUAD_DEPTH}: panel [{float(x0[worst])!r}, {float(x2[worst])!r}] "
                f"has error {float(size[worst]):.3e} above its limit {float(limit[worst]):.3e} "
                f"(its share of tolerance {tolerance})"
            )
        keep = ~done
        x0, centre, x2 = x0[keep], centre[keep], x2[keep]
        x0, x2 = np.concatenate((x0, centre)), np.concatenate((centre, x2))


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _row_values(integrand: Integrand, rows: np.ndarray) -> np.ndarray:
    """`integrand` on an (n, K) matrix as n floats; any other shape raises, naming it.

    A scalar or an (n, 1) column would otherwise broadcast, or be summed once
    for all rows, without a word.
    """
    values = np.asarray(integrand.rows_fn(rows), dtype=float)
    if values.shape != (rows.shape[0],):
        raise ValueError(
            f"integrand gave shape {values.shape} for {rows.shape[0]} rows, not one value per row"
        )
    return values


def mc_expect(
    Q: SecondOrderDistribution,
    f,
    n_samples: int = 100_000,
    seed: int = 0,
) -> ExpectationResult:
    """Monte Carlo estimate of E[f(theta)] with a 3-standard-error bound.

    `f` is an `Integrand`, or a plain callable taken as its `rows_fn`.
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
        values = _row_values(integrand, Q.sample_rows(n, rng))
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
    """Evaluate E[f(theta)] for theta ~ Q with the best available engine.

    `f` is an `Integrand`, or a plain callable taken as its `rows_fn`.
    """
    cfg = config if config is not None else DEFAULT_CONFIG
    return _expect(Q, as_integrand(f), cfg)


def _expect(Q: SecondOrderDistribution, integrand: Integrand, cfg: EngineConfig) -> ExpectationResult:
    if isinstance(Q, EmpiricalEnsemble):
        values = _row_values(integrand, Q.member_matrix)
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
            value = _row_values(integrand, np.array([[Q.lo, 1.0 - Q.lo]]))[0]
            return ExpectationResult(float(value), 0.0, "exact", 1)
        if integrand.kind == "entropy":
            return ExpectationResult(_interval_expected_entropy_nats(Q.lo, Q.hi), 0.0, "closed_form", 0)
        # The mean over u in [0, 1] with t = lo + width * u: no area to underflow.
        lo, width = Q.lo, Q.hi - Q.lo

        def mean_fn(us: np.ndarray) -> np.ndarray:
            rows = np.empty((us.size, 2))  # the rows (t, 1 - t), filled in place
            np.add(lo, width * us, out=rows[:, 0])
            np.subtract(1.0, rows[:, 0], out=rows[:, 1])
            return _row_values(integrand, rows)

        # Called by its module name, so that a patched `quadrature_1d` sees every call.
        return quadrature_1d(mean_fn, 0.0, 1.0, tolerance=cfg.tolerance)

    raise TypeError(f"unsupported distribution type {type(Q).__name__}")
