"""Entropy-based uncertainty measures and their additive decomposition.

For a second-order distribution Q over the K-simplex:

- total uncertainty is the Shannon entropy of the predictive mean,
  H(E[theta]); it is exact because the mean has a closed form for every
  supported family;
- aleatoric uncertainty is the expected entropy E[H(theta)], evaluated by
  the expectation engines;
- epistemic uncertainty is the mutual information between outcome and
  level-1 parameter, computable either as the residual total - aleatoric or
  directly as the expected KL divergence of theta from the predictive mean.

The two epistemic routes agree analytically; `decompose` runs the second as
a consistency check on the numerics. `aleatoric_bounds` reports the range of
H(theta) over the support of Q, the entire interval of values the expected
entropy averages over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (
    Categorical,
    Dirichlet,
    EmpiricalEnsemble,
    FiniteMixture,
    IntervalUniform,
    SecondOrderDistribution,
)
from .errors import ConsistencyFailure, DimensionMismatch
from .integrate import (
    DEFAULT_CONFIG,
    ENTROPY_NATS,
    EngineConfig,
    ExpectationResult,
    entropy_nats,
    entropy_nats_rows,
    expect,
    kl_nats_rows,
    kl_to,
)
from .units import UNITS, divisor

# Floating-point slack used where two exact routes are compared.
IDENTITY_TOLERANCE = 1e-9

# The consistency check draws at most this many Monte Carlo rows per
# Dirichlet, whatever `EngineConfig.mc_samples` is.
CHECK_SAMPLES = 8192

# The check trips when the routes' gap exceeds this many times their combined
# error bound. MC_MARGIN * 3 / sqrt(CHECK_SAMPLES) <= 30 / sqrt(100 000), so the
# check at the default `mc_samples` is at least as sensitive as 10 x 3 SE on all
# 100 000 rows. The same multiple covers a quadrature part of the bound (an
# interval's expected KL): that part is the summed |K15 - G7| of the accepted
# panels, which over-covers the rule's error, and what it misses is the
# integrand's rounding, a few units in the last place of 1, far below the 1e-9
# floor.
MC_MARGIN = 2.5

# The check's engine settings when `decompose` is given no config.
_CHECK_CONFIG = replace(DEFAULT_CONFIG, mc_samples=CHECK_SAMPLES)


@dataclass(frozen=True)
class UncertaintyTriple:
    """Total, aleatoric, and epistemic uncertainty of one distribution.

    The additive identity total = aleatoric + epistemic holds within
    max(2 * error_bound, 1e-9); `error_bound` estimates the numerical error
    on each entry (zero when every route was exact).
    """

    total: float
    aleatoric: float
    epistemic: float
    unit: str = "bits"
    normalized: bool = True
    error_bound: float = 0.0

    def __post_init__(self):
        if self.unit not in UNITS:
            raise ValueError(f"unknown unit {self.unit!r}")
        if self.error_bound < 0.0:
            raise ValueError("error bound must be non-negative")
        for name in ("total", "aleatoric", "epistemic"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} uncertainty must be finite and non-negative, got {value!r}")
            if self.normalized and value > 1.0 + IDENTITY_TOLERANCE:
                raise ValueError(f"normalized {name} uncertainty {value!r} exceeds 1")
        gap = abs(self.total - (self.aleatoric + self.epistemic))
        if gap > max(2.0 * self.error_bound, IDENTITY_TOLERANCE):
            raise ValueError(
                f"additive identity violated: |{self.total} - ({self.aleatoric} + "
                f"{self.epistemic})| = {gap:.3e}"
            )


@dataclass(frozen=True)
class EntropyBounds:
    """Range of the level-1 entropy H(theta) over the support of Q."""

    lower: float
    upper: float
    unit: str = "bits"
    normalized: bool = True

    def __post_init__(self):
        if self.unit not in UNITS:
            raise ValueError(f"unknown unit {self.unit!r}")
        if not 0.0 <= self.lower <= self.upper:
            raise ValueError(f"need 0 <= lower <= upper, got [{self.lower!r}, {self.upper!r}]")
        if self.normalized and self.upper > 1.0 + IDENTITY_TOLERANCE:
            raise ValueError(f"normalized upper bound {self.upper!r} exceeds 1")


def _as_categorical(theta) -> Categorical:
    return theta if isinstance(theta, Categorical) else Categorical(theta)


def shannon_entropy(theta, unit: str = "bits") -> float:
    """Shannon entropy -sum_k theta_k log theta_k, with 0 log 0 = 0.

    The result lies in [0, log K] in the requested unit.
    """
    return entropy_nats(_as_categorical(theta).probs) / divisor(unit)


def kl_divergence(p, q, unit: str = "bits") -> float:
    """KL(p || q) = sum_k p_k log(p_k / q_k), with 0 log(0/q) = 0.

    Returns ``math.inf`` when p puts mass where q has none (absolute
    continuity violated); never raises for that case.
    """
    p, q = _as_categorical(p), _as_categorical(q)
    if p.k != q.k:
        raise DimensionMismatch(f"KL needs matching outcome counts, got K={p.k} and K={q.k}")
    nats = float(kl_nats_rows(p.probs[np.newaxis, :], q.probs)[0])
    if math.isinf(nats):
        return math.inf
    return max(nats, 0.0) / divisor(unit)


def total_uncertainty(Q: SecondOrderDistribution, unit: str = "bits", normalized: bool = True) -> float:
    """Entropy of the predictive mean, H(E[theta]). Exact for every family."""
    return entropy_nats(Q.predictive_mean().probs) / divisor(unit, Q.k, normalized)


def aleatoric_uncertainty(
    Q: SecondOrderDistribution, unit: str = "bits", normalized: bool = True
) -> ExpectationResult:
    """Expected level-1 entropy E[H(theta)] under Q, with an error bound.

    Exact for point masses, point-mass mixtures, and ensembles; closed form
    for Dirichlets and interval uniforms; a mixture combines its components'
    routes. Every route has bound 0, so it takes no engine config.
    """
    return expect(Q, ENTROPY_NATS).scaled(divisor(unit, Q.k, normalized))


def epistemic_mutual_information(
    Q: SecondOrderDistribution,
    unit: str = "bits",
    normalized: bool = True,
    method: str = "residual",
    config: EngineConfig | None = None,
) -> ExpectationResult:
    """Mutual information between outcome and level-1 parameter.

    `method="residual"` subtracts the expected entropy from the (exact)
    total; `method="expected_kl"` evaluates E[KL(theta || E[theta])]
    directly. The routes agree analytically, so their numerical agreement is
    a useful cross-check.
    """
    if method == "residual":
        au, _, eu_nats = _residual(Q, Q.predictive_mean())
        raw = ExpectationResult(eu_nats, au.error_bound, au.method, au.evaluations)
    elif method == "expected_kl":
        raw = expect(Q, kl_to(Q.predictive_mean()), config)
    else:
        raise ValueError(f"unknown method {method!r}; expected 'residual' or 'expected_kl'")
    return raw.scaled(divisor(unit, Q.k, normalized))


def _residual(Q, mean: Categorical) -> tuple[ExpectationResult, float, float]:
    """E[H(theta)] in nats, H(mean) in nats, and their difference clipped at 0."""
    au = expect(Q, ENTROPY_NATS)
    total_nats = entropy_nats(mean.probs)
    return au, total_nats, max(total_nats - au.value, 0.0)  # mutual information is non-negative


def decompose(
    Q: SecondOrderDistribution,
    unit: str = "bits",
    normalized: bool = True,
    config: EngineConfig | None = None,
    check: bool = True,
) -> UncertaintyTriple:
    """Split total uncertainty into aleatoric and epistemic parts.

    Epistemic uncertainty is computed as the residual total - aleatoric;
    with `check=True` (the default) the direct expected-KL route is also
    evaluated, on at most `CHECK_SAMPLES` Monte Carlo rows, and a
    `ConsistencyFailure` is raised if their gap exceeds
    max(MC_MARGIN * their combined error bound, 1e-9), the same limit for
    every input; the floor serves routes that are exact up to rounding.
    """
    return _decompose(Q, unit, normalized, config, check)


def _decompose(Q, unit, normalized, config, check) -> UncertaintyTriple:
    # `ensemble_decompose` calls this body directly, so that a wrapper on
    # `decompose` (perfbench/tracer.py) sees only calls of `decompose` itself.
    mean = Q.predictive_mean()
    au, total_nats, eu_nats = _residual(Q, mean)

    if check:
        cfg = config if config is not None else _CHECK_CONFIG
        if cfg.mc_samples > CHECK_SAMPLES:
            cfg = replace(cfg, mc_samples=CHECK_SAMPLES)
        direct = expect(Q, kl_to(mean), cfg)
        combined = au.error_bound + direct.error_bound
        gap = abs(direct.value - eu_nats)
        # Written so that a NaN gap or bound (from an infinite or NaN value) trips too.
        if not gap <= max(MC_MARGIN * combined, IDENTITY_TOLERANCE):
            raise ConsistencyFailure(
                f"epistemic routes disagree: residual {eu_nats!r} vs expected-KL "
                f"{direct.value!r} (gap {gap:.3e}, combined error bound {combined:.3e})"
            )

    d = divisor(unit, Q.k, normalized)
    return UncertaintyTriple(
        total=total_nats / d,
        aleatoric=au.value / d,
        epistemic=eu_nats / d,
        unit=unit,
        normalized=normalized,
        error_bound=au.error_bound / d,
    )


def _entropy_range_nats(Q: SecondOrderDistribution) -> tuple[float, float]:
    if isinstance(Q, Dirichlet):
        # Support is the whole simplex for any strictly positive alpha.
        return 0.0, math.log(Q.k)
    if isinstance(Q, IntervalUniform):
        h_lo = entropy_nats(np.array([Q.lo, 1.0 - Q.lo]))
        h_hi = entropy_nats(np.array([Q.hi, 1.0 - Q.hi]))
        upper = math.log(2.0) if Q.lo <= 0.5 <= Q.hi else max(h_lo, h_hi)
        return min(h_lo, h_hi), upper
    if isinstance(Q, EmpiricalEnsemble):
        entropies = entropy_nats_rows(Q.member_matrix)
        return float(entropies.min()), float(entropies.max())
    if isinstance(Q, FiniteMixture):
        ranges = [_entropy_range_nats(comp) for comp in Q.components]
        return min(lo for lo, _ in ranges), max(hi for _, hi in ranges)
    raise TypeError(f"unsupported distribution type {type(Q).__name__}")


def aleatoric_bounds(
    Q: SecondOrderDistribution, unit: str = "bits", normalized: bool = True
) -> EntropyBounds:
    """Smallest and largest level-1 entropy compatible with Q's support.

    The true aleatoric uncertainty H(theta*) lies in this interval whenever
    the ground truth theta* is in the support of Q; the expected entropy is
    always sandwiched by it.
    """
    lo_nats, hi_nats = _entropy_range_nats(Q)
    d = divisor(unit, Q.k, normalized)
    return EntropyBounds(lower=lo_nats / d, upper=hi_nats / d, unit=unit, normalized=normalized)
