"""Bayesian learning curves for the uncertainty decomposition.

A conjugate Dirichlet-categorical learner observes i.i.d. outcomes from a
fixed ground-truth distribution theta*. Its posterior after n observations
is a Dirichlet whose decomposition can be computed in closed form, so the
three uncertainty measures can be traced along the learning curve and
averaged over replications. Replications often reach the same posterior
(all share the prior at n = 0, and there are at most K posteriors at n = 1),
so a curve decomposes each distinct posterior once and reuses its triple.

The interesting artifact this exposes: the expected-entropy estimate of
aleatoric uncertainty moves with the sample size even though the quantity
it estimates, H(theta*), is a constant of the data-generating process. The
support bounds, by contrast, always contain H(theta*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import Categorical, Dirichlet
from .errors import DimensionMismatch, InvalidSpec
from .integrate import EngineConfig
from .measures import UncertaintyTriple, decompose

DEFAULT_SCHEDULE = (0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000, 10000)

# The consistency check inside `decompose` needs Monte Carlo for Dirichlet
# posteriors; a reduced sample count keeps a 200-replication curve in
# seconds while the corpus-level tests exercise the full default.
_CURVE_MC_SAMPLES = 2000


class BayesState(Dirichlet):
    """A conjugate learner's state: prior plus outcome counts, which are its Dirichlet's alpha."""

    __slots__ = ()

    @classmethod
    def uniform_prior(cls, k: int) -> "BayesState":
        """The all-ones prior: uniform over the K-simplex."""
        return cls(np.ones(k))

    @property
    def counts(self) -> np.ndarray:
        return self.alpha

    def posterior(self) -> Dirichlet:
        return self


def bayes_update(state: BayesState, outcome: int) -> BayesState:
    """Return the state after observing `outcome` (0-based index below K)."""
    if not 0 <= outcome < state.k:
        raise IndexError(f"outcome index {outcome} out of range for K={state.k}")
    counts = state.counts.copy()
    counts[outcome] += 1.0
    return BayesState(counts)


@dataclass(frozen=True)
class CurvePoint:
    """Replication-averaged uncertainty triple at one sample size."""

    n: int
    triple: UncertaintyTriple
    replications: int

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")

    @property
    def total_minus_epistemic(self) -> float:
        """What an additive decomposition forces the aleatoric curve to be."""
        return self.triple.total - self.triple.epistemic


def _check_schedule(schedule: Sequence[int]) -> list[int]:
    if not all(float(n).is_integer() for n in schedule):
        raise InvalidSpec(f"schedule sizes must be integers, got {list(schedule)}")
    points = [int(n) for n in schedule]
    if not points or points[0] != 0:
        raise InvalidSpec(f"schedule must start at 0, got {points[:1]}")
    if any(b <= a for a, b in zip(points, points[1:])):
        raise InvalidSpec(f"schedule must be strictly increasing, got {points}")
    return points


def learning_curve(
    theta_star: Categorical,
    prior: BayesState | None = None,
    schedule: Sequence[int] = DEFAULT_SCHEDULE,
    replications: int = 200,
    seed: int = 0,
    unit: str = "bits",
    normalized: bool = True,
    config: EngineConfig | None = None,
) -> list[CurvePoint]:
    """Trace the posterior uncertainty decomposition along sample sizes.

    Each replication draws its outcomes from Cat(theta*) with a generator
    seeded by (seed, replication index) and updates the conjugate posterior
    up to every scheduled n; the returned points average the posteriors'
    triples over replications in index order. Each distinct posterior is
    decomposed once per call: the unit, normalization and engine config
    (with its seed) are fixed, so equal counts give equal triples, and the
    first occurrence raises any `ConsistencyFailure`. Bit-identical for a
    fixed seed.
    """
    if not isinstance(theta_star, Categorical):
        theta_star = Categorical(theta_star)
    if prior is None:
        prior = BayesState.uniform_prior(theta_star.k)
    if prior.k != theta_star.k:
        raise DimensionMismatch(f"prior has K={prior.k} but theta* has K={theta_star.k}")
    points = _check_schedule(schedule)
    if replications < 1:
        raise InvalidSpec(f"replications must be >= 1, got {replications}")
    cfg = config if config is not None else EngineConfig(mc_samples=_CURVE_MC_SAMPLES, seed=seed)

    k = theta_star.k
    n_max = points[-1]
    sums = np.zeros((len(points), 3))
    error_sums = np.zeros(len(points))
    triples: dict[bytes, UncertaintyTriple] = {}  # posterior counts -> its decomposition
    for rep in range(replications):
        rng = np.random.default_rng([seed, rep])
        outcomes = rng.choice(k, size=n_max, p=theta_star.probs) if n_max else np.empty(0, int)
        for j, n in enumerate(points):
            counts = prior.counts + np.bincount(outcomes[:n], minlength=k)
            key = counts.tobytes()
            if key not in triples:
                triples[key] = decompose(Dirichlet(counts), unit=unit, normalized=normalized, config=cfg)
            triple = triples[key]
            sums[j] += (triple.total, triple.aleatoric, triple.epistemic)
            error_sums[j] += triple.error_bound

    curve = []
    for j, n in enumerate(points):
        total, aleatoric, epistemic = sums[j] / replications
        triple = UncertaintyTriple(
            total=float(total),
            aleatoric=float(aleatoric),
            epistemic=float(epistemic),
            unit=unit,
            normalized=normalized,
            error_bound=float(error_sums[j] / replications),
        )
        curve.append(CurvePoint(n=n, triple=triple, replications=replications))
    return curve
