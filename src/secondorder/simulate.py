"""Bayesian learning curves for the uncertainty decomposition.

A conjugate Dirichlet-categorical learner observes i.i.d. outcomes from a
fixed ground-truth distribution theta*. Its prior is a `Dirichlet`, and its
posterior after n observations is `Dirichlet(prior.alpha + counts)`, whose
decomposition is closed form, so the three uncertainty measures can be
traced along the learning curve and averaged over replications.
Replications often reach the same posterior (all share the prior at n = 0,
and there are at most K posteriors at n = 1), so a curve decomposes each
distinct posterior once and reuses its triple.

The interesting artifact this exposes: the expected-entropy estimate of
aleatoric uncertainty moves with the sample size even though the quantity
it estimates, H(theta*), is a constant of the data-generating process. The
support bounds, by contrast, always contain H(theta*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import Categorical, Dirichlet, check_count
from .errors import DimensionMismatch, InvalidSpec
from .integrate import MAX_WORK_CELLS, MC_CHUNK_CELLS, EngineConfig
from .measures import UncertaintyTriple, decompose

DEFAULT_SCHEDULE = (0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000, 10000)

# The consistency check inside `decompose` needs Monte Carlo for Dirichlet
# posteriors; 2000 rows, under the check's own cap `CHECK_SAMPLES`, keep a
# 200-replication curve in a fraction of a second.
_CURVE_MC_SAMPLES = 2000


def posterior_cells(k: int) -> int:
    """The `MAX_WORK_CELLS` charge for decomposing one K-outcome curve posterior.

    One with its 2000-row check took 0.38, 1.4, 7.9 and 86 ms at K = 2, 10, 100
    and 1000 on a 2-core host, within 1.5x of this charge at 28-45 M cells/s.
    """
    return 2 * _CURVE_MC_SAMPLES * (k + 2)


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
    # Counts are float64 concentrations, which lose an increment above 2**53.
    if not all(0 <= n <= 2**53 and float(n).is_integer() for n in schedule):
        raise InvalidSpec(f"schedule sizes must be integers in [0, 2**53], got {list(schedule)}")
    points = [int(n) for n in schedule]
    if not points or points[0] != 0:
        raise InvalidSpec(f"schedule must start at 0, got {points[:1]}")
    if any(b <= a for a, b in zip(points, points[1:])):
        raise InvalidSpec(f"schedule must be strictly increasing, got {points}")
    return points


def learning_curve(
    theta_star: Categorical,
    prior: Dirichlet | None = None,
    schedule: Sequence[int] = DEFAULT_SCHEDULE,
    replications: int = 200,
    seed: int = 0,
    unit: str = "bits",
    normalized: bool = True,
) -> list[CurvePoint]:
    """Trace the posterior uncertainty decomposition along sample sizes.

    Each replication draws its outcomes from Cat(theta*) with a generator
    seeded by (seed, replication index); its posterior at every scheduled n
    is `Dirichlet(prior.alpha + outcome counts)`, from an all-ones prior by
    default. The returned points average the posteriors' triples over
    replications in index order. Outcomes are drawn in blocks of at most
    `MC_CHUNK_CELLS` (the same stream as one draw) and counted without being
    stored, so memory stays bounded whatever the schedule; time still grows
    with its last size. Sizes must be integers in [0, 2**53], since counts
    are float64 concentrations, and `replications` x (last size + points x
    `posterior_cells(K)`) may not exceed `MAX_WORK_CELLS`. Each distinct
    posterior is decomposed once per call with
    `EngineConfig(mc_samples=_CURVE_MC_SAMPLES, seed=seed)`: the unit,
    normalization and engine are fixed, so equal counts give equal triples,
    and the first occurrence raises any `ConsistencyFailure`. Bit-identical
    for a fixed seed.
    """
    if not isinstance(theta_star, Categorical):
        theta_star = Categorical(theta_star)
    if prior is None:
        prior = Dirichlet(np.ones(theta_star.k))
    if prior.k != theta_star.k:
        raise DimensionMismatch(f"prior has K={prior.k} but theta* has K={theta_star.k}")
    points = _check_schedule(schedule)
    check_count(replications, "replications", 1, InvalidSpec)
    k = theta_star.k
    # Every outcome drawn, and a decomposition per (replication, point) pair,
    # which also covers a replication's own generator and counting (22-47 us).
    cells = replications * (points[-1] + len(points) * posterior_cells(k))
    if cells > MAX_WORK_CELLS:
        raise InvalidSpec(
            f"replications x (last size + points x posterior_cells(K)) = {cells} "
            f"exceeds MAX_WORK_CELLS = {MAX_WORK_CELLS}"
        )
    cfg = EngineConfig(mc_samples=_CURVE_MC_SAMPLES, seed=seed)

    sums = np.zeros((len(points), 3))
    error_sums = np.zeros(len(points))
    triples: dict[bytes, UncertaintyTriple] = {}  # posterior counts -> its decomposition
    for rep in range(replications):
        rng = np.random.default_rng([seed, rep])
        seen = np.zeros(k, dtype=np.int64)  # outcome counts of the first `drawn` draws
        drawn, block = 0, np.empty(0, dtype=np.int64)  # `block`: drawn, not yet counted
        for j, n in enumerate(points):
            while drawn < n:
                if not block.size:
                    size = min(MC_CHUNK_CELLS, points[-1] - drawn)
                    block = rng.choice(k, size=size, p=theta_star.probs)
                segment, block = block[: n - drawn], block[n - drawn :]
                seen += np.bincount(segment, minlength=k)
                drawn += segment.size
            counts = prior.alpha + seen
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
