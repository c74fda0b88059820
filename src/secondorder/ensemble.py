"""Discrete uncertainty estimators for ensembles of categorical predictions.

Member predictions theta_1, ..., theta_M (optionally weighted) are held by
the one finite-atoms class, ``EmpiricalEnsemble(members, weights=None)``;
``EnsemblePrediction`` is another name for it, and ``PointMass`` is its
one-atom case. The total uncertainty is the entropy of the weighted mean
prediction, the aleatoric part is the weighted mean of member entropies, and
the epistemic part is the Jensen-Shannon divergence of the members: the
weighted mean KL divergence of each member from the mean. All three are
finite, exact sums; `ensemble_decompose` runs the same code as `decompose`.
"""

from __future__ import annotations

from .distributions import EmpiricalEnsemble
from .integrate import expect, kl_to
from .measures import UncertaintyTriple, _decompose
from .units import divisor

EnsemblePrediction = EmpiricalEnsemble


def js_divergence(e: EmpiricalEnsemble, unit: str = "bits") -> float:
    """Jensen-Shannon divergence of the members from their weighted mean.

    Always finite: the mean dominates every member with positive weight.
    Zero exactly when all members coincide. The sum is the exact route of
    `expect`, the one `decompose`'s check takes.
    """
    nats = expect(e, kl_to(e.predictive_mean())).value
    return max(nats, 0.0) / divisor(unit)


def ensemble_decompose(
    e: EmpiricalEnsemble, unit: str = "bits", normalized: bool = True
) -> UncertaintyTriple:
    """Total / aleatoric / epistemic uncertainty of an ensemble prediction.

    total is the entropy of the mean prediction, aleatoric the weighted mean
    of member entropies, and epistemic the Jensen-Shannon divergence (their
    difference); all sums are finite and exact, so the error bound is zero.
    """
    return _decompose(e, unit, normalized, None, check=False)
