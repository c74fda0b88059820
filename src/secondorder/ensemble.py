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

from .distributions import Categorical, EmpiricalEnsemble
from .errors import DistributionError, EmptyEnsemble, InvalidSpec
from .integrate import kl_nats_rows
from .measures import UncertaintyTriple, _decompose
from .units import divisor

EnsemblePrediction = EmpiricalEnsemble


def js_divergence(e: EmpiricalEnsemble, unit: str = "bits") -> float:
    """Jensen-Shannon divergence of the members from their weighted mean.

    Always finite: the mean dominates every member with positive weight.
    Zero exactly when all members coincide.
    """
    kl_terms = kl_nats_rows(e.member_matrix, e.predictive_mean().probs)
    nats = float(e.weights @ kl_terms)
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


def parse_member_matrix(text: str) -> list[Categorical]:
    """Parse the plain-text member format: one member per line.

    Probabilities are whitespace-separated; blank lines and ``#`` comments
    are skipped. Parse and validation errors name the offending 1-based
    line number.
    """
    members: list[Categorical] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise InvalidSpec(f"line {lineno}: not a probability row: {line!r}") from exc
        try:
            members.append(Categorical(values))
        except DistributionError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from exc
    if not members:
        raise EmptyEnsemble("no member rows found")
    return members
