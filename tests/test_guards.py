"""Guards that no other test reaches: each raises, and names what is wrong."""

import re

import numpy as np
import pytest

from secondorder import (
    Dirichlet,
    EmpiricalEnsemble,
    EntropyBounds,
    ExpectationResult,
    FiniteMixture,
    IntegrationFailure,
    IntervalUniform,
    InvalidSpec,
    SecondOrderDistribution,
    UncertaintyTriple,
    aleatoric_bounds,
    expect,
    mc_expect,
    quadrature_1d,
)
from secondorder.integrate import ENTROPY_NATS

GUARDS = {
    "result-unknown-method": (
        lambda: ExpectationResult(0.0, 0.0, "guess", 0), ValueError, "unknown method 'guess'"
    ),
    "result-negative-bound": (
        lambda: ExpectationResult(0.0, -1.0, "monte_carlo", 2), ValueError, "must be non-negative"
    ),
    "result-exact-with-error": (
        lambda: ExpectationResult(0.0, 1e-3, "exact", 1), ValueError, "exact results carry no numerical error"
    ),
    "result-quadrature-without-evaluations": (
        lambda: ExpectationResult(0.0, 0.0, "quadrature", 0), ValueError, "positive evaluation count"
    ),
    "triple-unknown-unit": (
        lambda: UncertaintyTriple(0.0, 0.0, 0.0, unit="furlongs"), ValueError, "unknown unit 'furlongs'"
    ),
    "triple-negative-bound": (
        lambda: UncertaintyTriple(0.0, 0.0, 0.0, error_bound=-1.0), ValueError, "must be non-negative"
    ),
    "bounds-unknown-unit": (lambda: EntropyBounds(0.0, 1.0, unit="furlongs"), ValueError, "unknown unit"),
    "bounds-reversed": (lambda: EntropyBounds(0.5, 0.25), ValueError, r"need 0 <= lower <= upper"),
    "bounds-normalized-above-1": (lambda: EntropyBounds(0.0, 1.5), ValueError, "exceeds 1"),
    "expect-unsupported-type": (
        lambda: expect(SecondOrderDistribution(), ENTROPY_NATS),
        TypeError,
        "unsupported distribution type SecondOrderDistribution",
    ),
    "bounds-unsupported-type": (
        lambda: aleatoric_bounds(SecondOrderDistribution()),
        TypeError,
        "unsupported distribution type SecondOrderDistribution",
    ),
    "mixture-component-not-a-distribution": (
        lambda: FiniteMixture([1.0], ["dirichlet"]), InvalidSpec, "'dirichlet' is not a distribution"
    ),
    # 1/sqrt(t): each panel [0, h] at the left end holds 2 sqrt(h), more than its
    # share of the tolerance allows. After 60 halvings of the first start panel
    # [0, 2**-20], the failure names [0, 2**-80] against its own limit.
    "quadrature-depth": (
        lambda: quadrature_1d(lambda t: 1.0 / np.sqrt(np.maximum(t, 1e-300)), 0.0, 1.0),
        IntegrationFailure,
        re.escape(f"quadrature hit depth 60: panel [0.0, {2.0**-80!r}] has error ")
        + r"\S+"
        + re.escape(f" above its limit {2.0**-80 * 1e-10:.3e} (its share of tolerance 1e-10)")
        + "$",
    ),
    "expect-not-callable": (
        lambda: expect(Dirichlet([1, 1]), np.ones(2)), TypeError, "got ndarray"
    ),
    # A plain callable is a rows_fn: a scalar from it is not one value per row.
    "mc-expect-scalar-integrand": (
        lambda: mc_expect(Dirichlet([1, 1]), lambda rows: 3.25, n_samples=2), ValueError, r"shape \(\) for 2 rows"
    ),
    # Every engine takes one value per row from a rows_fn, as Monte Carlo does.
    "ensemble-scalar-integrand": (
        lambda: expect(EmpiricalEnsemble([[0.2, 0.8], [0.5, 0.5]]), lambda rows: 3.25),
        ValueError,
        r"shape \(\) for 2 rows",
    ),
    "ensemble-column-integrand": (
        lambda: expect(EmpiricalEnsemble([[0.2, 0.8]]), lambda rows: rows[:, :1]), ValueError, r"shape \(1, 1\) for 1 rows"
    ),
    "point-interval-scalar-integrand": (
        lambda: expect(IntervalUniform(0.4, 0.4), lambda rows: 3.25), ValueError, r"shape \(\) for 1 rows"
    ),
    "interval-scalar-integrand": (
        lambda: expect(IntervalUniform(0.3, 0.4), lambda rows: 3.25), ValueError, r"shape \(\) for 600 rows"
    ),
    "mc-expect-not-callable": (
        lambda: mc_expect(Dirichlet([1, 1]), 3, n_samples=2), TypeError, "got int"
    ),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_guard_raises_naming_the_fault(name):
    call, error, match = GUARDS[name]
    with pytest.raises(error, match=match):
        call()
