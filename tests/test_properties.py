"""Property-based tests of the library's mathematical invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as oc
from secondorder import (
    Categorical,
    Dirichlet,
    EmpiricalEnsemble,
    EngineConfig,
    EnsemblePrediction,
    FiniteMixture,
    IntervalUniform,
    PointMass,
    aleatoric_bounds,
    aleatoric_uncertainty,
    decompose,
    digamma,
    ensemble_decompose,
    js_divergence,
    kl_divergence,
    shannon_entropy,
    total_uncertainty,
)

FAST = EngineConfig(mc_samples=3000, seed=17)


@st.composite
def probability_vectors(draw, min_k=2, max_k=8, allow_zeros=True):
    k = draw(st.integers(min_k, max_k))
    raw = draw(
        st.lists(st.floats(0.0 if allow_zeros else 1e-3, 1e3), min_size=k, max_size=k).filter(
            lambda xs: sum(xs) > 1e-6
        )
    )
    arr = np.asarray(raw, dtype=float)
    return arr / arr.sum()


@st.composite
def categoricals(draw, min_k=2, max_k=8):
    return Categorical(draw(probability_vectors(min_k, max_k)))


@st.composite
def second_order(draw, k=None, depth=2):
    if k is None:
        k = draw(st.integers(2, 6))
    choices = ["point", "dirichlet", "ensemble"]
    if k == 2:
        choices.append("interval")
    if depth > 1:
        choices.append("mixture")
    kind = draw(st.sampled_from(choices))
    if kind == "point":
        return PointMass(draw(probability_vectors(k, k)))
    if kind == "dirichlet":
        alpha = draw(st.lists(st.floats(0.1, 50.0), min_size=k, max_size=k))
        return Dirichlet(alpha)
    if kind == "ensemble":
        m = draw(st.integers(1, 8))
        return EmpiricalEnsemble([draw(probability_vectors(k, k)) for _ in range(m)])
    if kind == "interval":
        lo = draw(st.floats(0.0, 1.0))
        hi = draw(st.floats(lo, 1.0))
        return IntervalUniform(lo, hi)
    n = draw(st.integers(2, 3))
    components = [draw(second_order(k=k, depth=depth - 1)) for _ in range(n)]
    weights = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return FiniteMixture(weights / weights.sum(), components)


@given(categoricals())
def test_entropy_within_range(theta):
    h = shannon_entropy(theta, "nats")
    assert 0.0 <= h <= math.log(theta.k) + 1e-12


@given(categoricals())
def test_entropy_unit_conversion(theta):
    assert abs(shannon_entropy(theta, "bits") - shannon_entropy(theta, "nats") / math.log(2)) <= 1e-12


@given(probability_vectors(), st.data())
def test_kl_non_negative(p, data):
    q = data.draw(probability_vectors(len(p), len(p), allow_zeros=False))
    assert kl_divergence(p, q, "nats") >= 0.0


@given(second_order())
def test_predictive_mean_on_simplex(q):
    mean = q.predictive_mean().probs
    assert np.all(mean >= 0.0)
    assert abs(mean.sum() - 1.0) <= 1e-12


@settings(max_examples=25)
@given(second_order())
def test_decomposition_identity(q):
    triple = decompose(q, config=FAST)
    gap = abs(triple.total - (triple.aleatoric + triple.epistemic))
    assert gap <= max(2.0 * triple.error_bound, 1e-9)


@settings(max_examples=25)
@given(second_order())
def test_measure_ranges(q):
    triple = decompose(q, config=FAST)
    slack = 2.0 * triple.error_bound + 1e-12
    assert -slack <= triple.aleatoric <= triple.total + slack
    assert -slack <= triple.epistemic <= triple.total + slack
    assert triple.total <= 1.0 + 1e-9


@settings(max_examples=25)
@given(second_order())
def test_bounds_sandwich(q):
    au = aleatoric_uncertainty(q, config=FAST)
    bounds = aleatoric_bounds(q)
    assert bounds.lower - 2.0 * au.error_bound - 1e-12 <= au.value
    assert au.value <= bounds.upper + 2.0 * au.error_bound + 1e-12


@given(second_order(k=2))
def test_symmetrized_belief_has_maximal_total(q):
    mean = q.predictive_mean().probs
    mirrored = PointMass((mean[1], mean[0]))
    symmetric = FiniteMixture([0.5, 0.5], [q, mirrored])
    assert abs(total_uncertainty(symmetric) - 1.0) <= 1e-12


@given(st.lists(probability_vectors(3, 3), min_size=1, max_size=10))
def test_ensemble_matches_generic_decomposition(members):
    via_ensemble = ensemble_decompose(EnsemblePrediction(members))
    via_generic = decompose(EmpiricalEnsemble(members))
    assert abs(via_ensemble.total - via_generic.total) <= 1e-12
    assert abs(via_ensemble.aleatoric - via_generic.aleatoric) <= 1e-12
    assert abs(via_ensemble.epistemic - via_generic.epistemic) <= 1e-12
    oracle = oc.ensemble_triple_bits(members)
    for triple in (via_ensemble, via_generic):
        got = (triple.total, triple.aleatoric, triple.epistemic)
        assert max(abs(x - y) for x, y in zip(got, oracle)) <= 1e-12


@given(st.integers(2, 5), st.data())
def test_js_entropy_gap_identity(k, data):
    members = data.draw(st.lists(probability_vectors(k, k), min_size=1, max_size=10))
    e = EnsemblePrediction(members)
    gap = shannon_entropy(e.predictive_mean(), "nats") - float(
        e.weights @ [shannon_entropy(m, "nats") for m in e.member_matrix]
    )
    assert abs(js_divergence(e, "nats") - gap) <= 1e-12
    assert js_divergence(e, "nats") >= 0.0


@given(st.floats(0.01, 100.0))
def test_digamma_recurrence(x):
    assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-10 * max(1.0, 1.0 / x)


@given(second_order(), st.integers(0, 2**32 - 1))
def test_sampling_deterministic(q, seed):
    a = q.sample_rows(16, np.random.default_rng(seed))
    b = q.sample_rows(16, np.random.default_rng(seed))
    np.testing.assert_array_equal(a, b)
