"""Expectation engines: quadrature, digamma closed form, Monte Carlo, dispatch."""

import math

import numpy as np
import pytest
import scipy.special

import oracles as oc
from corpus import random_distribution
from secondorder import (
    ENTROPY_NATS,
    Categorical,
    Dirichlet,
    EmpiricalEnsemble,
    EngineConfig,
    FiniteMixture,
    IntegrationFailure,
    IntervalUniform,
    PointMass,
    digamma,
    dirichlet_expected_entropy,
    expect,
    mc_expect,
    quadrature_1d,
)

LN2 = math.log(2.0)


def binary_entropy_nats(t: float) -> float:
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return -t * math.log(t) - (1.0 - t) * math.log(1.0 - t)


class TestQuadrature:
    def test_linear_integrand(self):
        res = quadrature_1d(lambda t: t, 0.0, 1.0)
        assert res.method == "quadrature"
        assert abs(res.value - 0.5) <= max(res.error_bound, 1e-12)

    def test_binary_entropy_integral(self):
        res = quadrature_1d(binary_entropy_nats, 0.0, 1.0, tolerance=1e-10)
        expected = oc.FROZEN_UNIFORM01_ALEATORIC_BITS * LN2  # in nats
        assert abs(res.value - expected) <= res.error_bound + 1e-12
        assert res.error_bound <= 1e-10

    def test_degenerate_interval(self):
        res = quadrature_1d(lambda t: 42.0, 0.4, 0.4)
        assert res.value == 0.0
        assert res.error_bound == 0.0
        assert res.method == "exact"

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            quadrature_1d(lambda t: t, 1.0, 0.0)

    def test_failure_on_tiny_budget(self):
        with pytest.raises(IntegrationFailure):
            quadrature_1d(binary_entropy_nats, 0.0, 1.0, tolerance=1e-12, max_evals=20)

    def test_failure_on_unreachable_tolerance(self):
        with pytest.raises(IntegrationFailure):
            quadrature_1d(binary_entropy_nats, 0.0, 1.0, tolerance=1e-30)

    def test_halving_tolerance_never_grows_error(self):
        tolerances = [1e-4 / 2**i for i in range(0, 22, 3)]
        bounds = [
            quadrature_1d(binary_entropy_nats, 0.0, 1.0, tolerance=tol).error_bound
            for tol in tolerances
        ]
        assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_value_within_tolerance(self):
        expected = oc.FROZEN_UNIFORM01_ALEATORIC_BITS * LN2
        for tol in (1e-4, 1e-6, 1e-8, 1e-10):
            res = quadrature_1d(binary_entropy_nats, 0.0, 1.0, tolerance=tol)
            assert abs(res.value - expected) <= tol


class TestEngineConfig:
    def test_rejects_nan_tolerance(self):
        with pytest.raises(ValueError):
            EngineConfig(tolerance=math.nan)
        with pytest.raises(ValueError):
            quadrature_1d(lambda t: t, 0.0, 1.0, tolerance=math.nan)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            EngineConfig(seed=-1)


class TestDigamma:
    def test_against_scipy(self):
        xs = np.concatenate(
            [np.linspace(1e-3, 0.99, 200), np.linspace(1.0, 60.0, 300), [500.0, 1e4, 1e8]]
        )
        errors = [abs(digamma(float(x)) - scipy.special.digamma(x)) for x in xs]
        assert max(errors) < 1e-12

    def test_recurrence(self):
        for x in (0.1, 0.5, 1.0, 3.7, 12.0):
            assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-1.0)


class TestDirichletExpectedEntropy:
    def test_uniform_alpha_matches_interval_uniform(self):
        value = dirichlet_expected_entropy([1.0, 1.0], "bits")
        assert abs(value - oc.FROZEN_UNIFORM01_ALEATORIC_BITS) < 1e-12

    def test_alpha_22(self):
        value = dirichlet_expected_entropy([2.0, 2.0], "bits")
        assert abs(value - oc.FROZEN_DIRICHLET_22_ENTROPY_BITS) < 1e-12

    def test_concentrated_limit(self):
        assert abs(dirichlet_expected_entropy([1000.0, 1000.0], "bits") - 1.0) < 1e-3

    def test_against_mc_oracle(self):
        for alpha, seed in [((1.0, 1.0), 21), ((2.0, 2.0), 22), ((0.5, 3.0, 7.0), 23)]:
            mc, stderr = oc.mc_dirichlet_entropy_bits(alpha, 10**6, seed=seed)
            assert abs(dirichlet_expected_entropy(alpha, "bits") - mc) <= 3.0 * stderr

    def test_uniform_alpha_general_k_vs_mc(self):
        for k, seed in [(3, 31), (5, 32), (10, 33)]:
            mc, stderr = oc.mc_dirichlet_entropy_bits(np.ones(k), 2 * 10**5, seed=seed)
            assert abs(dirichlet_expected_entropy(np.ones(k), "bits") - mc) <= 3.0 * stderr

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            dirichlet_expected_entropy([1.0, 0.0])


class TestMCExpect:
    def test_constant_function(self):
        res = mc_expect(Dirichlet([2, 2]), lambda theta: 3.25, n_samples=100, seed=0)
        assert res.value == 3.25
        assert res.error_bound == 0.0
        assert res.method == "monte_carlo"
        assert res.evaluations == 100

    def test_deterministic(self):
        q = Dirichlet([0.5, 1.5, 3.0])
        a = mc_expect(q, ENTROPY_NATS, n_samples=5000, seed=77)
        b = mc_expect(q, ENTROPY_NATS, n_samples=5000, seed=77)
        assert a == b

    def test_symmetric_coordinate(self):
        res = mc_expect(Dirichlet([2, 2]), lambda theta: theta.probs[0], n_samples=50_000, seed=5)
        assert abs(res.value - 0.5) <= res.error_bound

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            mc_expect(Dirichlet([2, 2]), ENTROPY_NATS, n_samples=1, seed=0)


class TestExpectDispatch:
    def test_point_mass_exact(self):
        theta = Categorical([0.3, 0.7])
        res = expect(PointMass(theta), lambda t: float(t.probs[0]) ** 2)
        assert res.value == 0.3**2
        assert res.error_bound == 0.0
        assert res.method == "exact"
        assert res.evaluations == 1

    def test_ensemble_exact(self):
        q = EmpiricalEnsemble([[0.2, 0.8], [0.8, 0.2]])
        res = expect(q, ENTROPY_NATS)
        assert res.method == "exact"
        assert res.error_bound == 0.0
        assert abs(res.value - oc.FROZEN_H_02_BITS * LN2) < 1e-12

    def test_dirichlet_entropy_closed_form(self):
        res = expect(Dirichlet([1, 1]), ENTROPY_NATS)
        assert res.method == "closed_form"
        assert res.error_bound == 0.0

    def test_dirichlet_generic_function_goes_monte_carlo(self):
        res = expect(Dirichlet([2, 2]), lambda t: float(t.probs[0]), EngineConfig(mc_samples=2000))
        assert res.method == "monte_carlo"
        assert abs(res.value - 0.5) <= res.error_bound

    def test_interval_quadrature(self):
        res = expect(IntervalUniform(0.0, 1.0), ENTROPY_NATS)
        assert res.method == "quadrature"
        assert abs(res.value - oc.FROZEN_UNIFORM01_ALEATORIC_BITS * LN2) <= res.error_bound + 1e-12

    def test_interval_mean_of_identity(self):
        res = expect(IntervalUniform(0.0, 1.0), lambda t: float(t.probs[0]))
        assert abs(res.value - 0.5) <= max(res.error_bound, 1e-12)

    def test_degenerate_interval_exact(self):
        res = expect(IntervalUniform(0.4, 0.4), ENTROPY_NATS)
        assert res.method == "exact"
        assert res.error_bound == 0.0
        assert res.value == pytest.approx(binary_entropy_nats(0.4), abs=1e-15)

    def test_mixture_combines_methods_and_errors(self):
        mix = FiniteMixture(
            [0.25, 0.25, 0.5],
            [PointMass([0.5, 0.5]), Dirichlet([1, 1]), IntervalUniform(0.0, 1.0)],
        )
        res = expect(mix, ENTROPY_NATS)
        assert res.method == "quadrature"  # the weakest contributing engine
        parts = [
            expect(PointMass([0.5, 0.5]), ENTROPY_NATS),
            expect(Dirichlet([1, 1]), ENTROPY_NATS),
            expect(IntervalUniform(0.0, 1.0), ENTROPY_NATS),
        ]
        manual = 0.25 * parts[0].value + 0.25 * parts[1].value + 0.5 * parts[2].value
        manual_err = 0.25 * parts[0].error_bound + 0.25 * parts[1].error_bound + 0.5 * parts[2].error_bound
        assert res.value == pytest.approx(manual, abs=1e-15)
        assert res.error_bound == pytest.approx(manual_err, abs=1e-18)

    def test_mixture_linearity_random(self):
        rng = np.random.default_rng(40)
        cfg = EngineConfig(mc_samples=5000, seed=9)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            comps = [random_distribution(rng, k=k, depth=1) for _ in range(3)]
            w = rng.dirichlet(np.ones(3))
            w = np.maximum(w, 1e-9)
            w = w / w.sum()
            mix = FiniteMixture(w, comps)
            total = expect(mix, ENTROPY_NATS, cfg)
            manual = sum(
                wi * expect(c, ENTROPY_NATS, cfg).value
                for wi, c in zip(mix.weights, mix.components)
            )
            errs = sum(
                wi * expect(c, ENTROPY_NATS, cfg).error_bound
                for wi, c in zip(mix.weights, mix.components)
            )
            assert abs(total.value - manual) <= errs + 1e-12


class TestEngineAgreement:
    def test_dirichlet_closed_form_vs_mc(self):
        rng = np.random.default_rng(50)
        for i in range(20):
            k = int(rng.integers(2, 8))
            alpha = rng.uniform(0.1, 50.0, size=k)
            closed = dirichlet_expected_entropy(alpha, "nats")
            mc = mc_expect(Dirichlet(alpha), ENTROPY_NATS, n_samples=100_000, seed=1100 + i)
            assert abs(closed - mc.value) <= mc.error_bound

    def test_interval_quadrature_vs_mc(self):
        rng = np.random.default_rng(51)
        for i in range(20):
            lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
            q = IntervalUniform(float(lo), float(hi))
            quad = expect(q, ENTROPY_NATS)
            mc = mc_expect(q, ENTROPY_NATS, n_samples=100_000, seed=2000 + i)
            assert abs(quad.value - mc.value) <= quad.error_bound + mc.error_bound
