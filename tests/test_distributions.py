"""Construction, validation, predictive means, and sampling."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import random_distribution, random_ensemble
from oracles import mc_dirichlet_mean
from secondorder import (
    Categorical,
    DimensionMismatch,
    Dirichlet,
    DistributionError,
    EmpiricalEnsemble,
    EmptyEnsemble,
    FiniteMixture,
    IntervalUniform,
    InvalidSpec,
    NegativeProbability,
    PointMass,
    SecondOrderDistribution,
    SumNotOne,
    validate,
)

HUGE = 10**400  # a JSON integer beyond float range

# Any JSON value: unbounded integers (beyond float range too), floats with nan
# and inf, short text, and nested lists and mappings.
NUMBER = st.one_of(st.integers(), st.sampled_from([HUGE, -HUGE]), st.floats())
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBER, st.text(max_size=5)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=5), inner, max_size=4)
    ),
    max_leaves=10,
)
# Field values: numbers, vectors and matrices of numbers, or any JSON value.
FIELD = st.one_of(
    NUMBER,
    st.lists(NUMBER, max_size=5),
    st.lists(st.lists(NUMBER, max_size=4), max_size=4),
    JSON,
)


def _spec(components):
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("point"), "theta": FIELD}),
        st.fixed_dictionaries({"kind": st.just("dirichlet"), "alpha": FIELD}),
        st.fixed_dictionaries({"kind": st.just("interval_uniform"), "lo": FIELD, "hi": FIELD}),
        st.fixed_dictionaries({
            "kind": st.just("mixture"),
            "weights": FIELD,
            "components": st.one_of(st.lists(components, max_size=3), JSON),
        }),
        st.fixed_dictionaries({"kind": st.just("ensemble"), "members": FIELD}),
        st.dictionaries(st.text(max_size=8), JSON, max_size=3),
    )


SPECS = st.recursive(_spec(JSON), _spec, max_leaves=6)


class TestCategorical:
    def test_basic_construction(self):
        theta = Categorical([0.2, 0.3, 0.5])
        assert theta.k == 3
        np.testing.assert_allclose(theta.probs, [0.2, 0.3, 0.5])

    def test_renormalizes_tiny_drift(self):
        theta = Categorical([0.5, 0.5 + 4e-10])
        assert theta.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        with pytest.raises(SumNotOne):
            Categorical([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(NegativeProbability):
            Categorical([1.1, -0.1])

    def test_rejects_k_below_two(self):
        with pytest.raises(DimensionMismatch):
            Categorical([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidSpec):
            Categorical([np.nan, 1.0])

    def test_immutable(self):
        theta = Categorical([0.4, 0.6])
        with pytest.raises(ValueError):
            theta.probs[0] = 0.9

    def test_zero_cells_allowed(self):
        theta = Categorical([0.0, 1.0])
        assert theta.probs[0] == 0.0


class TestConstructors:
    def test_dirichlet_rejects_non_positive_alpha(self):
        with pytest.raises(InvalidSpec):
            Dirichlet([1.0, 0.0])
        with pytest.raises(InvalidSpec):
            Dirichlet([1.0, -2.0])

    def test_dirichlet_rejects_overflowing_total(self):
        with pytest.raises(InvalidSpec, match="total"):
            Dirichlet([1e308, 1e308])

    def test_interval_rejects_bad_ordering(self):
        with pytest.raises(InvalidSpec):
            IntervalUniform(0.7, 0.3)

    def test_interval_rejects_out_of_range(self):
        with pytest.raises(InvalidSpec):
            IntervalUniform(-0.1, 0.5)
        with pytest.raises(InvalidSpec):
            IntervalUniform(0.5, 1.2)

    def test_interval_degenerate_allowed(self):
        q = IntervalUniform(0.4, 0.4)
        np.testing.assert_allclose(q.predictive_mean().probs, [0.4, 0.6])

    def test_mixture_weight_validation(self):
        delta = PointMass([1.0, 0.0])
        with pytest.raises(NegativeProbability):
            FiniteMixture([1.0, 0.0], [delta, delta])
        with pytest.raises(SumNotOne):
            FiniteMixture([0.7, 0.7], [delta, delta])
        with pytest.raises(DimensionMismatch):
            FiniteMixture([0.5, 0.5], [delta, PointMass([0.1, 0.2, 0.7])])

    def test_mixture_flattens_nested(self):
        inner = FiniteMixture([0.5, 0.5], [PointMass([1.0, 0.0]), PointMass([0.0, 1.0])])
        outer = FiniteMixture([0.4, 0.6], [inner, PointMass([0.5, 0.5])])
        assert all(not isinstance(c, FiniteMixture) for c in outer.components)
        assert len(outer.components) == 3
        np.testing.assert_allclose(outer.weights, [0.2, 0.2, 0.6])

    def test_ensemble_needs_members(self):
        with pytest.raises(EmptyEnsemble):
            EmpiricalEnsemble([])

    def test_ensemble_shared_k(self):
        with pytest.raises(DimensionMismatch):
            EmpiricalEnsemble([[0.5, 0.5], [0.2, 0.3, 0.5]])
        with pytest.raises(DimensionMismatch):
            validate({"kind": "ensemble", "members": [[0.5, 0.5], [0.2, 0.3, 0.5]]})


class TestValidate:
    def test_dirichlet_spec(self):
        q = validate({"kind": "dirichlet", "alpha": [1, 1]})
        assert isinstance(q, Dirichlet)
        assert q.k == 2

    def test_interval_ordering_error(self):
        with pytest.raises(InvalidSpec):
            validate({"kind": "interval_uniform", "lo": 0.7, "hi": 0.3})

    def test_dirac_mixture_spec(self):
        q = validate(
            {
                "kind": "mixture",
                "weights": [0.5, 0.5],
                "components": [
                    {"kind": "point", "theta": [1, 0]},
                    {"kind": "point", "theta": [0, 1]},
                ],
            }
        )
        assert isinstance(q, FiniteMixture)
        np.testing.assert_allclose(q.predictive_mean().probs, [0.5, 0.5])

    def test_ensemble_spec(self):
        q = validate({"kind": "ensemble", "members": [[0.2, 0.8], [0.8, 0.2]]})
        assert isinstance(q, EmpiricalEnsemble)
        assert q.m == 2

    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            validate({"kind": "beta"})

    def test_missing_field(self):
        with pytest.raises(InvalidSpec):
            validate({"kind": "dirichlet"})

    # Specs of the right shape whose values are not numbers.
    NON_NUMERIC = (
        {"kind": "point", "theta": "ab"},
        {"kind": "ensemble", "members": [[0.5, 0.5], [0.5, "x"]]},
        {"kind": "mixture", "weights": ["a"], "components": [{"kind": "point", "theta": [0.5, 0.5]}]},
        {"kind": "ensemble", "members": 5},
    )

    def test_not_a_mapping(self):
        for spec in ([1, 2, 3], *self.NON_NUMERIC):
            with pytest.raises(InvalidSpec):
                validate(spec)

    def _nested_mixture(self, levels):
        spec = {"kind": "point", "theta": [0.5, 0.5]}
        for _ in range(levels):
            spec = {"kind": "mixture", "weights": [1.0], "components": [spec]}
        return spec

    def test_nesting_depth_limit(self):
        validate(self._nested_mixture(8))  # at the limit: fine
        with pytest.raises(InvalidSpec):
            validate(self._nested_mixture(9))


class TestValidateFuzz:
    @settings(max_examples=300)
    @given(spec=st.one_of(SPECS, JSON))
    @example(spec={"kind": "point", "theta": [HUGE, 1]})
    @example(spec={"kind": "dirichlet", "alpha": [HUGE, 1]})
    @example(spec={"kind": "interval_uniform", "lo": 0, "hi": HUGE})
    @example(spec={"kind": "mixture", "weights": [HUGE],
                   "components": [{"kind": "point", "theta": [0.5, 0.5]}]})
    def test_returns_a_distribution_or_a_distribution_error(self, spec):
        with np.errstate(all="ignore"):
            try:
                q = validate(spec)
            except DistributionError:
                return
        assert isinstance(q, SecondOrderDistribution)

    def test_deep_nesting_is_invalid_spec_not_ragged(self):
        theta = 0.5
        for _ in range(70):
            theta = [theta]
        with pytest.raises(InvalidSpec, match="nested too deeply"):
            validate({"kind": "point", "theta": theta})
        with pytest.raises(DimensionMismatch, match="same length"):
            validate({"kind": "ensemble", "members": [[0.5, 0.5], [1.0]]})


class TestPredictiveMean:
    def test_symmetric_dirichlet(self):
        np.testing.assert_array_equal(Dirichlet([2, 2]).predictive_mean().probs, [0.5, 0.5])

    def test_dirac_mixture(self):
        q = FiniteMixture([0.5, 0.5], [PointMass([1, 0]), PointMass([0, 1])])
        np.testing.assert_array_equal(q.predictive_mean().probs, [0.5, 0.5])

    def test_asymmetric_dirichlet_against_mc_oracle(self):
        mean, stderr = mc_dirichlet_mean((1.0, 3.0), 10**6, seed=11)
        exact = Dirichlet([1, 3]).predictive_mean().probs
        np.testing.assert_allclose(exact, [0.25, 0.75])
        assert np.all(np.abs(exact - mean) <= 3.0 * stderr)

    def test_interval(self):
        np.testing.assert_allclose(
            IntervalUniform(0.6, 1.0).predictive_mean().probs, [0.8, 0.2]
        )

    def test_ensemble(self):
        q = EmpiricalEnsemble([[0.2, 0.8], [0.8, 0.2], [0.5, 0.5]])
        np.testing.assert_allclose(q.predictive_mean().probs, [0.5, 0.5])

    def test_matches_the_validator_bit_for_bit(self):
        # Means are renormalized without re-validation, exactly as the validator renormalizes.
        rng = np.random.default_rng(8)
        for _ in range(300):
            k = int(rng.integers(2, 11))
            alpha = rng.uniform(0.1, 50.0, k)
            mean = Dirichlet(alpha).predictive_mean().probs
            assert not mean.flags.writeable
            assert np.array_equal(mean, Categorical(alpha / alpha.sum()).probs)
            lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
            cells = (0.5 * (lo + hi), 0.5 * ((1.0 - lo) + (1.0 - hi)))
            mean = IntervalUniform(lo, hi).predictive_mean().probs
            assert np.array_equal(mean, Categorical(cells).probs)
            q = EmpiricalEnsemble(random_ensemble(rng))
            mean = q.predictive_mean().probs
            assert np.array_equal(mean, Categorical(q.weights @ q.member_matrix).probs)

    def test_dirichlet_subnormal_concentration_keeps_its_cell(self):
        # 5e-324 / 2 rounds to 0 in alpha / a0; the cell is held, so the mean keeps it positive.
        mean = Dirichlet([5e-324, 2.0]).predictive_mean().probs
        assert mean[0] > 0.0
        assert mean[1] == 1.0

    def test_on_simplex_for_random_corpus(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            mean = random_distribution(rng).predictive_mean().probs
            assert np.all(mean >= 0.0)
            assert abs(mean.sum() - 1.0) <= 1e-12

    def test_mixture_linearity_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            comps = [random_distribution(rng, k=k, depth=1) for _ in range(3)]
            w = rng.dirichlet(np.ones(3))
            w = np.maximum(w, 1e-9)
            w = w / w.sum()
            mix = FiniteMixture(w, comps)
            manual = sum(
                wi * c.predictive_mean().probs for wi, c in zip(mix.weights, mix.components)
            )
            np.testing.assert_allclose(mix.predictive_mean().probs, manual, atol=1e-15)

    def test_flattening_preserves_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            k = int(rng.integers(2, 5))
            inner = FiniteMixture(
                [0.3, 0.7],
                [random_distribution(rng, k=k, depth=1), random_distribution(rng, k=k, depth=1)],
            )
            outer_comps = [inner, random_distribution(rng, k=k, depth=1)]
            nested = FiniteMixture([0.6, 0.4], outer_comps)
            manual = 0.6 * inner.predictive_mean().probs + 0.4 * outer_comps[1].predictive_mean().probs
            assert np.max(np.abs(nested.predictive_mean().probs - manual)) <= 1e-12


class TestSample:
    def test_point_mass_copies(self):
        theta = Categorical([0.3, 0.7])
        rng = np.random.default_rng(0)
        rows = PointMass(theta).sample_rows(5, rng)
        assert all(np.array_equal(row, theta.probs) for row in rows)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            PointMass([0.5, 0.5]).sample_rows(0, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            q = random_distribution(rng)
            seed = int(rng.integers(2**32))
            a = q.sample_rows(64, np.random.default_rng(seed))
            b = q.sample_rows(64, np.random.default_rng(seed))
            np.testing.assert_array_equal(a, b)

    def test_samples_lie_on_simplex(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            q = random_distribution(rng)
            rows = q.sample_rows(128, rng)
            assert rows.shape == (128, q.k)
            assert np.all(rows >= 0.0)
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_empirical_mean_converges(self):
        # 3-standard-error agreement with the exact predictive mean at n = 1e5
        rng = np.random.default_rng(14)
        for q in [
            IntervalUniform(0.0, 1.0),
            Dirichlet([1.0, 3.0]),
            FiniteMixture([0.5, 0.5], [Dirichlet([2, 2]), PointMass([0.9, 0.1])]),
            EmpiricalEnsemble([[0.2, 0.8], [0.7, 0.3]]),
        ]:
            rows = q.sample_rows(10**5, rng)
            stderr = rows.std(axis=0, ddof=1) / np.sqrt(rows.shape[0])
            gap = np.abs(rows.mean(axis=0) - q.predictive_mean().probs)
            assert np.all(gap <= 3.0 * stderr + 1e-12)

    def test_interval_uniform_symmetry(self):
        rng = np.random.default_rng(15)
        rows = IntervalUniform(0.0, 1.0).sample_rows(10**5, rng)
        stderr = rows[:, 0].std(ddof=1) / np.sqrt(rows.shape[0])
        assert abs(rows[:, 0].mean() - 0.5) <= 3.0 * stderr

    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    @pytest.mark.parametrize("scale", [1e-3, 0.3, 1.0, 25.0])
    def test_dirichlet_draws_the_gamma_stream(self, k, scale):
        # The rows normalize exactly the variates of rng.gamma(shape=alpha) and leave
        # the generator where it would leave it.
        alpha = np.random.default_rng(k).uniform(0.5, 1.5, k) * scale
        rng_rows, rng_gamma = np.random.default_rng(3), np.random.default_rng(3)
        rows = Dirichlet(alpha).sample_rows(500, rng_rows)
        draws = rng_gamma.gamma(shape=alpha, size=(500, k))
        assert rng_rows.bit_generator.state == rng_gamma.bit_generator.state
        with np.errstate(invalid="ignore"):
            expected = draws / draws.sum(axis=1, keepdims=True)
        held = ~np.isnan(expected).any(axis=1)
        np.testing.assert_array_equal(np.isnan(rows).any(axis=1), ~held)  # 0/0 rows stay NaN
        if k == 2:
            np.testing.assert_array_equal(rows, expected)
        else:  # a row total may round differently in the last place
            np.testing.assert_allclose(rows[held], expected[held], rtol=0, atol=4.5e-16)
