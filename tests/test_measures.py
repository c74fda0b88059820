"""Uncertainty measures, the additive decomposition, and support bounds."""

import math
import time

import numpy as np
import pytest

import oracles as oc
from corpus import random_distribution
from secondorder import (
    Categorical,
    ConsistencyFailure,
    DimensionMismatch,
    Dirichlet,
    DistributionError,
    EmpiricalEnsemble,
    EngineConfig,
    FiniteMixture,
    Integrand,
    IntegrationFailure,
    IntervalUniform,
    PointMass,
    UncertaintyTriple,
    aleatoric_bounds,
    aleatoric_uncertainty,
    decompose,
    epistemic_mutual_information,
    kl_divergence,
    shannon_entropy,
    total_uncertainty,
)
from secondorder.integrate import ENTROPY_NATS, entropy_nats_rows, expect, kl_nats_rows, kl_to
from secondorder.measures import CHECK_SAMPLES

LN2 = math.log(2.0)
FAST = EngineConfig(mc_samples=4000, seed=3)

DIRAC_MIX_01 = FiniteMixture([0.5, 0.5], [PointMass([1, 0]), PointMass([0, 1])])


def _scaled_sampler(factor):
    """A Dirichlet whose sampler draws from Dirichlet(factor * alpha): the right mean, the wrong spread."""

    class _Scaled(Dirichlet):
        def sample_rows(self, n, rng):
            return Dirichlet(factor * self.alpha).sample_rows(n, rng)

    return _Scaled


class TestShannonEntropy:
    def test_maximum_for_binary(self):
        assert shannon_entropy((0.5, 0.5), "bits") == 1.0

    def test_degenerate(self):
        assert shannon_entropy((1.0, 0.0), "bits") == 0.0

    def test_skewed_binary(self):
        assert shannon_entropy((0.2, 0.8), "bits") == pytest.approx(oc.FROZEN_H_02_BITS, abs=1e-15)

    def test_unit_conversion(self):
        theta = (0.1, 0.2, 0.7)
        assert shannon_entropy(theta, "bits") == pytest.approx(
            shannon_entropy(theta, "nats") / LN2, abs=1e-12
        )

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(2, 11))
            h = shannon_entropy(rng.dirichlet(np.ones(k)), "bits")
            assert 0.0 <= h <= math.log2(k) + 1e-12

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy((0.5, 0.5), "hartleys")


class TestKLDivergence:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            assert kl_divergence(p, p) == 0.0

    def test_dirac_versus_fair_coin(self):
        assert kl_divergence((1, 0), (0.5, 0.5), "bits") == pytest.approx(1.0, abs=1e-15)

    def test_absolute_continuity_violation_is_inf(self):
        assert kl_divergence((0.5, 0.5), (1, 0)) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kl_divergence((0.5, 0.5), (0.2, 0.3, 0.5))

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
            assert kl_divergence(p, q, "nats") >= 0.0


class TestTotalUncertainty:
    def test_uniform_interval_is_maximal(self):
        assert total_uncertainty(IntervalUniform(0, 1)) == 1.0

    def test_dirac_at_half_is_maximal(self):
        assert total_uncertainty(PointMass([0.5, 0.5])) == 1.0

    def test_shifted_interval(self):
        assert total_uncertainty(IntervalUniform(0.6, 1.0)) == pytest.approx(
            oc.FROZEN_H_02_BITS, abs=1e-15
        )

    def test_raw_units(self):
        q = Dirichlet([1, 2, 3])
        norm = total_uncertainty(q, normalized=True)
        raw_bits = total_uncertainty(q, "bits", normalized=False)
        raw_nats = total_uncertainty(q, "nats", normalized=False)
        assert raw_bits == pytest.approx(raw_nats / LN2, abs=1e-12)
        assert norm == pytest.approx(raw_bits / math.log2(3), abs=1e-12)


class TestAleatoricUncertainty:
    def test_point_mass(self):
        res = aleatoric_uncertainty(PointMass([0.5, 0.5]))
        assert res.value == 1.0
        assert res.error_bound == 0.0

    def test_dirac_mixture_vanishes(self):
        res = aleatoric_uncertainty(DIRAC_MIX_01)
        assert res.value == 0.0
        assert res.error_bound == 0.0
        assert res.method == "exact"

    def test_uniform_interval(self):
        # The quadrature route, through the entropy without its closed-form tag.
        res = expect(IntervalUniform(0, 1), Integrand(entropy_nats_rows)).scaled(LN2)
        assert res.method == "quadrature"
        assert abs(res.value - oc.FROZEN_UNIFORM01_ALEATORIC_BITS) <= 1e-6
        assert abs(res.value - oc.FROZEN_UNIFORM01_ALEATORIC_BITS) <= res.error_bound + 1e-12
        closed = aleatoric_uncertainty(IntervalUniform(0, 1))
        assert (closed.method, closed.error_bound) == ("closed_form", 0.0)
        assert closed.value == pytest.approx(oc.FROZEN_UNIFORM01_ALEATORIC_BITS, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "lo, hi, nats",
        [(1e-300, 1e-200, 2.3100850929941e-198), (1.0 - 2.0**-53, 1.0, 3.0622195091497e-15 * LN2)],
        ids=["1e-300-to-1e-200", "one-ulp-at-edge"],
    )
    def test_hairline_intervals_are_exact(self, lo, hi, nats):
        # Simpson on the area gave 0.0 and 1.0e-15 bits here, both with bound 0.
        res = aleatoric_uncertainty(IntervalUniform(lo, hi), "nats", normalized=False)
        assert res.value == pytest.approx(nats, rel=1e-12, abs=0.0)
        assert res.value == pytest.approx(oc.interval_mean_entropy_nats_mp(lo, hi), rel=1e-13, abs=0.0)


class TestEpistemicMutualInformation:
    def test_point_mass_carries_no_information(self):
        for theta in ([0.5, 0.5], [0.9, 0.1], [0.2, 0.3, 0.5]):
            for method in ("residual", "expected_kl"):
                assert epistemic_mutual_information(PointMass(theta), method=method).value == 0.0

    def test_dirac_mixture_is_maximal(self):
        for method in ("residual", "expected_kl"):
            res = epistemic_mutual_information(DIRAC_MIX_01, method=method)
            assert res.value == 1.0
            assert res.error_bound == 0.0

    def test_uniform_interval_both_methods(self):
        residual = epistemic_mutual_information(IntervalUniform(0, 1), method="residual")
        direct = epistemic_mutual_information(IntervalUniform(0, 1), method="expected_kl")
        assert abs(residual.value - oc.FROZEN_UNIFORM01_EPISTEMIC_BITS) <= 1e-6
        assert abs(direct.value - oc.FROZEN_UNIFORM01_EPISTEMIC_BITS) <= 1e-6
        assert abs(residual.value - direct.value) <= residual.error_bound + direct.error_bound + 1e-12

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            epistemic_mutual_information(PointMass([0.5, 0.5]), method="variance")


class TestDecompose:
    def test_dirac_at_half(self):
        triple = decompose(PointMass([0.5, 0.5]))
        assert (triple.total, triple.aleatoric, triple.epistemic) == (1.0, 1.0, 0.0)
        assert triple.error_bound == 0.0

    def test_dirac_mixture(self):
        triple = decompose(DIRAC_MIX_01)
        assert (triple.total, triple.aleatoric, triple.epistemic) == (1.0, 0.0, 1.0)

    def test_uniform_interval(self):
        triple = decompose(IntervalUniform(0, 1))
        assert triple.total == 1.0
        assert triple.aleatoric == pytest.approx(oc.FROZEN_UNIFORM01_ALEATORIC_BITS, abs=1e-6)
        assert triple.epistemic == pytest.approx(oc.FROZEN_UNIFORM01_EPISTEMIC_BITS, abs=1e-6)
        # aleatoric dominates epistemic for the flat belief
        assert triple.aleatoric > triple.epistemic

    def test_identity_on_random_corpus(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            triple = decompose(random_distribution(rng), config=FAST)
            gap = abs(triple.total - (triple.aleatoric + triple.epistemic))
            assert gap <= max(2.0 * triple.error_bound, 1e-9)

    def test_unit_consistency(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            q = random_distribution(rng)
            bits = decompose(q, unit="bits", normalized=False, config=FAST)
            nats = decompose(q, unit="nats", normalized=False, config=FAST)
            for field in ("total", "aleatoric", "epistemic"):
                assert getattr(bits, field) == pytest.approx(
                    getattr(nats, field) / LN2, abs=1e-12
                )

    def test_ranges(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            q = random_distribution(rng)
            t = decompose(q, config=FAST)
            slack = 2.0 * t.error_bound + 1e-12
            assert t.aleatoric <= t.total + slack
            assert t.epistemic <= t.total + slack
            assert 0.0 <= t.total <= 1.0 + 1e-9

    def test_consistency_guard_trips_on_broken_sampler(self):
        class _BrokenSampler(Dirichlet):
            def sample_rows(self, n, rng):  # collapses all mass to one vertex
                rows = np.zeros((n, self.k))
                rows[:, 0] = 1.0
                return rows

        with pytest.raises(ConsistencyFailure):
            decompose(_BrokenSampler([3.0, 4.0]), config=FAST)
        # the guard can be disabled explicitly
        decompose(_BrokenSampler([3.0, 4.0]), config=FAST, check=False)

    def test_consistency_guard_trips_on_sampler_broken_after_first_chunk(self):
        calls = []

        class _LateBreak(Dirichlet):
            def sample_rows(self, n, rng):  # honest first chunk, then all mass on one vertex
                calls.append(n)
                rows = super().sample_rows(n, rng)
                if len(calls) > 1:
                    rows[:] = 0.0
                    rows[:, 0] = 1.0
                return rows

        with pytest.raises(ConsistencyFailure):
            decompose(_LateBreak([3.0, 4.0]), config=EngineConfig(mc_samples=100_000, seed=3))
        assert len(calls) > 1

    @pytest.mark.parametrize(
        "build, factor, mc_samples",
        [
            (lambda d: d([1.0, 3.0, 6.0]), 1.5, 2000),
            (lambda d: d([1.0, 3.0, 6.0]), 1.2, 100_000),
            # Beside an interval, whose quadrature part of the bound gets the same margin.
            (lambda d: FiniteMixture([0.5, 0.5], [d([1.0, 3.0]), IntervalUniform(0.2, 0.7)]), 1.5, 2000),
        ],
        ids=["1.5-2000", "1.2-100000", "interval-1.5-2000"],
    )
    def test_consistency_guard_trips_on_wrong_concentration(self, build, factor, mc_samples):
        # At 2000 rows the x1.5 sampler's gap lies between 7.5 and 30 SE on every seed here.
        for seed in range(20):
            cfg = EngineConfig(mc_samples=mc_samples, seed=seed)
            decompose(build(Dirichlet), config=cfg)  # the honest sampler passes
            with pytest.raises(ConsistencyFailure):
                decompose(build(_scaled_sampler(factor)), config=cfg)

    def test_interval_mixture_checks_at_the_monte_carlo_margin(self, monkeypatch):
        # The entropy is closed form on both components and the expected KL is
        # Monte Carlo at its weakest, with the interval's KL part a quadrature:
        # the check trips at MC_MARGIN times the combined bound, as for any input.
        import secondorder.measures as measures

        q = FiniteMixture([0.5, 0.5], [Dirichlet([2, 3]), IntervalUniform(0.2, 0.7)])
        cfg = EngineConfig(mc_samples=2000, seed=5)
        mean = q.predictive_mean()
        au = expect(q, ENTROPY_NATS, cfg)
        direct = expect(q, kl_to(mean), cfg)
        assert (au.method, direct.method) == ("closed_form", "monte_carlo")
        residual = shannon_entropy(mean, "nats") - au.value
        combined = au.error_bound + direct.error_bound
        assert combined > 1e-6

        def shifted_to(ratio):  # moves the expected KL to `ratio` times the bound from the residual
            shift = residual + ratio * combined - direct.value
            return lambda m: Integrand(lambda rows: kl_nats_rows(rows, m.probs) + shift)

        monkeypatch.setattr(measures, "kl_to", shifted_to(2.0))
        decompose(q, config=cfg)
        monkeypatch.setattr(measures, "kl_to", shifted_to(3.0))
        with pytest.raises(ConsistencyFailure):
            decompose(q, config=cfg)

    def test_check_draws_at_most_check_samples_rows(self):
        drawn = []

        class _Recording(Dirichlet):
            def sample_rows(self, n, rng):
                drawn.append(n)
                return super().sample_rows(n, rng)

        q = _Recording([1.0, 3.0, 6.0])
        decompose(q)
        assert sum(drawn) == CHECK_SAMPLES < EngineConfig().mc_samples
        drawn.clear()
        decompose(q, config=EngineConfig(mc_samples=2000, seed=0))
        assert sum(drawn) == 2000
        # mc_samples still sets the sample count of a direct expectation
        assert epistemic_mutual_information(q, method="expected_kl").evaluations == EngineConfig().mc_samples

    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    def test_consistency_guard_trips_on_infinite_expected_kl(self):
        # A mean with a zero cell under a sampled positive entry: KL value inf,
        # Monte Carlo bound NaN (inf - inf). The check must not read NaN as a pass.
        class _ZeroCellMean(Dirichlet):
            def predictive_mean(self):
                return Categorical([0.0, 1.0])

            def sample_rows(self, n, rng):
                rows = np.zeros((n, 2))
                rows[:, 1] = 1.0
                rows[0] = 0.5
                return rows

        with pytest.raises(ConsistencyFailure):
            decompose(_ZeroCellMean([1.0, 2.0]), config=FAST)

    def test_consistency_guard_trips_on_nan_expected_kl(self, monkeypatch):
        import secondorder.measures as measures

        nan_rows = Integrand(lambda rows: np.full(rows.shape[0], np.nan))
        monkeypatch.setattr(measures, "kl_to", lambda mean: nan_rows)
        with pytest.raises(ConsistencyFailure):
            decompose(Dirichlet([2.0, 3.0]), config=FAST)

    @pytest.mark.parametrize(
        "lo, hi", [(1.0 - 2.0**-53, 1.0), (0.0, 5e-324)], ids=["one-ulp-at-edge", "subnormal-width"]
    )
    def test_hairline_interval_gives_finite_triple(self, lo, hi):
        q = IntervalUniform(lo, hi)
        assert np.all(q.predictive_mean().probs > 0.0)  # both cells hold mass
        triple = decompose(q)
        assert all(math.isfinite(v) for v in (triple.total, triple.aleatoric, triple.epistemic))

    def test_one_ulp_interval_at_the_edge_keeps_its_total(self):
        # The mean's second cell is 2**-54; computed as 1 - mid it rounded to 0.
        import mpmath

        with mpmath.workdps(50):
            m = 1 - mpmath.mpf(2) ** -54
            expected = float(-(m * mpmath.log(m) + (1 - m) * mpmath.log(1 - m)) / mpmath.log(2))
        triple = decompose(IntervalUniform(1.0 - 2.0**-53, 1.0), normalized=False)
        assert triple.total == pytest.approx(expected, rel=0.05, abs=0.0)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
    def test_extreme_parameter_grid(self):
        # Every case ends in a finite triple or a named library error. At
        # alpha = 1e-6 most gamma-normalized rows are 0/0 (numpy warns), which
        # the check reports as a ConsistencyFailure (ROADMAP item 1(a)).
        named = (DistributionError, IntegrationFailure, ConsistencyFailure)
        cfg = EngineConfig(mc_samples=2000, seed=0)
        for alpha in (1e-6, 1e-2, 1.0, 1e3, 1e12):
            for k in (2, 10, 100, 1000):
                try:
                    triple = decompose(Dirichlet(np.full(k, alpha)), config=cfg)
                except named:
                    assert alpha < 1e-2, (alpha, k)
                    continue
                assert all(math.isfinite(v) for v in (triple.total, triple.aleatoric, triple.epistemic))

    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
    @pytest.mark.filterwarnings("error:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("k", [2, 10, 1000])
    def test_extreme_mixture_and_ensemble_grid(self, k):
        # Exact atoms with subnormal, 1e-300 and 1e-12 entries (and a subnormal
        # weight) give finite triples; rows of 1e308 are named errors; mixtures
        # of a Dirichlet and a point end in a finite triple or, below alpha =
        # 1e-2, a named error. Each case takes well under a second.
        cfg = EngineConfig(mc_samples=2000, seed=0)

        def atom(tiny):
            row = np.full(k, tiny)
            row[-1] = 1.0 - (k - 1) * tiny
            return row

        def finite_triple(q):
            start = time.perf_counter()
            triple = decompose(q, config=cfg)
            assert time.perf_counter() - start < 2.0, q
            return all(math.isfinite(v) for v in (triple.total, triple.aleatoric, triple.epistemic))

        for tiny in (5e-324, 1e-300, 1e-12):
            a, b = atom(tiny), atom(tiny)[::-1]
            for q in (
                EmpiricalEnsemble([a, b]),
                EmpiricalEnsemble([a, b], weights=[5e-324, 1.0]),
                FiniteMixture([0.5, 0.5], [PointMass(a), PointMass(b)]),
                FiniteMixture([5e-324, 1.0], [PointMass(a), PointMass(b)]),
            ):
                assert finite_triple(q), (tiny, q)
        with pytest.raises(DistributionError):
            EmpiricalEnsemble([np.full(k, 1e308)])
        with pytest.raises(DistributionError):
            Dirichlet(np.full(k, 1e308))
        huge = np.ones(k)
        huge[0] = 1e308
        for alpha in (np.full(k, 1e-6), np.full(k, 1e-3), np.ones(k), np.full(k, 1e6), np.full(k, 1e300), huge):
            try:
                ok = finite_triple(FiniteMixture([0.5, 0.5], [Dirichlet(alpha), PointMass(atom(1e-12))]))
            except (DistributionError, IntegrationFailure, ConsistencyFailure):
                assert alpha.max() < 1e-2, alpha[:2]
                continue
            assert ok, alpha[:2]

    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12, 1e-14])
    def test_interval_width_grid(self, tol):
        # Widths from 5e-324 to 1 at both simplex edges and centred at 0.5
        # give finite triples, each well under a second.
        cfg = EngineConfig(tolerance=tol)
        for w in (5e-324, 1e-300, 1e-100, 1e-16, 1e-8, 1e-2, 0.5, 1.0):
            for lo, hi in ((0.0, w), (1.0 - w, 1.0), (0.5 - w / 2, 0.5 + w / 2)):
                start = time.perf_counter()
                triple = decompose(IntervalUniform(lo, hi), config=cfg)
                assert time.perf_counter() - start < 2.0, (lo, hi)
                assert all(math.isfinite(v) for v in (triple.total, triple.aleatoric, triple.epistemic)), (lo, hi)

    def test_point_mass_mixtures_are_error_free(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            comps = [PointMass(rng.dirichlet(np.ones(k))) for _ in range(4)]
            w = rng.dirichlet(np.ones(4))
            w = np.maximum(w, 1e-9)
            mix = FiniteMixture(w / w.sum(), comps)
            assert decompose(mix).error_bound == 0.0


class TestTripleValidation:
    def test_identity_enforced(self):
        with pytest.raises(ValueError):
            UncertaintyTriple(total=1.0, aleatoric=0.2, epistemic=0.2)

    def test_normalized_cap_enforced(self):
        with pytest.raises(ValueError):
            UncertaintyTriple(total=1.5, aleatoric=1.0, epistemic=0.5, normalized=True)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            UncertaintyTriple(total=0.5, aleatoric=0.7, epistemic=-0.2)


class TestSymmetryCritique:
    def test_total_cannot_distinguish_flat_belief_from_certainty(self):
        # both predictive means are the fair coin, so totals coincide exactly
        assert total_uncertainty(IntervalUniform(0, 1)) == total_uncertainty(
            PointMass([0.5, 0.5])
        )

    def test_any_symmetric_belief_is_maximal(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            q = random_distribution(rng, k=2)
            mirrored = FiniteMixture([0.5, 0.5], [q, _mirror(q)])
            assert total_uncertainty(mirrored) == pytest.approx(1.0, abs=1e-12)

    def test_wider_support_can_have_smaller_total(self):
        wide = IntervalUniform(0.3, 1.0)
        assert total_uncertainty(wide) < 1.0
        bounds = aleatoric_bounds(wide)
        assert bounds.lower == 0.0
        assert bounds.upper == 1.0

    def test_shift_non_invariance(self):
        centred = IntervalUniform(0.3, 0.7)
        shifted = IntervalUniform(0.6, 1.0)
        t_c, t_s = decompose(centred), decompose(shifted)
        assert t_c.total > t_s.total
        assert t_c.aleatoric > t_s.aleatoric
        assert t_c.epistemic < t_s.epistemic


def _mirror(q):
    """The same distribution with the two outcomes swapped (K = 2 only)."""
    if isinstance(q, PointMass):
        return PointMass(q.theta.probs[::-1])
    if isinstance(q, Dirichlet):
        return Dirichlet(q.alpha[::-1])
    if isinstance(q, IntervalUniform):
        return IntervalUniform(1.0 - q.hi, 1.0 - q.lo)
    if isinstance(q, EmpiricalEnsemble):
        return EmpiricalEnsemble(q.member_matrix[:, ::-1])
    return FiniteMixture(q.weights, [_mirror(c) for c in q.components])


class TestAleatoricBounds:
    def test_uniform_interval_full(self):
        b = aleatoric_bounds(IntervalUniform(0, 1))
        assert (b.lower, b.upper) == (0.0, 1.0)

    def test_point_mass(self):
        b = aleatoric_bounds(PointMass([0.5, 0.5]))
        assert (b.lower, b.upper) == (1.0, 1.0)

    def test_shifted_interval_extrema(self):
        b = aleatoric_bounds(IntervalUniform(0.6, 1.0))
        assert b.lower == 0.0
        assert b.upper == pytest.approx(oc.FROZEN_H_04_BITS, abs=1e-12)

    def test_interval_containing_half(self):
        b = aleatoric_bounds(IntervalUniform(0.3, 0.7))
        assert b.upper == 1.0
        assert b.lower == pytest.approx(oc.FROZEN_H_03_BITS, abs=1e-12)

    def test_dirichlet_support_is_whole_simplex(self):
        b = aleatoric_bounds(Dirichlet([50.0, 50.0, 50.0]))
        assert (b.lower, b.upper) == (0.0, 1.0)
        raw = aleatoric_bounds(Dirichlet([50.0, 50.0, 50.0]), "bits", normalized=False)
        assert raw.upper == pytest.approx(math.log2(3), abs=1e-12)

    def test_ensemble_member_extrema(self):
        b = aleatoric_bounds(EmpiricalEnsemble([[0.5, 0.5], [1.0, 0.0], [0.2, 0.8]]))
        assert b.lower == 0.0
        assert b.upper == 1.0

    def test_mixture_union(self):
        mix = FiniteMixture(
            [0.5, 0.5], [IntervalUniform(0.6, 1.0), PointMass([0.5, 0.5])]
        )
        b = aleatoric_bounds(mix)
        assert (b.lower, b.upper) == (0.0, 1.0)

    def test_sandwich_on_random_corpus(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            q = random_distribution(rng)
            au = aleatoric_uncertainty(q)
            b = aleatoric_bounds(q)
            assert b.lower - 2.0 * au.error_bound - 1e-12 <= au.value
            assert au.value <= b.upper + 2.0 * au.error_bound + 1e-12
