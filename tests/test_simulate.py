"""Conjugate Bayesian updating and uncertainty learning curves."""

import tracemalloc

import numpy as np
import pytest

import oracles as oc
from secondorder import (
    Categorical,
    ConsistencyFailure,
    DimensionMismatch,
    Dirichlet,
    EngineConfig,
    InvalidSpec,
    UncertaintyTriple,
    decompose,
    learning_curve,
    simulate,
)


def _reference_curve(theta_star, schedule, replications, seed, unit="bits", normalized=True):
    """The curve with every replication decomposed at every n, summed in index order."""
    theta = np.asarray(theta_star, dtype=float)
    k = theta.shape[0]
    cfg = EngineConfig(mc_samples=simulate._CURVE_MC_SAMPLES, seed=seed)
    sums = np.zeros((len(schedule), 3))
    error_sums = np.zeros(len(schedule))
    for rep in range(replications):
        rng = np.random.default_rng([seed, rep])
        outcomes = rng.choice(k, size=schedule[-1], p=theta) if schedule[-1] else np.empty(0, int)
        for j, n in enumerate(schedule):
            counts = np.ones(k) + np.bincount(outcomes[:n], minlength=k)
            t = decompose(Dirichlet(counts), unit=unit, normalized=normalized, config=cfg)
            sums[j] += (t.total, t.aleatoric, t.epistemic)
            error_sums[j] += t.error_bound
    return [
        (n, UncertaintyTriple(*map(float, sums[j] / replications), unit=unit, normalized=normalized,
                              error_bound=float(error_sums[j] / replications)))
        for j, n in enumerate(schedule)
    ]


@pytest.fixture
def decompose_calls(monkeypatch):
    """The concentrations of each posterior `learning_curve` decomposes, in call order."""
    seen = []

    def counting(Q, *args, **kwargs):
        seen.append(tuple(Q.alpha))
        return decompose(Q, *args, **kwargs)

    monkeypatch.setattr(simulate, "decompose", counting)
    return seen


class TestLearningCurve:
    def test_start_point_is_prior_decomposition(self):
        # independent of theta* and seed: n = 0 sees no data
        for theta_star, seed in [((0.3, 0.7), 1), ((0.9, 0.1), 99)]:
            curve = learning_curve(
                Categorical(theta_star), schedule=(0, 1), replications=5, seed=seed
            )
            start = curve[0].triple
            assert start.total == 1.0
            assert start.aleatoric == pytest.approx(oc.FROZEN_UNIFORM01_ALEATORIC_BITS, abs=1e-12)
            assert start.epistemic == pytest.approx(oc.FROZEN_UNIFORM01_EPISTEMIC_BITS, abs=1e-12)

    def test_matches_direct_decomposition_at_zero(self):
        prior = Dirichlet([2.0, 5.0])
        curve = learning_curve(
            Categorical((0.5, 0.5)), prior=prior, schedule=(0,), replications=3, seed=0
        )
        direct = decompose(Dirichlet(prior.alpha))
        assert curve[0].triple.total == pytest.approx(direct.total, abs=1e-12)
        assert curve[0].triple.aleatoric == pytest.approx(direct.aleatoric, abs=1e-12)

    def test_deterministic(self):
        args = dict(schedule=(0, 1, 5, 20), replications=8, seed=123)
        a = learning_curve(Categorical((0.3, 0.7)), **args)
        b = learning_curve(Categorical((0.3, 0.7)), **args)
        assert [(p.n, p.triple) for p in a] == [(p.n, p.triple) for p in b]

    def test_total_minus_epistemic_column(self):
        curve = learning_curve(Categorical((0.3, 0.7)), schedule=(0, 5), replications=4, seed=7)
        for point in curve:
            assert point.total_minus_epistemic == point.triple.total - point.triple.epistemic

    def test_schedule_must_start_at_zero(self):
        with pytest.raises(InvalidSpec):
            learning_curve(Categorical((0.3, 0.7)), schedule=(1, 2), replications=1, seed=0)

    def test_schedule_must_increase(self):
        with pytest.raises(InvalidSpec):
            learning_curve(Categorical((0.3, 0.7)), schedule=(0, 5, 5), replications=1, seed=0)

    @pytest.mark.parametrize("size", [10**400, 1e300, float("inf"), 2**53 + 1, 2.5],
                             ids=["huge-int", "1e300", "inf", "2**53+1", "fraction"])
    def test_schedule_sizes_are_integers_up_to_2_53(self, size):
        with pytest.raises(InvalidSpec, match="2\\*\\*53"):
            learning_curve(Categorical((0.3, 0.7)), schedule=(0, size), replications=1, seed=0)

    def test_memory_does_not_grow_with_the_schedule(self):
        # Outcomes are drawn in blocks and counted, never stored (16 MiB for 10**6 stored).
        tracemalloc.start()
        try:
            learning_curve(Categorical((0.5, 0.5)), schedule=(0, 10**6), replications=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_prior_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            learning_curve(
                Categorical((0.3, 0.7)), prior=Dirichlet([1, 1, 1]), replications=1, seed=0
            )

    def test_work_ceiling(self, monkeypatch):
        # Each replication is charged its last size plus REPLICATION_CELLS draws.
        monkeypatch.setattr(simulate, "MAX_WORK_CELLS", 2 * (50 + simulate.REPLICATION_CELLS))
        learning_curve(Categorical((0.3, 0.7)), schedule=(0, 50), replications=2, seed=0)
        with pytest.raises(InvalidSpec, match="MAX_WORK_CELLS"):
            learning_curve(Categorical((0.3, 0.7)), schedule=(0, 51), replications=2, seed=0)
        learning_curve(Categorical((0.3, 0.7)), schedule=(0,), replications=2, seed=0)
        with pytest.raises(InvalidSpec, match="MAX_WORK_CELLS"):
            learning_curve(Categorical((0.3, 0.7)), schedule=(0,), replications=3, seed=0)

    def test_replications_positive(self):
        with pytest.raises(InvalidSpec):
            learning_curve(Categorical((0.3, 0.7)), schedule=(0,), replications=0, seed=0)

    def test_identity_holds_along_curve(self):
        curve = learning_curve(
            Categorical((0.2, 0.8)), schedule=(0, 2, 10, 50), replications=6, seed=3
        )
        for point in curve:
            t = point.triple
            assert abs(t.total - (t.aleatoric + t.epistemic)) <= max(
                2.0 * t.error_bound, 1e-9
            )

    def test_epistemic_shrinks_with_data(self):
        curve = learning_curve(
            Categorical((0.3, 0.7)), schedule=(0, 10, 100, 1000), replications=30, seed=11
        )
        epi = [p.triple.epistemic for p in curve]
        assert epi[-1] < 0.05
        assert all(b <= a + 0.01 for a, b in zip(epi, epi[1:]))

    def test_total_approaches_ground_truth_entropy(self):
        curve = learning_curve(
            Categorical((0.3, 0.7)), schedule=(0, 2000), replications=40, seed=13
        )
        assert abs(curve[-1].triple.total - oc.FROZEN_H_03_BITS) < 0.05

    def test_posterior_bounds_always_contain_true_entropy(self):
        # the support bounds of a Dirichlet posterior are [0, 1] normalized,
        # so the constant H(theta*) can never escape them
        from secondorder import aleatoric_bounds

        rng = np.random.default_rng(17)
        state = Dirichlet([1.0, 1.0])
        true_entropy = oc.FROZEN_H_03_BITS
        for _ in range(50):
            state = Dirichlet(state.alpha + np.eye(2)[int(rng.random() > 0.3)])
            b = aleatoric_bounds(state)
            assert b.lower <= true_entropy <= b.upper


class TestDistinctPosteriors:
    @pytest.mark.parametrize(
        "theta_star, schedule, replications, seed, unit, normalized",
        [
            ((0.3, 0.7), (0, 1, 2, 5, 10, 50), 20, 7, "bits", True),
            ((0.5, 0.2, 0.3), (0, 1, 3, 8), 12, 11, "nats", False),
            ((0.9, 0.1), (0, 100), 6, 0, "bits", True),
            # sizes around the outcome draw's block boundary (MC_CHUNK_CELLS = 8192)
            ((0.3, 0.7), (0, 1, 3, 8192, 8193, 9000, 20000), 3, 4, "bits", True),
        ],
    )
    def test_curve_equals_every_replication_decomposed(
        self, theta_star, schedule, replications, seed, unit, normalized
    ):
        curve = learning_curve(
            Categorical(theta_star), schedule=schedule, replications=replications, seed=seed,
            unit=unit, normalized=normalized,
        )
        expected = _reference_curve(theta_star, schedule, replications, seed, unit, normalized)
        assert [(p.n, p.triple) for p in curve] == expected  # bit for bit

    def test_each_distinct_posterior_is_decomposed_once(self, decompose_calls):
        learning_curve(Categorical((0.3, 0.7)), schedule=(0, 1, 2), replications=20, seed=5)
        assert len(decompose_calls) == len(set(decompose_calls))
        # one prior, at most K posteriors at n = 1 and K + 1 at n = 2
        assert len(decompose_calls) <= 1 + 2 + 3

    def test_calls_are_per_curve(self, decompose_calls):
        for _ in range(2):
            learning_curve(Categorical((0.3, 0.7)), schedule=(0,), replications=4, seed=5)
        assert decompose_calls == [(1.0, 1.0), (1.0, 1.0)]

    def test_shared_posterior_failure_still_raises(self, monkeypatch):
        def failing(Q, *args, **kwargs):
            raise ConsistencyFailure("planted")

        monkeypatch.setattr(simulate, "decompose", failing)
        with pytest.raises(ConsistencyFailure):
            learning_curve(Categorical((0.3, 0.7)), schedule=(0, 1), replications=3, seed=0)
