"""Ensemble estimators: averaged entropy, Jensen-Shannon divergence, identities."""

import itertools
import math

import numpy as np
import pytest

import oracles as oc
from corpus import random_ensemble
from secondorder import (
    DimensionMismatch,
    EmpiricalEnsemble,
    EmptyEnsemble,
    EnsemblePrediction,
    FiniteMixture,
    InvalidSpec,
    PointMass,
    SumNotOne,
    decompose,
    ensemble_decompose,
    js_divergence,
    parse_member_matrix,
    shannon_entropy,
)


class TestEnsemblePrediction:
    def test_uniform_weights_default(self):
        e = EnsemblePrediction([[0.2, 0.8], [0.8, 0.2]])
        np.testing.assert_array_equal(e.weights, [0.5, 0.5])
        assert (e.m, e.k) == (2, 2)

    def test_weight_validation(self):
        with pytest.raises(SumNotOne):
            EnsemblePrediction([[0.2, 0.8], [0.8, 0.2]], weights=[0.9, 0.9])
        with pytest.raises(DimensionMismatch):
            EnsemblePrediction([[0.2, 0.8], [0.8, 0.2]], weights=[1.0])

    def test_needs_members(self):
        with pytest.raises(EmptyEnsemble):
            EnsemblePrediction([])

    def test_shared_k(self):
        with pytest.raises(DimensionMismatch):
            EnsemblePrediction([[0.5, 0.5], [0.2, 0.2, 0.6]])


class TestEnsembleDecompose:
    def test_two_member_example(self):
        triple = ensemble_decompose(EnsemblePrediction([[0.2, 0.8], [0.8, 0.2]]))
        assert triple.total == 1.0
        assert triple.aleatoric == pytest.approx(oc.FROZEN_H_02_BITS, abs=1e-15)
        assert triple.epistemic == pytest.approx(oc.FROZEN_JS_02_08_BITS, abs=1e-15)
        assert triple.error_bound == 0.0

    def test_single_member(self):
        triple = ensemble_decompose(EnsemblePrediction([[0.3, 0.7]]))
        assert triple.epistemic == 0.0
        assert triple.total == triple.aleatoric

    def test_disagreeing_diracs(self):
        triple = ensemble_decompose(EnsemblePrediction([[1, 0], [0, 1]]))
        assert (triple.total, triple.aleatoric, triple.epistemic) == (1.0, 0.0, 1.0)

    def test_matches_generic_measures(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            members = random_ensemble(rng)
            via_ensemble = ensemble_decompose(EnsemblePrediction(members))
            via_generic = decompose(EmpiricalEnsemble(members))
            assert abs(via_ensemble.total - via_generic.total) <= 1e-12
            assert abs(via_ensemble.aleatoric - via_generic.aleatoric) <= 1e-12
            assert abs(via_ensemble.epistemic - via_generic.epistemic) <= 1e-12
            oracle = oc.ensemble_triple_bits(members)
            for triple in (via_ensemble, via_generic):
                got = (triple.total, triple.aleatoric, triple.epistemic)
                assert max(abs(x - y) for x, y in zip(got, oracle)) <= 1e-12

    def test_weighted_matches_point_mass_mixture(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            m = int(rng.integers(2, 8))
            members = [rng.dirichlet(np.ones(k)) for _ in range(m)]
            w = rng.dirichlet(np.ones(m))
            w = np.maximum(w, 1e-9)
            w = w / w.sum()
            via_ensemble = ensemble_decompose(EnsemblePrediction(members, weights=w))
            mix = FiniteMixture(w, [PointMass(mem) for mem in members])
            via_generic = decompose(mix)
            assert abs(via_ensemble.total - via_generic.total) <= 1e-12
            assert abs(via_ensemble.aleatoric - via_generic.aleatoric) <= 1e-12
            assert abs(via_ensemble.epistemic - via_generic.epistemic) <= 1e-12


class TestJSDivergence:
    def test_identical_members(self):
        e = EnsemblePrediction([[0.3, 0.7]] * 4)
        assert js_divergence(e) == 0.0

    def test_disagreeing_diracs(self):
        assert js_divergence(EnsemblePrediction([[1, 0], [0, 1]])) == pytest.approx(1.0, abs=1e-15)

    def test_two_member_example(self):
        e = EnsemblePrediction([[0.2, 0.8], [0.8, 0.2]])
        assert js_divergence(e) == pytest.approx(oc.FROZEN_JS_02_08_BITS, abs=1e-15)

    def test_entropy_gap_identity(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            e = EnsemblePrediction(random_ensemble(rng))
            gap = shannon_entropy(e.predictive_mean(), "bits") - float(
                e.weights @ [shannon_entropy(m, "bits") for m in e.member_matrix]
            )
            assert abs(js_divergence(e, "bits") - gap) <= 1e-12

    def test_non_negative_and_zero_iff_equal(self):
        rng = np.random.default_rng(63)
        for _ in range(50):
            e = EnsemblePrediction(random_ensemble(rng))
            js = js_divergence(e, "nats")
            assert js >= 0.0
            all_equal = all(np.array_equal(m, e.member_matrix[0]) for m in e.member_matrix)
            if all_equal:
                assert js == 0.0
            elif js == 0.0:
                # zero only when members with positive weight coincide
                assert np.allclose(e.member_matrix, e.member_matrix[0])

    def test_permutation_invariance(self):
        members = [[0.1, 0.9], [0.5, 0.5], [0.7, 0.3]]
        values = [
            js_divergence(EnsemblePrediction([members[i] for i in perm]))
            for perm in itertools.permutations(range(3))
        ]
        assert max(values) - min(values) <= 1e-12

    def test_divergence_grows_with_disagreement(self):
        # the two-member family {(t, 1-t), (1-t, t)}: strictly more divergent
        # as t moves from 1/2 towards 0
        ts = np.linspace(0.5, 0.0, 26)
        values = [
            js_divergence(EnsemblePrediction([[t, 1 - t], [1 - t, t]])) for t in ts
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(1.0, abs=1e-15)

    def test_zero_cells_stay_finite(self):
        e = EnsemblePrediction([[1, 0, 0], [0, 0.5, 0.5], [0.5, 0.5, 0]])
        assert math.isfinite(js_divergence(e))

    @pytest.mark.parametrize(
        "members",
        [[[5e-324, 1], [5e-324, 1]], [[5e-324, 1], [0, 1]]],
        ids=["identical-subnormal", "subnormal-and-zero"],
    )
    def test_subnormal_members_stay_finite(self, members):
        # 5e-324 / 2 underflows to 0 in the weighted mean; a cell a member holds must stay positive.
        e = EnsemblePrediction(members)
        assert e.predictive_mean().probs[0] > 0.0
        assert math.isfinite(js_divergence(e))
        mix = FiniteMixture([0.5, 0.5], [PointMass(m) for m in members])
        for q in (e, mix):
            triple = decompose(q)  # the expected-KL check must not read inf
            assert all(math.isfinite(v) for v in (triple.total, triple.aleatoric, triple.epistemic))


class TestMemberMatrixParsing:
    def test_basic(self):
        members = parse_member_matrix("0.2 0.8\n0.8 0.2\n")
        assert len(members) == 2
        np.testing.assert_allclose(members[0].probs, [0.2, 0.8])

    def test_comments_and_blanks(self):
        text = "# ensemble dump\n\n0.5 0.5  # fair\n\n0.9 0.1\n"
        assert len(parse_member_matrix(text)) == 2

    def test_bad_token_names_line(self):
        with pytest.raises(InvalidSpec, match="line 2"):
            parse_member_matrix("0.5 0.5\n0.5 oops\n")

    def test_bad_sum_names_line(self):
        with pytest.raises(SumNotOne, match="line 1"):
            parse_member_matrix("0.4 0.5\n0.5 0.5\n")

    def test_mismatched_row_lengths(self):
        with pytest.raises(DimensionMismatch):
            EnsemblePrediction(parse_member_matrix("0.5 0.5\n0.2 0.3 0.5\n"))

    def test_empty_input(self):
        with pytest.raises(EmptyEnsemble):
            parse_member_matrix("# nothing here\n")
