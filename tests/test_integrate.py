"""Expectation engines: quadrature, digamma closed form, Monte Carlo, dispatch."""

import math
import os
import re
import subprocess
import sys

import mpmath as mp
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
    Integrand,
    IntegrationFailure,
    IntervalUniform,
    InvalidSpec,
    PointMass,
    digamma,
    dirichlet_expected_entropy,
    expect,
    learning_curve,
    mc_expect,
    quadrature_1d,
)
from secondorder import integrate
from secondorder.integrate import MAX_QUAD_DEPTH, QUAD_GRADING, entropy_nats, entropy_nats_rows, kl_nats_rows, kl_to

LN2 = math.log(2.0)

# The entropy without its "entropy" tag: intervals take quadrature, Dirichlets Monte Carlo.
UNTAGGED_ENTROPY = Integrand(entropy_nats_rows)


def binary_entropy_nats(t: np.ndarray) -> np.ndarray:
    """-t log t - (1 - t) log(1 - t), elementwise, with 0 log 0 = 0."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -t * np.log(t) - (1.0 - t) * np.log(1.0 - t)
    return np.where((t > 0.0) & (t < 1.0), h, 0.0)


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
        assert res.evaluations == 600  # the 15 nodes of each of the 40 start panels, all accepted

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

    def test_one_call_per_refinement_level(self):
        calls = []

        def rows_fn(rows):
            calls.append(rows.shape[0])
            return entropy_nats_rows(rows)

        res = expect(IntervalUniform(0.0, 1.0), Integrand(rows_fn=rows_fn))
        assert res.value == expect(IntervalUniform(0.0, 1.0), UNTAGGED_ENTROPY).value
        assert calls == [res.evaluations] == [15 * 2 * QUAD_GRADING]  # the start mesh is enough
        # A kink splits panels: each further level is one call on 15 nodes per open panel.
        calls.clear()

        def kinked(ts):
            calls.append(ts.size)
            return abs(ts - 0.3)

        res = quadrature_1d(kinked, 0.0, 1.0)
        assert sum(calls) == res.evaluations
        assert 1 < len(calls) <= MAX_QUAD_DEPTH + 1
        assert all(n % 15 == 0 for n in calls)

    def test_value_within_tolerance(self):
        expected = oc.FROZEN_UNIFORM01_ALEATORIC_BITS * LN2
        for tol in (1e-4, 1e-6, 1e-8, 1e-10):
            res = quadrature_1d(binary_entropy_nats, 0.0, 1.0, tolerance=tol)
            assert abs(res.value - expected) <= tol


def _panel_by_panel_gk(f, a, b, tolerance=1e-10, max_evals=1_000_000):
    """Adaptive G7/K15 on a list of panels, each integrated and judged on its own, as a reference.

    It calls f once per level on the nodes of every open panel, as
    `quadrature_1d` does, then walks the panels one by one: each panel's
    nodes are scalar arithmetic, its K15 and G7 come from its own 15 values,
    and it is accepted or split in two by itself. Each level sums its
    accepted panels in order, and the level sums are added exactly. Both
    start from the same graded mesh.
    """
    if a == b:
        return integrate.ExpectationResult(0.0, 0.0, "exact", 0)
    width = b - a
    shares = [0.5**k for k in range(QUAD_GRADING, 0, -1)]
    breaks = [a] + [a + width * s for s in shares] + [b - width * s for s in shares[-2::-1]] + [b]
    panels = list(zip(breaks[:-1], breaks[1:]))
    evals = 0
    level_sums, error = [], 0.0
    for depth in range(MAX_QUAD_DEPTH + 1):
        nodes = [
            [0.5 * (x0 + x2) + 0.5 * (x2 - x0) * float(x) for x in integrate._GK_NODES] for x0, x2 in panels
        ]
        if evals + 15 * len(panels) > max_evals:
            raise IntegrationFailure(
                f"quadrature exceeded {max_evals} evaluations before reaching tolerance {tolerance}"
            )
        evals += 15 * len(panels)
        ts = np.array(nodes).ravel()
        values = np.broadcast_to(np.asarray(f(ts), dtype=float), ts.shape).reshape(len(panels), 15)
        accepted, accepted_size, open_panels, worst = [], [], [], None
        for (x0, x2), row in zip(panels, values):
            radius = 0.5 * (x2 - x0)
            kronrod, gauss = (radius * s for s in np.einsum("j,rj->r", row, integrate._GK_WEIGHTS))
            size, limit = abs(kronrod - gauss), (x2 - x0) / width * tolerance
            if size <= limit:
                accepted.append(kronrod)
                accepted_size.append(size)
            else:
                open_panels.append((x0, x2))
                if worst is None or size - limit > worst[0]:
                    worst = (size - limit, x0, x2, size, limit)
        level_sums.append(float(np.sum(accepted)))
        error += float(np.sum(accepted_size))
        if not open_panels:
            return integrate.ExpectationResult(math.fsum(level_sums), error, "quadrature", evals)
        if depth == MAX_QUAD_DEPTH:
            _, x0, x2, size, limit = worst
            raise IntegrationFailure(
                f"quadrature hit depth {MAX_QUAD_DEPTH}: panel [{x0!r}, {x2!r}] has error {size:.3e} "
                f"above its limit {limit:.3e} (its share of tolerance {tolerance})"
            )
        centres = [0.5 * (x0 + x2) for x0, x2 in open_panels]
        panels = [(x0, c) for (x0, _), c in zip(open_panels, centres)] + [
            (c, x2) for (_, x2), c in zip(open_panels, centres)
        ]


# The consistency check's intervals: the whole simplex, each edge, interior, narrow and extreme.
CHECK_KL_INTERVALS = [
    (0.0, 1.0), (0.0, 0.555), (0.218, 1.0), (0.119, 0.864), (0.502, 0.602), (0.3, 0.7),
    (0.0, 1e-12), (1.0 - 2**-53, 1.0), (1e-300, 1e-200),
]

# The smallest abscissa of the start mesh on [0, 1]: the first node of its first panel [0, 2**-20].
FIRST_NODE = 2.0**-21 + 2.0**-21 * float(integrate._GK_NODES[0])
FIRST_ABOVE_07 = 0.625 + 0.125 * float(integrate._GK_NODES[11])


def _on_rows(rows_fn):
    return lambda ts: rows_fn(np.column_stack((ts, 1.0 - ts)))


QUAD_INTEGRANDS = {
    "entropy": _on_rows(entropy_nats_rows),
    **{
        f"kl_{ref[0]:g}": _on_rows(lambda rows, ref=np.array(ref): kl_nats_rows(rows, ref))
        for ref in [(0.5, 0.5), (0.3, 0.7), (1e-300, 1.0 - 1e-300), (0.999, 0.001)]
    },
    "cubic": lambda t: t**3 - t,
    "sqrt": np.sqrt,
}
QUAD_INTERVALS = [
    (0.0, 1.0), (0.3, 0.7), (0.6, 1.0), (0.0, 1e-6), (1.0 - 1e-9, 1.0), (1.0 - 2**-53, 1.0),
    (0.0, 5e-324), (0.5, 0.5 + 2**-53), (0.0, 7 * 5e-324), (0.25, 0.75),
]


def _outcome(quad, f, a, b, tolerance):
    """(value, error_bound, method, evaluations) as exact bit patterns, or the failure."""
    try:
        res = quad(f, a, b, tolerance=tolerance)
    except IntegrationFailure as exc:
        return ("failure", str(exc))
    return (res.value.hex(), res.error_bound.hex(), res.method, res.evaluations)


class TestFiveNumberPanels:
    """`quadrature_1d` on its own and against `_panel_by_panel_gk`, the reference of
    the two `..._seven_row_loop` tests, whose names are kept so their ids stay stable."""

    @pytest.mark.parametrize("a, b", QUAD_INTERVALS)
    def test_bit_identical_to_the_seven_row_loop(self, a, b):
        for f in QUAD_INTEGRANDS.values():
            for tol in (1e-4, 1e-9, 1e-14):
                tolerance = max(tol * (b - a), 5e-324)
                expected = _outcome(_panel_by_panel_gk, f, a, b, tolerance)
                assert _outcome(quadrature_1d, f, a, b, tolerance) == expected

    @pytest.mark.parametrize("f", [lambda t: 1.0 / (t - 0.3)], ids=["pole"])
    def test_same_failure_as_the_seven_row_loop(self, f):
        with np.errstate(all="ignore"):
            expected = _outcome(_panel_by_panel_gk, f, 0.0, 1.0, 1e-10)
            assert _outcome(quadrature_1d, f, 0.0, 1.0, 1e-10) == expected
        assert expected[0] == "failure" and "exceeded 1000000 evaluations" in expected[1]

    @pytest.mark.parametrize(
        "f, named, n_calls",
        [
            (lambda t: np.full(t.shape, np.nan), f"integrand is nan at abscissa {FIRST_NODE!r}", 1),
            (lambda t: np.where(t == FIRST_NODE, np.inf, t), f"integrand is inf at abscissa {FIRST_NODE!r}", 1),
            # The start panel [0.5, 0.75] has its first node above 0.7 at 0.625 + 0.125 x_11.
            (lambda t: np.where(t > 0.7, -np.inf, t), f"integrand is -inf at abscissa {FIRST_ABOVE_07!r}", 1),
            # The kink at 0.3 splits the start panel [0.25, 0.5]; the centre of its left
            # half, a quarter point, is first seen in call 2.
            (lambda t: np.where(t == 0.3125, np.nan, abs(t - 0.3)), "integrand is nan at abscissa 0.3125", 2),
        ],
        ids=["nan", "inf-at-0", "-inf-above-0.7", "nan-at-a-quarter-point"],
    )
    def test_non_finite_integrand_is_named_where_it_appears(self, f, named, n_calls):
        calls = []

        def counting(ts):
            calls.append(ts.size)
            return f(ts)

        with pytest.raises(IntegrationFailure, match=f"^{re.escape(named)}$"):
            quadrature_1d(counting, 0.0, 1.0)
        assert len(calls) == n_calls

    def test_an_endpoint_is_never_evaluated(self):
        # The rule is open, so a value that is infinite only at a or b is never seen.
        seen = []

        def infinite_at_the_ends(ts):
            seen.append(ts)
            return np.where((ts == 0.0) | (ts == 1.0), np.inf, ts)

        res = quadrature_1d(infinite_at_the_ends, 0.0, 1.0)
        assert abs(res.value - 0.5) <= res.error_bound + 1e-16
        ts = np.concatenate(seen)
        assert 0.0 < ts.min() and ts.max() < 1.0

    @pytest.mark.parametrize(
        "a, b, named",
        [
            (0.0, math.inf, "limit b must be finite"),
            (math.nan, 1.0, "limit a must be finite"),
            (0.0, math.nan, "limit b must be finite"),
            (-math.inf, 0.0, "limit a must be finite"),
            (-1e308, 1e308, "b - a overflows"),
        ],
    )
    def test_non_finite_limits_are_named_before_f_is_called(self, a, b, named):
        calls = []

        def counting(ts):
            calls.append(ts.size)
            return ts

        with pytest.raises(ValueError, match=named):
            quadrature_1d(counting, a, b)
        assert calls == []

    def test_scalar_broadcasts_and_wrong_length_raises(self):
        assert quadrature_1d(lambda t: 2.0, 0.0, 1.0).value == 2.0
        with pytest.raises(ValueError):
            quadrature_1d(lambda t: np.ones(2), 0.0, 1.0)


class TestGaussKronrod:
    @pytest.mark.parametrize("row, degree", [(0, 22), (1, 13)], ids=["K15", "G7"])
    def test_rule_is_exact_to_its_degree(self, row, degree):
        # K15 integrates x**k over [-1, 1] exactly for k <= 22 and G7 for k <= 13; one
        # degree more is off, so the constants are these two rules and no weaker ones.
        nodes, weights = integrate._GK_NODES, integrate._GK_WEIGHTS[row]
        for k in range(degree + 3):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            got = float(weights @ nodes**k)
            if k <= degree:
                assert abs(got - exact) <= 4 * math.ulp(1.0), (k, got)
            elif k % 2 == 0:
                assert abs(got - exact) > 1e-10, (k, got)

    # Against mpmath, |error| <= bound + 4 ulp: the bound is the summed |K15 - G7|
    # of the accepted panels, and the ulp term covers the integrand's own
    # rounding. Measured with numpy 2.4.6 on x86-64, the bound alone fell short on
    # sqrt [0.2, 0.9] (4.0e-17 against 3.9e-17), t ln t [0.2, 0.9] and [0.3, 0.7],
    # e^t [0, 1e-6] (1.0e-22 against 7.5e-23), and the KL on [0.502, 0.602] and
    # [0.3, 0.7] (2.8e-17 and 2.4e-17 against 4.6e-18 and 7.5e-18: ln t - ln m
    # rounds) and on [1 - 2**-53, 1], where t takes only two float values (2.8e-17
    # against bound 0). Each integrand comes with its antiderivative in mpmath;
    # 0.3 is the float, exact in mpmath.
    INTEGRANDS = {
        "sqrt": (np.sqrt, lambda x: 2 * x**1.5 / 3),
        "t-ln-t": (
            lambda t: t * np.log(np.where(t > 0.0, t, 1.0)),
            lambda x: x * x * (mp.log(x) / 2 - 0.25) if x > 0 else mp.mpf(0),
        ),
        "kink-at-0.3": (lambda t: abs(t - 0.3), lambda x: (x - 0.3) * abs(x - 0.3) / 2),
        "exp": (np.exp, mp.exp),
    }

    @pytest.mark.parametrize("name", sorted(INTEGRANDS))
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.2, 0.9), (0.3, 0.7), (0.0, 1e-6)])
    def test_bound_covers_the_error_against_mpmath(self, name, a, b):
        f, antiderivative = self.INTEGRANDS[name]
        res = quadrature_1d(f, a, b)
        with mp.workdps(60):
            exact = antiderivative(mp.mpf(b)) - antiderivative(mp.mpf(a))
            error = abs(float(mp.mpf(res.value) - exact))
        assert error <= res.error_bound + 4 * math.ulp(float(exact)), (error, res.error_bound)

    @pytest.mark.parametrize("lo, hi", CHECK_KL_INTERVALS)
    def test_check_kl_bound_covers_the_error_against_mpmath(self, lo, hi):
        # The consistency check's expected KL, in one integrand call. Its terms are
        # logs and probabilities of order 1, so the ulp term is 4 units in the last
        # place of 1; the two intervals next to 0 need none of it.
        q = IntervalUniform(lo, hi)
        mean = q.predictive_mean()
        kl, calls = kl_to(mean), []

        def rows_fn(rows):
            calls.append(len(rows))
            return kl.rows_fn(rows)

        res = expect(q, Integrand(rows_fn))
        assert calls == [600]
        error = abs(res.value - oc.interval_mean_kl_nats_mp(lo, hi, mean.probs))
        assert error <= res.error_bound + 4 * math.ulp(1.0), (error, res.error_bound)
        if (lo, hi) in ((0.0, 1e-12), (1e-300, 1e-200)):
            assert error <= res.error_bound, (error, res.error_bound)


class TestEngineConfig:
    def test_rejects_nan_tolerance(self):
        with pytest.raises(ValueError):
            EngineConfig(tolerance=math.nan)
        with pytest.raises(ValueError):
            quadrature_1d(lambda t: t, 0.0, 1.0, tolerance=math.nan)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            EngineConfig(seed=-1)

    def test_rejects_mc_samples_above_the_ceiling(self):
        EngineConfig(mc_samples=integrate.MAX_WORK_CELLS // 2)
        for n in (integrate.MAX_WORK_CELLS // 2 + 1, 2**80):
            with pytest.raises(ValueError, match="MAX_WORK_CELLS"):
                EngineConfig(mc_samples=n)

    def test_numpy_integers_are_accepted(self):
        cfg = EngineConfig(mc_samples=np.int64(100), seed=np.uint32(7))
        assert mc_expect(Dirichlet([2, 2]), ENTROPY_NATS, cfg.mc_samples, cfg.seed).evaluations == 100


_COIN = Categorical((0.3, 0.7))


@pytest.mark.parametrize(
    "call, error, field",
    [
        (lambda: EngineConfig(mc_samples=1e5), ValueError, "mc_samples"),
        (lambda: EngineConfig(seed=2.5), ValueError, "seed"),
        (lambda: EngineConfig(seed=1e3), ValueError, "seed"),
        (lambda: EngineConfig(seed=True), ValueError, "seed"),
        (lambda: mc_expect(Dirichlet([2, 2]), ENTROPY_NATS, n_samples=1e5), ValueError, "n_samples"),
        (lambda: mc_expect(Dirichlet([2, 2]), ENTROPY_NATS, n_samples=100, seed=1.5), ValueError, "seed"),
        (lambda: learning_curve(_COIN, schedule=(0, 1), replications=2.5), InvalidSpec, "replications"),
        (lambda: learning_curve(_COIN, schedule=(0, 1), replications=True), InvalidSpec, "replications"),
        (lambda: learning_curve(_COIN, schedule=(0, 1), replications=2, seed=1.5), ValueError, "seed"),
    ],
    ids=["mc_samples-float", "seed-fraction", "seed-1e3", "seed-bool", "n_samples-float",
         "mc_expect-seed-fraction", "replications-fraction", "replications-bool", "curve-seed-fraction"],
)
def test_counts_and_seeds_must_be_integers(call, error, field):
    with pytest.raises(error, match=f"^{field} must be an integer"):
        call()


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


def _kl_rows_by_the_formula(rows, reference):
    """Each row's sum of rows * (log rows - log reference), with 0 where the entry is 0 or NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = np.where(rows > 0.0, rows * (np.log(rows) - np.log(reference)), 0.0)
    return contrib.sum(axis=1)


class TestKLRows:
    def _rows(self, k):
        rng = np.random.default_rng(k)
        rows = rng.dirichlet(np.full(k, 0.5), size=40)
        rows[::3, 0] = 0.0  # zero entries score 0
        rows[1::7] = np.nan  # a NaN row scores 0
        rows[2, :] = 0.0
        rows[2, 1] = 1.0  # a vertex
        return rows

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_matches_the_formula(self, k):
        rows = self._rows(k)
        reference = np.random.default_rng(99).dirichlet(np.ones(k))
        got = kl_nats_rows(rows, reference)
        expected = _kl_rows_by_the_formula(rows, reference)
        if k == 2:
            np.testing.assert_array_equal(got, expected)
        else:  # the row sums may round differently in the last place
            np.testing.assert_allclose(got, expected, rtol=1e-15, atol=1e-15)
        assert np.all(got[1::7] == 0.0)

    @pytest.mark.parametrize("k", [2, 4])
    def test_zero_reference_cell_under_positive_entry_is_infinite(self, k):
        rows = self._rows(k)
        reference = np.full(k, 1.0 / (k - 1))
        reference[0] = 0.0
        got = kl_nats_rows(rows, reference)
        expected = _kl_rows_by_the_formula(rows, reference)
        assert np.array_equal(np.isinf(got), np.isinf(expected))
        assert np.isinf(got).any() and (got[::3] < np.inf).all()  # rows with a 0 first cell stay finite
        finite = ~np.isinf(expected)
        np.testing.assert_allclose(got[finite], expected[finite], rtol=1e-15, atol=1e-15)

    def test_never_writes_its_input(self):
        rows = self._rows(3)
        reference = np.array([0.2, 0.3, 0.5])
        rows.flags.writeable = False
        reference.flags.writeable = False
        before = rows.copy()
        kl_nats_rows(rows, reference)
        np.testing.assert_array_equal(rows, before)


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

    def test_engine_uses_the_closed_form_without_rebuilding(self, monkeypatch):
        q = Dirichlet([0.5, 3.0, 7.0])
        builds = []
        original = Dirichlet.__init__

        def counting(self, alpha):
            builds.append(alpha)
            original(self, alpha)

        monkeypatch.setattr(Dirichlet, "__init__", counting)
        result = expect(q, ENTROPY_NATS)
        assert builds == []
        assert result.value == dirichlet_expected_entropy(q.alpha, "nats")


class TestMCExpect:
    def test_constant_function(self):
        res = mc_expect(Dirichlet([2, 2]), lambda rows: np.full(len(rows), 3.25), n_samples=100, seed=0)
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
        res = mc_expect(Dirichlet([2, 2]), lambda rows: rows[:, 0], n_samples=50_000, seed=5)
        assert abs(res.value - 0.5) <= res.error_bound

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            mc_expect(Dirichlet([2, 2]), ENTROPY_NATS, n_samples=1, seed=0)

    def test_work_ceiling(self, monkeypatch):
        monkeypatch.setattr(integrate, "MAX_WORK_CELLS", 100)
        assert mc_expect(Dirichlet([2, 2]), ENTROPY_NATS, n_samples=50).evaluations == 50
        with pytest.raises(ValueError, match="MAX_WORK_CELLS"):
            mc_expect(Dirichlet([2, 2]), ENTROPY_NATS, n_samples=51)

    def test_draws_in_chunks(self):
        calls = []

        class _Recording(Dirichlet):
            def sample_rows(self, n, rng):
                calls.append(n)
                return super().sample_rows(n, rng)

        mc_expect(_Recording(np.ones(100)), ENTROPY_NATS, n_samples=100_000, seed=0)
        chunk = integrate.MC_CHUNK_CELLS // 100
        assert max(calls) <= chunk
        assert sum(calls) == 100_000
        assert len(calls) == -(-100_000 // chunk)

    @staticmethod
    def _single_pass(q, integrand, n, seed):
        """The unchunked estimator: every row drawn at once, NumPy's mean and std."""
        values = integrand.rows_fn(q.sample_rows(n, np.random.default_rng(seed)))
        return float(values.mean()), 3.0 * (float(values.std(ddof=1)) / math.sqrt(n))

    @pytest.mark.parametrize("k", [2, 7, 100])
    def test_chunked_matches_single_pass(self, k):
        q = Dirichlet(np.linspace(0.5, 4.0, k))
        chunk = integrate.MC_CHUNK_CELLS // k
        for integrand in (ENTROPY_NATS, kl_to(q.predictive_mean())):
            n = 3 * chunk + 17  # several chunks, the last one partial
            res = mc_expect(q, integrand, n_samples=n, seed=k)
            value, bound = self._single_pass(q, integrand, n, k)
            assert res.evaluations == n
            assert abs(res.value - value) <= 1e-13
            assert abs(res.error_bound - bound) <= 1e-13
            # One chunk reduces exactly as the single pass does.
            res = mc_expect(q, integrand, n_samples=chunk, seed=k)
            assert (res.value, res.error_bound) == self._single_pass(q, integrand, chunk, k)

    def test_infinite_values_stay_infinite_across_chunks(self):
        infinite = Integrand(lambda rows: np.full(rows.shape[0], np.inf))
        with np.errstate(invalid="ignore"):  # inf - inf in the squared deviations
            res = mc_expect(Dirichlet(np.ones(100)), infinite, n_samples=1000, seed=0)
        assert res.value == math.inf

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS and VmHWM")
    def test_memory_does_not_grow_with_samples(self):
        # Peak RSS above the post-import RSS of a fresh process, for a K = 100
        # Dirichlet at the default 100k samples (10M cells, 80 MB per array unchunked).
        child = (
            "import re, numpy as np, secondorder\n"
            "def kib(key):\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return int(re.search(key + r':\\s+(\\d+) kB', fh.read()).group(1))\n"
            "base = kib('VmRSS')\n"
            "secondorder.decompose(secondorder.Dirichlet(np.ones(100)))\n"
            "print(kib('VmHWM') - base)\n"
        )
        src = os.path.dirname(os.path.dirname(integrate.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True)
        assert int(out.stdout) < 64 * 1024


class TestExpectDispatch:
    def test_point_mass_exact(self):
        theta = Categorical([0.3, 0.7])
        res = expect(PointMass(theta), lambda rows: rows[:, 0] ** 2)
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
        res = expect(Dirichlet([2, 2]), lambda rows: rows[:, 0], EngineConfig(mc_samples=2000))
        assert res.method == "monte_carlo"
        assert abs(res.value - 0.5) <= res.error_bound

    def test_interval_quadrature(self):
        res = expect(IntervalUniform(0.0, 1.0), UNTAGGED_ENTROPY)
        assert res.method == "quadrature"
        assert abs(res.value - oc.FROZEN_UNIFORM01_ALEATORIC_BITS * LN2) <= res.error_bound + 1e-12
        # Frozen evaluation counts at the default tolerance: the start mesh resolves both.
        assert expect(IntervalUniform(0.3, 0.7), UNTAGGED_ENTROPY).evaluations == 600
        assert expect(IntervalUniform(0.6, 1.0), UNTAGGED_ENTROPY).evaluations == 600

    def test_check_kl_resolves_the_edges_from_the_graded_start(self):
        # The consistency check's expected KL on intervals that touch 0 or 1: the
        # graded start mesh resolves the t ln t end in one integrand call.
        for lo, hi in ((0.0, 1.0), (0.0, 0.43), (0.6, 1.0)):
            q = IntervalUniform(lo, hi)
            calls = []
            kl = kl_to(q.predictive_mean())

            def rows_fn(rows, kl=kl, calls=calls):
                calls.append(rows.shape[0])
                return kl.rows_fn(rows)

            expect(q, Integrand(rows_fn))
            assert calls == [600], (lo, hi, calls)
        # Against the total minus the closed-form expected entropy at a 1e-12 edge.
        q = IntervalUniform(0.0, 1e-12)
        mean = q.predictive_mean()
        exact = entropy_nats(mean.probs) - integrate._interval_expected_entropy_nats(0.0, 1e-12)
        assert abs(expect(q, kl_to(mean)).value - exact) <= 1e-17

    def test_interval_mean_does_not_underflow(self):
        # The area over [1e-300, 1e-200] is about 5e-401, below the smallest float.
        # The bound covers the rule's error; four units in the last place cover rounding.
        res = expect(IntervalUniform(1e-300, 1e-200), Integrand(lambda rows: rows[:, 0]))
        assert res.method == "quadrature"
        mean = 0.5 * (1e-300 + 1e-200)
        assert abs(res.value - mean) <= res.error_bound + 4 * math.ulp(mean)

    def test_interval_mean_of_identity(self):
        res = expect(IntervalUniform(0.0, 1.0), lambda rows: rows[:, 0])
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
        cfg = EngineConfig(mc_samples=2000, seed=3)
        for integrand, weakest in ((ENTROPY_NATS, "closed_form"), (UNTAGGED_ENTROPY, "monte_carlo")):
            res = expect(mix, integrand, cfg)
            assert res.method == weakest  # the weakest contributing engine
            parts = [
                expect(PointMass([0.5, 0.5]), integrand, cfg),
                expect(Dirichlet([1, 1]), integrand, cfg),
                expect(IntervalUniform(0.0, 1.0), integrand, cfg),
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


class TestIntervalClosedForm:
    def test_matches_mpmath_across_widths_and_positions(self):
        # Widths from the smallest subnormal to 1, at 0, at 1, centred at 0.5 and at
        # 1e-300, plus the three intervals Simpson on the area got wrong with bound 0.
        cases = [(1e-300, 1e-200), (0.0, 3.5e-323), (1.0 - 2.0**-53, 1.0), (1e-20, 1e-10), (0.2, 0.9)]
        for w in (5e-324, 1e-320, 1e-310, 1e-300, 1e-200, 1e-100, 1e-30, 2.0**-53, 1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.5, 1.0):
            for lo, hi in ((0.0, w), (1.0 - w, 1.0), (0.5 - w / 2, 0.5 + w / 2), (1e-300, 1e-300 + w)):
                if lo < hi:  # 0.5 +- w/2 and 1 - w round to one point for the narrowest widths
                    cases.append((lo, hi))
        # Interior intervals at seeded positions, with widths from 1e-15 to 1e-1.
        rng = np.random.default_rng(24)
        for w in 10.0 ** rng.uniform(-15.0, -1.0, size=20):
            lo = float(rng.uniform(0.0, 1.0 - w))
            cases.append((lo, lo + float(w)))
        assert len(cases) == 69
        for lo, hi in cases:
            res = expect(IntervalUniform(lo, hi), ENTROPY_NATS)
            assert (res.method, res.error_bound, res.evaluations) == ("closed_form", 0.0, 0)
            want = oc.interval_mean_entropy_nats_mp(lo, hi)
            # Relative 2e-15, with a floor of four units in the last place of a subnormal.
            assert abs(res.value - want) <= max(2e-15 * want, 4 * 5e-324), (lo, hi, res.value, want)


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
            quad = expect(q, UNTAGGED_ENTROPY)
            assert quad.method == "quadrature"
            mc = mc_expect(q, ENTROPY_NATS, n_samples=100_000, seed=2000 + i)
            assert abs(quad.value - mc.value) <= quad.error_bound + mc.error_bound

    def test_interval_closed_form_vs_mc(self):
        rng = np.random.default_rng(52)
        for i in range(20):
            lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
            q = IntervalUniform(float(lo), float(hi))
            closed = expect(q, ENTROPY_NATS)
            assert closed.method == "closed_form"
            mc = mc_expect(q, ENTROPY_NATS, n_samples=100_000, seed=2100 + i)
            assert abs(closed.value - mc.value) <= mc.error_bound
