"""Expectation engines: quadrature, digamma closed form, Monte Carlo, dispatch."""

import math
import os
import subprocess
import sys

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
from secondorder.integrate import MAX_QUAD_DEPTH, entropy_nats_rows, kl_nats_rows, kl_to

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
        assert res.evaluations == 1001  # frozen panel count of the adaptive rule

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
        assert sum(calls) == res.evaluations
        assert 1 < len(calls) <= MAX_QUAD_DEPTH + 2

    def test_value_within_tolerance(self):
        expected = oc.FROZEN_UNIFORM01_ALEATORIC_BITS * LN2
        for tol in (1e-4, 1e-6, 1e-8, 1e-10):
            res = quadrature_1d(binary_entropy_nats, 0.0, 1.0, tolerance=tol)
            assert abs(res.value - expected) <= tol


def _seven_row_quadrature(f, a, b, tolerance=1e-10, max_evals=1_000_000):
    """The level loop that stored seven numbers per open panel, as a reference.

    Each column held x0, xm, x2, f(x0), f(xm), f(x2) and the coarse Simpson
    estimate; `quadrature_1d` keeps five and recomputes xm and the estimate.
    """
    if a == b:
        return integrate.ExpectationResult(0.0, 0.0, "exact", 0)
    evals = 0

    def ev(ts):
        nonlocal evals
        if evals + ts.size > max_evals:
            raise IntegrationFailure(
                f"quadrature exceeded {max_evals} evaluations before reaching tolerance {tolerance}"
            )
        evals += ts.size
        return np.broadcast_to(np.asarray(f(ts), dtype=float), ts.shape)

    mid = 0.5 * (a + b)
    fa, fmid, fb = ev(np.array([a, mid, b]))
    whole = (b - a) / 6.0 * (fa + 4.0 * fmid + fb)
    panels = np.array([[a], [mid], [b], [fa], [fmid], [fb], [whole]])
    value = error = 0.0
    eps = tolerance
    for _ in range(MAX_QUAD_DEPTH + 1):
        x0, xm, x2, f0, fm, f2, whole = panels
        lm, rm = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        flm, frm = np.split(ev(np.concatenate((lm, rm))), 2)
        left = (xm - x0) / 6.0 * (f0 + 4.0 * flm + fm)
        right = (x2 - xm) / 6.0 * (fm + 4.0 * frm + f2)
        delta = left + right - whole
        done = np.abs(delta) <= 15.0 * eps
        value += float(np.sum((left + right + delta / 15.0)[done]))
        error += float(np.sum(np.abs(delta[done]) / 15.0))
        if done.all():
            return integrate.ExpectationResult(value, error, "quadrature", evals)
        lefts = np.stack((x0, lm, xm, f0, flm, fm, left))
        rights = np.stack((xm, rm, x2, fm, frm, f2, right))
        panels = np.concatenate((lefts, rights), axis=1)[:, np.tile(~done, 2)]
        eps *= 0.5
    raise IntegrationFailure(
        f"quadrature hit depth {MAX_QUAD_DEPTH} with panel error "
        f"{float(np.abs(delta).max()) / 15.0:.3e} (tolerance {tolerance})"
    )


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
    @pytest.mark.parametrize("a, b", QUAD_INTERVALS)
    def test_bit_identical_to_the_seven_row_loop(self, a, b):
        for f in QUAD_INTEGRANDS.values():
            for tol in (1e-4, 1e-9, 1e-14):
                tolerance = max(tol * (b - a), 5e-324)
                expected = _outcome(_seven_row_quadrature, f, a, b, tolerance)
                assert _outcome(quadrature_1d, f, a, b, tolerance) == expected

    @pytest.mark.parametrize("f", [lambda t: np.full(t.shape, np.nan), lambda t: 1.0 / (t - 0.3)],
                             ids=["nan", "pole"])
    def test_same_failure_as_the_seven_row_loop(self, f):
        with np.errstate(all="ignore"):
            expected = _outcome(_seven_row_quadrature, f, 0.0, 1.0, 1e-10)
            assert _outcome(quadrature_1d, f, 0.0, 1.0, 1e-10) == expected
        assert expected[0] == "failure" and "exceeded 1000000 evaluations" in expected[1]

    def test_scalar_broadcasts_and_wrong_length_raises(self):
        assert quadrature_1d(lambda t: 2.0, 0.0, 1.0).value == 2.0
        with pytest.raises(ValueError):
            quadrature_1d(lambda t: np.ones(2), 0.0, 1.0)


class TestEngineConfig:
    def test_rejects_nan_tolerance(self):
        with pytest.raises(ValueError):
            EngineConfig(tolerance=math.nan)
        with pytest.raises(ValueError):
            quadrature_1d(lambda t: t, 0.0, 1.0, tolerance=math.nan)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            EngineConfig(seed=-1)

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
        res = expect(IntervalUniform(0.0, 1.0), UNTAGGED_ENTROPY)
        assert res.method == "quadrature"
        assert abs(res.value - oc.FROZEN_UNIFORM01_ALEATORIC_BITS * LN2) <= res.error_bound + 1e-12
        # Frozen panel counts of the adaptive rule at the default tolerance.
        assert expect(IntervalUniform(0.3, 0.7), UNTAGGED_ENTROPY).evaluations == 129
        assert expect(IntervalUniform(0.6, 1.0), UNTAGGED_ENTROPY).evaluations == 469

    def test_interval_mean_does_not_underflow(self):
        # The area over [1e-300, 1e-200] is about 5e-401, below the smallest float.
        # The bound covers the rule's error; four units in the last place cover rounding.
        res = expect(IntervalUniform(1e-300, 1e-200), Integrand(lambda rows: rows[:, 0]))
        assert res.method == "quadrature"
        mean = 0.5 * (1e-300 + 1e-200)
        assert abs(res.value - mean) <= res.error_bound + 4 * math.ulp(mean)

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
        assert len(cases) == 49
        for lo, hi in cases:
            res = expect(IntervalUniform(lo, hi), ENTROPY_NATS)
            assert (res.method, res.error_bound, res.evaluations) == ("closed_form", 0.0, 0)
            want = oc.interval_mean_entropy_nats_mp(lo, hi)
            # Relative 1e-13, with a floor of four units in the last place of a subnormal.
            assert abs(res.value - want) <= max(1e-13 * want, 4 * 5e-324), (lo, hi, res.value, want)


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
