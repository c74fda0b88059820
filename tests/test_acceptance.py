"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(visible with ``pytest -s`` or on failure). Criteria 1 and 6 share a
session-scoped corpus of 1000 random distributions so the whole suite stays
fast. All randomness is seeded: reruns are deterministic.
"""

import math

import numpy as np
import pytest

import oracles as oc
from corpus import random_distribution, random_ensemble
from secondorder import (
    Categorical,
    Dirichlet,
    EmpiricalEnsemble,
    EnsemblePrediction,
    ENTROPY_NATS,
    FiniteMixture,
    IntervalUniform,
    PointMass,
    aleatoric_bounds,
    aleatoric_uncertainty,
    decompose,
    dirichlet_expected_entropy,
    ensemble_decompose,
    epistemic_mutual_information,
    expect,
    js_divergence,
    learning_curve,
    mc_expect,
    shannon_entropy,
    total_uncertainty,
)
from secondorder.cli import main
from secondorder.simulate import BayesState

CORPUS_SEED = 20240817
CORPUS_SIZE = 1000


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance criterion {number} ({description}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def corpus_results():
    rng = np.random.default_rng(CORPUS_SEED)
    results = []
    for _ in range(CORPUS_SIZE):
        q = random_distribution(rng)
        triple = decompose(q)
        bounds = aleatoric_bounds(q)
        results.append((q, triple, bounds))
    return results


def test_criterion_1_decomposition_identity(corpus_results):
    worst = 0.0
    failures = 0
    for _, triple, _ in corpus_results:
        gap = abs(triple.total - (triple.aleatoric + triple.epistemic))
        allowed = max(2.0 * triple.error_bound, 1e-9)
        worst = max(worst, gap)
        if gap > allowed:
            failures += 1
    report(
        1,
        "additive decomposition identity on 1000 random distributions",
        failures == 0,
        f"worst gap {worst:.2e}",
    )


def test_criterion_2_engine_cross_validation():
    rng = np.random.default_rng(CORPUS_SEED + 1)

    closed_vs_mc = 0
    for i in range(100):
        k = int(rng.integers(2, 11))
        alpha = rng.uniform(0.1, 50.0, size=k)
        closed = dirichlet_expected_entropy(alpha, "nats")
        mc = mc_expect(Dirichlet(alpha), ENTROPY_NATS, n_samples=100_000, seed=5000 + i)
        if abs(closed - mc.value) > mc.error_bound:
            closed_vs_mc += 1

    quad_vs_mc = 0
    for i in range(100):
        lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
        q = IntervalUniform(float(lo), float(hi))
        quad = expect(q, ENTROPY_NATS)
        mc = mc_expect(q, ENTROPY_NATS, n_samples=100_000, seed=6000 + i)
        if abs(quad.value - mc.value) > quad.error_bound + mc.error_bound:
            quad_vs_mc += 1

    direct_vs_residual = 0
    for _ in range(100):
        q = random_distribution(rng)
        residual = epistemic_mutual_information(q, "nats", normalized=False, method="residual")
        direct = epistemic_mutual_information(q, "nats", normalized=False, method="expected_kl")
        combined = residual.error_bound + direct.error_bound
        if abs(residual.value - direct.value) > max(10.0 * combined, 1e-9):
            direct_vs_residual += 1

    ok = closed_vs_mc == 0 and quad_vs_mc == 0 and direct_vs_residual == 0
    report(
        2,
        "engine cross-validation (closed form / quadrature / Monte Carlo / direct KL)",
        ok,
        f"failures: closed-vs-MC {closed_vs_mc}/100, quad-vs-MC {quad_vs_mc}/100, "
        f"direct-vs-residual {direct_vs_residual}/100",
    )


def test_criterion_3_counterexample_suite():
    checks = []

    # flat belief and perfect knowledge of the fair coin are indistinguishable
    checks.append(total_uncertainty(IntervalUniform(0, 1)) == 1.0)
    checks.append(total_uncertainty(PointMass([0.5, 0.5])) == 1.0)

    # the two-Dirac mixture: no aleatoric part, maximal epistemic part
    dirac_mix = FiniteMixture([0.5, 0.5], [PointMass([1, 0]), PointMass([0, 1])])
    triple = decompose(dirac_mix)
    checks.append((triple.total, triple.aleatoric, triple.epistemic) == (1.0, 0.0, 1.0))

    # quadrature-oracle values for the flat belief
    flat = decompose(IntervalUniform(0, 1))
    checks.append(abs(flat.aleatoric - oc.FROZEN_UNIFORM01_ALEATORIC_BITS) <= 1e-6)
    checks.append(abs(flat.epistemic - oc.FROZEN_UNIFORM01_EPISTEMIC_BITS) <= 1e-6)

    # shift non-invariance: same interval length, opposite ordering of
    # total/aleatoric versus epistemic
    centred = decompose(IntervalUniform(0.3, 0.7))
    shifted = decompose(IntervalUniform(0.6, 1.0))
    checks.append(centred.total > shifted.total)
    checks.append(centred.aleatoric > shifted.aleatoric)
    checks.append(centred.epistemic < shifted.epistemic)

    report(
        3,
        "counterexample suite (indistinguishability, Dirac mixture, shift)",
        all(checks),
        f"{sum(checks)}/{len(checks)} assertions",
    )


def test_criterion_4_ensemble_identity():
    rng = np.random.default_rng(CORPUS_SEED + 2)
    worst_triple = 0.0
    worst_js = 0.0
    for _ in range(500):
        members = random_ensemble(rng)
        e = EnsemblePrediction(members)
        via_ensemble = ensemble_decompose(e)
        via_generic = decompose(EmpiricalEnsemble(members))
        # Both routes run the same code, so each is also held to the
        # independent scalar oracle; the worst gap covers all three pairs.
        oracle = oc.ensemble_triple_bits(members)
        for triple in (via_ensemble, via_generic):
            got = (triple.total, triple.aleatoric, triple.epistemic)
            worst_triple = max(worst_triple, *(abs(x - y) for x, y in zip(got, oracle)))
        worst_triple = max(
            worst_triple,
            abs(via_ensemble.total - via_generic.total),
            abs(via_ensemble.aleatoric - via_generic.aleatoric),
            abs(via_ensemble.epistemic - via_generic.epistemic),
        )
        gap = shannon_entropy(e.mean(), "bits") - float(
            e.weights @ [shannon_entropy(m, "bits") for m in e.members]
        )
        worst_js = max(worst_js, abs(js_divergence(e, "bits") - gap))
    ok = worst_triple <= 1e-12 and worst_js <= 1e-12
    report(
        4,
        "ensemble estimators equal generic measures on 500 random ensembles",
        ok,
        f"worst triple gap {worst_triple:.2e}, worst JS-identity gap {worst_js:.2e}",
    )


def test_criterion_5_learning_curve():
    curve = learning_curve(
        Categorical((0.3, 0.7)),
        prior=BayesState([1.0, 1.0]),
        replications=200,
        seed=CORPUS_SEED,
    )
    by_n = {point.n: point.triple for point in curve}
    assert 10_000 in by_n

    epi = [point.triple.epistemic for point in curve]
    final_epistemic_small = by_n[10_000].epistemic < 0.01
    non_increasing = all(b <= a + 0.005 for a, b in zip(epi, epi[1:]))
    total_converges = abs(by_n[10_000].total - oc.FROZEN_H_03_BITS) < 0.02
    start_aleatoric = abs(by_n[0].aleatoric - oc.FROZEN_UNIFORM01_ALEATORIC_BITS) <= 1e-6
    # the expected-entropy estimate starts far from the constant it estimates
    non_constant = abs(by_n[0].aleatoric - oc.FROZEN_H_03_BITS) > 0.05

    ok = (
        final_epistemic_small
        and non_increasing
        and total_converges
        and start_aleatoric
        and non_constant
    )
    report(
        5,
        "learning-curve behavior over 200 replications",
        ok,
        f"epistemic(1e4)={by_n[10_000].epistemic:.2e}, "
        f"|total(1e4)-H*|={abs(by_n[10_000].total - oc.FROZEN_H_03_BITS):.3f}, "
        f"aleatoric(0)={by_n[0].aleatoric:.6f}",
    )


def test_criterion_6_bounds_sandwich(corpus_results):
    failures = 0
    for q, triple, bounds in corpus_results:
        au = aleatoric_uncertainty(q)
        low_ok = bounds.lower - 2.0 * au.error_bound <= au.value + 1e-12
        high_ok = au.value <= bounds.upper + 2.0 * au.error_bound + 1e-12
        if not (low_ok and high_ok):
            failures += 1
    report(
        6,
        "support bounds sandwich the expected entropy on the corpus",
        failures == 0,
        f"{failures} violations",
    )


def test_criterion_7_cli_determinism(tmp_path, capsys):
    panel_a, panel_b = tmp_path / "p1.csv", tmp_path / "p2.csv"
    assert main(["panel", "--out", str(panel_a)]) == 0
    assert main(["panel", "--out", str(panel_b)]) == 0
    panel_ok = panel_a.read_bytes() == panel_b.read_bytes()
    panel_header = panel_a.read_text().splitlines()[0] == "name,total,aleatoric,epistemic"

    curve_a, curve_b = tmp_path / "c1.csv", tmp_path / "c2.csv"
    curve_args = ["curve", "--replications", "5", "--seed", "42"]
    assert main(curve_args + ["--out", str(curve_a)]) == 0
    assert main(curve_args + ["--out", str(curve_b)]) == 0
    curve_ok = curve_a.read_bytes() == curve_b.read_bytes()
    curve_header = (
        curve_a.read_text().splitlines()[0] == "n,total,aleatoric,epistemic,total_minus_epistemic"
    )

    eval_header_ok = False
    code = main(["eval", '{"kind":"point","theta":[0.5,0.5]}'])
    out = capsys.readouterr().out
    eval_header_ok = (
        code == 0
        and out.splitlines()[0] == "name,total,aleatoric,epistemic,alea_lower,alea_upper,error_bound"
    )

    ok = panel_ok and panel_header and curve_ok and curve_header and eval_header_ok
    report(
        7,
        "CLI determinism and CSV schema stability",
        ok,
        f"panel identical={panel_ok}, curve identical={curve_ok}",
    )
