"""Independent oracles and the expected values frozen from them.

Every FROZEN_* constant below was produced by the oracle function named in
its comment, deliberately avoiding the library's own evaluation paths
(oracles use plain numpy / math formulas, fixed-grid Simpson refinement, or
large seeded Monte Carlo). test_oracles.py re-derives each constant and
fails if a stored value ever drifts from its oracle.
"""

from __future__ import annotations

import math

import numpy as np


def composite_simpson(f, a: float, b: float, panels: int) -> float:
    """Fixed-grid composite Simpson rule on `panels` equal panels."""
    x = np.linspace(a, b, 2 * panels + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / panels
    return float(h / 6.0 * (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum()))


def binary_entropy_bits_grid(x: np.ndarray) -> np.ndarray:
    """Entropy in bits of (x, 1-x), vectorized, with 0 log 0 = 0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where((x > 0) & (x < 1), x * np.log2(x) + (1 - x) * np.log2(1 - x), 0.0)
    return -inner


def entropy_bits(p) -> float:
    """Direct scalar evaluation of -sum p log2 p."""
    return -sum(pi * math.log2(pi) for pi in p if pi > 0)


def kl_bits(p, q) -> float:
    """Direct scalar evaluation of sum p log2(p/q)."""
    return sum(pi * math.log2(pi / qi) for pi, qi in zip(p, q) if pi > 0)


def ensemble_triple_bits(members) -> tuple[float, float, float]:
    """(total, aleatoric, epistemic) of a uniformly weighted ensemble, normalized.

    Member sums of entropy_bits and kl_bits against the plain mean of the
    members, divided by log2 K. `members` are probability vectors or
    objects with a `probs` vector.
    """
    rows = [[float(x) for x in getattr(m, "probs", m)] for m in members]
    m, k = len(rows), len(rows[0])
    mean = [sum(row[j] for row in rows) / m for j in range(k)]
    scale = math.log2(k)
    return (
        entropy_bits(mean) / scale,
        sum(entropy_bits(row) for row in rows) / m / scale,
        sum(kl_bits(row, mean) for row in rows) / m / scale,
    )


def mc_dirichlet_entropy_bits(alpha, n: int, seed: int) -> tuple[float, float]:
    """Monte Carlo mean entropy of Dirichlet draws: (mean, standard error)."""
    rng = np.random.default_rng(seed)
    draws = rng.dirichlet(np.asarray(alpha, dtype=float), size=n)
    with np.errstate(divide="ignore", invalid="ignore"):
        entropies = np.where(draws > 0, -draws * np.log2(draws), 0.0).sum(axis=1)
    return float(entropies.mean()), float(entropies.std(ddof=1) / math.sqrt(n))


def mc_dirichlet_mean(alpha, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo mean of Dirichlet draws: (mean vector, standard errors)."""
    rng = np.random.default_rng(seed)
    draws = rng.dirichlet(np.asarray(alpha, dtype=float), size=n)
    return draws.mean(axis=0), draws.std(axis=0, ddof=1) / math.sqrt(n)


def interval_mean_entropy_nats_mp(lo: float, hi: float) -> float:
    """Mean binary entropy in nats over t uniform on [lo, hi], lo < hi, in mpmath.

    The singular terms -t ln t and -(1 - t) ln(1 - t) near their edges are
    antiderivative differences at 60 digits, taken in t below 0.5 and in
    s = 1 - t above it (exact there); the smooth rest, -(1 - s) log1p(-s),
    is tanh-sinh quadrature. No 1 - t is formed at working precision, where
    1 - 1e-300 would round to 1.
    """
    import mpmath as mp

    with mp.workdps(60):
        def half(a, b):  # integral over s in [a, b] within [0, 0.5]
            def G(x):
                return x * x * (mp.mpf(1) / 4 - mp.log(x) / 2) if x > 0 else mp.mpf(0)

            return G(b) - G(a) + mp.quad(lambda s: -(1 - s) * mp.log1p(-s), [a, b])

        lo, hi, mid = mp.mpf(lo), mp.mpf(hi), mp.mpf(0.5)
        if hi <= mid:
            area = half(lo, hi)
        elif lo >= mid:
            area = half(1 - hi, 1 - lo)
        else:
            area = half(lo, mid) + half(1 - hi, mid)
        return float(area / (hi - lo))


def interval_mean_kl_nats_mp(lo: float, hi: float, reference) -> float:
    """Mean of KL((t, 1 - t) || reference) in nats over t uniform on [lo, hi], lo < hi, in mpmath.

    Each term t ln(t / r) is the difference of its antiderivative
    x**2 (ln(x / r) / 2 - 1/4) at 60 digits, in t for the first cell and in
    1 - t for the second. The two differences are formed apart, so that
    neither absorbs the other. `reference` is taken as given, not renormalized.
    """
    import mpmath as mp

    with mp.workdps(60):
        def G(x, r):
            return x * x * (mp.log(x / r) / 2 - mp.mpf(1) / 4) if x > 0 else mp.mpf(0)

        lo, hi = mp.mpf(lo), mp.mpf(hi)
        r1, r2 = mp.mpf(float(reference[0])), mp.mpf(float(reference[1]))
        area = (G(hi, r1) - G(lo, r1)) + (G(1 - lo, r2) - G(1 - hi, r2))
        return float(area / (hi - lo))


# --- frozen expected values ------------------------------------------------

# Mean binary entropy over the full interval [0, 1] in bits; analytic value
# 1 / (2 ln 2), reproduced by composite_simpson(binary_entropy_bits_grid,
# 0, 1, 10**6) to ~6e-14 and by the Dirichlet(1, 1) closed form.
FROZEN_UNIFORM01_ALEATORIC_BITS = 0.7213475204444817
FROZEN_UNIFORM01_EPISTEMIC_BITS = 0.2786524795555183  # 1 - the value above

# Direct evaluation of -sum p log2 p (entropy_bits).
FROZEN_H_02_BITS = 0.7219280948873623  # entropy_bits([0.2, 0.8])
FROZEN_H_03_BITS = 0.8812908992306927  # entropy_bits([0.3, 0.7])
FROZEN_H_04_BITS = 0.9709505944546686  # entropy_bits([0.4, 0.6])
FROZEN_H_065_BITS = 0.934068055375491  # entropy_bits([0.65, 0.35])

# Expected Dirichlet(2, 2) entropy: 7/12 nats = (7/12)/ln2 bits, confirmed
# by mc_dirichlet_entropy_bits((2, 2), 10**6, seed=2) within 3 stderr.
FROZEN_DIRICHLET_22_ENTROPY_BITS = 0.8415721071852288

# Jensen-Shannon divergence of {(0.2, 0.8), (0.8, 0.2)} in bits: each KL
# term against the mean (0.5, 0.5) evaluates to 1 - entropy_bits([0.2, 0.8]).
FROZEN_JS_02_08_BITS = 0.2780719051126377
