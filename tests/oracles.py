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
