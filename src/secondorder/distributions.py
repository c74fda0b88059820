"""Level-1 and level-2 distributions on the probability simplex.

A level-1 distribution is a categorical distribution over K outcomes, i.e. a
point on the K-simplex. A level-2 (second-order) distribution is a
probability distribution over level-1 distributions; it represents an
epistemic state, and the more concentrated it is, the more the predictor
claims to know about the true outcome distribution.

Supported second-order families: Dirichlet distributions, uniform
distributions over an interval of binary success probabilities, finite
mixtures, and weighted finite sets of simplex points. The last are one class,
``EmpiricalEnsemble(members, weights=None)``: a validated, read-only (M, K)
atom matrix plus M weights. A point mass (``PointMass``) is its one-atom
case, and ``ensemble.EnsemblePrediction`` is another name for it.

All values are immutable after construction and safe to use from multiple
threads. Sampling never touches hidden state: callers pass a seeded
``numpy.random.Generator`` (PCG64 via ``numpy.random.default_rng(seed)`` is
the documented generator, so outputs are reproducible from a 64-bit seed).
"""

from __future__ import annotations

import numbers
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyEnsemble,
    InvalidSpec,
    NegativeProbability,
    SumNotOne,
)

# Probability/weight vectors whose sum is off by at most this much are
# renormalized; anything worse is rejected. Post-construction sums hold to
# well under 1e-12.
RENORM_TOLERANCE = 1e-9

# Maximum nesting depth accepted by `validate` for raw mixture descriptions.
MAX_MIXTURE_DEPTH = 8


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


_ONE_WEIGHT = _frozen([1.0])


def row_sums(rows: np.ndarray) -> np.ndarray:
    """Sum of each row of an (n, K) matrix, as a matrix-vector product.

    numpy's `sum(axis=1)` reduces each short row separately and costs several
    times more on tall, narrow matrices. At K = 2 the sums are bit-identical;
    at larger K they may differ from it in the last place.
    """
    return rows @ np.ones(rows.shape[1])


def _mean_of(mean: np.ndarray, parts) -> "Categorical":
    """The weighted sum `mean` of the rows of `parts`, keeping positive every cell a row holds."""
    if not mean.all():  # a subnormal cell can underflow to 0; 5e-324 is the smallest positive float
        mean[(mean == 0.0) & (np.asarray(parts) > 0.0).any(axis=0)] = 5e-324
    return Categorical._normalized(mean)


def _as_floats(values, what: str) -> np.ndarray:
    """`values` as a float array; ragged nesting is a DimensionMismatch, other junk an InvalidSpec."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int beyond float
        if "maximum number of dimension" in str(exc):  # numpy allows at most 64 axes
            raise InvalidSpec(f"{what} are nested too deeply") from exc
        if "sequence" in str(exc):  # numpy: "setting an array element with a sequence"
            raise DimensionMismatch(f"{what} must all have the same length") from exc
        raise InvalidSpec(f"{what} must be numbers: {exc}") from exc


def _probability_rows(values, ndim: int) -> np.ndarray:
    """Validate `ndim`-d probability data whose last axis is the K outcomes, in one pass.

    Returns a read-only copy with each vector renormalized to sum to 1.
    """
    arr = _as_floats(values, "probability vectors")
    if arr.ndim != ndim or arr.shape[-1] < 2:
        raise DimensionMismatch(
            f"need {ndim}-d probability data with K >= 2 outcomes, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidSpec("probability entries must be finite")
    if np.any(arr < 0.0):
        raise NegativeProbability(f"negative probability entry {float(arr.min())!r}")
    with np.errstate(over="ignore"):  # a sum past float range is reported as inf below
        totals = arr.sum(axis=-1, keepdims=True)
    off = np.abs(totals - 1.0) > RENORM_TOLERANCE
    if np.any(off):
        raise SumNotOne(f"probabilities sum to {float(totals[off][0])!r}, not 1")
    return _frozen(arr / totals)


def _weights(weights, n: int, noun: str) -> np.ndarray:
    """Validate n strictly positive weights summing to 1; return them renormalized, read-only."""
    w = _as_floats(weights, f"{noun} weights")
    if w.ndim != 1 or w.shape[0] != n:
        raise DimensionMismatch(f"{n} {noun}s but {w.shape} weights")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise NegativeProbability(f"{noun} weights must be finite and strictly positive")
    total = float(w.sum())
    if abs(total - 1.0) > RENORM_TOLERANCE:
        raise SumNotOne(f"{noun} weights sum to {total!r}, not 1")
    return _frozen(w / total)


class Categorical:
    """A distribution over K >= 2 outcomes: non-negative entries summing to 1."""

    __slots__ = ("_probs",)

    def __init__(self, probs):
        self._probs = _probability_rows(probs, ndim=1)

    @classmethod
    def _normalized(cls, row: np.ndarray) -> "Categorical":
        # Fast path for means built inside the library: finite, non-negative and
        # summing to 1 up to rounding; renormalized exactly as the validator does.
        obj = object.__new__(cls)
        obj._probs = row / row.sum()
        obj._probs.flags.writeable = False
        return obj

    @property
    def probs(self) -> np.ndarray:
        """Read-only probability vector of length K."""
        return self._probs

    @property
    def k(self) -> int:
        return self._probs.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Categorical) and np.array_equal(self._probs, other._probs)

    def __repr__(self) -> str:
        return f"Categorical({self._probs.tolist()!r})"


def check_count(value, name: str, least: int, error: type = ValueError) -> None:
    """Raise `error` naming `name` unless `value` is an integer (not a bool) >= `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")


class SecondOrderDistribution:
    """Base class for probability distributions over the K-simplex."""

    kind: str = ""

    @property
    def k(self) -> int:
        raise NotImplementedError

    def predictive_mean(self) -> Categorical:
        """Exact mean of the level-1 parameter under this distribution.

        This is the marginal outcome distribution; no numerical integration
        is involved for any supported family.
        """
        raise NotImplementedError

    def sample_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n level-1 parameters as an (n, K) array, deterministically in rng state."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(...)"


class Dirichlet(SecondOrderDistribution):
    """Dirichlet distribution on the K-simplex with strictly positive concentrations."""

    kind = "dirichlet"
    __slots__ = ("alpha",)

    def __init__(self, alpha):
        arr = _as_floats(alpha, "Dirichlet concentrations")
        if arr.ndim != 1 or arr.shape[0] < 2:
            raise DimensionMismatch(
                f"need a 1-d concentration vector with K >= 2 entries, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise InvalidSpec("Dirichlet concentrations must be finite and strictly positive")
        with np.errstate(over="ignore"):
            if not np.isfinite(arr.sum()):
                raise InvalidSpec("Dirichlet concentration total overflows to inf")
        self.alpha = _frozen(arr)

    @property
    def k(self) -> int:
        return self.alpha.shape[0]

    def predictive_mean(self) -> Categorical:
        # A subnormal concentration can round its cell of alpha / a0 to 0.
        return _mean_of(self.alpha / self.alpha.sum(), (self.alpha,))

    def sample_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        check_count(n, "sample count", 1)
        # Independent standard Gamma draws (the same variates and generator
        # state as `rng.gamma` with unit scale), normalized per row in place.
        # A row whose draws all underflow to 0 becomes 0/0 = NaN.
        draws = rng.standard_gamma(self.alpha, size=(n, self.k))
        draws /= row_sums(draws)[:, np.newaxis]
        return draws

    def __repr__(self) -> str:
        return f"Dirichlet({self.alpha.tolist()!r})"


class IntervalUniform(SecondOrderDistribution):
    """Uniform over the first-outcome probability on [lo, hi]; binary (K = 2) only.

    The point theta = (t, 1 - t) is drawn with t uniform on the interval.
    A degenerate interval (lo == hi) behaves like a point mass.
    """

    kind = "interval_uniform"
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        ends = _as_floats((lo, hi), "interval endpoints")
        if ends.shape != (2,) or not np.all(np.isfinite(ends)):
            raise InvalidSpec(f"interval endpoints must be two finite numbers, got {lo!r}, {hi!r}")
        lo, hi = float(ends[0]), float(ends[1])
        if not 0.0 <= lo <= hi <= 1.0:
            raise InvalidSpec(f"need 0 <= lo <= hi <= 1, got lo={lo!r}, hi={hi!r}")
        self.lo = lo
        self.hi = hi

    @property
    def k(self) -> int:
        return 2

    def predictive_mean(self) -> Categorical:
        lo, hi = self.lo, self.hi
        # Each cell averages its ends: 1 - mid would cancel the second cell of an
        # interval at 1 away. A subnormal interval can still round a cell to 0.
        ends = ((lo, 1.0 - lo), (hi, 1.0 - hi))
        return _mean_of(np.array([0.5 * (lo + hi), 0.5 * ((1.0 - lo) + (1.0 - hi))]), ends)

    def sample_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        check_count(n, "sample count", 1)
        t = rng.uniform(self.lo, self.hi, size=n)
        return np.column_stack((t, 1.0 - t))

    def __repr__(self) -> str:
        return f"IntervalUniform({self.lo!r}, {self.hi!r})"


class FiniteMixture(SecondOrderDistribution):
    """Weighted mixture of second-order distributions over a shared K-simplex.

    Nested mixtures are spliced into the parent on construction (weights
    multiply through), so a constructed mixture never contains mixtures.
    Two or more finite-atom components (`PointMass`, `EmpiricalEnsemble`)
    are then folded into one `EmpiricalEnsemble`, at the position of the
    first and with their total weight: its atoms are theirs in order, each
    weighted w_c * w_cm over that total, so every expectation over them is
    one (M, K) matrix. An atom whose product weight underflows to 0 keeps
    its row: it stays in the support (`aleatoric_bounds`, and the cells the
    mean keeps positive) and adds 0 to every expectation. If every product
    weight underflows, the ensemble keeps those zeros, and its total weight
    is 0.
    """

    kind = "mixture"
    __slots__ = ("weights", "components")

    def __init__(self, weights, components: Iterable[SecondOrderDistribution]):
        components = tuple(components)
        if not components:
            raise InvalidSpec("mixture needs at least one component")
        for comp in components:
            if not isinstance(comp, SecondOrderDistribution):
                raise InvalidSpec(f"mixture component {comp!r} is not a distribution")
        w = _weights(weights, len(components), "component")
        ks = {comp.k for comp in components}
        if len(ks) != 1:
            raise DimensionMismatch(f"mixture components must share K, got {sorted(ks)}")

        flat_w: list[float] = []
        flat_c: list[SecondOrderDistribution] = []
        for wi, comp in zip(w, components):
            if isinstance(comp, FiniteMixture):
                flat_w.extend(float(wi) * comp.weights)
                flat_c.extend(comp.components)
            else:
                flat_w.append(float(wi))
                flat_c.append(comp)
        atoms = [i for i, comp in enumerate(flat_c) if isinstance(comp, EmpiricalEnsemble)]
        if len(atoms) > 1:
            first = atoms[0]
            mass = sum(flat_w[i] for i in atoms)
            weights = np.array([flat_w[i] * w_cm for i in atoms for w_cm in flat_c[i].weights.tolist()])
            flat_c[first] = EmpiricalEnsemble._validated(
                np.concatenate([flat_c[i].member_matrix for i in atoms]), weights / mass if mass else weights
            )
            flat_w[first] = mass
            for i in reversed(atoms[1:]):
                del flat_w[i], flat_c[i]
        self.weights = _frozen(flat_w)
        self.components = tuple(flat_c)

    @property
    def k(self) -> int:
        return self.components[0].k

    def predictive_mean(self) -> Categorical:
        means = [comp.predictive_mean().probs for comp in self.components]
        mean = np.zeros(self.k)
        for wi, row in zip(self.weights, means):
            mean += wi * row
        return _mean_of(mean, means)

    def sample_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        check_count(n, "sample count", 1)
        idx = rng.choice(len(self.components), size=n, p=self.weights)
        out = np.empty((n, self.k))
        for i, comp in enumerate(self.components):
            mask = idx == i
            count = int(mask.sum())
            if count:
                out[mask] = comp.sample_rows(count, rng)
        return out

    def __repr__(self) -> str:
        return f"FiniteMixture({self.weights.tolist()!r}, {list(self.components)!r})"


class EmpiricalEnsemble(SecondOrderDistribution):
    """Weighted point masses at M >= 1 simplex points: the finite-atoms family.

    One validated, read-only (M, K) matrix of atoms (ensemble members, MC
    dropout or posterior samples) plus M weights, uniform 1/M by default.
    Explicit weights must be strictly positive and sum to 1.
    """

    kind = "ensemble"
    __slots__ = ("weights", "_matrix")

    def __init__(self, members: Iterable, weights=None):
        try:
            rows = [m.probs if isinstance(m, Categorical) else m for m in members]
        except TypeError as exc:
            raise InvalidSpec(f"ensemble members must be a list of probability vectors: {exc}") from exc
        if not rows:
            raise EmptyEnsemble("ensemble needs at least one member")
        self._matrix = _probability_rows(rows, ndim=2)
        if weights is None:
            self.weights = _frozen(np.full(len(rows), 1.0 / len(rows)))
        else:
            self.weights = _weights(weights, len(rows), "member")

    @classmethod
    def _validated(cls, matrix: np.ndarray, weights: np.ndarray) -> "EmpiricalEnsemble":
        # Fast path for atoms built inside the library from validated ones: the
        # rows are not checked again, and a weight may have underflowed to 0.
        obj = object.__new__(cls)
        obj._matrix, obj.weights = matrix, weights
        matrix.flags.writeable = weights.flags.writeable = False
        return obj

    @property
    def member_matrix(self) -> np.ndarray:
        """Read-only (M, K) matrix of member predictions."""
        return self._matrix

    @property
    def k(self) -> int:
        return self._matrix.shape[1]

    @property
    def m(self) -> int:
        return self._matrix.shape[0]

    def predictive_mean(self) -> Categorical:
        return _mean_of(self.weights @ self._matrix, self._matrix)

    def sample_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        check_count(n, "sample count", 1)
        w = self.weights
        # Equal weights draw with `integers`, which consumes no state for one atom.
        idx = rng.choice(self.m, size=n, p=None if np.all(w == w[0]) else w)
        return self._matrix[idx]

    def __repr__(self) -> str:
        return f"EmpiricalEnsemble(M={self.m}, K={self.k})"


class PointMass(EmpiricalEnsemble):
    """All second-order mass on a single level-1 distribution (a Dirac measure)."""

    kind = "point"
    __slots__ = ("theta",)

    def __init__(self, theta):
        self.theta = theta if isinstance(theta, Categorical) else Categorical(theta)
        self._matrix = self.theta.probs[np.newaxis, :]
        self.weights = _ONE_WEIGHT

    def predictive_mean(self) -> Categorical:
        return self.theta

    def __repr__(self) -> str:
        return f"PointMass({self.theta.probs.tolist()!r})"


def validate(spec) -> SecondOrderDistribution:
    """Build a validated, flattened distribution from a raw JSON-style mapping.

    The accepted shapes (``kind`` selects the family):

    - ``{"kind": "point", "theta": [...]}``
    - ``{"kind": "dirichlet", "alpha": [...]}``
    - ``{"kind": "interval_uniform", "lo": 0.3, "hi": 0.7}``
    - ``{"kind": "mixture", "weights": [...], "components": [ ... specs ... ]}``
    - ``{"kind": "ensemble", "members": [[...], [...]]}``

    Raises a `DistributionError` subclass naming the violated invariant.
    """
    return _build(spec, depth=1)


def _field(spec: dict, name: str, kind: str):
    try:
        return spec[name]
    except KeyError:
        raise InvalidSpec(f"{kind} spec is missing required field {name!r}") from None


def _build(spec, depth: int) -> SecondOrderDistribution:
    if not isinstance(spec, dict):
        raise InvalidSpec(f"distribution spec must be a mapping, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind == "point":
        return PointMass(_field(spec, "theta", kind))
    if kind == "dirichlet":
        return Dirichlet(_field(spec, "alpha", kind))
    if kind == "interval_uniform":
        return IntervalUniform(_field(spec, "lo", kind), _field(spec, "hi", kind))
    if kind == "mixture":
        if depth > MAX_MIXTURE_DEPTH:
            raise InvalidSpec(f"mixture nesting deeper than {MAX_MIXTURE_DEPTH}")
        components = _field(spec, "components", kind)
        if not isinstance(components, Sequence) or isinstance(components, (str, bytes)):
            raise InvalidSpec("mixture components must be a list of specs")
        built = [_build(c, depth + 1) for c in components]
        return FiniteMixture(_field(spec, "weights", kind), built)
    if kind == "ensemble":
        return EmpiricalEnsemble(_field(spec, "members", kind))
    raise InvalidSpec(f"unknown distribution kind {kind!r}")
