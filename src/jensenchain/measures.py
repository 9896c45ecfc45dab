"""Probability vectors, weight functions, doubly stochastic matrices.

A weight function over (mu, lambda) is an m x n nonnegative grid whose
mu-weighted column sums and lambda-weighted row sums all equal 1; it
interpolates between the two sides of the discrete Jensen inequality.
Constructors here either validate strictly (user input is rejected, not
repaired) or produce grids that satisfy the constraints by construction
(rank-one, embedding, interpolation, seeded generators).

Every grid a constructor holds is read-only.  A read-only float64 ndarray
that owns its data is kept as it is handed in, so a decoded grid or a
producer's fresh product reaches the chain without a copy; any other
input is copied and the copy frozen.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

PROB_SUM_TOL = 1e-12   # absolute, on sum(weights) - 1
WEIGHT_TOL = 1e-10     # on each biorthogonality residual
DS_TOL = 1e-10         # on each row/column sum residual
SINKHORN_TOL = 1e-12
SINKHORN_CAP = 10000


def freeze(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only.  Only for an array no one else holds: a constructor keeps it."""
    arr.flags.writeable = False
    return arr


def frozen_float64(values) -> np.ndarray:
    """values itself if it is a read-only float64 ndarray that owns its data, else a frozen
    float64 copy.  Such an array can change only if its owner turns writeable back on."""
    if (type(values) is np.ndarray and values.dtype == np.float64 and values.base is None
            and not values.flags.writeable):
        return values
    return freeze(np.array(values, dtype=float))


def _check_entries(v: np.ndarray, what: str):
    """ValidationError unless every entry of the nonempty v is finite and nonnegative.

    One min and one max decide (NaN fails the first comparison); only when
    they fail are the full-size masks built that name the offending entry.
    """
    if v.min() >= 0.0 and v.max() < np.inf:
        return
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{what} entries must be finite")
    k = np.unravel_index(int(np.argmin(v)), v.shape)
    at = k[0] if v.ndim == 1 else f"({k[0]}, {k[1]})"
    raise ValidationError(f"{what} entry {at} is negative: {v[k]}")


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """Nonnegative weights summing to 1 (within PROB_SUM_TOL, absolute)."""

    weights: np.ndarray

    def __post_init__(self):
        w = frozen_float64(self.weights)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("probability vector must be a nonempty 1-D sequence")
        _check_entries(w, "probability vector")
        s = float(w.sum())
        if abs(s - 1.0) > PROB_SUM_TOL:
            raise ValidationError(
                f"probability vector sums to {s!r}, off by {abs(s - 1.0):.3e} (> {PROB_SUM_TOL})"
            )
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return self.weights.size

    @classmethod
    def uniform(cls, n: int) -> "ProbabilityVector":
        if n < 1:
            raise ValidationError(f"dimension must be >= 1, got {n}")
        return cls(freeze(np.full(n, 1.0 / n)))


@dataclass(frozen=True, eq=False)
class WeightFunction:
    """m x n nonnegative grid biorthogonally normalized against (mu, lambda)."""

    values: np.ndarray
    mu: ProbabilityVector
    lam: ProbabilityVector

    def __post_init__(self):
        v = frozen_float64(self.values)
        m, n = len(self.mu), len(self.lam)
        if v.ndim != 2 or v.shape != (m, n):
            raise ValidationError(
                f"weight grid shape {v.shape if v.ndim == 2 else v.ndim} "
                f"does not match |mu| x |lambda| = {m} x {n}"
            )
        _check_entries(v, "weight grid")
        col = self.mu.weights @ v
        worst_j = int(np.argmax(np.abs(col - 1.0)))
        if abs(col[worst_j] - 1.0) > WEIGHT_TOL:
            raise ValidationError(
                f"mu-weighted sum over column {worst_j} is {col[worst_j]!r}, "
                f"residual {abs(col[worst_j] - 1.0):.3e} (> {WEIGHT_TOL})"
            )
        row = v @ self.lam.weights
        worst_i = int(np.argmax(np.abs(row - 1.0)))
        if abs(row[worst_i] - 1.0) > WEIGHT_TOL:
            raise ValidationError(
                f"lambda-weighted sum over row {worst_i} is {row[worst_i]!r}, "
                f"residual {abs(row[worst_i] - 1.0):.3e} (> {WEIGHT_TOL})"
            )
        object.__setattr__(self, "values", v)

    @property
    def shape(self):
        return self.values.shape

    @classmethod
    def ones(cls, mu: ProbabilityVector, lam: ProbabilityVector) -> "WeightFunction":
        return cls(freeze(np.ones((len(mu), len(lam)))), mu, lam)


@dataclass(frozen=True, eq=False)
class DoublyStochasticMatrix:
    """Square nonnegative matrix whose rows and columns all sum to 1."""

    values: np.ndarray

    def __post_init__(self):
        v = frozen_float64(self.values)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] == 0:
            raise ValidationError("doubly stochastic matrix must be square and nonempty")
        _check_entries(v, "matrix")
        rows = v.sum(axis=1)
        i = int(np.argmax(np.abs(rows - 1.0)))
        if abs(rows[i] - 1.0) > DS_TOL:
            raise ValidationError(
                f"row {i} sums to {rows[i]!r}, residual {abs(rows[i] - 1.0):.3e} (> {DS_TOL})"
            )
        cols = v.sum(axis=0)
        j = int(np.argmax(np.abs(cols - 1.0)))
        if abs(cols[j] - 1.0) > DS_TOL:
            raise ValidationError(
                f"column {j} sums to {cols[j]!r}, residual {abs(cols[j] - 1.0):.3e} (> {DS_TOL})"
            )
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @classmethod
    def identity(cls, n: int) -> "DoublyStochasticMatrix":
        return cls(freeze(np.eye(n)))

    @classmethod
    def antidiagonal(cls, n: int) -> "DoublyStochasticMatrix":
        """Permutation matrix sending column j to row n + 1 - j (1-based)."""
        return cls(np.fliplr(np.eye(n)))

    @classmethod
    def uniform(cls, n: int) -> "DoublyStochasticMatrix":
        if n < 1:
            raise ValidationError(f"dimension must be >= 1, got {n}")
        return cls(freeze(np.full((n, n), 1.0 / n)))


def validate_weight(values, mu: ProbabilityVector, lam: ProbabilityVector) -> WeightFunction:
    """Validate a grid against (mu, lambda); raises ValidationError naming the violation."""
    return WeightFunction(values, mu, lam)


def rank_one_weight(u, v, mu: ProbabilityVector, lam: ProbabilityVector) -> WeightFunction:
    """Weight function 1 + u_i v_j from direction vectors u, v.

    u is shifted so its mu-mean vanishes and shrunk to unit Euclidean
    norm when longer (same for v with lambda); then |u_i v_j| <= 1 and
    every entry of 1 + outer(u, v) is nonnegative.  Off-manifold inputs
    are repaired, not rejected, so the construction is total.
    """
    u = np.array(u, dtype=float)
    v = np.array(v, dtype=float)
    if u.ndim != 1 or u.size != len(mu):
        raise ValidationError(f"u has size {u.size}, expected |mu| = {len(mu)}")
    if v.ndim != 1 or v.size != len(lam):
        raise ValidationError(f"v has size {v.size}, expected |lambda| = {len(lam)}")
    # projecting twice clears the cancellation residue left by large entries
    u = u - float(u @ mu.weights)
    u = u - float(u @ mu.weights)
    v = v - float(v @ lam.weights)
    v = v - float(v @ lam.weights)
    nu = float(np.linalg.norm(u))
    if nu > 1.0:
        u /= nu
    nv = float(np.linalg.norm(v))
    if nv > 1.0:
        v /= nv
    values = np.outer(u, v)
    values += 1.0  # in place: one n x n array, not the product beside its sum
    # rounding can leave entries at -1ulp when both norms are exactly 1
    np.clip(values, 0.0, None, out=values)
    return WeightFunction(freeze(values), mu, lam)


def embed_doubly_stochastic(a: DoublyStochasticMatrix, in_place: bool = False) -> WeightFunction:
    """View an n x n doubly stochastic matrix as the weight n*a over uniform measures.

    a is left as it is, unless in_place: then n*a is written over a's own
    values, which the weight takes over, so a must be a matrix whose values
    nothing else holds, and is spent.  The products are the same either way.
    """
    n = a.n
    uni = ProbabilityVector.uniform(n)
    values = a.values
    if in_place:
        values.flags.writeable = True  # it owns its data: frozen_float64 kept or copied it so
        values *= n
    else:
        values = n * values
    return WeightFunction(freeze(values), uni, uni)


def interpolate_weight(w1: WeightFunction, w2: WeightFunction, t: float) -> WeightFunction:
    """Entrywise convex combination (1-t)*w1 + t*w2 of two weights over the same measures."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"interpolation parameter must lie in [0, 1], got {t}")
    if w1.shape != w2.shape:
        raise ValidationError(f"weight shapes differ: {w1.shape} vs {w2.shape}")
    if not (
        np.array_equal(w1.mu.weights, w2.mu.weights)
        and np.array_equal(w1.lam.weights, w2.lam.weights)
    ):
        raise ValidationError("weights are defined over different (mu, lambda) measures")
    values = (1.0 - t) * w1.values + t * w2.values
    return WeightFunction(freeze(values), w1.mu, w1.lam)


def sinkhorn_normalize(values, tol: float = SINKHORN_TOL, max_iter: int = SINKHORN_CAP):
    """Alternate row/column normalization until every sum is within tol of 1."""
    x = np.array(values, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] == 0:
        raise ValidationError("Sinkhorn normalization needs a square nonempty matrix")
    if np.any(x < 0.0):
        raise ValidationError("Sinkhorn normalization needs nonnegative entries")
    if np.any(x.sum(axis=1) == 0.0) or np.any(x.sum(axis=0) == 0.0):
        raise ValidationError("Sinkhorn normalization needs positive row and column sums")
    for _ in range(max_iter):
        x /= x.sum(axis=1, keepdims=True)
        x /= x.sum(axis=0, keepdims=True)
        res_r = float(np.max(np.abs(x.sum(axis=1) - 1.0)))
        res_c = float(np.max(np.abs(x.sum(axis=0) - 1.0)))
        if max(res_r, res_c) < tol:
            return DoublyStochasticMatrix(freeze(x))
    raise NumericError(
        f"Sinkhorn normalization did not reach residual {tol} in {max_iter} iterations"
    )


def random_doubly_stochastic(n: int, seed: int) -> DoublyStochasticMatrix:
    """Seeded random doubly stochastic matrix via Sinkhorn on a positive uniform start."""
    if n < 1:
        raise ValidationError(f"dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    start = rng.random((n, n)) * 0.9 + 0.1  # strictly positive, so Sinkhorn cannot stall
    return sinkhorn_normalize(start)


def random_weight(
    mu: ProbabilityVector,
    lam: ProbabilityVector,
    seed: int,
    components: int = 3,
    amplitude: float = 1.0,
) -> WeightFunction:
    """Seeded convex combination of rank-one weights over (mu, lambda).

    amplitude scales the drawn direction vectors; 0 yields the all-ones
    weight.  Deterministic for a fixed seed.
    """
    if components < 1:
        raise ValidationError(f"components must be >= 1, got {components}")
    rng = np.random.default_rng(seed)
    m, n = len(mu), len(lam)

    def draw():
        u = amplitude * rng.standard_normal(m)
        v = amplitude * rng.standard_normal(n)
        return rank_one_weight(u, v, mu, lam)

    w = draw()
    for _ in range(components - 1):
        w = interpolate_weight(w, draw(), float(rng.random()))
    return w
