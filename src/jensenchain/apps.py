"""Turnkey chain evaluators for the named special-mean applications.

Each scalar application is a row of the refine engine: a catalog function,
its row sums and its two sides give the closed-form middle and its
t-quadrature check.  agm and kyfan are the jensen row seen through exp(-.)
or exp(+.); lp, harmonic and powersum are rows over n functions sampled on
a finite measure space (powersum's samples are diag(x), unit masses).  The
matrix power middle is integral_mean of powp over the matrix entries; its
chain checks the identity-matrix reduction instead, when C = I.  powersum
and matrixpower cost the support of their weights (_support): a pair whose
two weights are 0 adds A(t^p; 0, 0) = 0, so only live pairs are evaluated.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .functions import get_function
from .means import integral_mean
from .measures import DoublyStochasticMatrix, ProbabilityVector, WeightFunction, frozen_float64
from .numerics import adaptive_simpson  # noqa: F401  (the benchmark's tracer binds it here)
from .refine import (
    JensenInstance,
    RefinementChain,
    _assemble,
    _row_blocks,
    check_finite,
    check_weight_pair,
    checked_chain,
    live_pairs,
    phi_integral_closed,
    phi_integral_quad,
    row_sums,
    t_average,
    t_quadrature,
)

AGM_IDENTITY_TOL = 1e-9
KYFAN_IDENTITY_TOL = 1e-9
LP_IDENTITY_TOL = 1e-8
POWER_SUM_IDENTITY_TOL = 1e-9
HARMONIC_IDENTITY_TOL = 1e-9
MATRIX_COINCIDENCE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FiniteMeasureSpace:
    """Finite discrete measure: positive point masses (all ones = counting measure)."""

    masses: np.ndarray

    def __post_init__(self):
        m = frozen_float64(self.masses)
        if m.ndim != 1 or m.size == 0:
            raise ValidationError("masses must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(m)):
            raise ValidationError("masses must be finite")
        if np.any(m <= 0.0):
            k = int(np.argmin(m))
            raise ValidationError(f"mass {k} must be positive, got {m[k]}")
        object.__setattr__(self, "masses", m)

    @classmethod
    def counting(cls, k: int) -> "FiniteMeasureSpace":
        if k < 1:
            raise ValidationError(f"space size must be >= 1, got {k}")
        return cls(np.ones(k))


@dataclass(frozen=True, eq=False)
class FunctionVector:
    """Rows are functions sampled on the points of a FiniteMeasureSpace."""

    samples: np.ndarray

    def __post_init__(self):
        s = frozen_float64(self.samples)
        if s.ndim != 2 or s.shape[0] == 0 or s.shape[1] == 0:
            raise ValidationError("samples must be a nonempty n x |X| grid")
        if not (np.isfinite(s.min()) and np.isfinite(s.max())):  # NaN fails both
            raise ValidationError("samples must be finite")
        object.__setattr__(self, "samples", s)


def _t_quadrature(f, mu, s1, s2, sides, masses, rows=None, scale=None):
    """The grid rows' t-quadrature check: the engine's, at 1e-12."""
    return t_quadrature(f, mu, s1, s2, sides, masses, atol=1e-12, rtol=1e-12, rows=rows,
                        scale=scale)


def _exp_jensen_chain(name, sign, mean_bound, tol, x, lam, mu, w1, w2) -> RefinementChain:
    """The jensen row of the catalog function name seen through v -> exp(sign * v): the side
    sum_j lambda_j f(x_j) maps to the lower bound (sign -1) or the upper (sign +1), and
    mean_bound of the lambda-mean of the points is the other bound."""
    inst = JensenInstance(f=get_function(name), points=x, lam=lam, mu=mu, w1=w1, w2=w2)

    def transform(v):
        return float(np.exp(sign * v))

    side = transform(inst.jensen_sides()[1])
    other = mean_bound(float(inst.lam.weights @ inst.points))
    lower, upper = (side, other) if sign < 0.0 else (other, side)
    middle = transform(phi_integral_closed(inst))
    rhs = transform(phi_integral_quad(inst, atol=1e-12, rtol=1e-12))
    return checked_chain(lower, middle, upper, "t-quadrature", rhs, tol)


def _grid_sums_and_sides(f, g, masses, lam, mu, w1, w2):
    """(s1, s2, lower, upper) of the n x |X| sample grid g: the row sums s_k = w_k @ (lambda * g)
    and the Jensen sides f(lambda @ g) @ masses and lambda @ (f(g) @ masses) in chain order."""
    if g.shape[1] != masses.size:
        raise ValidationError(f"samples have {g.shape[1]} columns but the space has "
                              f"{masses.size} points")
    check_weight_pair(lam, mu, w1, w2, g.shape[0])
    s1, s2 = row_sums(f, g, lam, w1, w2)
    left = float(f.evaluate_many(lam.weights @ g) @ masses)
    right = float(lam.weights @ (f.evaluate_many(g) @ masses))
    return (s1, s2, left, right) if f.is_convex else (s1, s2, right, left)


def _row_chain(f, mu, masses, s1, s2, lower, upper, tol, rows=None,
               scale=None) -> RefinementChain:
    """A grid row's chain: the closed-form t-average of f over the row sums (or their live
    entries, or their columns times scale, see refine.t_average) as the middle, checked
    against its t-quadrature once both sides are finite."""
    check_finite(("lower bound", lower), ("upper bound", upper))
    middle = t_average(f, mu, s1, s2, masses, rows, scale)
    rhs = _t_quadrature(f, mu, s1, s2, (lower, upper), masses, rows, scale)
    return checked_chain(lower, middle, upper, "t-quadrature", rhs, tol)


def agm_chain(x, lam: ProbabilityVector, mu: ProbabilityVector, w1: WeightFunction,
              w2: WeightFunction) -> RefinementChain:
    """Geometric mean <= mu-weighted product of identric means <= arithmetic mean.

    The middle is prod_i I(s1_i, s2_i)^mu_i over the weighted row sums
    s_k = sum_j wk(i,j) lambda_j x_j: the jensen row of neglog under
    exp(-.), with the arithmetic mean as the upper bound.
    """
    return _exp_jensen_chain("neglog", -1.0, lambda a: a, AGM_IDENTITY_TOL, x, lam, mu, w1, w2)


def kyfan_chain(x, lam: ProbabilityVector, mu: ProbabilityVector, w1: WeightFunction,
                w2: WeightFunction) -> RefinementChain:
    """Complementary-mean ratio chain A'/A <= identric-ratio product <= G'/G for x in (0, 1/2]:
    the jensen row of kyfan under exp(+.), with A'/A = (1 - A)/A as the lower bound."""
    return _exp_jensen_chain(
        "kyfan", 1.0, lambda a: (1.0 - a) / a, KYFAN_IDENTITY_TOL, x, lam, mu, w1, w2
    )


def lp_chain(fv: FunctionVector, space: FiniteMeasureSpace, p: float, lam: ProbabilityVector,
             mu: ProbabilityVector, w1: WeightFunction, w2: WeightFunction) -> RefinementChain:
    """p-th power norm chain over a finite discrete measure space, p >= 1, with the middle
    sum_i mu_i ||L_p^p(sum_j w1(i,j) lambda_j |f_j|, sum_j w2(i,j) lambda_j |f_j|)||_1."""
    p = float(p)
    if not p >= 1.0:
        raise ValidationError(f"lp_chain requires p >= 1, got {p}")
    f = get_function("powp", {"p": p})
    s1, s2, _, upper = _grid_sums_and_sides(f, np.abs(fv.samples), space.masses, lam, mu, w1, w2)
    lower = float(space.masses @ np.abs(lam.weights @ fv.samples) ** p)
    return _row_chain(f, mu, space.masses, s1, s2, lower, upper, LP_IDENTITY_TOL)


def power_sum_chain(x, p: float, lam: ProbabilityVector, mu: ProbabilityVector,
                    w1: WeightFunction, w2: WeightFunction) -> RefinementChain:
    """sum lambda_j^p x_j^p <= double sum of L_p^p(w1*lambda*x, w2*lambda*x) <= sum lambda_j x_j^p:
    the lp row over the samples diag(x) with unit masses, over the live pairs (i, j), where
    w1 or w2 and lambda_j x_j are nonzero, when they are at most half of the grid; over
    the whole grid, w_k * (lambda * x) is formed a block of rows at a time."""
    p = float(p)
    if not p >= 1.0:
        raise ValidationError(f"power_sum_chain requires p >= 1, got {p}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValidationError("x must be a 1-D sequence")
    if np.any(x < 0.0):
        j = int(np.argmin(x))
        raise ValidationError(f"x[{j}] must be nonnegative, got {x[j]}")
    check_weight_pair(lam, mu, w1, w2, x.size)
    lx = lam.weights * x
    lower = float(np.sum(lx ** p))
    upper = float(lam.weights @ x ** p)
    f = get_function("powp", {"p": p})
    s1, s2, rows, cols = _support(w1.values, w2.values, lx != 0.0)
    if rows is None:
        return _row_chain(f, mu, np.ones(x.size), s1, s2, lower, upper, POWER_SUM_IDENTITY_TOL,
                          scale=lx)
    s1 *= lx[cols]  # the live entries are gathered copies
    s2 *= lx[cols]
    return _row_chain(f, mu, None, s1, s2, lower, upper, POWER_SUM_IDENTITY_TOL, rows)


def _support(g1, g2, cols=None):
    """(s1, s2, rows, cols): grids g1 and g2 whole (rows None, cols all) or, where live_pairs
    finds them at most half, their live entries, entry k at (rows[k], cols[k])."""
    live = live_pairs(g1, g2, cols)
    if live is None:
        return g1, g2, None, slice(None)
    rows, cols = np.divmod(live, g1.shape[1])
    return g1.reshape(-1)[live], g2.reshape(-1)[live], rows, cols


def _matrix_power(b: DoublyStochasticMatrix, c: DoublyStochasticMatrix, p):
    """matrix_power_bounds, then the int p and the entries (s1, s2) of b and c summed over."""
    if isinstance(p, float) and not p.is_integer():
        raise ValidationError(f"matrix power bounds need an integer exponent, got {p}")
    p = int(p)
    if p < 1:
        raise ValidationError(f"matrix power bounds need p >= 1, got {p}")
    if b.n != c.n:
        raise ValidationError(f"matrix orders differ: {b.n} vs {c.n}")
    s1, s2, rows, _ = _support(b.values, c.values)
    f = get_function("powp", {"p": p})
    if rows is not None:
        middle = float(integral_mean(f, s1, s2).sum())
    else:  # a block of rows at a time, so no n x n array of means is held
        middle = math.fsum(float(integral_mean(f, lo, hi).sum())
                           for _, lo, hi in _row_blocks(s1, s2))
    return float(b.n) ** (2 - p), middle, float(b.n), p, s1, s2


def matrix_power_bounds(b: DoublyStochasticMatrix, c: DoublyStochasticMatrix, p):
    """n^(2-p) <= sum_ij L_p^p(b_ij, c_ij) <= n, for integer p >= 1.

    The middle is integral_mean of powp, as in lp_chain and power_sum_chain,
    summed over the matrix entries, or over their support as power_sum_chain
    sums; it equals (1/(p+1)) sum_ij sum_k b_ij^k c_ij^(p-k).
    Returns (lower, middle, upper); matrix_power_chain judges them.
    """
    return _matrix_power(b, c, p)[:3]


def matrix_power_chain(b: DoublyStochasticMatrix, c: DoublyStochasticMatrix, p) -> RefinementChain:
    """matrix_power_bounds as a chain, with the verdict every application gets.

    When c is the identity the middle is also recomputed in its reduced
    diagonal form, (1/(p+1)) (sum_ij b_ij^p + sum_i sum_{k<p} b_ii^k), and
    checked against it as the identity check identity-reduction, over the
    entries the middle is summed over.
    """
    lower, middle, upper, p, s1, s2 = _matrix_power(b, c, p)
    # c is the identity: ones on the diagonal (checked first, in O(n)), no other nonzero among
    # s2, which holds every nonzero of c
    if not ((np.diagonal(c.values) == 1.0).all() and np.count_nonzero(s2) == c.n):
        return _assemble(lower, middle, upper, middle, middle)
    # sum_{k<p} d^k of each diagonal entry d in closed form: p at d = 1, 1 at d = 0
    d = np.diag(b.values)
    geometric = np.where(d == 1.0, float(p), 1.0)
    inner = (d != 1.0) & (d != 0.0)
    di = d[inner]
    geometric[inner] = -np.expm1(float(p) * np.log1p(di - 1.0)) / (1.0 - di)
    reduced = (float(np.sum(s1 ** p)) + float(geometric.sum())) / (p + 1)
    return checked_chain(lower, middle, upper, "identity-reduction", reduced,
                         MATRIX_COINCIDENCE_TOL)


def harmonic_chain(fv: FunctionVector, space: FiniteMeasureSpace, lam: ProbabilityVector,
                   mu: ProbabilityVector, w1: WeightFunction,
                   w2: WeightFunction) -> RefinementChain:
    """Concave chain for phi(f) = integral of f/(1+f): the harmonic_frac row over the samples,
    whose middle, the mu-mean of ||A(m/(1+m); s1, s2)||_1, equals mu(X) minus the mu-mean of
    ||1/L(1 + s1, 1 + s2)||_1; the chain runs
    sum_j lambda_j phi(f_j) <= middle <= phi(sum_j lambda_j f_j)."""
    if np.any(fv.samples < 0.0):
        j, k = np.unravel_index(int(np.argmin(fv.samples)), fv.samples.shape)
        raise ValidationError(
            f"sample ({j}, {k}) must be nonnegative, got {fv.samples[j, k]}"
        )
    f = get_function("harmonic_frac")
    s1, s2, lower, upper = _grid_sums_and_sides(f, fv.samples, space.masses, lam, mu, w1, w2)
    return _row_chain(f, mu, space.masses, s1, s2, lower, upper, HARMONIC_IDENTITY_TOL)
