"""Turnkey chain evaluators for the named special-mean applications.

Each operation evaluates a three-member inequality chain whose middle is
built from identric, logarithmic, or p-logarithmic means of weighted row
sums, and returns it as a RefinementChain, judged by the same verdict
(RefinementChain.holds) as every other chain.  Most also cross-check the
middle against direct quadrature of the underlying t-average (the route
the chain's derivation interchanges integrals over); the matrix power
chain instead checks its identity-matrix reduction and raises on a
mismatch.  The measure spaces are finite and discrete, so every norm is
an exact weighted sum.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .functions import get_function
from .means import ln_identric, log_mean, pow_integral_mean
from .measures import (
    DoublyStochasticMatrix,
    ProbabilityVector,
    WeightFunction,
    frozen_float64,
)
from .numerics import adaptive_simpson
from .refine import (
    JensenInstance,
    RefinementChain,
    _assemble,
    check_weight_pair,
    make_identity_check,
    phi_integral_quad,
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

    @property
    def total(self) -> float:
        return float(self.masses.sum())

    def __len__(self):
        return self.masses.size

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

    @property
    def n(self) -> int:
        return self.samples.shape[0]


def _t_quadrature(mu, masses, s1, s2, pointwise):
    """Integrate t -> sum_i mu_i sum_x mass(x) * pointwise((1-t)s1 + t*s2) over [0, 1].

    The nodes of a depth are evaluated together; each node's grid is
    reduced by the same matrix-vector and dot products as one node alone
    would be, so the value does not depend on the batching.
    """

    def h(ts):
        m = (1.0 - ts)[:, None, None] * s1 + ts[:, None, None] * s2
        return np.matmul(mu.weights, (pointwise(m) @ masses)[:, :, None])[:, 0]

    return adaptive_simpson(h, 0.0, 1.0, atol=1e-12, rtol=1e-12, width=s1.size)


def _quadrature_checked(lower, middle, upper, rhs, tol) -> RefinementChain:
    """The chain lower <= middle <= upper, its middle checked against the quadrature rhs."""
    check = make_identity_check("t-quadrature", middle, rhs, tol)
    return _assemble(lower, middle, upper, middle, middle, checks=(check,))


def _sample_row_sums(g, space, lam, mu, w1, w2):
    """(s1, s2), the rows of the n x |X| grid g combined by w1 and w2 against lambda."""
    if g.shape[1] != len(space):
        raise ValidationError(
            f"samples have {g.shape[1]} columns but the space has {len(space)} points"
        )
    check_weight_pair(lam, mu, w1, w2, g.shape[0])
    return (w1.values * lam.weights) @ g, (w2.values * lam.weights) @ g


def agm_chain(
    x,
    lam: ProbabilityVector,
    mu: ProbabilityVector,
    w1: WeightFunction,
    w2: WeightFunction,
) -> RefinementChain:
    """Geometric mean <= mu-weighted product of identric means <= arithmetic mean.

    The middle is prod_i I(s1_i, s2_i)^mu_i over the weighted row sums
    s_k = sum_j wk(i,j) lambda_j x_j; it equals exp(-integral) of the
    negative-log instance, which the identity check verifies by
    quadrature.
    """
    inst = JensenInstance(f=get_function("neglog"), points=x, lam=lam, mu=mu, w1=w1, w2=w2)
    pts = inst.points
    lower = float(np.exp(inst.lam.weights @ np.log(pts)))
    upper = float(inst.lam.weights @ pts)
    middle = float(np.exp(inst.mu.weights @ ln_identric(inst.s1, inst.s2)))
    quad = phi_integral_quad(inst, atol=1e-12, rtol=1e-12)
    return _quadrature_checked(lower, middle, upper, float(np.exp(-quad)), AGM_IDENTITY_TOL)


def kyfan_chain(
    x,
    lam: ProbabilityVector,
    mu: ProbabilityVector,
    w1: WeightFunction,
    w2: WeightFunction,
) -> RefinementChain:
    """Complementary-mean ratio chain A'/A <= identric-ratio product <= G'/G for x in (0, 1/2]."""
    inst = JensenInstance(f=get_function("kyfan"), points=x, lam=lam, mu=mu, w1=w1, w2=w2)
    pts = inst.points
    a_n = float(inst.lam.weights @ pts)
    lower = (1.0 - a_n) / a_n
    upper = float(np.exp(inst.lam.weights @ (np.log1p(-pts) - np.log(pts))))
    ln_mid = float(
        inst.mu.weights
        @ (ln_identric(1.0 - inst.s1, 1.0 - inst.s2) - ln_identric(inst.s1, inst.s2))
    )
    middle = float(np.exp(ln_mid))
    quad = phi_integral_quad(inst, atol=1e-12, rtol=1e-12)
    return _quadrature_checked(lower, middle, upper, float(np.exp(quad)), KYFAN_IDENTITY_TOL)


def lp_chain(
    fv: FunctionVector,
    space: FiniteMeasureSpace,
    p: float,
    lam: ProbabilityVector,
    mu: ProbabilityVector,
    w1: WeightFunction,
    w2: WeightFunction,
) -> RefinementChain:
    """p-th power norm chain over a finite discrete measure space, p >= 1.

    Middle: sum_i mu_i ||L_p^p(sum_j w1(i,j) lambda_j |f_j|, sum_j w2(i,j)
    lambda_j |f_j|)||_1.  The identity check integrates the p-th power of
    the interpolated combination over t directly, which validates the
    integral-interchange step of the derivation numerically.
    """
    p = float(p)
    if not p >= 1.0:
        raise ValidationError(f"lp_chain requires p >= 1, got {p}")
    g = np.abs(fv.samples)
    s1, s2 = _sample_row_sums(g, space, lam, mu, w1, w2)
    masses = space.masses
    signed = lam.weights @ fv.samples
    lower = float(masses @ np.abs(signed) ** p)
    upper = float(lam.weights @ (g ** p @ masses))
    middle = float(mu.weights @ (pow_integral_mean(s1, s2, p) @ masses))
    quad = _t_quadrature(mu, masses, s1, s2, lambda m: m ** p)
    return _quadrature_checked(lower, middle, upper, quad, LP_IDENTITY_TOL)


def power_sum_chain(
    x,
    p: float,
    lam: ProbabilityVector,
    mu: ProbabilityVector,
    w1: WeightFunction,
    w2: WeightFunction,
) -> RefinementChain:
    """sum lambda_j^p x_j^p <= double sum of L_p^p(w1*lambda*x, w2*lambda*x) <= sum lambda_j x_j^p."""
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
    a1 = w1.values * lx
    a2 = w2.values * lx
    middle = float(mu.weights @ pow_integral_mean(a1, a2, p).sum(axis=1))
    quad = _t_quadrature(mu, np.ones(x.size), a1, a2, lambda m: m ** p)
    return _quadrature_checked(lower, middle, upper, quad, POWER_SUM_IDENTITY_TOL)


def matrix_power_bounds(b: DoublyStochasticMatrix, c: DoublyStochasticMatrix, p):
    """n^(2-p) <= sum_ij L_p^p(b_ij, c_ij) <= n, for integer p >= 1.

    The middle is the L_p^p kernel of lp_chain and power_sum_chain over
    the matrix entries; it equals (1/(p+1)) sum_ij sum_k b_ij^k c_ij^(p-k).
    When c is the identity the middle is also recomputed in its reduced
    diagonal form and the two must coincide (NumericError otherwise).
    Returns (lower, middle, upper); matrix_power_chain judges them.
    """
    if isinstance(p, float) and not p.is_integer():
        raise ValidationError(f"matrix power bounds need an integer exponent, got {p}")
    p = int(p)
    if p < 1:
        raise ValidationError(f"matrix power bounds need p >= 1, got {p}")
    if b.n != c.n:
        raise ValidationError(f"matrix orders differ: {b.n} vs {c.n}")
    n = b.n
    bv = b.values
    cv = c.values
    middle = float(pow_integral_mean(bv, cv, p).sum())
    lower = float(n) ** (2 - p)
    upper = float(n)
    # c is the identity: ones on the diagonal (checked first, in O(n)), no other nonzero
    if (np.diagonal(cv) == 1.0).all() and np.count_nonzero(cv) == n:
        diag = np.diag(bv)
        reduced = float(np.sum(bv ** p))
        for k in range(p):
            reduced += float(np.sum(diag ** k))
        reduced /= p + 1
        if abs(middle - reduced) > MATRIX_COINCIDENCE_TOL * max(1.0, abs(middle)):
            raise NumericError(
                f"identity-matrix reduction mismatch: {middle} vs {reduced}"
            )
    return lower, middle, upper


def matrix_power_chain(
    b: DoublyStochasticMatrix, c: DoublyStochasticMatrix, p
) -> RefinementChain:
    """matrix_power_bounds as a chain, with the verdict every application gets."""
    lower, middle, upper = matrix_power_bounds(b, c, p)
    return _assemble(lower, middle, upper, middle, middle)


def harmonic_chain(
    fv: FunctionVector,
    space: FiniteMeasureSpace,
    lam: ProbabilityVector,
    mu: ProbabilityVector,
    w1: WeightFunction,
    w2: WeightFunction,
) -> RefinementChain:
    """Concave chain for phi(f) = integral of f/(1+f): the middle is mu(X)
    minus the mu-mean of ||1/L(1 + s1, 1 + s2)||_1, and the chain runs
    sum_j lambda_j phi(f_j) <= middle <= phi(sum_j lambda_j f_j)."""
    if np.any(fv.samples < 0.0):
        j, k = np.unravel_index(int(np.argmin(fv.samples)), fv.samples.shape)
        raise ValidationError(
            f"sample ({j}, {k}) must be nonnegative, got {fv.samples[j, k]}"
        )
    g = fv.samples
    s1, s2 = _sample_row_sums(g, space, lam, mu, w1, w2)
    masses = space.masses

    def phi_of(rows):
        return (rows / (1.0 + rows)) @ masses

    lower = float(lam.weights @ phi_of(g))
    upper = float(phi_of(lam.weights @ g))
    inv_l = 1.0 / log_mean(1.0 + s1, 1.0 + s2)
    middle = space.total - float(mu.weights @ (inv_l @ masses))
    quad = _t_quadrature(mu, masses, s1, s2, lambda m: m / (1.0 + m))
    return _quadrature_checked(lower, middle, upper, quad, HARMONIC_IDENTITY_TOL)
