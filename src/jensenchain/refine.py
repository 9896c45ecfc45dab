"""The refinement engine for the weighted interpolation of Jensen's inequality.

For an instance (f, points x_j, lambda, mu, w1, w2) the one-parameter family

    phi(t) = sum_i mu_i * f( sum_j [(1-t) w1(i,j) + t w2(i,j)] lambda_j x_j )

over scalar points x_j is sandwiched between the two Jensen sides
f(sum lambda_j x_j) and sum lambda_j f(x_j) for every t in [0, 1], is
convex in t (concave when f is concave, with every inequality reversed),
and so is its t-average, which collapses to a sum of endpoint integral
means.  This module evaluates phi, checks the resulting chains, and
tightens the middle bound over t.

The engine works on the row sums s1 and s2 (row_sums), of shape (m,), or
(m, |X|) for points sampled on a finite measure space, whose rows are
summed against its point masses: t_average and t_quadrature give the
t-average in closed form and by quadrature, for jensen and apps alike.
Where f(0) = 0 and most entries of an (m, |X|) grid are 0 at both ends,
they take its live entries alone (live_pairs), each with its row index.
"""

import functools
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError, ValidationError
from .functions import ConvexFunctionSpec
from .means import integral_mean
from .measures import (
    DoublyStochasticMatrix,
    ProbabilityVector,
    WeightFunction,
    embed_doubly_stochastic,
    frozen_float64,
)
from .numerics import QUAD_BATCH_VALUES, adaptive_simpson, golden_section_minimize

TOL_FLOOR = 1e-9
JENSEN_IDENTITY_TOL = 1e-8  # the jensen row's closed-form t-average against its quadrature
# below this bound on |phi|, no panel sum of the quadrature overflows: the Kronrod and the
# Gauss weights each sum to 2, so a partial sum stays within 2 max|phi| and K - G within 4
_QUAD_SAFE = sys.float_info.max / 16.0


def chain_tolerance(lower: float, upper: float, scale: float = TOL_FLOOR) -> float:
    """Slack tolerance for a chain: relative at scale, with an absolute floor of scale.

    The one place a tolerance scale (TOL_FLOOR, or the CLI's --tol) becomes
    a tolerance.
    """
    return scale * max(1.0, abs(lower), abs(upper))


def rel_err(lhs: float, rhs: float) -> float:
    """|lhs - rhs| relative to max(1, |lhs|, |rhs|)."""
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


@dataclass(frozen=True)
class IdentityCheck:
    """One internal cross-check: two routes to the same value, with tolerance."""

    name: str
    lhs: float
    rhs: float
    rel_err: float
    tol: float
    ok: bool


@dataclass(frozen=True)
class RefinementChain:
    """A verified inequality chain: lower <= middle member(s) <= upper.

    middle is a float, a pair of floats (four-member chains), or a list
    of (t, value) pairs.  holds and passed judge the slack signs only;
    attached identity checks are reported separately.
    """

    lower: float
    middle: object
    upper: float
    slack_lower: float
    slack_upper: float
    tol: float
    inner_slacks: tuple = ()
    identity_checks: tuple = ()

    def holds(self, tol: float) -> bool:
        """The verdict: every slack, inner ones included, is at least -tol."""
        return (
            self.slack_lower >= -tol
            and self.slack_upper >= -tol
            and all(s >= -tol for s in self.inner_slacks)
        )

    @property
    def passed(self) -> bool:
        """The verdict at the chain's own tolerance (TOL_FLOOR scale)."""
        return self.holds(self.tol)


def check_finite(*members):
    """NumericError naming the first (name, value) member that is not finite: an infinite
    bound would make the tolerance infinite and the chain pass vacuously."""
    for name, value in members:
        if not math.isfinite(value):
            raise NumericError(f"the chain's {name} is {float(value)}, not a finite number")


def _assemble(lower, middle, upper, mid_lo, mid_hi, inner=(), checks=()):
    check_finite(("lower bound", lower), ("upper bound", upper),
                 ("smallest middle member", mid_lo), ("largest middle member", mid_hi))
    return RefinementChain(
        lower=float(lower),
        middle=middle,
        upper=float(upper),
        slack_lower=float(mid_lo - lower),
        slack_upper=float(upper - mid_hi),
        tol=chain_tolerance(lower, upper),
        inner_slacks=tuple(float(s) for s in inner),
        identity_checks=tuple(checks),
    )


def checked_chain(lower, middle, upper, name, rhs, tol) -> RefinementChain:
    """The chain lower <= middle <= upper, with the identity check name of its middle
    against rhs, the same value by a second route, at relative tolerance tol."""
    e = rel_err(middle, rhs)
    check = IdentityCheck(name, float(middle), float(rhs), e, tol, e <= tol)
    return _assemble(lower, middle, upper, middle, middle, checks=(check,))


def check_weight_pair(lam: ProbabilityVector, mu: ProbabilityVector, w1: WeightFunction,
                      w2: WeightFunction, n: int):
    """ValidationError unless w1 and w2 are |mu| x n grids normalized against mu and lambda."""
    if n != len(lam):
        raise ValidationError(f"{n} points but |lambda| = {len(lam)}")
    m = len(mu)
    for label, w in (("w1", w1), ("w2", w2)):
        if w.shape != (m, n):
            raise ValidationError(f"{label} has shape {w.shape}, expected ({m}, {n})")
        if not np.array_equal(w.mu.weights, mu.weights):
            raise ValidationError(f"{label} is normalized against a different mu")
        if not np.array_equal(w.lam.weights, lam.weights):
            raise ValidationError(f"{label} is normalized against a different lambda")


def row_sums(f: ConvexFunctionSpec, points: np.ndarray, lam: ProbabilityVector,
             w1: WeightFunction, w2: WeightFunction):
    """(s1, s2) with s_k = w_k @ (lambda * points), for points of shape (n,) or (n, |X|)."""
    lam = lam.weights
    lamx = (lam if points.ndim == 1 else lam[:, None]) * points
    sums = (w1.values @ lamx, w2.values @ lamx)
    if not lamx.all():
        # a term lambda_j x_j that underflowed to 0 is multiplied back in the other order
        lost = ((lamx == 0.0) & (points != 0.0)).reshape(lam.size, -1).any(axis=1) & (lam != 0.0)
        for s, w in zip(sums, (w1.values, w2.values)):
            rows = np.flatnonzero((w[:, lost] != 0.0).any(axis=1))
            s[rows] = (w[rows] * lam) @ points
    # a row sum is a mean of its column's points, but it can round an ulp past them, where f
    # may overflow; there it is clamped to their range
    for s in sums:
        clamped = np.clip(s, points.min(axis=0), points.max(axis=0))
        out = clamped != s
        if out.any():
            s[out] = np.where(np.isfinite(f.evaluate_many(s[out])), s[out], clamped[out])
    return sums


def live_pairs(a: np.ndarray, b: np.ndarray, cols=None):
    """Flat row-major indices of the entries of two (m, n) grids where a or b is nonzero,
    in the columns that cols marks (every column by default); None when more than half of
    the entries are live, or none is, where the whole grid is the cheaper form.  No
    temporary is larger than two m x n boolean masks."""
    half = a.size // 2
    if (cols is None or cols.all()) and max(np.count_nonzero(a), np.count_nonzero(b)) > half:
        return None
    live = a != 0.0
    live |= b != 0.0
    if cols is not None:
        live &= cols
    return np.flatnonzero(live) if 0 < np.count_nonzero(live) <= half else None


def _row_blocks(s1, s2, scale=None):
    """(rows, a, b) of the row sums s1 and s2 a block of whole rows at a time: at most
    QUAD_BATCH_VALUES values (one row where a row is wider), rows the slice they take.
    With scale, each block's columns are multiplied by it, so s1 * scale and s2 * scale
    are never held whole; the scaled blocks are written into the same two buffers, so a
    caller is done with a block before it takes the next.  Every caller cuts the same
    rows, as vals @ masses sums a row in an order that depends on the rows beside it."""
    m = s1.shape[0]
    step = max(1, QUAD_BATCH_VALUES // (s1.size // m))
    if scale is not None:
        buffers = np.empty((2, min(step, m)) + s1.shape[1:])
    for i in range(0, m, step):
        rows = slice(i, i + step)
        a, b = s1[rows], s2[rows]
        if scale is not None:
            a = np.multiply(a, scale, out=buffers[0, : a.shape[0]])
            b = np.multiply(b, scale, out=buffers[1, : b.shape[0]])
        yield rows, a, b


def _check_rows(f: ConvexFunctionSpec, s1: np.ndarray, s2: np.ndarray, scale=None):
    """DomainError unless every row sum (times scale, see _row_blocks) lies in the domain of
    f, which then holds every combination (1-t) s1 + t s2; an interval holds them all when
    it holds the extremes."""
    if scale is None:
        lo, hi = min(s1.min(), s2.min()), max(s1.max(), s2.max())
    else:
        ends = np.array([(a.min(), b.min(), a.max(), b.max())
                         for _, a, b in _row_blocks(s1, s2, scale)])
        lo, hi = min(*ends[:, :2].min(axis=0)), max(*ends[:, 2:].max(axis=0))
    slack = 1e-12 * max(1.0, -lo, hi)
    if not f.domain.contains_segment(lo, hi, slack):
        if scale is not None:
            s1, s2 = s1 * scale, s2 * scale
        inside = f.domain.contains_array(s1, slack) & f.domain.contains_array(s2, slack)
        k = np.unravel_index(int(np.argmin(inside)), inside.shape)
        raise DomainError(f"row sums for row i={k[0]} are {s1[k]} and {s2[k]}, outside the "
                          f"domain of {f.name} ({f.domain})")


def _phi_rows(f: ConvexFunctionSpec, s1, s2, ts: np.ndarray, masses=None,
              scale=None) -> np.ndarray:
    """f at (1-t) s1 + t s2, one row of m values per t (each summed against the masses).

    The values are computed at most QUAD_BATCH_VALUES at a time: a block of
    rows (_row_blocks, with its scale), at as many t as fit.  The blocks are
    cut at the same rows whatever the t, so phi at a t has one value,
    whatever batch of t holds it.
    """
    out = np.empty((ts.size, s1.shape[0]))
    for rows, a, b in _row_blocks(s1, s2, scale):
        per_t = max(1, QUAD_BATCH_VALUES // a.size)
        for k in range(0, ts.size, per_t):
            out[k : k + per_t, rows] = _phi_block(f, a, b, ts[k : k + per_t], masses)
    return out


def _phi_block(f: ConvexFunctionSpec, s1, s2, ts: np.ndarray, masses) -> np.ndarray:
    """_phi_rows on one block of rows and of t."""
    t = ts.reshape((-1,) + (1,) * s1.ndim)
    # (1-t)*s1 + t*s2 keeps the endpoints exactly on s1 and s2; summed in place
    inner = (1.0 - t) * s1
    inner += t * s2
    vals = f.evaluate_many(inner)
    rows = vals if masses is None else vals @ masses
    if np.isfinite(rows).all():
        return rows
    # a combination can round an ulp past its ends, where f may overflow: clamp it to them
    big = ~np.isfinite(vals)
    lo = np.broadcast_to(np.minimum(s1, s2), inner.shape)[big]
    hi = np.broadcast_to(np.maximum(s1, s2), inner.shape)[big]
    vals[big] = f.evaluate_many(np.clip(inner[big], lo, hi))
    return vals if masses is None else vals @ masses


def _phi_batch(f: ConvexFunctionSpec, weights: np.ndarray, s1, s2, ts: np.ndarray,
               masses=None, scale=None) -> np.ndarray:
    """phi at each t of ts, each row of values dotted with the weights (mu, or the row mass
    of each live entry) on its own: phi at a t has one value, whatever batch of t holds it."""
    return np.matmul(_phi_rows(f, s1, s2, ts, masses, scale)[:, None, :], weights)[:, 0]


def t_average(f: ConvexFunctionSpec, mu: ProbabilityVector, s1, s2, masses=None,
              rows=None, scale=None) -> float:
    """t-average of phi in closed form: the mu-mean of the integral means A(f; s1, s2).

    With rows, s1 and s2 hold the live entries of an (m, |X|) grid with
    unit masses, entry k in row rows[k]; every other entry is 0
    at both ends, where f(0) = 0 makes its integral mean 0.  An (m, |X|)
    grid's means are summed against the masses a block of rows at a time
    (_row_blocks, with its scale), so no m x |X| array of means is held.
    """
    if rows is not None:
        means = np.bincount(rows, weights=integral_mean(f, s1, s2), minlength=mu.weights.size)
    elif masses is None:
        means = integral_mean(f, s1, s2)
    else:
        means = np.empty(s1.shape[0])
        for block, a, b in _row_blocks(s1, s2, scale):
            means[block] = integral_mean(f, a, b) @ masses
    # left to right from 0.0 on every Python version (sum of floats compensates from 3.12)
    return functools.reduce(operator.add, (mu.weights * means).tolist(), 0.0)


def t_quadrature(f: ConvexFunctionSpec, mu: ProbabilityVector, s1, s2, sides, masses=None,
                 atol=1e-10, rtol=1e-10, rows=None, scale=None) -> float:
    """t-average of phi by adaptive quadrature on [0, 1], each depth's nodes together.

    Each node is reduced by _phi_batch, as phi is, so the result is the
    quadrature of scalar phi bit for bit, except where the larger magnitude
    s of the two sides (which bound phi) exceeds _QUAD_SAFE: there a panel's
    sum could overflow, so phi / s is integrated and the result scaled by s.
    With rows, s1 and s2 are live entries as in t_average, and phi sums
    each against its row's mu, so a node costs one value per live entry;
    with scale, the row sums are scaled as in t_average.
    """
    _check_rows(f, s1, s2, scale)
    bound = max(abs(side) for side in sides)
    if not _QUAD_SAFE < bound < math.inf:
        bound = 1.0
    weights = mu.weights if rows is None else mu.weights[rows]

    def fv(ts):
        return _phi_batch(f, weights, s1, s2, ts, masses, scale) / bound

    # a node materialises one row of m values (_phi_rows holds a block of rows at a time)
    return adaptive_simpson(fv, 0.0, 1.0, atol=atol, rtol=rtol, width=s1.shape[0]) * bound


@dataclass(frozen=True, eq=False)
class HadamardWeights:
    """Nonnegative averaging weights p with nodes t in [0, 1]."""

    p: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        p, t = frozen_float64(self.p), frozen_float64(self.t)
        if p.ndim != 1 or t.ndim != 1 or p.size != t.size or p.size == 0:
            raise ValidationError("p and t must be nonempty 1-D sequences of equal length")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
            raise ValidationError("averaging weights and nodes must be finite")
        if np.any(p < 0.0):
            raise ValidationError("averaging weights must be nonnegative")
        if not p.sum() > 0.0:
            raise ValidationError("averaging weights must have positive total")
        if np.any((t < 0.0) | (t > 1.0)):
            raise ValidationError("nodes must lie in [0, 1]")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "t", t)

    @property
    def total(self) -> float:
        return float(self.p.sum())


@dataclass(frozen=True, eq=False)
class JensenInstance:
    """An immutable problem instance over n scalar points, each in the domain of f.

    The inner row sums s1 and s2 are cached at construction, the Jensen
    sides and their domain check at their first use.
    """

    f: ConvexFunctionSpec
    points: np.ndarray
    lam: ProbabilityVector
    mu: ProbabilityVector
    w1: WeightFunction
    w2: WeightFunction
    s1: np.ndarray = field(init=False, repr=False)
    s2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ValidationError("points must be a nonempty 1-D array")
        check_weight_pair(self.lam, self.mu, self.w1, self.w2, pts.size)
        inside = self.f.domain.contains_array(pts)
        if not np.all(inside):
            j = int(np.argmin(inside))
            raise ValidationError(
                f"point {j} = {pts[j]} is outside the domain of {self.f.name} ({self.f.domain})"
            )
        object.__setattr__(self, "points", pts)
        for name, s in zip(("s1", "s2"), row_sums(self.f, pts, self.lam, self.w1, self.w2)):
            object.__setattr__(self, name, s)

    @functools.cached_property
    def _sides(self):
        mean = float(self.lam.weights @ self.points)
        left = float(self.f.evaluate_many(np.array([mean]))[0])
        right = float(self.lam.weights @ self.f.evaluate_many(self.points))
        return left, right

    def jensen_sides(self):
        """(f(lambda-mean of points), lambda-mean of f(points))."""
        return self._sides

    def check_rows(self):
        """DomainError unless every row sum lies in the domain of f (_check_rows), checked at
        the first call only, as s1 and s2 are fixed (again if f is swapped under the
        instance)."""
        if self.__dict__.get("_rows_checked_for") is not self.f:
            _check_rows(self.f, self.s1, self.s2)
            self.__dict__["_rows_checked_for"] = self.f

    def oriented_bounds(self):
        """(lower, upper) in chain order: Jensen sides swap when f is concave."""
        left, right = self.jensen_sides()
        return (left, right) if self.f.is_convex else (right, left)


def _check_t(ts: np.ndarray):
    bad = ~np.isfinite(ts) | (ts < 0.0) | (ts > 1.0)
    if np.any(bad):
        raise ValidationError(f"t must lie in [0, 1], got {float(ts[np.argmax(bad)])}")


def phi_values(inst: JensenInstance, ts) -> np.ndarray:
    """Vectorized phi over a grid of t values."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    _check_t(ts)
    inst.check_rows()
    return _phi_batch(inst.f, inst.mu.weights, inst.s1, inst.s2, ts)


def phi(inst: JensenInstance, t: float) -> float:
    """phi at a single t in [0, 1]."""
    return float(phi_values(inst, [float(t)])[0])


def chain_at_t(inst: JensenInstance, t_grid) -> RefinementChain:
    """Check the sandwich lower <= phi(t) <= upper on each grid point."""
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if ts.size == 0:
        raise ValidationError("t grid must be nonempty")
    vals = phi_values(inst, ts)
    lower, upper = inst.oriented_bounds()
    middle = [(float(t), float(v)) for t, v in zip(ts, vals)]
    return _assemble(lower, middle, upper, float(vals.min()), float(vals.max()))


def phi_integral_closed(inst: JensenInstance) -> float:
    """t-average of phi as the mu-mean of endpoint integral means."""
    return t_average(inst.f, inst.mu, inst.s1, inst.s2)


def phi_integral_quad(inst: JensenInstance, atol=1e-10, rtol=1e-10) -> float:
    """t-average of phi by adaptive quadrature on [0, 1]."""
    return t_quadrature(inst.f, inst.mu, inst.s1, inst.s2, inst.jensen_sides(), None, atol, rtol)


def chain_integral(inst: JensenInstance) -> RefinementChain:
    """Check the sandwich for the t-average of phi, taken in closed form and checked against
    its quadrature."""
    mid = phi_integral_closed(inst)
    lower, upper = inst.oriented_bounds()
    return checked_chain(lower, mid, upper, "integral-closed-vs-quadrature",
                         phi_integral_quad(inst), JENSEN_IDENTITY_TOL)


def chain_hadamard(inst: JensenInstance, hw: HadamardWeights) -> RefinementChain:
    """Four-member chain: the sandwich around phi(weighted node mean) and the
    weighted mean of phi over the nodes, ordered by the declared direction."""
    # a weighted mean of the nodes lies in their hull, but the dot product and the sum round
    # apart and can put it an ulp outside, past 1
    t_bar = min(max(float(hw.p @ hw.t) / hw.total, float(hw.t.min())), float(hw.t.max()))
    vals = phi_values(inst, np.concatenate(([t_bar], hw.t)))
    m_point, vals = float(vals[0]), vals[1:]
    m_avg = float(hw.p @ vals) / hw.total
    if not math.isfinite(m_avg):
        # the weighted sum overflows before the division: normalize the weights first
        m_avg = float((hw.p / hw.total) @ vals)
    lower, upper = inst.oriented_bounds()
    if inst.f.is_convex:
        seq = (lower, m_point, m_avg, upper)
    else:
        seq = (lower, m_avg, m_point, upper)
    inner = (seq[2] - seq[1],)
    return _assemble(
        seq[0], (seq[1], seq[2]), seq[3], seq[1], seq[2], inner=inner
    )


@dataclass(frozen=True)
class ConvexityCheck:
    """Outcome of the random midpoint-convexity check on phi."""

    ok: bool
    witnesses: tuple


def phi_convexity_check(inst: JensenInstance, trials: int = 100, seed: int = 0) -> ConvexityCheck:
    """Check phi(a*t1 + (1-a)*t2) against a*phi(t1) + (1-a)*phi(t2) on random triples.

    The inequality direction follows the declared curvature of f.
    Violations beyond the chain tolerance are returned as witnesses.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    t1 = rng.random(trials)
    t2 = rng.random(trials)
    alpha = rng.random(trials)
    tm = alpha * t1 + (1.0 - alpha) * t2
    v1 = phi_values(inst, t1)
    v2 = phi_values(inst, t2)
    vm = phi_values(inst, tm)
    lower, upper = inst.oriented_bounds()
    tol = chain_tolerance(lower, upper)
    gap = alpha * v1 + (1.0 - alpha) * v2 - vm
    if not inst.f.is_convex:
        gap = -gap
    bad = gap < -tol
    witnesses = tuple(
        {
            "t1": float(t1[k]),
            "t2": float(t2[k]),
            "alpha": float(alpha[k]),
            "combined": float(vm[k]),
            "bound": float(alpha[k] * v1[k] + (1.0 - alpha[k]) * v2[k]),
        }
        for k in np.nonzero(bad)[0]
    )
    return ConvexityCheck(ok=not witnesses, witnesses=witnesses)


def tighten(inst: JensenInstance, tol_t: float):
    """Golden-section search for the best middle bound over t in [0, 1].

    Minimizes phi for convex f and maximizes it for concave f; a flat
    plateau resolves to its leftmost bracket.  Returns (t_star, value).
    """
    if not tol_t > 0.0:
        raise ValidationError(f"tol_t must be positive, got {tol_t}")
    if inst.f.is_convex:
        t_star, value = golden_section_minimize(lambda t: phi(inst, t), 0.0, 1.0, tol_t)
        return t_star, value
    t_star, neg = golden_section_minimize(lambda t: -phi(inst, t), 0.0, 1.0, tol_t)
    return t_star, -neg


def matrix_instance(points, f: ConvexFunctionSpec, b: DoublyStochasticMatrix,
                    c: DoublyStochasticMatrix) -> JensenInstance:
    """Instance with uniform measures and the two matrices embedded as weights."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if b.n != n or c.n != n:
        raise ValidationError(
            f"matrix orders ({b.n}, {c.n}) do not match the {n} points"
        )
    uni = ProbabilityVector.uniform(n)
    return JensenInstance(
        f=f,
        points=pts,
        lam=uni,
        mu=uni,
        w1=embed_doubly_stochastic(b),
        w2=embed_doubly_stochastic(c),
    )


def chain_matrix(points, f: ConvexFunctionSpec, b: DoublyStochasticMatrix,
                 c: DoublyStochasticMatrix, t_grid) -> RefinementChain:
    """Sandwich check for the doubly-stochastic form of the interpolation."""
    return chain_at_t(matrix_instance(points, f, b, c), t_grid)
