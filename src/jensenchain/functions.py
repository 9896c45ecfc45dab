"""Catalog of scalar convex/concave functions with closed-form integral means.

Each entry packages an evaluator, its domain interval, the declared
curvature direction, and (when one exists) a closed form for the
integral mean A(f; a, b).  The closed forms are array kernels run a block
at a time, like the means they build on: each gives a segment the form
that stays accurate in its regime (equal ends, nearly equal, apart, past
an overflow), whatever batch holds it.
"""

import numbers
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import ValidationError
from .means import _blockwise, ln_identric, pow_integral_mean

CONVEX = "convex"
CONCAVE = "concave"

_INF = float("inf")


@dataclass(frozen=True)
class Interval:
    """A real interval, possibly unbounded, with open/closed endpoints."""

    lo: float = -_INF
    hi: float = _INF
    lo_open: bool = False
    hi_open: bool = False

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return bool(self.contains_segment(x, x, slack))

    def contains_array(self, x, slack: float = 0.0):
        x = np.asarray(x, dtype=float)
        return self.contains_segment(x, x, slack)

    def contains_segment(self, lo, hi, slack=0.0):
        """Whether the segment [lo, hi] (lo <= hi) lies inside; elementwise on arrays."""
        # slack widens closed endpoints only; open endpoints guard singularities
        lo_ok = lo > self.lo if self.lo_open else lo >= self.lo - slack
        hi_ok = hi < self.hi if self.hi_open else hi <= self.hi + slack
        return lo_ok & hi_ok

    def __str__(self):
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


@dataclass(frozen=True, eq=False)
class ConvexFunctionSpec:
    """A named scalar function with curvature metadata.

    evaluate accepts floats and numpy arrays, and maps an array to the
    array of its values, of the same shape.  integral_mean, when
    present, maps arrays of segment ends a and b (floats are taken as
    0-d arrays) to the array of A(f; a, b) in closed form, elementwise. It
    gets every segment, a == b too, and must stay accurate as b nears a.
    The direction is declared metadata: the chain checkers trust it.
    """

    name: str
    domain: Interval
    direction: str
    evaluate: object
    integral_mean: object = None
    parameters: dict = field(default_factory=dict)

    @property
    def is_convex(self) -> bool:
        return self.direction == CONVEX

    def evaluate_many(self, x):
        """evaluate on an array, as a float array of its shape."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(self.evaluate(x), dtype=float)
        if y.shape != x.shape:
            raise ValidationError(f"function {self.name!r}: evaluate is not vectorized: "
                                  f"an array of shape {x.shape} gave shape {y.shape}")
        return y

    def with_direction(self, direction: str) -> "ConvexFunctionSpec":
        # a list or an array is not a direction; an array would compare elementwise
        if not (isinstance(direction, str) and direction in (CONVEX, CONCAVE)):
            raise ValidationError(f"unknown direction {direction!r}")
        return replace(self, direction=direction)


def _im_square(a, b):
    with np.errstate(over="ignore", invalid="ignore"):
        mean = (a * a + a * b + b * b) / 3.0
        if np.all(np.isfinite(mean)):
            return mean
        # a * a overflows before the mean does: there, factor the larger square out
        s = np.maximum(np.abs(a), np.abs(b))
        x, y = a / s, b / s
        return np.where(np.isfinite(mean), mean, (x * x + x * y + y * y) / 3.0 * s * s)


def _im_exp(a, b, out):
    # A = (e^hi - e^lo) / (hi - lo) = e^hi expm1(d) / d with d = lo - hi <= 0: a rounding of d
    # moves expm1(d) / d by at most as much relatively, and e^hi overflows before A does
    hi = np.maximum(a, b)
    d = np.minimum(a, b) - hi
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(np.exp(hi) * np.expm1(d), d, out=out)
    equal = d == 0.0  # 0 / 0 above
    if equal.any():
        out[equal] = np.exp(hi[equal])


def _im_neglog(a, b):
    return -ln_identric(a, b)


def _im_kyfan(a, b):
    return ln_identric(1.0 - a, 1.0 - b) - ln_identric(a, b)


def _im_xlogx(a, b, out):
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    total = lo + hi
    with np.errstate(over="ignore", invalid="ignore"):
        r = (hi - lo) / lo
        out[:] = 0.5 * total * np.log(hi) + 0.5 * lo * np.log1p(r) / r - 0.25 * total
        # not finite where lo == hi (0 / 0); where r overflows, for a tiny lo and a huge hi,
        # log1p(r) / r = log(hi / lo) * lo / (hi - lo); near x log x = DBL_MAX the first two
        # terms overflow before the last is taken off
        odd = ~np.isfinite(out)
        if odd.any():
            equal = r == 0.0
            out[equal] = lo[equal] * np.log(lo[equal])
            big = odd & ~equal
            if not big.any():
                return
            lo, hi, r, total = lo[big], hi[big], r[big], total[big]
            tail = np.log1p(r) / r
            inf = np.isinf(r)
            lo_i, hi_i = lo[inf], hi[inf]
            tail[inf] = (np.log(hi_i) - np.log(lo_i)) * (lo_i / (hi_i - lo_i))
            out[big] = 0.5 * total * np.log(hi) + (0.5 * lo * tail - 0.25 * total)


# k and 1/(2k + 3) for k < 15: artanh(u) = u + u^3 sum_k u^(2k) / (2k + 3), to full precision
# for |u| <= 1/3
_ATANH_POWERS = np.arange(15.0)
_ATANH_TAIL = 1.0 / (2.0 * _ATANH_POWERS + 3.0)


def _im_harmonic_frac(a, b, out):
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    d = hi - lo
    q = d / (1.0 + lo)
    # the mean is 1 - log1p(q) / d = (lo + 1 - log1p(q) / q) / (1 + lo), whose first form
    # cancels to about (lo + hi) / 2 for small ends: for small q (lo == hi included, where the
    # mean is lo / (1 + lo)), 1 - log1p(q) / q is taken by its series
    small = q <= 1e-3
    if small.any():
        q_s, lo_s = q[small], lo[small]
        s = q_s * (1 / 2 - q_s * (1 / 3 - q_s * (1 / 4 - q_s * (1 / 5 - q_s * (1 / 6 - q_s / 7)))))
        out[small] = (lo_s + s) / (1.0 + lo_s)
    # the first form still cancels where lo is small; for q <= 1, u = (hi - lo) / (2 + lo + hi)
    # <= 1/3, log1p(hi) - log1p(lo) = 2 artanh(u), and the mean is
    # (lo + hi - 2 u^2 (1/3 + u^2/5 + ...)) / (2 + lo + hi), with no cancellation
    series = (lo < 0.5) & (q <= 1.0) & ~small
    if series.any():
        total = lo[series] + hi[series]
        u = d[series] / (2.0 + total)
        v = u * u
        # each row summed on its own, so a segment's tail does not depend on its batch
        tail = (v[:, None] ** _ATANH_POWERS * _ATANH_TAIL).sum(axis=1)
        out[series] = (total - 2.0 * v * tail) / (2.0 + total)
    direct = ~(small | series)
    if direct.any():
        out[direct] = 1.0 - np.log1p(q[direct]) / d[direct]


# name -> (domain, direction, evaluate, integral_mean) for the entries without parameters; the
# block kernels _im_exp, _im_xlogx and _im_harmonic_frac write a block's means into out
_CATALOG = {
    "square": (Interval(), CONVEX, lambda x: x * x, _im_square),
    "exp": (Interval(), CONVEX, np.exp, partial(_blockwise, _im_exp)),
    "neglog": (Interval(0.0, _INF, lo_open=True), CONVEX, lambda x: -np.log(x), _im_neglog),
    "kyfan": (
        Interval(0.0, 0.5, lo_open=True), CONVEX, lambda x: np.log1p(-x) - np.log(x), _im_kyfan
    ),
    "xlogx": (Interval(0.0, _INF, lo_open=True), CONVEX, lambda x: x * np.log(x),
              partial(_blockwise, _im_xlogx)),
    "harmonic_frac": (Interval(0.0, _INF), CONCAVE, lambda x: x / (1.0 + x),
                      partial(_blockwise, _im_harmonic_frac)),
}


def _powp(params):
    extra = set(params) - {"p"}
    if extra:
        raise ValidationError(f"function 'powp' takes only parameter 'p', got {sorted(extra)}")
    if "p" not in params:
        raise ValidationError("function 'powp' requires parameter 'p'")
    p = params["p"]
    # bool is a numbers.Real; a string or an array is not
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise ValidationError(f"function 'powp': parameter 'p' is not a number, got {p!r}")
    try:
        p = float(p)
    except OverflowError as exc:
        raise ValidationError(f"function 'powp': parameter 'p' is not a number ({exc})") from exc
    if not p >= 1.0:
        raise ValidationError(f"function 'powp' requires p >= 1, got {p}")
    if p == _INF:
        raise ValidationError("function 'powp' requires a finite p")
    return ConvexFunctionSpec(
        "powp",
        Interval(0.0, _INF),
        CONVEX,
        lambda x: x ** p,
        lambda a, b: pow_integral_mean(a, b, p),
        parameters={"p": p},
    )


CATALOG_NAMES = tuple(sorted([*_CATALOG, "powp"]))


def get_function(name: str, params: dict | None = None) -> ConvexFunctionSpec:
    """Look up a catalog function by name, with an optional parameter mapping."""
    if name not in CATALOG_NAMES:
        raise ValidationError(f"unknown function {name!r}; known: {', '.join(CATALOG_NAMES)}")
    params = dict(params or {})
    if name == "powp":
        return _powp(params)
    if params:
        raise ValidationError(f"function {name!r} takes no parameters, got {sorted(params)}")
    return ConvexFunctionSpec(name, *_CATALOG[name])
