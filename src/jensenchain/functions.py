"""Catalog of scalar convex/concave functions with closed-form integral means.

Each entry packages an evaluator, its domain interval, the declared
curvature direction, and (when one exists) a closed form for the
integral mean A(f; a, b).  The closed forms are written with
log1p/expm1 so they remain accurate for nearly equal endpoints.
"""

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .means import ln_identric, pow_integral_mean

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
    0-d arrays) to the array of A(f; a, b) in closed form, elementwise,
    and must handle a == b.
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


def _elementwise(closed_form):
    """Array form of a scalar closed form written with math, applied to each pair of floats."""

    def array_form(a, b):
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        values = [closed_form(x, y) for x, y in zip(a.ravel().tolist(), b.ravel().tolist())]
        return np.array(values, dtype=float).reshape(a.shape)

    return array_form


def _im_square(a, b):
    with np.errstate(over="ignore", invalid="ignore"):
        mean = (a * a + a * b + b * b) / 3.0
        if np.all(np.isfinite(mean)):
            return mean
        # a * a overflows before the mean does: there, factor the larger square out
        s = np.maximum(np.abs(a), np.abs(b))
        x, y = a / s, b / s
        return np.where(np.isfinite(mean), mean, (x * x + x * y + y * y) / 3.0 * s * s)


@_elementwise
def _im_exp(a, b):
    d = b - a
    if d == 0.0:
        return math.exp(a)
    try:
        mean = math.exp(a) * math.expm1(d) / d
    except OverflowError:
        mean = _INF
    if math.isfinite(mean):
        return mean
    # exp(a) * expm1(d) overflows before the mean does: there, factor exp(hi) out
    hi, span = max(a, b), abs(d)
    return math.exp(hi) * -math.expm1(-span) / span


def _im_neglog(a, b):
    return -ln_identric(a, b)


def _im_kyfan(a, b):
    return ln_identric(1.0 - a, 1.0 - b) - ln_identric(a, b)


@_elementwise
def _im_xlogx(a, b):
    lo, hi = (a, b) if a <= b else (b, a)
    if lo == hi:
        return a * math.log(a)
    r = (hi - lo) / lo
    mean = 0.5 * (lo + hi) * math.log(hi) + 0.5 * lo * math.log1p(r) / r - 0.25 * (lo + hi)
    if math.isfinite(mean):
        return mean
    # r overflows for a tiny lo and a huge hi, where log1p(r) / r = log(hi / lo) * lo / (hi - lo);
    # near x log x = DBL_MAX the first two terms overflow before the last is taken off
    if math.isfinite(r):
        tail = math.log1p(r) / r
    else:
        tail = (math.log(hi) - math.log(lo)) * (lo / (hi - lo))
    return 0.5 * (lo + hi) * math.log(hi) + (0.5 * lo * tail - 0.25 * (lo + hi))


# 1/3, 1/5, ..., 1/31: artanh(u) = u + u^3 sum_k u^(2k) / (2k + 3), to full precision for
# |u| <= 1/3
_ATANH_TAIL = tuple(1.0 / (2 * k + 3) for k in range(15))


@_elementwise
def _im_harmonic_frac(a, b):
    d = b - a
    if d == 0.0:
        return a / (1.0 + a)
    q = d / (1.0 + a)
    if abs(q) <= 1e-3:
        # 1 - log1p(q) / d = (a + 1 - log1p(q) / q) / (1 + a), whose first form cancels to
        # about (a + b) / 2 for small ends: 1 - log1p(q) / q is taken by its series
        s = q * (1 / 2 - q * (1 / 3 - q * (1 / 4 - q * (1 / 5 - q * (1 / 6 - q / 7)))))
        return (a + s) / (1.0 + a)
    lo, hi = (a, b) if d > 0.0 else (b, a)
    if lo < 0.5 and hi <= 1.0 + 2.0 * lo:
        # the first form still cancels where the lower end is small; with
        # u = (hi - lo) / (2 + lo + hi) <= 1/3, log1p(hi) - log1p(lo) = 2 artanh(u), and the
        # mean is (lo + hi - 2 u^2 (1/3 + u^2/5 + ...)) / (2 + lo + hi), with no cancellation
        total = lo + hi
        u = (hi - lo) / (2.0 + total)
        v = u * u
        tail = 0.0
        for c in reversed(_ATANH_TAIL):
            tail = c + v * tail
        return (total - 2.0 * v * tail) / (2.0 + total)
    if q > -1.0:
        return 1.0 - math.log1p(q) / d
    # q rounds to -1 where a is near DBL_MAX and b is small: take the logarithms apart
    return 1.0 - (math.log1p(b) - math.log1p(a)) / d


# name -> (domain, direction, evaluate, integral_mean) for the entries without parameters
_CATALOG = {
    "square": (Interval(), CONVEX, lambda x: x * x, _im_square),
    "exp": (Interval(), CONVEX, np.exp, _im_exp),
    "neglog": (Interval(0.0, _INF, lo_open=True), CONVEX, lambda x: -np.log(x), _im_neglog),
    "kyfan": (
        Interval(0.0, 0.5, lo_open=True), CONVEX, lambda x: np.log1p(-x) - np.log(x), _im_kyfan
    ),
    "xlogx": (Interval(0.0, _INF, lo_open=True), CONVEX, lambda x: x * np.log(x), _im_xlogx),
    "harmonic_frac": (Interval(0.0, _INF), CONCAVE, lambda x: x / (1.0 + x), _im_harmonic_frac),
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
