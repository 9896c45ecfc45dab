"""Special means: integral mean A(f;a,b), identric I, logarithmic L, p-logarithmic L_p.

Every mean here is the integral mean of a power or logarithm over the
segment [a, b]:

    A(f; a, b) = (1/(b-a)) * integral_a^b f(t) dt,    A(f; a, a) = f(a)
    I(a, b)    = exp(A(ln; a, b))   = (1/e) * (b^b / a^a)^(1/(b-a))
    L(a, b)    = (b - a) / (ln b - ln a)
    L_p(a, b)  = A(t^p; a, b)^(1/p) = [(b^(p+1) - a^(p+1)) / ((p+1)(b-a))]^(1/p)

The (b - a) denominators cancel catastrophically as a -> b, so each
closed form is evaluated through log1p/expm1 reformulations that stay
accurate at any separation, and switches to a midpoint series inside the
relative band |b - a| <= EPS_DEG * max(|a|, |b|).  Exact equality always
returns the argument itself.
"""

import math

import numpy as np

from .errors import ValidationError
from .numerics import adaptive_simpson

# Half-band (relative) where a series in u = (b-a)/(a+b) replaces the closed form.
EPS_DEG = 1e-8


def _as_pair(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.broadcast_arrays(a, b)


def ln_identric(a, b):
    """log of the identric mean, elementwise; arguments must be positive.

    Uses ln I = ln(hi) + log1p(r)/r - 1 with r = (hi-lo)/lo, which is
    uniformly accurate, plus the series ln(m) - u^2/6 - u^4/20 - u^6/42
    inside the degenerate band.
    """
    a, b = _as_pair(a, b)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    d = hi - lo
    near = d <= EPS_DEG * hi

    m = 0.5 * (lo + hi)
    u = np.where(near, d / (lo + hi), 0.0)
    u2 = u * u
    series = np.log(m) - u2 * (1.0 / 6.0 + u2 * (1.0 / 20.0 + u2 / 42.0))

    lo_safe = np.where(near, 1.0, lo)
    hi_safe = np.where(near, 1.0, hi)
    r = np.where(near, 1.0, d / lo_safe)
    closed = np.log(hi_safe) + np.log1p(r) / r - 1.0

    return np.where(near, series, closed)


def log_mean(a, b):
    """Logarithmic mean, elementwise; arguments must be positive."""
    a, b = _as_pair(a, b)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    d = hi - lo
    near = d <= EPS_DEG * hi

    m = 0.5 * (lo + hi)
    u = np.where(near, d / (lo + hi), 0.0)
    u2 = u * u
    # m * u / artanh(u), denominator written as the artanh series
    series = m / (1.0 + u2 * (1.0 / 3.0 + u2 * (1.0 / 5.0 + u2 / 7.0)))

    lo_safe = np.where(near, 1.0, lo)
    d_safe = np.where(near, 1.0, d)
    closed = d_safe / np.log1p(d_safe / lo_safe)

    return np.where(near, series, closed)


def pow_integral_mean(a, b, p):
    """A(t^p; a, b) = L_p(a, b)^p, elementwise, for a, b >= 0 and p >= 1.

    Three evaluation regimes keep full precision: the midpoint series in
    the degenerate band, an expm1/log1p form for small separations, and
    the direct power difference otherwise (also covers a == 0).
    """
    a, b = _as_pair(a, b)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    d = hi - lo

    equal = d == 0.0
    near = (d <= EPS_DEG * hi) & ~equal
    lo_safe = np.where(lo > 0.0, lo, 1.0)
    r = np.where(lo > 0.0, d / lo_safe, np.inf)
    mid = ~equal & ~near & (r <= 0.25)
    far = ~equal & ~near & ~mid

    m = 0.5 * (lo + hi)
    # the divisor is 0 where both ends are 0, which lies outside the band
    u = np.where(near, d / np.where(near, lo + hi, 1.0), 0.0)
    u2 = u * u
    c2 = p * (p - 1.0) / 6.0
    c4 = c2 * (p - 2.0) * (p - 3.0) / 20.0
    c6 = c4 * (p - 4.0) * (p - 5.0) / 42.0
    series = m ** p * (1.0 + u2 * (c2 + u2 * (c4 + u2 * c6)))

    r_mid = np.where(mid, r, 1.0)
    expm1_form = lo_safe ** p * np.expm1((p + 1.0) * np.log1p(r_mid)) / ((p + 1.0) * r_mid)

    d_safe = np.where(far, d, 1.0)
    hi_far = np.where(far, hi, 1.0)
    lo_far = np.where(far, lo, 0.0)
    direct = (hi_far ** (p + 1.0) - lo_far ** (p + 1.0)) / ((p + 1.0) * d_safe)

    out = np.where(equal, lo ** p, np.where(near, series, np.where(mid, expm1_form, direct)))
    return out


def _check_positive(name, *values):
    for v in values:
        if not v > 0.0:
            raise ValidationError(f"{name} requires positive arguments, got {v}")


def identric(a: float, b: float) -> float:
    """Identric mean I(a, b) for a, b > 0."""
    a = float(a)
    b = float(b)
    _check_positive("identric", a, b)
    if a == b:
        return a
    return float(math.exp(float(ln_identric(a, b))))


def logarithmic(a: float, b: float) -> float:
    """Logarithmic mean L(a, b) for a, b > 0."""
    a = float(a)
    b = float(b)
    _check_positive("logarithmic", a, b)
    if a == b:
        return a
    return float(log_mean(a, b))


def p_logarithmic(a: float, b: float, p: float) -> float:
    """p-logarithmic mean L_p(a, b) for a, b >= 0 and p >= 1."""
    a = float(a)
    b = float(b)
    p = float(p)
    if not p >= 1.0:
        raise ValidationError(f"p_logarithmic requires p >= 1, got {p}")
    if a < 0.0 or b < 0.0:
        raise ValidationError(f"p_logarithmic requires nonnegative arguments, got ({a}, {b})")
    if a == b:
        return a
    return float(pow_integral_mean(a, b, p)) ** (1.0 / p)


def integral_mean(f, a: float, b: float) -> float:
    """Average value of f over the segment between a and b.

    Inside the band |b - a| <= EPS_DEG * max(1, |a|, |b|) the midpoint
    value f((a+b)/2) is returned; otherwise the catalog closed form is
    used when the function carries one, and adaptive Simpson quadrature
    when it does not.
    """
    a = float(a)
    b = float(b)
    lo, hi = (a, b) if a <= b else (b, a)
    slack = 1e-12 * max(1.0, abs(a), abs(b))
    if not f.domain.contains_segment(lo, hi, slack):
        raise ValidationError(
            f"segment [{lo}, {hi}] is not inside the domain of {f.name} ({f.domain})"
        )
    if hi - lo <= EPS_DEG * max(1.0, abs(a), abs(b)):
        return float(f.evaluate(0.5 * (a + b)))
    if f.integral_mean is not None:
        return float(f.integral_mean(a, b))
    total = adaptive_simpson(f.evaluate, lo, hi)
    return total / (hi - lo)
