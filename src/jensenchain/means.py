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
from .numerics import QUAD_BATCH_VALUES, adaptive_simpson

# Half-band (relative) where a series in u = (b-a)/(a+b) replaces the closed form.
EPS_DEG = 1e-8


def _blockwise(kernel, a, b, *args):
    """Run kernel(a, b, out, *args) over the broadcast pair in blocks.

    Each block holds at most QUAD_BATCH_VALUES elements of the flattened
    pair, so the kernel's temporaries stay block-sized and the extra
    memory of a call is the output array (plus a flattened copy of an
    argument that had to be broadcast).  Returns an array of the
    broadcast shape (0-d for scalar arguments).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape)
    flat_a, flat_b, flat_out = a.reshape(-1), b.reshape(-1), out.reshape(-1)
    for k in range(0, flat_out.size, QUAD_BATCH_VALUES):
        block = slice(k, k + QUAD_BATCH_VALUES)
        kernel(flat_a[block], flat_b[block], flat_out[block], *args)
    return out


def _ln_identric_block(a, b, out):
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    d = hi - lo
    near = d <= EPS_DEG * hi
    far = ~near

    lo_n, hi_n = lo[near], hi[near]
    m = 0.5 * (lo_n + hi_n)
    u = d[near] / (lo_n + hi_n)
    u2 = u * u
    out[near] = np.log(m) - u2 * (1.0 / 6.0 + u2 * (1.0 / 20.0 + u2 / 42.0))

    lo_f, hi_f = lo[far], hi[far]
    with np.errstate(over="ignore", invalid="ignore"):
        r = d[far] / lo_f
        tail = np.log1p(r) / r
    # r overflows where hi / lo does, and log1p(r) / r is inf / inf: take the logarithms apart
    big = ~np.isfinite(tail)
    if big.any():
        lo_b, hi_b = lo_f[big], hi_f[big]
        tail[big] = (np.log(hi_b) - np.log(lo_b)) * (lo_b / (hi_b - lo_b))
    out[far] = np.log(hi_f) + tail - 1.0


def ln_identric(a, b):
    """log of the identric mean, elementwise; arguments must be positive.

    Uses ln I = ln(hi) + log1p(r)/r - 1 with r = (hi-lo)/lo, which is
    uniformly accurate, plus the series ln(m) - u^2/6 - u^4/20 - u^6/42
    inside the degenerate band.  Where r overflows, log1p(r)/r is taken
    as (ln(hi) - ln(lo)) * lo / (hi - lo).
    """
    return _blockwise(_ln_identric_block, a, b)


def _log_mean_block(a, b, out):
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    d = hi - lo
    near = d <= EPS_DEG * hi
    far = ~near

    lo_n, hi_n = lo[near], hi[near]
    m = 0.5 * (lo_n + hi_n)
    u = d[near] / (lo_n + hi_n)
    u2 = u * u
    # m * u / artanh(u), denominator written as the artanh series
    out[near] = m / (1.0 + u2 * (1.0 / 3.0 + u2 * (1.0 / 5.0 + u2 / 7.0)))

    d_far = d[far]
    out[far] = d_far / np.log1p(d_far / lo[far])


def log_mean(a, b):
    """Logarithmic mean, elementwise; arguments must be positive."""
    return _blockwise(_log_mean_block, a, b)


def _pow_integral_mean_block(a, b, out, p):
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    d = hi - lo
    equal = d == 0.0
    near = (d <= EPS_DEG * hi) & ~equal
    # r = d / lo is infinite where lo is 0 (or where d / lo overflows), which sends those
    # pairs to the direct form
    with np.errstate(over="ignore"):
        r = np.divide(d, lo, out=np.full(d.shape, np.inf), where=lo > 0.0)
    mid = ~equal & ~near & (r <= 0.25)
    far = ~(equal | near | mid)

    out[equal] = lo[equal] ** p

    lo_n, hi_n = lo[near], hi[near]
    m = 0.5 * (lo_n + hi_n)
    u = d[near] / (lo_n + hi_n)
    u2 = u * u
    c2 = p * (p - 1.0) / 6.0
    c4 = c2 * (p - 2.0) * (p - 3.0) / 20.0
    c6 = c4 * (p - 4.0) * (p - 5.0) / 42.0
    out[near] = m ** p * (1.0 + u2 * (c2 + u2 * (c4 + u2 * c6)))

    r_mid, lo_m = r[mid], lo[mid]
    growth = np.expm1((p + 1.0) * np.log1p(r_mid))
    with np.errstate(over="ignore"):
        value = lo_m ** p * growth / ((p + 1.0) * r_mid)
        # for p above about 6, lo ** p * growth can overflow before the division
        big = ~np.isfinite(value)
        if big.any():
            value[big] = lo_m[big] ** p * (growth[big] / ((p + 1.0) * r_mid[big]))
    out[mid] = value

    lo_f, hi_f = lo[far], hi[far]
    with np.errstate(over="ignore", invalid="ignore"):
        direct = (hi_f ** (p + 1.0) - lo_f ** (p + 1.0)) / ((p + 1.0) * d[far])
        # hi ** (p + 1) overflows before the mean does: there, factor hi ** p out
        big = ~np.isfinite(direct)
        if big.any():
            rho = lo_f[big] / hi_f[big]
            direct[big] = hi_f[big] ** p * (1.0 - rho ** (p + 1.0)) / ((p + 1.0) * (1.0 - rho))
    out[far] = direct


def pow_integral_mean(a, b, p):
    """A(t^p; a, b) = L_p(a, b)^p, elementwise, for a, b >= 0 and p >= 1.

    Three evaluation regimes keep full precision: the midpoint series in
    the degenerate band, an expm1/log1p form for small separations
    (r = (hi-lo)/lo <= 1/4), and the direct power difference otherwise
    (also covers a == 0).  Where the direct form overflows, the
    scale-free hi^p (1 - rho^(p+1)) / ((p+1)(1 - rho)), rho = lo/hi,
    replaces it.  Each element is evaluated in its own regime only, a
    block at a time.
    """
    return _blockwise(_pow_integral_mean_block, a, b, p)


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


def _integral_mean_block(a, b, out, f):
    size = np.maximum(np.abs(a), np.abs(b))
    # each segment's slack is at least 1e-12, so the domain holds them all if it holds the
    # block's extremes at that slack
    if not f.domain.contains_segment(min(a.min(), b.min()), max(a.max(), b.max()), 1e-12):
        lo, hi = np.where(a <= b, a, b), np.where(a <= b, b, a)
        inside = f.domain.contains_segment(lo, hi, 1e-12 * np.maximum(1.0, size))
        if not inside.all():
            k = int(np.argmin(inside))
            raise ValidationError(
                f"segment [{float(lo[k])}, {float(hi[k])}] is not inside the domain of "
                f"{f.name} ({f.domain})"
            )
    near = np.abs(b - a) <= EPS_DEG * size
    rest = ~near
    if f.integral_mean is None:
        for k in rest.nonzero()[0].tolist():
            seg_lo, seg_hi = sorted((float(a[k]), float(b[k])))
            out[k] = adaptive_simpson(f.evaluate_many, seg_lo, seg_hi) / (seg_hi - seg_lo)
    elif rest.all():
        out[:] = f.integral_mean(a, b)
    elif rest.any():
        out[rest] = f.integral_mean(a[rest], b[rest])
    if near.any():
        a_n, b_n = a[near], b[near]
        with np.errstate(over="ignore"):
            mid = 0.5 * (a_n + b_n)
        big = ~np.isfinite(mid)  # a + b overflows near DBL_MAX
        mid[big] = 0.5 * a_n[big] + 0.5 * b_n[big]
        out[near] = f.evaluate_many(mid)


def integral_mean(f, a, b):
    """Average value of f over the segments between a and b, elementwise, a block at a time.

    a and b are floats (giving a float) or arrays, broadcast together.
    Inside the relative band |b - a| <= EPS_DEG * max(|a|, |b|) it is
    f((a+b)/2) (an absolute band would also take small segments whose ends
    are far apart in ratio: for -log, 2% off on [1e-10, 2e-10]); elsewhere
    the catalog closed form, ends in their given order, or adaptive
    Gauss-Kronrod quadrature (numerics.adaptive_simpson) per segment for a
    function without one.  The first segment outside the domain of f is
    named in a ValidationError.
    """
    out = _blockwise(_integral_mean_block, a, b, f)
    return float(out) if out.ndim == 0 else out
