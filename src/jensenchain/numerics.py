"""Numerical routines: level-batched adaptive Simpson quadrature, golden-section search.

Both are deliberately plain: the integrands in this package are smooth
convex/concave functions on bounded intervals, and the objective of the
1-D search is convex (possibly flat).  The quadrature hands each depth's
nodes to a vectorized integrand at once (W. Gander and W. Gautschi,
"Adaptive quadrature - revisited", BIT 40, 2000).
"""

import math

import numpy as np

from .errors import NumericError, ValidationError

QUAD_ATOL = 1e-10
QUAD_RTOL = 1e-10
QUAD_MAX_DEPTH = 40
QUAD_MAX_EVALS = 100_000  # integrand nodes per integral
QUAD_BATCH_VALUES = 2 ** 14  # float64 values one vectorized integrand call may materialise

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _interleave(x, y):
    out = np.empty(2 * x.size)
    out[0::2] = x
    out[1::2] = y
    return out


def _evaluate(fv, ts, chunk):
    if ts.size <= chunk:
        values = np.asarray(fv(ts), dtype=float)
    else:
        values = np.concatenate(
            [np.asarray(fv(ts[k:k + chunk]), dtype=float) for k in range(0, ts.size, chunk)]
        )
    finite = np.isfinite(values)
    if not finite.all():
        # such a node fails every panel that holds it, so the integral cannot converge
        k = int(np.argmin(finite))
        raise NumericError(
            f"adaptive Simpson: integrand is {float(values[k])} at t={float(ts[k])}"
        )
    return values


def adaptive_simpson_many(fv, a, b, atol=QUAD_ATOL, rtol=QUAD_RTOL,
                          max_depth=QUAD_MAX_DEPTH, width=1):
    """Integrate over [a, b] by adaptive Simpson with Richardson extrapolation.

    fv maps a 1-D array of nodes to the array of integrand values there.
    The panels are refined level by level: at each depth the two new
    nodes of every live panel go to fv together, in calls of at most
    max(1, QUAD_BATCH_VALUES // width) nodes, where width is the number
    of float64 values fv materialises per node.

    A panel is accepted when its Richardson residual is within 15 times
    its tolerance (floored at 1e-16 of the panel estimate); the tolerance
    starts as the larger of atol and rtol times the first whole-interval
    estimate and halves with each depth.  Accepted panels are summed
    bottom-up in tree order (parent = left + right), so the result is the
    one a depth-first recursion gives, bit for bit.  Raises NumericError
    when a panel at depth max_depth is still not accepted, or when the
    integral would need more than QUAD_MAX_EVALS nodes, or at the first
    NaN or infinite integrand value.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    chunk = max(1, QUAD_BATCH_VALUES // width)
    fa, fb, fm = _evaluate(fv, np.array([a, b, 0.5 * (a + b)]), chunk)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = max(atol, rtol * abs(whole))
    lo, hi = np.array([a]), np.array([b])
    f_lo, f_mid, f_hi, whole = np.array([fa]), np.array([fm]), np.array([fb]), np.array([whole])
    evals = 3
    levels = []  # per depth: (panel values, indices of panels split further)
    depth = 0
    while True:
        if evals + 2 * lo.size > QUAD_MAX_EVALS:
            raise NumericError(
                f"adaptive Simpson exceeded its budget of {QUAD_MAX_EVALS} integrand "
                f"evaluations on [{a}, {b}] (at depth {depth})"
            )
        mid = 0.5 * (lo + hi)
        f_new = _evaluate(fv, _interleave(0.5 * (lo + mid), 0.5 * (mid + hi)), chunk)
        evals += f_new.size
        f_lm, f_rm = f_new[0::2], f_new[1::2]
        h = 0.5 * (hi - lo)
        left = h / 6.0 * (f_lo + 4.0 * f_lm + f_mid)
        right = h / 6.0 * (f_mid + 4.0 * f_rm + f_hi)
        s2 = left + right
        err = s2 - whole
        # 1e-16*|s2| floor: stop once rounding noise dominates the panel estimate
        split = np.flatnonzero(~(np.abs(err) <= 15.0 * np.maximum(tol, 1e-16 * np.abs(s2))))
        levels.append((s2 + err / 15.0, split))
        if split.size == 0:
            break
        if depth >= max_depth:
            k = split[0]
            raise NumericError(
                f"adaptive Simpson did not converge on [{float(lo[k])}, {float(hi[k])}] "
                f"(residual {abs(float(err[k])):.3e} at depth {depth})"
            )
        lo, mid, hi = lo[split], mid[split], hi[split]
        f_lo, f_mid, f_hi = f_lo[split], f_mid[split], f_hi[split]
        lo, hi = _interleave(lo, mid), _interleave(mid, hi)
        f_lo, f_mid, f_hi = (
            _interleave(f_lo, f_mid), _interleave(f_lm[split], f_rm[split]),
            _interleave(f_mid, f_hi),
        )
        whole = _interleave(left[split], right[split])
        tol = 0.5 * tol
        depth += 1
    total = levels[-1][0]
    for values, split in reversed(levels[:-1]):
        values[split] = total[0::2] + total[1::2]
        total = values
    return sign * float(total[0])


def adaptive_simpson(f, a, b, atol=QUAD_ATOL, rtol=QUAD_RTOL, max_depth=QUAD_MAX_DEPTH,
                     width=None):
    """Integrate f over [a, b] with adaptive_simpson_many.

    By default f is scalar and is called once per node.  Given a width,
    f is a vectorized integrand (adaptive_simpson_many's fv) that
    materialises width float64 values per node.
    """
    if width is None:
        return adaptive_simpson_many(
            lambda ts: [f(t) for t in ts.tolist()], a, b, atol=atol, rtol=rtol,
            max_depth=max_depth,
        )
    return adaptive_simpson_many(f, a, b, atol=atol, rtol=rtol, max_depth=max_depth, width=width)


def golden_section_minimize(f, a, b, tol, max_iter=1000):
    """Minimize a unimodal-or-flat f on [a, b]; returns (x_star, f(x_star)).

    Ties shrink the bracket from the right, so a flat plateau resolves to
    its leftmost point.  The final bracket width is at most tol; a search
    that cannot get there in max_iter steps raises NumericError.
    """
    if not tol > 0.0:
        raise ValidationError(f"search tolerance must be positive, got {tol}")
    if b - a <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = f(c)
    fd = f(d)
    it = 0
    while (b - a) > tol and it < max_iter:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        it += 1
    if (b - a) > tol:
        raise NumericError(
            f"golden-section search hit its cap of {max_iter} iterations with the bracket "
            f"at width {b - a:.3e}, wider than the requested tolerance {tol:.3e}"
        )
    x = 0.5 * (a + b)
    return x, f(x)
