"""Numerical routines: level-batched adaptive Gauss-Kronrod quadrature, golden-section search.

Both are deliberately plain: the integrands in this package are smooth
convex/concave functions on bounded intervals, and the objective of the
1-D search is convex (possibly flat).  The quadrature applies QUADPACK's
7/15-point Gauss-Kronrod pair to each panel and, as QUADPACK's QAG does,
holds the panels to one error budget for the whole interval, summed
exactly with math.fsum (R. Piessens et al., QUADPACK, Springer 1983); it
hands each depth's nodes to a vectorized integrand at once (W. Gander and
W. Gautschi, "Adaptive quadrature - revisited", BIT 40, 2000).
adaptive_simpson is the one quadrature routine: it takes vectorized
integrands only, and keeps the name of the adaptive Simpson rule it
replaced, under which the package and the benchmark's tracer bind it.
"""

import math

import numpy as np

from .errors import NumericError, ValidationError

QUAD_ATOL = 1e-10
QUAD_RTOL = 1e-10
QUAD_MAX_DEPTH = 40
QUAD_MAX_EVALS = 100_000  # integrand nodes per integral
# float64 values one block of array work may materialise: the nodes of one integrand call
# times the values phi takes at a node, the rows of a grid phi evaluates at once (one row where
# a row is wider), the segments of one integral_mean block, and the values of one block that
# gridtext decodes or encodes
QUAD_BATCH_VALUES = 2 ** 14

# QUADPACK's dqk15 on [-1, 1]: the positive Kronrod nodes and their weights, the centre last,
# and the weights of the 7-point Gauss rule on every other of those nodes
_KRONROD_X = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_KRONROD_W = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_GAUSS_W = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
# the 15 nodes in ascending order, and per node its (Kronrod, Gauss) weight pair
_NODES = np.array([-x for x in _KRONROD_X[:7]] + list(reversed(_KRONROD_X)))
_WEIGHTS = np.array([
    _KRONROD_W[:7] + _KRONROD_W[::-1],
    (0.0, _GAUSS_W[0], 0.0, _GAUSS_W[1], 0.0, _GAUSS_W[2], 0.0, _GAUSS_W[3],
     0.0, _GAUSS_W[2], 0.0, _GAUSS_W[1], 0.0, _GAUSS_W[0], 0.0),
]).T[:, :, None]
# a panel whose two rules differ by no more than rounding of its sum is accepted
_ROUNDING = 4.0 * math.ulp(1.0)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _evaluate(fv, ts, chunk):
    parts = []
    for start in range(0, ts.size, chunk):
        values = np.asarray(fv(ts[start:start + chunk]), dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            # such a node fails every panel that holds it, so the integral cannot converge
            k = int(np.argmin(finite))
            raise NumericError(
                f"adaptive quadrature: integrand is {float(values[k])} "
                f"at t={float(ts[start + k])}"
            )
        parts.append(values)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _panel_sums(values):
    """(Kronrod, Gauss) weighted sums of each row of 15 node values, shape (2, rows).

    Each panel's 15 terms are added pairwise in one fixed order (term i
    takes term i + 8, then i + 4, i + 2 and i + 1), elementwise across
    panels, so a panel's sums do not depend on the panels beside it.
    """
    terms = _WEIGHTS * values.T[:, None, :]
    terms[:7] += terms[8:]
    terms[:4] += terms[4:8]
    terms[:2] += terms[2:4]
    return terms[0] + terms[1]


def adaptive_simpson(fv, a, b, atol=QUAD_ATOL, rtol=QUAD_RTOL, width=1):
    """Integrate over [a, b] by adaptive 7/15-point Gauss-Kronrod quadrature.

    fv maps a 1-D array of nodes to the array of integrand values there.
    The panels are refined level by level: at each depth the 15 Kronrod
    nodes c + hl * x_k (centre c, half-length hl) of every live panel go
    to fv together, in ascending order and in calls of at most
    max(1, QUAD_BATCH_VALUES // width) nodes, where width is the number
    of float64 values fv materialises per node.  No node is an end of a
    panel.

    A panel's estimate is the Kronrod sum K = hl * sum_k w_k f_k, and its
    residual |K - G|, G the 7-point Gauss sum over the same values, or 0
    where that is within a few ulps of |K|.  The tolerance is the larger
    of atol and rtol times the whole-interval K, one budget for the whole
    interval: the integral is the math.fsum of every panel's K once the
    math.fsum of their residuals is within it (QUADPACK's global test).
    Until then a panel is split in two while its residual exceeds its
    length's share of the tolerance.  Raises NumericError when a panel at
    depth QUAD_MAX_DEPTH is still over its share (the leftmost is named),
    when the integral would need more than QUAD_MAX_EVALS nodes (15 per
    panel), when a sum passes the largest float, or at the first NaN or
    infinite integrand value.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    sign = math.copysign(1.0, b - a)
    a, b = min(a, b), max(a, b)
    chunk = max(1, QUAD_BATCH_VALUES // width)
    lo, hi = np.array([a]), np.array([b])
    kept, kept_err = [], []  # estimates and residuals of the panels split no further
    evals = 0
    depth = 0
    while True:
        if evals + _NODES.size * lo.size > QUAD_MAX_EVALS:
            raise NumericError(
                f"adaptive quadrature exceeded its budget of {QUAD_MAX_EVALS} integrand "
                f"evaluations on [{a}, {b}] (at depth {depth})"
            )
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        ts = (mid[:, None] + half[:, None] * _NODES).reshape(-1)
        values = _evaluate(fv, ts, chunk)
        evals += ts.size
        kronrod, gauss = _panel_sums(values.reshape(lo.size, _NODES.size)) * half
        if depth == 0:
            tol = max(atol, rtol * abs(float(kronrod[0])))
        err = np.abs(kronrod - gauss)
        err[err <= _ROUNDING * np.abs(kronrod)] = 0.0
        over = ~(err <= math.ldexp(tol, -depth))
        try:
            # with no panel over its share the sum is within tol, unless shares round up as subnormals
            if not over.any() or math.fsum(kept_err + err.tolist()) <= tol:
                return sign * math.fsum(kept + kronrod.tolist())
        except OverflowError as exc:
            raise NumericError(f"adaptive quadrature: a sum over the panels of [{a}, {b}] "
                               f"passes the largest float (at depth {depth})") from exc
        if depth >= QUAD_MAX_DEPTH:
            k = int(np.argmax(over))
            raise NumericError(
                f"adaptive quadrature did not converge on [{float(lo[k])}, {float(hi[k])}] "
                f"(residual {float(err[k]):.3e} at depth {depth})"
            )
        kept += kronrod[~over].tolist()
        kept_err += err[~over].tolist()
        lo, mid, hi = lo[over], mid[over], hi[over]
        lo, hi = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()
        depth += 1


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
