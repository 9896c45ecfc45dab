"""Shared corpus generators and independent oracles.

The oracles here re-implement definitions with plain Python loops (no
caching, no vectorization) so library results are always checked against
an independent evaluation path.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import settings

from jensenchain import (
    JensenInstance,
    NumericError,
    ProbabilityVector,
    ValidationError,
    get_function,
    interpolate_weight,
    rank_one_weight,
)
from jensenchain.means import EPS_DEG
from jensenchain.numerics import adaptive_simpson

# a larger example budget, for CI runs of the decoder's grammar-driven differential and its
# quotient test, the encoder's and the quadrature's differential tests, the grid validation
# messages, the application rows, the special means, the catalog closed forms, phi's one value
# at each t and the near-overflow CLI properties (--hypothesis-profile=ci);
# tests/test_decoder.py, tests/test_render.py, tests/test_numerics.py, tests/test_measures.py,
# tests/test_apps.py, tests/test_means.py, tests/test_functions.py, tests/test_refine.py and
# tests/test_cli_contract.py read it
settings.register_profile("ci", max_examples=4000)

# sampling ranges keeping every point strictly inside each catalog domain
FUN_RANGES = {
    "square": (-2.0, 2.0),
    "exp": (-2.0, 2.0),
    "neglog": (0.05, 3.0),
    "kyfan": (0.02, 0.5),
    "powp": (0.0, 2.0),
    "xlogx": (0.05, 3.0),
    "harmonic_frac": (0.0, 4.0),
}


def rand_prob(rng, n):
    w = rng.random(n) + 1e-3
    return ProbabilityVector(w / w.sum())


def rand_weight(rng, mu, lam):
    w = rank_one_weight(rng.standard_normal(len(mu)), rng.standard_normal(len(lam)), mu, lam)
    extra = rank_one_weight(rng.standard_normal(len(mu)), rng.standard_normal(len(lam)), mu, lam)
    return interpolate_weight(w, extra, float(rng.random()))


def make_instance(rng, name, n_max=8, m_max=8):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    lam = rand_prob(rng, n)
    mu = rand_prob(rng, m)
    lo, hi = FUN_RANGES[name]
    pts = rng.uniform(lo, hi, n)
    params = {"p": float(rng.choice([1.0, 1.5, 2.0, 3.0]))} if name == "powp" else None
    f = get_function(name, params)
    w1 = rand_weight(rng, mu, lam)
    w2 = rand_weight(rng, mu, lam)
    return JensenInstance(f=f, points=pts, lam=lam, mu=mu, w1=w1, w2=w2)


def direct_phi(inst, t):
    """Definition of phi evaluated with explicit loops; independent of the engine."""
    total = 0.0
    m, n = inst.w1.shape
    for i in range(m):
        inner = 0.0
        for j in range(n):
            wij = (1.0 - t) * inst.w1.values[i, j] + t * inst.w2.values[i, j]
            inner += wij * inst.lam.weights[j] * inst.points[j]
        total += inst.mu.weights[i] * float(inst.f.evaluate(inner))
    return total


# QUADPACK's 7/15-point Gauss-Kronrod pair on [-1, 1], written out here from the published
# tables: the 15 Kronrod nodes in ascending order, their weights, and the Gauss weights (0 on
# the 8 nodes that only the Kronrod rule uses)
_GK_POSITIVE = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
GK_NODES = tuple(-x for x in _GK_POSITIVE) + (0.0,) + _GK_POSITIVE[::-1]
_GK_KRONROD = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
GK_KRONROD_W = _GK_KRONROD + (0.209482141084727828012999174891714,) + _GK_KRONROD[::-1]
_GK_GAUSS = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
GK_GAUSS_W = (
    0.0, _GK_GAUSS[0], 0.0, _GK_GAUSS[1], 0.0, _GK_GAUSS[2], 0.0,
    0.417959183673469387755102040816327,
    0.0, _GK_GAUSS[2], 0.0, _GK_GAUSS[1], 0.0, _GK_GAUSS[0], 0.0,
)


def _pairwise_sum(terms):
    """Term i takes term i + 8, then i + 4, i + 2 and i + 1: 15 terms in a fixed order."""
    terms = list(terms)
    for step in (8, 4, 2, 1):
        for i in range(len(terms) - step):
            terms[i] += terms[i + step]
        del terms[step:]
    return terms[0]


def gk_panel(f, a, b):
    """(Kronrod estimate, residual) on [a, b], one scalar f call per node; the residual |K - G|
    is 0 within rounding of |K|."""
    c = 0.5 * (a + b)
    hl = 0.5 * (b - a)
    values = []
    for x in GK_NODES:
        t = c + hl * x
        v = float(f(t))
        if not math.isfinite(v):
            raise NumericError(f"adaptive quadrature: integrand is {v} at t={t}")
        values.append(v)
    kronrod = hl * _pairwise_sum(w * v for w, v in zip(GK_KRONROD_W, values))
    gauss = hl * _pairwise_sum(w * v for w, v in zip(GK_GAUSS_W, values))
    err = abs(kronrod - gauss)
    return kronrod, 0.0 if err <= 4.0 * 2.0 ** -52 * abs(kronrod) else err


def scalar(f):
    """The scalar integrand f as the vectorized one adaptive_simpson takes: one f call per node."""
    return lambda ts: [f(t) for t in ts.tolist()]


def gauss_kronrod_oracle(f, a, b, atol=1e-10, rtol=1e-10, max_depth=40):
    """Adaptive G7/K15 quadrature as a plain level loop: one scalar f call per node, left to right.

    The tolerance is max(atol, rtol * |K|) of the whole interval.  The loop
    returns the fsum of every panel's estimate once the fsum of their
    residuals is within it; until then each panel at depth d whose residual
    exceeds 2**-d times the tolerance is split in two.  Same rule, depth cap
    and messages as the library's level-batched engine, without its batches
    and node budget.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    done = []  # (estimate, residual) of each panel split no further
    level = [(a, b, *gk_panel(f, a, b))]
    tol = max(atol, rtol * abs(level[0][2]))
    depth = 0
    while True:
        share = tol * 0.5 ** depth
        over = [panel for panel in level if not panel[3] <= share]
        panels = done + [panel[2:] for panel in level]
        if not over or math.fsum(err for _, err in panels) <= tol:
            return sign * math.fsum(kronrod for kronrod, _ in panels)
        if depth >= max_depth:
            lo, hi, _, err = over[0]
            raise NumericError(
                f"adaptive quadrature did not converge on [{lo}, {hi}] "
                f"(residual {err:.3e} at depth {depth})"
            )
        done += [panel[2:] for panel in level if panel[3] <= share]
        level = []
        for lo, hi, _, _ in over:
            m = 0.5 * (lo + hi)
            level += [(lo, m, *gk_panel(f, lo, m)), (m, hi, *gk_panel(f, m, hi))]
        depth += 1


def _render_item(obj, out, indent):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for k, (key, val) in enumerate(items):
            out.append(f'{pad}  {json.dumps(str(key))}: ')
            _render_item(val, out, indent + 1)
            out.append(",\n" if k + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for k, val in enumerate(seq):
            out.append(pad + "  ")
            _render_item(val, out, indent + 1)
            out.append(",\n" if k + 1 < len(seq) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(f"{float(obj):.17g}")
    elif obj is None:
        out.append("null")
    else:
        out.append(json.dumps(str(obj)))


def recursive_render(obj):
    """Report JSON built one item at a time: the layout gridtext.render_json must reproduce."""
    out = []
    _render_item(obj, out, 0)
    return "".join(out)


def _where_pair(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.broadcast_arrays(a, b)


def where_ln_identric(a, b):
    """ln of the identric mean with both forms computed everywhere, picked by np.where."""
    a, b = _where_pair(a, b)
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


def where_log_mean(a, b):
    """Logarithmic mean with both forms computed everywhere, picked by np.where."""
    a, b = _where_pair(a, b)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    d = hi - lo
    near = d <= EPS_DEG * hi

    m = 0.5 * (lo + hi)
    u = np.where(near, d / (lo + hi), 0.0)
    u2 = u * u
    series = m / (1.0 + u2 * (1.0 / 3.0 + u2 * (1.0 / 5.0 + u2 / 7.0)))

    lo_safe = np.where(near, 1.0, lo)
    d_safe = np.where(near, 1.0, d)
    closed = d_safe / np.log1p(d_safe / lo_safe)

    return np.where(near, series, closed)


def where_pow_integral_mean(a, b, p):
    """A(t^p; a, b) with all four regimes computed everywhere, picked by nested np.where.

    The formulas the library's block kernel must reproduce element by
    element; this version holds about 18 full-size temporaries at once.
    """
    a, b = _where_pair(a, b)
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


def scalar_integral_mean(f, a, b):
    """A(f; a, b) for one segment, with a Python-float domain check: the closed form when f has
    one, else f at the midpoint in the relative band and quadrature outside it."""
    a = float(a)
    b = float(b)
    lo, hi = (a, b) if a <= b else (b, a)
    slack = 1e-12 * max(1.0, abs(a), abs(b))
    if not f.domain.contains_segment(lo, hi, slack):
        raise ValidationError(
            f"segment [{lo}, {hi}] is not inside the domain of {f.name} ({f.domain})"
        )
    if f.integral_mean is not None:
        return float(f.integral_mean(a, b))
    if hi - lo <= EPS_DEG * max(abs(a), abs(b)):
        mid = 0.5 * (a + b)
        if not math.isfinite(mid):  # a + b overflows near DBL_MAX
            mid = 0.5 * a + 0.5 * b
        # evaluated as an array, as the library evaluates f: numpy's array power can differ
        # from the scalar one by an ulp
        return float(f.evaluate_many(np.array([mid]))[0])
    total = adaptive_simpson(f.evaluate_many, lo, hi)
    return total / (hi - lo)


def check_direction(f, trials=200, seed=0, span=(-8.0, 8.0)):
    """Midpoint spot-check of the declared curvature on random in-domain pairs.

    Not a proof; it samples f((x+y)/2) against (f(x)+f(y))/2 and returns
    False on any violation beyond rounding.
    """
    lo = max(f.domain.lo, span[0])
    hi = min(f.domain.hi, span[1])
    if f.domain.lo_open:
        lo = lo + 1e-6 * max(1.0, abs(lo))
    if f.domain.hi_open:
        hi = hi - 1e-6 * max(1.0, abs(hi))
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, trials)
    y = rng.uniform(lo, hi, trials)
    fx = f.evaluate_many(x)
    fy = f.evaluate_many(y)
    fmid = f.evaluate_many(0.5 * (x + y))
    scale = np.maximum(1.0, np.maximum(np.abs(fx), np.abs(fy)))
    gap = 0.5 * (fx + fy) - fmid
    if f.is_convex:
        return bool(np.all(gap >= -1e-12 * scale))
    return bool(np.all(gap <= 1e-12 * scale))


def loop_phi_integral_closed(inst):
    """mu-weighted sum of per-row integral means, one scalar call per row, added in order."""
    return float(
        sum(
            mi * scalar_integral_mean(inst.f, a, b)
            for mi, a, b in zip(inst.mu.weights, inst.s1, inst.s2)
        )
    )


def ksum_matrix_power_middle(b, c, p):
    """(1/(p+1)) sum_ij sum_k b_ij^k c_ij^(p-k): the polynomial expansion of sum_ij L_p^p,
    one full-matrix power pair per k, for integer p >= 1."""
    bv = b.values
    cv = c.values
    total = 0.0
    for k in range(p + 1):
        total += float(np.sum(bv ** k * cv ** (p - k)))
    return total / (p + 1)


def composite_midpoint(g, n_panels=64):
    h = 1.0 / n_panels
    return h * sum(g((k + 0.5) * h) for k in range(n_panels))


def composite_trapezoid(g, n_panels=64):
    h = 1.0 / n_panels
    total = 0.5 * (g(0.0) + g(1.0))
    total += sum(g(k * h) for k in range(1, n_panels))
    return total * h


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
