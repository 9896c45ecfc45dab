"""Shared corpus generators and independent oracles.

The oracles here re-implement definitions with plain Python loops (no
caching, no vectorization) so library results are always checked against
an independent evaluation path.
"""

import json

import numpy as np
import pytest

from jensenchain import (
    JensenInstance,
    NumericError,
    ProbabilityVector,
    get_function,
    interpolate_weight,
    rank_one_weight,
)

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


def _simpson_panel(f, a, b, fa, fm, fb, whole, tol, depth, max_depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    h = 0.5 * (b - a)
    left = h / 6.0 * (fa + 4.0 * flm + fm)
    right = h / 6.0 * (fm + 4.0 * frm + fb)
    s2 = left + right
    err = s2 - whole
    if abs(err) <= 15.0 * max(tol, 1e-16 * abs(s2)):
        return s2 + err / 15.0
    if depth >= max_depth:
        raise NumericError(
            f"adaptive Simpson did not converge on [{a}, {b}] "
            f"(residual {abs(err):.3e} at depth {depth})"
        )
    half = 0.5 * tol
    return _simpson_panel(f, a, m, fa, flm, fm, left, half, depth + 1, max_depth) + _simpson_panel(
        f, m, b, fm, frm, fb, right, half, depth + 1, max_depth
    )


def recursive_simpson(f, a, b, atol=1e-10, rtol=1e-10, max_depth=40):
    """Depth-first adaptive Simpson: one scalar f call per node, panels refined recursively.

    Same acceptance rule, tolerance halving and depth cap as the library's
    level-batched engine, written as the plain recursion it must reproduce.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    fa = f(a)
    fb = f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = max(atol, rtol * abs(whole))
    return sign * _simpson_panel(f, a, b, fa, fm, fb, whole, tol, 0, max_depth)


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
    """Report JSON built one item at a time: the layout cli.render_json must reproduce."""
    out = []
    _render_item(obj, out, 0)
    return "".join(out)


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
