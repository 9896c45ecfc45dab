"""Catalog contract tests: domains, directions, closed forms vs scipy quadrature."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from jensenchain import (
    CATALOG_NAMES,
    Interval,
    ValidationError,
    get_function,
    integral_mean,
)

from conftest import check_direction

REQUIRED = {"square", "exp", "neglog", "kyfan", "powp", "xlogx", "harmonic_frac"}

SAMPLING = {
    "square": (-3.0, 3.0),
    "exp": (-3.0, 3.0),
    "neglog": (0.05, 4.0),
    "kyfan": (0.02, 0.5),
    "powp": (0.0, 3.0),
    "xlogx": (0.05, 4.0),
    "harmonic_frac": (0.0, 5.0),
}


def _fetch(name, rng=None):
    if name == "powp":
        return get_function(name, {"p": 2.5})
    return get_function(name)


def test_catalog_contains_required_entries():
    assert REQUIRED <= set(CATALOG_NAMES)


def test_directions():
    assert get_function("harmonic_frac").direction == "concave"
    for name in REQUIRED - {"harmonic_frac"}:
        assert _fetch(name).direction == "convex"


def test_unknown_function_rejected():
    with pytest.raises(ValidationError):
        get_function("cube")


def test_powp_parameter_validation():
    with pytest.raises(ValidationError):
        get_function("powp")
    with pytest.raises(ValidationError):
        get_function("powp", {"p": 0.5})
    with pytest.raises(ValidationError):
        get_function("powp", {"p": 2.0, "q": 1.0})
    with pytest.raises(ValidationError):
        get_function("square", {"p": 2.0})


def test_closed_forms_match_scipy_quadrature(rng):
    """Independent oracle: scipy.integrate.quad on random in-domain pairs."""
    for name in sorted(REQUIRED):
        lo, hi = SAMPLING[name]
        f = _fetch(name)
        for _ in range(60):
            a = float(rng.uniform(lo, hi))
            b = float(rng.uniform(lo, hi))
            if abs(b - a) < 1e-3:
                continue
            ref, _ = quad(lambda x: float(f.evaluate(x)), a, b, epsabs=1e-12, epsrel=1e-12)
            ref /= b - a
            got = f.integral_mean(a, b)
            assert abs(got - ref) <= 1e-8 * max(1.0, abs(got), abs(ref)), name


def test_closed_forms_handle_equal_endpoints():
    for name in sorted(REQUIRED):
        f = _fetch(name)
        x = 0.4 if name == "kyfan" else 1.7
        assert f.integral_mean(x, x) == pytest.approx(float(f.evaluate(x)), rel=1e-14)


def test_evaluate_many_matches_scalar_evaluation(rng):
    for name in sorted(REQUIRED):
        lo, hi = SAMPLING[name]
        f = _fetch(name)
        xs = rng.uniform(lo if lo > 0 else lo + 1e-3, hi, 17)
        vec = f.evaluate_many(xs)
        for x, v in zip(xs, vec):
            assert v == pytest.approx(float(f.evaluate(float(x))), rel=1e-14)


def test_evaluate_many_refuses_an_evaluator_that_is_not_vectorized():
    from jensenchain import ConvexFunctionSpec

    f = ConvexFunctionSpec("scalar_only", Interval(), "convex", lambda x: 1.0)
    with pytest.raises(ValidationError, match="'scalar_only'.*not vectorized.*shape \\(3,\\) gave shape \\(\\)"):
        f.evaluate_many(np.array([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# closed forms near overflow against 50 digits: within 4 ulp, about twice the worst error
# seen on these pairs (2.1 ulp, xlogx on [1e305, 2.556e305])

DBL_MAX = sys.float_info.max
LN_MAX, SQRT_MAX, CBRT_MAX = math.log(DBL_MAX), math.sqrt(DBL_MAX), DBL_MAX ** (1.0 / 3.0)
TENTH_MAX = DBL_MAX ** 0.1 * (1.0 - 1e-12)  # DBL_MAX ** 0.1 itself rounds up
XLOGX_MAX = 2.5563481638716906e305  # x log x = DBL_MAX
ANTIDERIVATIVE = {
    "square": lambda x, mp: x ** 3 / 3,
    "exp": lambda x, mp: mp.exp(x),
    "neglog": lambda x, mp: x - x * mp.log(x),
    "kyfan": lambda x, mp: -(1 - x) * mp.log1p(-x) - x * mp.log(x),
    "xlogx": lambda x, mp: x * x * (2 * mp.log(x) - 1) / 4,
    "harmonic_frac": lambda x, mp: x - mp.log1p(x),
    "powp2": lambda x, mp: x ** 3 / 3,
    "powp3": lambda x, mp: x ** 4 / 4,
    "powp10": lambda x, mp: x ** 11 / 11,
}
NEAR_OVERFLOW_PAIRS = [
    ("exp", -10.0, 709.0),  # math.expm1(719) overflows
    ("exp", 709.0, -10.0),
    ("exp", 0.0, 709.5),
    ("exp", 700.0, LN_MAX),
    ("exp", 709.7, LN_MAX),
    ("exp", LN_MAX - 1e-6, LN_MAX),
    ("exp", -745.0, LN_MAX),
    ("exp", -1e308, 1.0),  # math.expm1(1e308) overflows
    ("square", 1e154, 1.2e154),  # a * a overflows
    ("square", 1.2e154, 1e154),
    ("square", -SQRT_MAX, SQRT_MAX),
    ("square", 0.0, SQRT_MAX),
    ("square", -1.3e154, 1e150),
    ("square", 1.34e154, SQRT_MAX),
    ("xlogx", 1e-18, 1e305),  # (hi - lo) / lo overflows
    ("xlogx", 5e-324, XLOGX_MAX),
    ("xlogx", XLOGX_MAX, 1e-300),
    ("xlogx", 1.0, XLOGX_MAX),
    ("xlogx", 1e305, XLOGX_MAX),
    ("xlogx", 2.5e305, XLOGX_MAX),
    ("xlogx", 0.99999 * XLOGX_MAX, XLOGX_MAX),  # the partial sum overflows
    ("powp2", 0.0, SQRT_MAX),
    ("powp2", 1e-300, SQRT_MAX),
    ("powp2", 0.5 * SQRT_MAX, SQRT_MAX),
    ("powp2", SQRT_MAX, 1e150),
    ("powp3", 0.0, CBRT_MAX),
    ("powp3", 1e-300, CBRT_MAX),
    ("powp3", 0.5 * CBRT_MAX, CBRT_MAX),
    ("powp3", CBRT_MAX, 1e100),
    ("powp10", TENTH_MAX / 1.2, TENTH_MAX),  # lo ** p * expm1(...) overflows
    ("powp10", 0.0, TENTH_MAX),
    ("harmonic_frac", DBL_MAX, 0.0),  # d / (1 + a) rounds to -1
    ("harmonic_frac", DBL_MAX, 1.0),
    ("harmonic_frac", DBL_MAX, 5e-324),
    ("harmonic_frac", 1e308, 1e-300),
    ("harmonic_frac", 0.0, DBL_MAX),
    ("harmonic_frac", 1.7e308, DBL_MAX),
    ("harmonic_frac", 1e3, 1e300),
    ("neglog", 1e308, DBL_MAX),
    ("neglog", 1.0, DBL_MAX),
    ("neglog", 1e-300, 1e7),
    ("kyfan", 1e-300, 0.5),
    ("kyfan", 1e-300, 1e-200),
    ("kyfan", 0.25, 0.5),
    ("neglog", 0.5, DBL_MAX),
    ("neglog", 1e-300, 1e300),
    ("neglog", 5e-324, 1.0),
    ("kyfan", 5e-324, 0.5),
]


@pytest.mark.parametrize("name, a, b", NEAR_OVERFLOW_PAIRS)
def test_closed_forms_near_overflow_against_mpmath(name, a, b):
    """Where f(a) and f(b) are finite, so is the closed-form mean, within 4 ulp of 50 digits."""
    import mpmath

    mpmath.mp.dps = 50
    f = get_function("powp", {"p": float(name[4:])}) if name.startswith("powp") else _fetch(name)
    assert math.isfinite(f.evaluate(a)) and math.isfinite(f.evaluate(b))
    got = float(f.integral_mean(np.array([a]), np.array([b]))[0])
    antiderivative = ANTIDERIVATIVE[name]
    lo, hi = mpmath.mpf(a), mpmath.mpf(b)
    ref = (antiderivative(hi, mpmath) - antiderivative(lo, mpmath)) / (hi - lo)
    assert math.isfinite(got)
    assert float(abs(mpmath.mpf(got) - ref)) <= 4 * math.ulp(float(ref))


SMALL_SEGMENT_PAIRS = [
    ("harmonic_frac", 1e-9, 2e-9),  # 1 - log1p(q) / d would cancel to 1.6e-7 relative
    ("harmonic_frac", 0.0, 1e-5),
    ("harmonic_frac", 1e-3, 0.0),
    ("harmonic_frac", 0.01, 0.010000001),
    ("harmonic_frac", 2.0, 2.001),
    ("harmonic_frac", 1e6, 1e6 + 1e-3),
    ("neglog", 1e-10, 2e-10),
    ("kyfan", 1e-10, 2e-10),
]


@pytest.mark.parametrize("name, a, b", SMALL_SEGMENT_PAIRS)
def test_closed_forms_on_short_or_small_segments_against_mpmath(name, a, b):
    """Segments short against 1 or with small ends: the closed-form mean within 4 ulp of 50
    digits, as integral_mean's relative band hands such segments to it."""
    import mpmath

    mpmath.mp.dps = 50
    got = float(_fetch(name).integral_mean(np.array([a]), np.array([b]))[0])
    lo, hi = mpmath.mpf(a), mpmath.mpf(b)
    ref = (ANTIDERIVATIVE[name](hi, mpmath) - ANTIDERIVATIVE[name](lo, mpmath)) / (hi - lo)
    assert float(abs(mpmath.mpf(got) - ref)) <= 4 * math.ulp(float(ref))


def test_harmonic_frac_mean_on_small_ends_at_moderate_q_against_mpmath():
    """Lower end in [1e-9, 1), q = (hi - lo) / (1 + lo) in (1e-3, 1], either order: both
    1 - log1p(q) / d and 1 - log1p(q) / q cancel there (the first by 2048 ulp near
    [1.165e-7, 1.359e-3]); the mean stays within 4 ulp of 50 digits."""
    import mpmath

    mpmath.mp.dps = 50
    rng = np.random.default_rng(11)
    lo = np.exp(rng.uniform(math.log(1e-9), 0.0, 2000))
    hi = lo + 10.0 ** rng.uniform(-3.0, 0.0, lo.size) * (1.0 + lo)
    a, b = np.where(rng.random(lo.size) < 0.5, (lo, hi), (hi, lo))
    a, b = np.append(a, [0.9e-3, 1.165e-7]), np.append(b, [2e-3, 1.359e-3])
    got = _fetch("harmonic_frac").integral_mean(a, b)
    for x, y, g in zip(a.tolist(), b.tolist(), got.tolist()):
        lo_m, hi_m = mpmath.mpf(x), mpmath.mpf(y)
        ref = 1 - (mpmath.log1p(hi_m) - mpmath.log1p(lo_m)) / (hi_m - lo_m)
        assert float(abs(mpmath.mpf(g) - ref)) <= 4 * math.ulp(float(ref)), (x, y)


# ---------------------------------------------------------------------------
# every closed form on batches that span its regimes, against 50 digits


def _powp_top(p):
    return DBL_MAX ** (1.0 / p) * (1.0 - 1e-12)  # the largest x with x ** p finite, or just under


# label -> (spec, bottom, top, f and an antiderivative in mpmath, ulp): the points where f is
# finite run from bottom to top; every value is within ulp units in the last place of
# max(1, |A|)
CLOSED_FORMS = {
    "square": (get_function("square"), -SQRT_MAX, SQRT_MAX, lambda x, mp: x * x,
               ANTIDERIVATIVE["square"], 4),
    "exp": (get_function("exp"), -1e308, LN_MAX, lambda x, mp: mp.exp(x),
            ANTIDERIVATIVE["exp"], 4),
    "neglog": (get_function("neglog"), 5e-324, DBL_MAX, lambda x, mp: -mp.log(x),
               ANTIDERIVATIVE["neglog"], 4),
    "kyfan": (get_function("kyfan"), 5e-324, 0.5, lambda x, mp: mp.log1p(-x) - mp.log(x),
              ANTIDERIVATIVE["kyfan"], 4),
    "xlogx": (get_function("xlogx"), 5e-324, XLOGX_MAX, lambda x, mp: x * mp.log(x),
              ANTIDERIVATIVE["xlogx"], 4),
    "harmonic_frac": (get_function("harmonic_frac"), 0.0, DBL_MAX, lambda x, mp: x / (1 + x),
                      ANTIDERIVATIVE["harmonic_frac"], 4),
    **{
        f"powp{p:g}": (get_function("powp", {"p": p}), 0.0, _powp_top(p),
                       lambda x, mp, p=p: x ** p, lambda x, mp, p=p: x ** (p + 1) / (p + 1),
                       p + 4)  # m ** p rounds by p ulp
        for p in (1.0, 2.5, 20.0, 1e5)
    },
}
REGIMES = ("equal", "band", "series", "direct", "overflow")


def _point(rng, bottom, top):
    """A point of [bottom, top]: in [-3, 3] or [0.05, 4] half the time, else spread over the
    magnitudes of the whole range."""
    if rng.random() < 0.5:
        x = rng.uniform(-3.0, 3.0) if bottom < 0.0 else rng.uniform(0.05, 4.0)
    elif bottom < 0.0:
        x = rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(-40.0, math.log(max(-bottom, top))))
    else:
        x = math.exp(rng.uniform(math.log(max(bottom, 1e-300)), math.log(top)))
    return min(max(x, bottom), top)


def _segment(rng, regime, bottom, top):
    """(a, b) in a regime: equal ends, a relative gap inside the 1e-8 band (down to one ulp),
    a gap past it up to 20%, independent ends, or one end next to the top of the range."""
    a = _point(rng, bottom, top)
    if regime == "equal":
        b = a
    elif regime in ("band", "series"):
        low, high = (-16.0, -8.0) if regime == "band" else (-8.0, -0.7)
        b = a * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(low, high))
    elif regime == "direct":
        b = _point(rng, bottom, top)
    else:
        b = top * (1.0 - 10.0 ** rng.uniform(-15.0, -0.5))
    b = min(max(b, bottom), top)
    return (a, b) if rng.random() < 0.5 else (b, a)


@st.composite
def closed_form_batches(draw):
    label = draw(st.sampled_from(sorted(CLOSED_FORMS)))
    regimes = draw(st.lists(st.sampled_from(REGIMES), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bottom, top = CLOSED_FORMS[label][1:3]
    a, b = np.array([_segment(rng, r, bottom, top) for r in regimes]).T
    return label, a, b


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(closed_form_batches())
def test_closed_forms_on_regime_batches_against_mpmath(drawn):
    """A batch equals its segments one at a time bit for bit, integral_mean hands every segment
    to the closed form, and each value is within a few ulp of max(1, |A|) from 50 digits: that
    floor is the chain tolerance's, so the zeros of xlogx and kyfan are not relative blow-ups."""
    import mpmath

    mpmath.mp.dps = 50
    label, a, b = drawn
    f, _, _, f_mp, antiderivative, ulps = CLOSED_FORMS[label]
    got = f.integral_mean(a, b)
    one_by_one = np.array([float(f.integral_mean(x, y)) for x, y in zip(a, b)])
    assert np.array_equal(got.view(np.int64), one_by_one.view(np.int64))
    assert np.array_equal(integral_mean(f, a, b).view(np.int64), got.view(np.int64))
    for x, y, g in zip(a.tolist(), b.tolist(), got.tolist()):
        mx, my = mpmath.mpf(x), mpmath.mpf(y)
        if x == y:
            ref = f_mp(mx, mpmath)
        else:
            ref = (antiderivative(my, mpmath) - antiderivative(mx, mpmath)) / (my - mx)
        bound = ulps * math.ulp(max(1.0, abs(float(ref))))
        assert float(abs(mpmath.mpf(g) - ref)) <= bound, (label, x, y, g, float(ref))


def test_direction_spot_check_passes_for_catalog():
    for name in sorted(REQUIRED):
        assert check_direction(_fetch(name), trials=300, seed=5)


def test_direction_spot_check_catches_mislabel():
    wrong = get_function("harmonic_frac").with_direction("convex")
    assert not check_direction(wrong, trials=300, seed=5)
    wrong2 = get_function("square").with_direction("concave")
    assert not check_direction(wrong2, trials=300, seed=5)


def test_with_direction_rejects_garbage():
    with pytest.raises(ValidationError):
        get_function("square").with_direction("sideways")


def test_interval_membership():
    iv = Interval(0.0, 0.5, lo_open=True)
    assert iv.contains(0.5)
    assert iv.contains(1e-9)
    assert not iv.contains(0.0)
    assert not iv.contains(0.5000001)
    # slack widens the closed endpoint only
    assert iv.contains(0.5 + 1e-13, slack=1e-12)
    assert not iv.contains(-1e-13, slack=1e-12)
    assert Interval().contains(-1e300)
    assert not Interval(0.0, math.inf).contains(-1e-300)


def test_interval_segment_membership():
    iv = Interval(0.0, math.inf, lo_open=True)
    assert iv.contains_segment(0.1, 5.0)
    assert not iv.contains_segment(0.0, 5.0)
