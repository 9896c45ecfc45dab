"""Unit and property tests for the special means and the integral mean."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jensenchain import (
    EPS_DEG,
    ConvexFunctionSpec,
    ValidationError,
    get_function,
    identric,
    integral_mean,
    logarithmic,
    p_logarithmic,
)
from jensenchain import means
from jensenchain.means import ln_identric, log_mean, pow_integral_mean
from jensenchain.numerics import QUAD_BATCH_VALUES, adaptive_simpson
from conftest import (
    FUN_RANGES,
    scalar_integral_mean,
    where_ln_identric,
    where_log_mean,
    where_pow_integral_mean,
)

E = math.e

positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# frozen examples


def test_identric_equal_arguments():
    assert identric(3.0, 3.0) == 3.0


def test_identric_one_two():
    assert identric(1.0, 2.0) == pytest.approx(4.0 / E, rel=1e-12)


def test_identric_one_e():
    assert identric(1.0, E) == pytest.approx(math.exp(1.0 / (E - 1.0)), rel=1e-12)


def test_logarithmic_equal_arguments():
    assert logarithmic(5.0, 5.0) == 5.0


def test_logarithmic_one_e():
    assert logarithmic(1.0, E) == pytest.approx(E - 1.0, rel=1e-12)


def test_logarithmic_one_two():
    assert logarithmic(1.0, 2.0) == pytest.approx(1.0 / math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("c,p", [(0.0, 1.0), (0.5, 2.0), (3.0, 1.5), (7.0, 6.0)])
def test_p_logarithmic_equal_arguments(c, p):
    assert p_logarithmic(c, c, p) == c


def test_p_logarithmic_reduces_to_arithmetic_mean_at_p_one():
    assert p_logarithmic(0.0, 2.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_p_logarithmic_zero_one_two():
    assert p_logarithmic(0.0, 1.0, 2.0) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)


def test_p_logarithmic_zero_left_endpoint():
    # regular formula at a = 0: b / (p+1)^(1/p)
    for p in (1.0, 2.0, 3.5):
        assert p_logarithmic(0.0, 2.0, p) == pytest.approx(2.0 / (p + 1.0) ** (1.0 / p), rel=1e-12)


def test_integral_mean_square():
    f = get_function("square")
    assert integral_mean(f, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_integral_mean_coincident_endpoints():
    f = get_function("square")
    assert integral_mean(f, 2.0, 2.0) == 4.0


def test_integral_mean_neglog():
    f = get_function("neglog")
    assert integral_mean(f, 1.0, E) == pytest.approx(-1.0 / (E - 1.0), rel=1e-12)


def test_integral_mean_orientation_symmetry():
    f = get_function("exp")
    assert integral_mean(f, -1.0, 2.0) == pytest.approx(integral_mean(f, 2.0, -1.0), rel=1e-14)


def test_integral_mean_degenerate_band_returns_midpoint_value():
    f = get_function("square")
    a, b = 2.0, 2.0 + 1e-12
    assert integral_mean(f, a, b) == f.evaluate(0.5 * (a + b))


@pytest.mark.parametrize("a, b", [(1e-10, 2e-10), (1e-7, 1.05e-7), (1e-3, 1.000005e-3)])
def test_integral_mean_band_is_relative_for_small_points(a, b):
    """Segments within 1e-8 in absolute size but not relative to their ends take the closed
    form: for neglog the midpoint value would be off by the curvature 1/x^2."""
    f = get_function("neglog")
    assert integral_mean(f, a, b) == -float(ln_identric(a, b))
    assert integral_mean(f, np.array([a]), np.array([b]))[0] == -float(ln_identric(a, b))


# ---------------------------------------------------------------------------
# error contracts


@pytest.mark.parametrize("a,b", [(-1.0, 2.0), (0.0, 1.0), (1.0, 0.0)])
def test_identric_rejects_nonpositive(a, b):
    with pytest.raises(ValidationError):
        identric(a, b)


@pytest.mark.parametrize("a,b", [(-1.0, 2.0), (0.0, 1.0)])
def test_logarithmic_rejects_nonpositive(a, b):
    with pytest.raises(ValidationError):
        logarithmic(a, b)


def test_p_logarithmic_rejects_bad_p_and_negatives():
    with pytest.raises(ValidationError):
        p_logarithmic(1.0, 2.0, 0.5)
    with pytest.raises(ValidationError):
        p_logarithmic(-0.1, 2.0, 2.0)


def test_integral_mean_rejects_domain_violation():
    f = get_function("neglog")
    with pytest.raises(ValidationError):
        integral_mean(f, -1.0, 2.0)


# ---------------------------------------------------------------------------
# oracles: raw textbook forms at well-separated arguments, and quadrature


def _raw_identric(a, b):
    return (b ** b / a ** a) ** (1.0 / (b - a)) / E


def _raw_logarithmic(a, b):
    return (b - a) / (math.log(b) - math.log(a))


def _raw_plog(a, b, p):
    return ((b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))) ** (1.0 / p)


def test_means_match_textbook_forms_when_separated(rng):
    for _ in range(300):
        a = float(rng.uniform(0.1, 5.0))
        b = a * float(rng.uniform(1.2, 3.0))
        assert identric(a, b) == pytest.approx(_raw_identric(a, b), rel=1e-12)
        assert logarithmic(a, b) == pytest.approx(_raw_logarithmic(a, b), rel=1e-12)
        p = float(rng.uniform(1.0, 5.0))
        assert p_logarithmic(a, b, p) == pytest.approx(_raw_plog(a, b, p), rel=1e-12)


def test_identric_matches_quadrature_of_log(rng):
    for _ in range(50):
        a = float(rng.uniform(0.2, 4.0))
        b = float(rng.uniform(0.2, 4.0))
        if a == b:
            continue
        quad = adaptive_simpson(np.log, min(a, b), max(a, b)) / abs(b - a)
        assert identric(a, b) == pytest.approx(math.exp(quad), rel=1e-10)


def test_integral_mean_closed_forms_match_quadrature(rng):
    # 1000 random in-domain pairs spread over the whole catalog
    names = ["square", "exp", "neglog", "kyfan", "powp", "xlogx", "harmonic_frac"]
    ranges = {
        "square": (-3.0, 3.0),
        "exp": (-3.0, 3.0),
        "neglog": (0.05, 4.0),
        "kyfan": (0.02, 0.5),
        "powp": (0.0, 3.0),
        "xlogx": (0.05, 4.0),
        "harmonic_frac": (0.0, 5.0),
    }
    count = 0
    while count < 1000:
        name = names[count % len(names)]
        lo, hi = ranges[name]
        a = float(rng.uniform(lo, hi))
        b = float(rng.uniform(lo, hi))
        params = {"p": float(rng.choice([1.0, 1.5, 2.0, 3.0]))} if name == "powp" else None
        f = get_function(name, params)
        closed = integral_mean(f, a, b)
        if a == b:
            continue
        quad = adaptive_simpson(f.evaluate_many, min(a, b), max(a, b)) / abs(b - a)
        assert abs(closed - quad) <= 1e-8 * max(1.0, abs(closed), abs(quad))
        count += 1


def test_integral_mean_quadrature_fallback_agrees_with_closed_form():
    from jensenchain import ConvexFunctionSpec, Interval

    f = get_function("exp")
    bare = ConvexFunctionSpec("exp_open", Interval(), "convex", np.exp)
    assert integral_mean(bare, -1.0, 2.0) == pytest.approx(integral_mean(f, -1.0, 2.0), rel=1e-10)


# ---------------------------------------------------------------------------
# invariants


@given(a=positive, b=positive)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_symmetry_and_betweenness(a, b):
    for mean in (identric, logarithmic):
        v = mean(a, b)
        assert v == pytest.approx(mean(b, a), rel=1e-12)
        assert min(a, b) * (1 - 1e-12) <= v <= max(a, b) * (1 + 1e-12)
    v = p_logarithmic(a, b, 2.5)
    assert v == pytest.approx(p_logarithmic(b, a, 2.5), rel=1e-12)
    assert min(a, b) * (1 - 1e-12) <= v <= max(a, b) * (1 + 1e-12)


@given(a=positive, b=positive, t=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_positive_homogeneity(a, b, t):
    assert identric(t * a, t * b) == pytest.approx(t * identric(a, b), rel=1e-12)
    assert logarithmic(t * a, t * b) == pytest.approx(t * logarithmic(a, b), rel=1e-12)
    assert p_logarithmic(t * a, t * b, 3.0) == pytest.approx(
        t * p_logarithmic(a, b, 3.0), rel=1e-12
    )


@given(a=positive, b=positive)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_classical_mean_chain(a, b):
    # geometric <= logarithmic <= identric <= arithmetic (classical ordering)
    g = math.sqrt(a * b)
    l = logarithmic(a, b)
    i = identric(a, b)
    m = 0.5 * (a + b)
    tol = 1e-12 * max(1.0, m)
    assert g <= l + tol
    assert l <= i + tol
    assert i <= m + tol


def test_integral_mean_stays_between_function_extremes(rng):
    for name in ("square", "exp", "neglog", "harmonic_frac"):
        lo, hi = {"square": (-2, 2), "exp": (-2, 2), "neglog": (0.1, 3), "harmonic_frac": (0, 4)}[
            name
        ]
        f = get_function(name)
        for _ in range(100):
            a = float(rng.uniform(lo, hi))
            b = float(rng.uniform(lo, hi))
            xs = np.linspace(min(a, b), max(a, b), 101)
            vals = f.evaluate_many(xs)
            v = integral_mean(f, a, b)
            span = max(1.0, float(vals.max() - vals.min()))
            assert vals.min() - 1e-9 * span <= v <= vals.max() + 1e-9 * span


# ---------------------------------------------------------------------------
# branch consistency across the degenerate band


def test_branch_consistency_on_overlap_band(rng):
    """Closed form and series branch agree to 1e-10 relative where both apply.

    The band separations |b - a| in [EPS_DEG, 10*EPS_DEG] * max(1, |a|, |b|)
    mostly fall on the closed-form side of the switch, so the library value
    is the closed form and the series is recomputed here independently.
    """
    for _ in range(400):
        scale = float(rng.uniform(0.5, 50.0))
        a = scale
        delta = float(rng.uniform(1.0, 10.0)) * EPS_DEG * max(1.0, scale)
        b = a + delta
        m = 0.5 * (a + b)
        u = (b - a) / (a + b)
        u2 = u * u

        lib_I = math.exp(float(ln_identric(a, b)))
        series_I = m * math.exp(-u2 * (1 / 6 + u2 * (1 / 20 + u2 / 42)))
        assert abs(lib_I - series_I) <= 1e-10 * m

        lib_L = float(log_mean(a, b))
        series_L = m / (1 + u2 * (1 / 3 + u2 * (1 / 5 + u2 / 7)))
        assert abs(lib_L - series_L) <= 1e-10 * m

        p = float(rng.uniform(1.0, 4.0))
        c2 = p * (p - 1) / 6
        c4 = c2 * (p - 2) * (p - 3) / 20
        lib_P = float(pow_integral_mean(a, b, p))
        series_P = m ** p * (1 + u2 * (c2 + u2 * c4))
        assert abs(lib_P - series_P) <= 1e-10 * max(1.0, m ** p)


def test_mean_branches_against_high_precision_oracle():
    """Either side of the branch switch matches a 50-digit reference to 1e-13."""
    import mpmath

    mpmath.mp.dps = 50

    def ref_identric(a, b):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        return float(mpmath.exp((b * mpmath.log(b) - a * mpmath.log(a)) / (b - a) - 1))

    def ref_logarithmic(a, b):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        return float((b - a) / (mpmath.log(b) - mpmath.log(a)))

    def ref_plog(a, b, p):
        a, b, p = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(p)
        return float(((b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))) ** (1 / p))

    for scale in (0.7, 1.0, 13.0, 211.0):
        for factor in (0.2, 0.99, 1.01, 5.0, 1e4):
            a = scale
            b = a * (1.0 + factor * EPS_DEG)
            assert identric(a, b) == pytest.approx(ref_identric(a, b), rel=1e-13)
            assert logarithmic(a, b) == pytest.approx(ref_logarithmic(a, b), rel=1e-13)
            assert p_logarithmic(a, b, 2.5) == pytest.approx(ref_plog(a, b, 2.5), rel=1e-13)


def test_pow_integral_mean_zero_pairs_raise_no_warning():
    a = np.array([0.0, 0.0, 1.0, 0.0, 2.0])
    b = np.array([0.0, 3.0, 1.0, 0.0, 2.0 + 1e-12])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (1.0, 1.5, 2.0, 3.7):
            out = pow_integral_mean(a, b, p)
            assert out[0] == 0.0 and out[3] == 0.0
            assert out[1] == pytest.approx(3.0 ** p / (p + 1.0), rel=1e-14)


# ---------------------------------------------------------------------------
# block kernels against the np.where oracles


BLOCK = QUAD_BATCH_VALUES
KERNEL_SHAPES = [(), (1,), (7,), (3, 5), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (2, BLOCK // 2 + 3)]


def _kernel_pairs(rng, shape, with_zeros):
    """Segment ends in every relation the kernels branch on, in random order.

    Kinds: equal, near band (relative gap 1e-10), r = (hi-lo)/lo exactly 1/4,
    small separation, far apart, and (with_zeros) pairs with one or both ends 0.
    """
    kinds = rng.integers(0, 6 if with_zeros else 5, shape)
    scale = np.ldexp(1.0, rng.integers(-20, 21, shape))
    a = scale * rng.uniform(1.0, 2.0, shape)
    b = np.select(
        [kinds == 0, kinds == 1, kinds == 2, kinds == 3, kinds == 4],
        [a, a * (1.0 + 1e-10), 5.0 * scale, a * rng.uniform(1.0, 1.3, shape),
         scale * rng.uniform(0.0, 50.0, shape)],
        rng.choice([0.0, 1.0], shape) * a,
    )
    a = np.where(kinds == 2, 4.0 * scale, np.where(kinds == 5, 0.0, a))
    swap = rng.random(shape) < 0.5
    return np.where(swap, b, a), np.where(swap, a, b)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@given(
    seed=st.integers(0, 2 ** 32 - 1),
    shape=st.sampled_from(KERNEL_SHAPES),
    p=st.sampled_from([1.0, 2.0, 3.6875, 20.0]) | st.floats(min_value=1.0, max_value=30.0),
)
@settings(max_examples=max(80, settings.default.max_examples), deadline=None)
def test_block_kernels_equal_the_where_oracles_bit_for_bit(seed, shape, p):
    """The oracles run on arrays of at least one dimension.

    On 0-d arguments the np.where kernel used numpy's scalar ** (C pow) in
    its equal and near-band regimes, which differs from array ** in the last
    bit on about 5% of arguments; the block kernel gives a pair the array
    result whatever the shape of the call.
    """
    rng = np.random.default_rng(seed)
    a, b = _kernel_pairs(rng, shape, with_zeros=True)
    a1, b1 = np.atleast_1d(a), np.atleast_1d(b)
    got = pow_integral_mean(a, b, p)
    assert got.shape == np.shape(a)
    assert np.array_equal(_bits(got), _bits(where_pow_integral_mean(a1, b1, p).reshape(shape)))

    a, b = _kernel_pairs(rng, shape, with_zeros=False)
    a1, b1 = np.atleast_1d(a), np.atleast_1d(b)
    for kernel, oracle in ((ln_identric, where_ln_identric), (log_mean, where_log_mean)):
        got = kernel(a, b)
        assert got.shape == np.shape(a)
        assert np.array_equal(_bits(got), _bits(oracle(a1, b1).reshape(shape)))
        assert np.array_equal(_bits(got), _bits(oracle(a, b)))


def test_pow_integral_mean_gives_one_result_per_pair_whatever_the_shape(rng):
    a, b = _kernel_pairs(rng, (500,), with_zeros=True)
    for p in (1.0, 2.5, 3.6875, 20.0):
        whole = pow_integral_mean(a, b, p)
        one_by_one = np.array([pow_integral_mean(x, y, p) for x, y in zip(a, b)])
        assert np.array_equal(_bits(whole), _bits(one_by_one))
        assert np.array_equal(_bits(whole), _bits(pow_integral_mean(a[:, None], b[:, None], p)[:, 0]))


def test_pow_integral_mean_memory_peak_stays_near_one_input():
    rng = np.random.default_rng(3)
    a, b = _kernel_pairs(rng, (600, 600), with_zeros=True)
    pow_integral_mean(a, b, 3.6875)
    tracemalloc.start()
    try:
        pow_integral_mean(a, b, 3.6875)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * a.nbytes


# ---------------------------------------------------------------------------
# array integral_mean


def _segments(rng, name, size):
    lo, hi = FUN_RANGES[name]
    lo = max(lo, 1e-3)
    a = rng.uniform(lo, hi, size)
    kinds = rng.integers(0, 3, size)
    near = np.clip(a * (1.0 + rng.choice([-1.0, 1.0], size) * 1e-10), lo, hi)
    b = np.select([kinds == 0, kinds == 1], [a, near], rng.uniform(lo, hi, size))
    return a, b


@pytest.mark.parametrize("name", sorted(FUN_RANGES))
def test_array_integral_mean_equals_scalar_calls(rng, name):
    f = get_function(name, {"p": 3.6875} if name == "powp" else None)
    a, b = _segments(rng, name, 60)
    got = integral_mean(f, a, b)
    assert got.shape == (60,)
    for k in range(60):
        assert got[k] == integral_mean(f, a[k], b[k]) == scalar_integral_mean(f, a[k], b[k])
    grid = integral_mean(f, a.reshape(6, 10), b.reshape(6, 10))
    assert np.array_equal(_bits(grid), _bits(got.reshape(6, 10)))
    assert type(integral_mean(f, float(a[0]), float(b[0]))) is float


def test_array_integral_mean_without_closed_form_uses_quadrature_per_segment(rng):
    f = get_function("exp")
    bare = ConvexFunctionSpec("bare_exp", f.domain, f.direction, f.evaluate)
    a, b = _segments(rng, "exp", 12)
    got = integral_mean(bare, a, b)
    for k in range(12):
        assert got[k] == integral_mean(bare, a[k], b[k]) == scalar_integral_mean(bare, a[k], b[k])


def test_array_integral_mean_names_the_first_segment_outside_the_domain():
    f = get_function("neglog")
    a = np.array([1.0, 2.0, -1.0, -3.0])
    b = np.array([2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ValidationError) as exc:
        integral_mean(f, a, b)
    with pytest.raises(ValidationError) as want:
        scalar_integral_mean(f, a[2], b[2])
    assert str(exc.value) == str(want.value)
    assert "segment [-1.0, 4.0]" in str(exc.value)


DBL_MAX = sys.float_info.max


@st.composite
def segment_blocks(draw):
    """(f, a, b, block): segments that are exact-equal, in the band, far apart, or (for the
    functions finite there) in the band near DBL_MAX, where a + b overflows; and a block size
    that the segments cross."""
    name = draw(st.sampled_from(sorted(FUN_RANGES)))
    f = get_function(name, {"p": 3.6875} if name == "powp" else None)
    kinds = np.array(draw(st.lists(st.integers(0, 3 if name in ("neglog", "harmonic_frac")
                                                 else 2), min_size=1, max_size=40)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo, hi = FUN_RANGES[name]
    a = rng.uniform(max(lo, 1e-3), hi, kinds.size)
    near = np.clip(a * (1.0 + rng.choice([-1.0, 1.0], kinds.size) * 1e-10), max(lo, 1e-3), hi)
    huge = DBL_MAX * (1.0 - rng.uniform(0.0, 1e-9, (2, kinds.size)))
    a = np.where(kinds == 3, huge[0], a)
    b = np.select([kinds == 0, kinds == 1, kinds == 2],
                  [a, near, rng.uniform(max(lo, 1e-3), hi, kinds.size)], huge[1])
    return f, a, b, draw(st.integers(1, 9))


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(segment_blocks())
def test_integral_mean_block_by_block_equals_scalar_calls(drawn):
    f, a, b, block = drawn
    whole = integral_mean(f, a, b)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(means, "QUAD_BATCH_VALUES", block)
        got = integral_mean(f, a, b)
    assert np.array_equal(_bits(got), _bits(whole))
    want = np.array([scalar_integral_mean(f, x, y) for x, y in zip(a, b)])
    assert np.array_equal(_bits(got), _bits(want))


def test_integral_mean_names_the_first_segment_outside_the_domain_across_blocks(monkeypatch):
    f = get_function("neglog")
    a = np.arange(1.0, 13.0)
    b = a + 1.0
    a[[7, 10]] = -1.0, -3.0  # in the third and the fourth block of three
    monkeypatch.setattr(means, "QUAD_BATCH_VALUES", 3)
    with pytest.raises(ValidationError) as exc:
        integral_mean(f, a, b)
    with pytest.raises(ValidationError) as want:
        scalar_integral_mean(f, a[7], b[7])
    assert str(exc.value) == str(want.value)


def test_integral_mean_memory_peak_stays_under_two_outputs():
    """400k segments, half of them exact-equal or in the band: every temporary is a block's,
    so the peak is the output array and a few blocks."""
    rng = np.random.default_rng(5)
    a = rng.uniform(0.0, 2.0, 400_000)
    b = rng.uniform(0.0, 2.0, a.size)
    b[::4] = a[::4]
    b[1::4] = a[1::4] * (1.0 + 1e-10)
    f = get_function("powp", {"p": 2.5})
    integral_mean(f, a[:100], b[:100])
    tracemalloc.start()
    try:
        integral_mean(f, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * a.nbytes


@pytest.mark.parametrize("a, b", [(0.0, 1e103), (5e153, 1e154), (1e102, 1e103), (3e102, 1e103)])
def test_pow_integral_mean_past_the_power_overflow(a, b):
    """hi ** (p + 1) overflows, the mean does not: within 4 ulp of 50 digits, no warning."""
    import mpmath

    mpmath.mp.dps = 50
    lo, hi = mpmath.mpf(a), mpmath.mpf(b)
    ref = float((hi ** 3 - lo ** 3) / (3 * (hi - lo)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = float(pow_integral_mean(a, b, 2.0))
        both = pow_integral_mean(np.array([a, 1.0]), np.array([b, 3.0]), 2.0)
    assert abs(got - ref) <= 4 * math.ulp(ref)
    assert both[0] == got and both[1] == 13.0 / 3.0



# ---------------------------------------------------------------------------
# kernel accuracy against 50 digits: each bound is about twice the worst error seen on
# these pairs (1.9, 3.8 and 19.5 ulp; 4.9e-16 absolute, since ln I can be near 0)


def _gap_pairs():
    """300 pairs (a, a + gap), a in [0.1, 10], for each of 11 gaps from 1e-12 to 3, as mpf too."""
    import mpmath

    mpmath.mp.dps = 50
    gaps = np.logspace(-12.0, math.log10(3.0), 11)
    a = np.random.default_rng(0).uniform(0.1, 10.0, (gaps.size, 300))
    a, b = a.ravel(), (a + gaps[:, None]).ravel()
    return a, b, [(mpmath.mpf(x), mpmath.mpf(y)) for x, y in zip(a.tolist(), b.tolist())]


def _errors(got, ref):
    import mpmath

    return [float(abs(mpmath.mpf(g) - r)) for g, r in zip(got.tolist(), ref)]


@pytest.mark.parametrize("p, bound", [(None, 4.0), (3.6875, 8.0), (20.0, 40.0)])
def test_log_and_power_mean_ulp_error_against_mpmath(p, bound):
    import mpmath

    a, b, pairs = _gap_pairs()
    if p is None:
        got = log_mean(a, b)
        ref = [(y - x) / (mpmath.log(y) - mpmath.log(x)) for x, y in pairs]
    else:
        got = pow_integral_mean(a, b, p)
        ref = [(y ** (p + 1) - x ** (p + 1)) / ((p + 1) * (y - x)) for x, y in pairs]
    assert max(e / math.ulp(float(r)) for e, r in zip(_errors(got, ref), ref)) <= bound


def test_ln_identric_absolute_error_against_mpmath():
    import mpmath

    a, b, pairs = _gap_pairs()
    ref = [(y * mpmath.log(y) - x * mpmath.log(x)) / (y - x) - 1 for x, y in pairs]
    assert max(_errors(ln_identric(a, b), ref)) <= 1e-15
