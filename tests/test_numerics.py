"""Quadrature and search routine contracts."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from jensenchain import (
    DoublyStochasticMatrix,
    NumericError,
    ValidationError,
    get_function,
    matrix_instance,
)
from jensenchain import numerics
from jensenchain.measures import sinkhorn_normalize
from jensenchain.numerics import QUAD_MAX_EVALS, adaptive_simpson, golden_section_minimize
from jensenchain.refine import phi_integral_quad, t_quadrature

from conftest import FUN_RANGES, GK_NODES, rand_prob, recursive_gauss_kronrod, scalar


def test_simpson_known_integrals():
    assert adaptive_simpson(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert adaptive_simpson(np.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
    assert adaptive_simpson(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-10)


def test_simpson_against_scipy(rng):
    for _ in range(25):
        a, b = sorted(rng.uniform(-2.0, 2.0, 2))
        c = float(rng.uniform(0.5, 3.0))
        f = lambda x: np.exp(c * x) + x * x
        ref, _ = quad(f, a, b, epsabs=1e-13, epsrel=1e-13)
        assert adaptive_simpson(f, a, b) == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_simpson_empty_and_reversed_interval():
    assert adaptive_simpson(np.exp, 1.0, 1.0) == 0.0
    fwd = adaptive_simpson(np.exp, 0.0, 2.0)
    assert adaptive_simpson(np.exp, 2.0, 0.0) == pytest.approx(-fwd, rel=1e-14)


def test_simpson_raises_on_depth_cap(monkeypatch):
    # an integrable endpoint singularity cannot meet 1e-14 within 6 levels
    monkeypatch.setattr(numerics, "QUAD_MAX_DEPTH", 6)
    with pytest.raises(NumericError, match="did not converge"):
        adaptive_simpson(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, atol=1e-14, rtol=1e-14)


def test_golden_section_quadratic():
    x, v = golden_section_minimize(lambda t: (t - 0.37) ** 2, 0.0, 1.0, 1e-10)
    assert x == pytest.approx(0.37, abs=1e-9)
    assert v == pytest.approx(0.0, abs=1e-17)


def test_golden_section_on_an_interval_other_than_the_unit_one():
    x, _ = golden_section_minimize(lambda t: (t - 3.7) ** 2, 2.0, 5.0, 1e-9)
    assert abs(x - 3.7) <= 1e-8


def test_golden_section_boundary_minimum():
    x, v = golden_section_minimize(lambda t: t, 0.0, 1.0, 1e-10)
    assert x == pytest.approx(0.0, abs=1e-9)


def test_golden_section_plateau_resolves_left():
    f = lambda t: max(0.0, abs(t - 0.5) - 0.2)  # flat on [0.3, 0.7]
    x, v = golden_section_minimize(f, 0.0, 1.0, 1e-10)
    assert v == 0.0
    assert x <= 0.7 + 1e-9


def test_golden_section_rejects_bad_tolerance():
    with pytest.raises(ValidationError):
        golden_section_minimize(lambda t: t, 0.0, 1.0, 0.0)


def test_sinkhorn_iteration_cap_raises():
    with pytest.raises(NumericError, match="Sinkhorn"):
        sinkhorn_normalize(np.array([[0.9, 0.1], [0.4, 0.6]]), max_iter=0)


# ---------------------------------------------------------------------------
# the level-batched engine against the depth-first recursion


class Counted:
    """Wraps an integrand and counts the nodes it is handed (scalar or per array)."""

    def __init__(self, f, vectorized=False):
        self.f = f
        self.vectorized = vectorized
        self.nodes = 0
        self.largest_call = 0

    def __call__(self, x):
        size = len(x) if self.vectorized else 1
        self.nodes += size
        self.largest_call = max(self.largest_call, size)
        return self.f(x)


SCALAR_CASES = [
    (lambda x: x * x, 0.0, 1.0, {}),
    (math.exp, -1.0, 2.0, {}),
    (math.sin, 0.0, math.pi, {"atol": 1e-12, "rtol": 1e-12}),
    (lambda x: math.exp(3.0 * x) + x * x, 1.5, -0.5, {}),
    (lambda x: x ** 0.3, 0.0, 1.0, {"atol": 1e-6, "rtol": 1e-6}),
    (lambda x: x ** 0.3, 1.0, 0.0, {"atol": 1e-6, "rtol": 1e-6}),
    (lambda x: x ** 0.7, 0.0, 1.0, {}),
    (lambda x: x ** 2.5, 0.0, 1.0, {"atol": 1e-12, "rtol": 1e-12}),
    (math.sqrt, 0.0, 4.0, {"atol": 1e-8, "rtol": 1e-8}),
    (math.log, 1.0, math.e, {}),
    # a zero tolerance: only the rounding floor accepts a panel
    (math.exp, 0.0, 1.0, {"atol": 0.0, "rtol": 0.0}),
    (lambda x: 1.0 / (1.0 + x), 0.0, 3.0, {"atol": 0.0, "rtol": 0.0}),
    (math.sin, 0.0, math.pi, {"atol": 0.0, "rtol": 0.0}),
    (lambda x: x ** 7 - 3.0 * x, -1.0, 2.0, {"atol": 0.0, "rtol": 0.0}),
]


@pytest.mark.parametrize("case", range(len(SCALAR_CASES)))
def test_engine_matches_recursion_bit_for_bit(case):
    f, a, b, kw = SCALAR_CASES[case]
    ref_f, new_f = Counted(f), Counted(f)
    ref = recursive_gauss_kronrod(ref_f, a, b, **kw)
    assert adaptive_simpson(scalar(new_f), a, b, **kw) == ref
    assert new_f.nodes == ref_f.nodes


# t**p over grids with zero entries: every row is singular at one end of [0, 1]
ZERO_GRID = np.array([[0.0, 1.0, 0.25], [2.0, 0.0, 0.0]])


@pytest.mark.parametrize(
    "fv, a, b, tol",
    [
        (np.exp, -2.0, 3.0, 1e-12),
        (lambda t: t ** 0.3, 0.0, 1.0, 1e-6),
        (lambda t: t ** 0.3, 1.0, 0.0, 1e-6),
        (lambda t: (np.outer(1.0 - t, ZERO_GRID[0]) + np.outer(t, ZERO_GRID[1])) ** 1.7
         @ np.ones(3), 0.0, 1.0, 1e-12),
    ],
)
@pytest.mark.parametrize("width", [1, 2 ** 12, 2 ** 20])
def test_vectorized_engine_matches_recursion_over_its_scalar_restriction(fv, a, b, tol, width):
    ref_f = Counted(lambda t: float(fv(np.array([t]))[0]))
    ref = recursive_gauss_kronrod(ref_f, a, b, atol=tol, rtol=tol)
    new_f = Counted(fv, vectorized=True)
    got = adaptive_simpson(new_f, a, b, atol=tol, rtol=tol, width=width)
    assert got == ref
    assert new_f.nodes == ref_f.nodes
    assert new_f.largest_call <= max(1, 2 ** 14 // width)


@pytest.mark.parametrize(
    "f, kw",
    [
        (lambda x: 1.0 / math.sqrt(x) if x > 0 else 1e8,
         {"atol": 1e-14, "rtol": 1e-14, "max_depth": 6}),
        (lambda x: x ** 0.3, {}),  # fails on the leftmost panel at the default depth cap
        # panels fail only right of 0.5, so the reported panel is not the leftmost one
        (lambda x: math.sin(1e3 * x) if x > 0.5 else 0.0,
         {"atol": 1e-15, "rtol": 1e-15, "max_depth": 8}),
    ],
)
def test_depth_cap_message_matches_recursion(monkeypatch, f, kw):
    with pytest.raises(NumericError) as ref:
        recursive_gauss_kronrod(f, 0.0, 1.0, **kw)
    kw = dict(kw)
    monkeypatch.setattr(numerics, "QUAD_MAX_DEPTH", kw.pop("max_depth", numerics.QUAD_MAX_DEPTH))
    with pytest.raises(NumericError) as got:
        adaptive_simpson(scalar(f), 0.0, 1.0, **kw)
    assert str(got.value) == str(ref.value)


# a scalar node past 0.9 on [0, 1]: the 13th of the first panel's 15 nodes, in ascending order
FIRST_PAST = 0.5 + 0.5 * GK_NODES[12]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_integrand_value_stops_the_integral_at_once(bad):
    # such a node fails every panel that holds it: the recursion split down to the
    # depth cap, and splitting level by level would run into the evaluation budget
    message = re.escape(f"integrand is {bad} at t={FIRST_PAST}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=message):
            recursive_gauss_kronrod(lambda t: bad if t > 0.9 else t, 0.0, 1.0)
        f = Counted(lambda t: bad if t > 0.9 else t)
        with pytest.raises(NumericError, match=message):
            adaptive_simpson(scalar(f), 0.0, 1.0)
        assert f.nodes == 15  # the first panel's nodes, handed over in one call
        # one node per call: the call that returns the first bad value is the last one
        f = Counted(lambda t: np.where(t > 0.9, bad, t), vectorized=True)
        with pytest.raises(NumericError, match=message):
            adaptive_simpson(f, 0.0, 1.0, width=2 ** 14)
        assert f.largest_call == 1 and f.nodes == 13


def test_evaluation_budget_stops_a_non_converging_integral():
    f = Counted(lambda t: np.sin(1e9 * t), vectorized=True)
    message = r"budget of 100000 integrand evaluations on \[0.0, 1.0\]"
    with pytest.raises(NumericError, match=message):
        adaptive_simpson(f, 0.0, 1.0)
    assert f.nodes <= QUAD_MAX_EVALS and f.nodes % 15 == 0
    with pytest.raises(NumericError, match="budget"):
        adaptive_simpson(scalar(lambda t: math.sin(1e9 * t)), 1.0, 0.0)


# integrands with the interval their nodes must stay in
DRAWN_INTEGRANDS = [
    (np.exp, -5.0, 5.0),
    (lambda t: t ** 0.3, 0.0, 2.0),
    (lambda t: np.sin(7.0 * t) + t * t, -3.0, 3.0),
    (lambda t: (np.outer(1.0 - t, ZERO_GRID[0]) + np.outer(t, ZERO_GRID[1])) ** 1.7
     @ np.ones(3), 0.0, 1.0),
]


@st.composite
def drawn_integrals(draw):
    fv, lo, hi = draw(st.sampled_from(DRAWN_INTEGRANDS))
    ends = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    a, b = draw(ends), draw(ends)  # either order: b < a is the reversed interval
    tol = 10.0 ** draw(st.floats(-12.0, -6.0))
    width = draw(st.sampled_from([1, 2 ** 12, 2 ** 20]))
    return fv, a, b, tol, width


@settings(deadline=None)
@given(drawn_integrals())
def test_vectorized_engine_matches_recursion_on_drawn_intervals(case):
    """The same value bit for bit and the same nodes, or the same error, whatever the batch."""
    fv, a, b, tol, width = case
    ref_f = Counted(lambda t: float(fv(np.array([t]))[0]))
    new_f = Counted(fv, vectorized=True)
    try:
        ref = recursive_gauss_kronrod(ref_f, a, b, atol=tol, rtol=tol)
    except NumericError as exc:  # t**0.3 at tight tolerances reaches the depth cap
        with pytest.raises(NumericError) as got:
            adaptive_simpson(new_f, a, b, atol=tol, rtol=tol, width=width)
        assert str(got.value) == str(exc)
    else:
        got = adaptive_simpson(new_f, a, b, atol=tol, rtol=tol, width=width)
        assert got == ref
        assert new_f.nodes == ref_f.nodes
    assert new_f.largest_call <= max(1, 2 ** 14 // width)


@pytest.mark.parametrize("degree", [0, 1, 5, 13])
def test_polynomials_of_degree_up_to_13_are_accepted_on_the_first_panel(rng, degree):
    # the 7-point Gauss rule is exact there as well, so K and G differ only by rounding
    for a, b in [(0.0, 1.0), (-2.0, 3.0), (4.0, -1.5)]:
        coeffs = rng.uniform(-2.0, 2.0, degree + 1)
        f = Counted(lambda t: np.polyval(coeffs, t), vectorized=True)
        got = adaptive_simpson(f, a, b, atol=1e-12, rtol=1e-12)
        assert f.nodes == 15
        antiderivative = np.polyint(coeffs)
        exact = np.polyval(antiderivative, b) - np.polyval(antiderivative, a)
        assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)


# ---------------------------------------------------------------------------
# accuracy against mpmath at 50 digits

MP_FUNCTIONS = {
    "square": lambda x: x * x,
    "exp": mpmath.exp,
    "neglog": lambda x: -mpmath.log(x),
    "kyfan": lambda x: mpmath.log(1 - x) - mpmath.log(x),
    "powp": lambda x: x ** mpmath.mpf(2.5),
    "xlogx": lambda x: x * mpmath.log(x),
    "harmonic_frac": lambda x: x / (1 + x),
}


def _mp_quad(integrand):
    with mpmath.workdps(50):
        return float(mpmath.quad(integrand, [0, 1]))


def _within(got, exact, tol):
    return abs(got - exact) <= max(tol, tol * abs(exact))


@pytest.mark.parametrize("name", sorted(MP_FUNCTIONS))
def test_phi_quadrature_meets_its_tolerance_against_mpmath(rng, name):
    """phi on identity against a permutation, where every inner combination crosses the range."""
    n = 8
    lo, hi = FUN_RANGES[name]
    inst = matrix_instance(
        np.linspace(lo, hi, n + 2)[1:-1],
        get_function(name, {"p": 2.5} if name == "powp" else None),
        DoublyStochasticMatrix(np.eye(n)),
        DoublyStochasticMatrix(np.eye(n)[rng.permutation(n)]),
    )
    f, rows = MP_FUNCTIONS[name], list(zip(inst.mu.weights, inst.s1, inst.s2))
    exact = _mp_quad(lambda t: sum(mu * f((1 - t) * s1 + t * s2) for mu, s1, s2 in rows))
    for tol in (1e-10, 1e-12):
        assert _within(phi_integral_quad(inst, atol=tol, rtol=tol), exact, tol)


@pytest.mark.parametrize("power", [1.5, 3.7, None])
def test_t_quadrature_meets_its_tolerance_against_mpmath(rng, power):
    """t**p with zero ends (singular at an end of [0, 1]); None is the harmonic m/(1+m)."""
    shape = (6, 5)
    s1 = rng.uniform(0.0, 2.0, shape) * (rng.random(shape) < 0.6)
    s2 = rng.uniform(0.0, 2.0, shape) * (rng.random(shape) < 0.6)
    mu = rand_prob(rng, shape[0])
    masses = rng.uniform(0.5, 2.0, shape[1])
    if power is None:
        f, mp_pointwise = get_function("harmonic_frac"), (lambda m: m / (1 + m))
    else:
        f, mp_pointwise = get_function("powp", {"p": power}), (lambda m: m ** mpmath.mpf(power))
    terms = [
        (mu.weights[i] * masses[x], s1[i, x], s2[i, x])
        for i in range(shape[0]) for x in range(shape[1])
    ]
    exact = _mp_quad(lambda t: sum(w * mp_pointwise((1 - t) * a + t * b) for w, a, b in terms))
    got = t_quadrature(f, mu, s1, s2, (0.0, 1.0), masses, atol=1e-12, rtol=1e-12)
    assert _within(got, exact, 1e-12)
