"""Quadrature and search routine contracts."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from jensenchain import NumericError, ValidationError
from jensenchain.measures import sinkhorn_normalize
from jensenchain.numerics import (
    QUAD_MAX_EVALS,
    adaptive_simpson,
    adaptive_simpson_many,
    golden_section_minimize,
)

from conftest import recursive_simpson


def test_simpson_known_integrals():
    assert adaptive_simpson(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert adaptive_simpson(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-10)


def test_simpson_against_scipy(rng):
    for _ in range(25):
        a, b = sorted(rng.uniform(-2.0, 2.0, 2))
        c = float(rng.uniform(0.5, 3.0))
        f = lambda x: math.exp(c * x) + x * x
        ref, _ = quad(f, a, b, epsabs=1e-13, epsrel=1e-13)
        assert adaptive_simpson(f, a, b) == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_simpson_empty_and_reversed_interval():
    assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0
    fwd = adaptive_simpson(math.exp, 0.0, 2.0)
    assert adaptive_simpson(math.exp, 2.0, 0.0) == pytest.approx(-fwd, rel=1e-14)


def test_simpson_raises_on_depth_cap():
    # an integrable endpoint singularity cannot meet 1e-14 within 6 levels
    with pytest.raises(NumericError, match="did not converge"):
        adaptive_simpson(
            lambda x: 1.0 / math.sqrt(x) if x > 0 else 1e8,
            0.0,
            1.0,
            atol=1e-14,
            rtol=1e-14,
            max_depth=6,
        )


def test_golden_section_quadratic():
    x, v = golden_section_minimize(lambda t: (t - 0.37) ** 2, 0.0, 1.0, 1e-10)
    assert x == pytest.approx(0.37, abs=1e-9)
    assert v == pytest.approx(0.0, abs=1e-17)


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
]


@pytest.mark.parametrize("case", range(len(SCALAR_CASES)))
def test_engine_matches_recursion_bit_for_bit(case):
    f, a, b, kw = SCALAR_CASES[case]
    ref_f, new_f = Counted(f), Counted(f)
    ref = recursive_simpson(ref_f, a, b, **kw)
    assert adaptive_simpson(new_f, a, b, **kw) == ref
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
    ref = recursive_simpson(ref_f, a, b, atol=tol, rtol=tol)
    new_f = Counted(fv, vectorized=True)
    got = adaptive_simpson_many(new_f, a, b, atol=tol, rtol=tol, width=width)
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
def test_depth_cap_message_matches_recursion(f, kw):
    with pytest.raises(NumericError) as ref:
        recursive_simpson(f, 0.0, 1.0, **kw)
    with pytest.raises(NumericError) as got:
        adaptive_simpson(f, 0.0, 1.0, **kw)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_integrand_value_stops_the_integral_at_once(bad):
    # such a node fails every panel that holds it: the recursion split down to the
    # depth cap, and splitting level by level would run into the evaluation budget
    f = Counted(lambda t: bad if t == 0.75 else t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=f"integrand is {bad} at t=0.75"):
            adaptive_simpson(f, 0.0, 1.0)
        assert f.nodes == 5  # a, b and the midpoint, then the two quarter points
        f = Counted(lambda t: np.where(t > 0.9, bad, t), vectorized=True)
        with pytest.raises(NumericError, match=f"integrand is {bad} at t=1.0"):
            adaptive_simpson_many(f, 0.0, 1.0, width=2 ** 14)
        assert f.largest_call == 1 and f.nodes <= 3


def test_evaluation_budget_stops_a_non_converging_integral():
    f = Counted(lambda t: np.sin(1e9 * t), vectorized=True)
    message = r"budget of 100000 integrand evaluations on \[0.0, 1.0\]"
    with pytest.raises(NumericError, match=message):
        adaptive_simpson_many(f, 0.0, 1.0)
    assert f.nodes <= QUAD_MAX_EVALS
    with pytest.raises(NumericError, match="budget"):
        adaptive_simpson(lambda t: math.sin(1e9 * t), 1.0, 0.0)
