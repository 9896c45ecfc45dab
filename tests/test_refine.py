"""Engine tests: phi evaluation, chains, t-integral, Hadamard, convexity, tighten."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jensenchain import (
    ConvexFunctionSpec,
    DomainError,
    DoublyStochasticMatrix,
    HadamardWeights,
    Interval,
    JensenInstance,
    ProbabilityVector,
    ValidationError,
    WeightFunction,
    agm_chain,
    chain_at_t,
    chain_hadamard,
    chain_integral,
    chain_matrix,
    get_function,
    interpolate_weight,
    kyfan_chain,
    matrix_instance,
    phi,
    phi_convexity_check,
    phi_integral_closed,
    phi_integral_quad,
    phi_values,
    random_doubly_stochastic,
    tighten,
    validate_weight,
)
from jensenchain import refine
from conftest import (
    FUN_RANGES,
    composite_midpoint,
    composite_trapezoid,
    direct_phi,
    loop_phi_integral_closed,
    make_instance,
    rand_prob,
    recursive_gauss_kronrod,
)

UNI2 = ProbabilityVector.uniform(2)


@pytest.fixture
def square_instance():
    """phi(t) = 0.25 + 0.0625 t^2: the workhorse hand-derived example."""
    w1 = WeightFunction.ones(UNI2, UNI2)
    w2 = validate_weight([[1.5, 0.5], [0.5, 1.5]], UNI2, UNI2)
    return JensenInstance(
        f=get_function("square"), points=[0.0, 1.0], lam=UNI2, mu=UNI2, w1=w1, w2=w2
    )


# ---------------------------------------------------------------------------
# phi


def test_phi_hand_values(square_instance):
    assert phi(square_instance, 0.0) == pytest.approx(0.25, rel=1e-14)
    assert phi(square_instance, 1.0) == pytest.approx(0.3125, rel=1e-14)
    assert phi(square_instance, 0.5) == pytest.approx(0.265625, rel=1e-14)


def test_phi_collapses_for_trivial_weights():
    f = get_function("exp")
    lam = ProbabilityVector([0.2, 0.3, 0.5])
    mu = ProbabilityVector.uniform(2)
    w = WeightFunction.ones(mu, lam)
    x = np.array([-1.0, 0.5, 2.0])
    inst = JensenInstance(f=f, points=x, lam=lam, mu=mu, w1=w, w2=w)
    expected = math.exp(float(lam.weights @ x))
    for t in (0.0, 0.37, 1.0):
        assert phi(inst, t) == pytest.approx(expected, rel=1e-14)


def test_phi_matches_looped_definition(rng):
    for name in FUN_RANGES:
        inst = make_instance(rng, name)
        for t in (0.0, 0.25, 0.7, 1.0):
            assert phi(inst, t) == pytest.approx(direct_phi(inst, t), rel=1e-12)


def test_phi_rejects_t_outside_unit_interval(square_instance):
    with pytest.raises(ValidationError):
        phi(square_instance, 1.2)
    with pytest.raises(ValidationError):
        phi(square_instance, -0.1)


def test_instance_rejects_out_of_domain_points():
    f = get_function("neglog")
    w = WeightFunction.ones(UNI2, UNI2)
    with pytest.raises(ValidationError, match="point 1"):
        JensenInstance(f=f, points=[1.0, -2.0], lam=UNI2, mu=UNI2, w1=w, w2=w)


def test_instance_rejects_mismatched_weights():
    f = get_function("square")
    other = ProbabilityVector([0.25, 0.75])
    w_other = WeightFunction.ones(UNI2, other)
    w = WeightFunction.ones(UNI2, UNI2)
    with pytest.raises(ValidationError, match="different lambda"):
        JensenInstance(f=f, points=[0.0, 1.0], lam=UNI2, mu=UNI2, w1=w, w2=w_other)


def test_evaluation_domain_error_names_row():
    """The evaluation-time domain check is defensive: an interval domain that
    contains all points also contains every inner combination, so the check
    can only fire if the function is swapped under a built instance."""
    f = ConvexFunctionSpec("narrow", Interval(0.0, 1.0), "convex", lambda x: x * x)
    w1 = WeightFunction.ones(UNI2, UNI2)
    w2 = validate_weight([[2.0, 0.0], [0.0, 2.0]], UNI2, UNI2)
    inst = JensenInstance(f=f, points=[0.1, 0.9], lam=UNI2, mu=UNI2, w1=w1, w2=w2)
    phi(inst, 1.0)  # fine: every combination stays inside [0.1, 0.9]
    shrunk = ConvexFunctionSpec("narrow", Interval(0.35, 1.0), "convex", lambda x: x * x)
    object.__setattr__(inst, "f", shrunk)
    with pytest.raises(DomainError, match="row i="):
        phi(inst, 1.0)  # the w2 row sums reproduce the raw points, 0.1 < 0.35


def test_scaled_row_sums_are_checked_and_named_as_their_products():
    # powersum's dense grid hands in w and lambda * x as the column scale
    f = get_function("powp", {"p": 2})
    s1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    scale = np.array([1.0, 2.0])
    refine._check_rows(f, s1, s1, scale)
    with pytest.raises(DomainError, match=r"row i=1 are 8.0 and -8.0,"):
        refine._check_rows(f, s1, s1 * [[1.0, 1.0], [1.0, -1.0]], scale)


def test_row_sums_get_a_slack_relative_to_their_largest_magnitude():
    # powp's domain is [0, inf): the slack is 1e-12 * max(1, -lo, hi) = 1e-9 here
    f = get_function("powp", {"p": 2})
    refine._check_rows(f, np.array([-1e-10, 1000.0]), np.array([0.5, 1000.0]))
    with pytest.raises(DomainError, match=r"row i=0 "):
        refine._check_rows(f, np.array([-2e-9, 1000.0]), np.array([0.5, 1000.0]))


# ---------------------------------------------------------------------------
# chain_at_t


def test_chain_equal_points_has_zero_slack():
    f = get_function("square")
    w = WeightFunction.ones(UNI2, UNI2)
    inst = JensenInstance(f=f, points=[1.3, 1.3], lam=UNI2, mu=UNI2, w1=w, w2=w)
    ch = chain_at_t(inst, [0.0, 0.5, 1.0])
    assert ch.lower == ch.upper
    assert ch.slack_lower == pytest.approx(0.0, abs=1e-15)
    assert ch.slack_upper == pytest.approx(0.0, abs=1e-15)
    assert ch.passed


def test_chain_hand_example(square_instance):
    ch = chain_at_t(square_instance, [0.0, 1.0])
    assert ch.lower == pytest.approx(0.25, rel=1e-14)
    assert ch.upper == pytest.approx(0.5, rel=1e-14)
    assert [v for _, v in ch.middle] == pytest.approx([0.25, 0.3125], rel=1e-14)
    assert ch.passed


def test_chain_random_exp_instances_pass(rng):
    for _ in range(25):
        inst = make_instance(rng, "exp")
        ch = chain_at_t(inst, np.linspace(0.0, 1.0, 7))
        assert ch.passed
        # cross-check every member against the looped definition
        for t, v in ch.middle:
            assert v == pytest.approx(direct_phi(inst, t), rel=1e-12)


def test_chain_concave_orientation(rng):
    inst = make_instance(rng, "harmonic_frac")
    ch = chain_at_t(inst, [0.0, 0.5, 1.0])
    left = float(inst.f.evaluate(float(inst.lam.weights @ inst.points)))
    right = float(inst.lam.weights @ inst.f.evaluate_many(inst.points))
    assert ch.lower == pytest.approx(right, rel=1e-14)  # Jensen sides swap
    assert ch.upper == pytest.approx(left, rel=1e-14)
    assert ch.passed


def test_chain_rejects_empty_grid(square_instance):
    with pytest.raises(ValidationError):
        chain_at_t(square_instance, [])


# ---------------------------------------------------------------------------
# integral chain


def test_integral_hand_value(square_instance):
    ch = chain_integral(square_instance)
    assert ch.middle == pytest.approx(0.25 + 0.0625 / 3.0, rel=1e-12)
    assert ch.passed


def test_integral_constant_family_equals_phi0():
    f = get_function("square")
    w = validate_weight([[1.5, 0.5], [0.5, 1.5]], UNI2, UNI2)
    inst = JensenInstance(f=f, points=[0.0, 1.0], lam=UNI2, mu=UNI2, w1=w, w2=w)
    assert chain_integral(inst).middle == pytest.approx(phi(inst, 0.0), rel=1e-14)


def test_integral_closed_matches_quadrature(rng):
    for name in FUN_RANGES:
        for _ in range(5):
            inst = make_instance(rng, name)
            closed = phi_integral_closed(inst)
            quad = phi_integral_quad(inst)
            assert abs(closed - quad) <= 1e-8 * max(1.0, abs(closed), abs(quad))


def _hard_instance(rng, name, n):
    """Identity against a random permutation: every inner combination crosses the range."""
    lo, hi = FUN_RANGES[name]
    params = {"p": 2.5} if name == "powp" else None
    return matrix_instance(
        np.linspace(lo, hi, n + 2)[1:-1],
        get_function(name, params),
        DoublyStochasticMatrix(np.eye(n)),
        DoublyStochasticMatrix(np.eye(n)[rng.permutation(n)]),
    )


@pytest.mark.parametrize("family", ["hard", "flat"])
@pytest.mark.parametrize("name", sorted(FUN_RANGES))
def test_quadrature_equals_recursion_over_scalar_phi(rng, name, family):
    for n in (1, 3, 12):
        if family == "hard":
            inst = _hard_instance(rng, name, n)
        else:
            inst = make_instance(rng, name, n_max=n, m_max=n)
        for tol in (1e-10, 1e-12):
            ref = recursive_gauss_kronrod(lambda t: phi(inst, t), 0.0, 1.0, atol=tol, rtol=tol)
            assert phi_integral_quad(inst, atol=tol, rtol=tol) == ref


def _fixed_point_instance(rng, name, n, p):
    """Identity against a permutation fixing about a third of the points.

    A fixed point gives a row with s1 == s2, which falls in the near band.
    """
    lo, hi = FUN_RANGES[name]
    perm = np.arange(n)
    movers = rng.choice(n, n - n // 3, replace=False)
    perm[movers] = rng.permutation(movers)
    return matrix_instance(
        rng.uniform(lo, hi, n) if lo > 0 else rng.uniform(lo + 1e-3, hi, n),
        get_function(name, {"p": p} if name == "powp" else None),
        DoublyStochasticMatrix(np.eye(n)),
        DoublyStochasticMatrix(np.eye(n)[perm]),
    )


@pytest.mark.parametrize("family", ["hard", "flat"])
@pytest.mark.parametrize("name", sorted(FUN_RANGES))
def test_closed_form_equals_per_row_loop(rng, name, family):
    near_rows = 0
    for n in (1, 3, 12, 40, 300):
        for p in (1.0, 2.0, 3.6875, 20.0):
            if family == "hard":
                inst = _fixed_point_instance(rng, name, n, p)
                near_rows += int(np.sum(inst.s1 == inst.s2))
            else:
                inst = make_instance(rng, name, n_max=n, m_max=n)
            assert phi_integral_closed(inst) == loop_phi_integral_closed(inst)
    assert family == "flat" or near_rows > 0


def test_quadrature_calls_stay_under_the_value_cap(monkeypatch):
    m = 4096  # 2**14 // m = 4 nodes per call at most, so a panel's 15 nodes take 4 calls
    mu = ProbabilityVector.uniform(m)
    w1 = WeightFunction.ones(mu, UNI2)
    w2 = validate_weight(np.tile([[2.0, 0.0], [0.0, 2.0]], (m // 2, 1)), mu, UNI2)
    inst = JensenInstance(f=get_function("exp"), points=[-3.0, 2.0], lam=UNI2, mu=mu, w1=w1, w2=w2)
    ref = recursive_gauss_kronrod(lambda t: phi(inst, t), 0.0, 1.0)
    sizes = []
    rows = refine._phi_rows

    def recording(f, s1, s2, ts, *rest):
        sizes.append(ts.size)
        return rows(f, s1, s2, ts, *rest)

    monkeypatch.setattr(refine, "_phi_rows", recording)
    assert phi_integral_quad(inst) == ref
    assert max(sizes) == 4 and len(sizes) >= 4


@st.composite
def phi_grids(draw):
    """(instance, ts): a catalog f on n <= 400 points with Sinkhorn-normalized B and C, and a
    t grid whose values repeat."""
    name = draw(st.sampled_from(sorted(FUN_RANGES)))
    n = draw(st.integers(2, 400))
    seed = draw(st.integers(0, 2 ** 30))
    lo, hi = FUN_RANGES[name]
    inst = matrix_instance(
        np.random.default_rng(seed).uniform(lo, hi, n),
        get_function(name, {"p": 2.5} if name == "powp" else None),
        random_doubly_stochastic(n, seed),
        random_doubly_stochastic(n, seed + 1),
    )
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    ts = draw(st.lists(st.sampled_from([0.0, 1.0, *values]), min_size=1, max_size=16))
    return inst, np.array(ts)


@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
@given(phi_grids())
def test_phi_has_one_value_at_each_t_wherever_it_is_computed(case):
    """phi over a batch of t, phi at one t and the quadrature's integrand agree bit for bit."""
    inst, ts = case
    single = [phi(inst, t) for t in ts.tolist()]
    assert phi_values(inst, ts).tolist() == single
    integrands = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(refine, "adaptive_simpson", lambda fv, *_, **__: integrands.append(fv) or 0.0)
        phi_integral_quad(inst)
    (fv,) = integrands
    assert fv(ts).tolist() == single  # the sides are far below the rescaling threshold


@st.composite
def phi_grid_rows(draw):
    """(f, mu, s1, s2, masses, ts, block): an m x |X| grid of row sums of a catalog f, as the
    lp, powersum and harmonic rows hand it to phi, a t grid whose values repeat, and a block
    of values that cuts the grid into blocks of rows (a row to a block where it is wider)."""
    name = draw(st.sampled_from(sorted(FUN_RANGES)))
    m, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 30)))
    lo, hi = FUN_RANGES[name]
    s1, s2 = rng.uniform(lo, hi, (2, m, width))
    mu = rand_prob(rng, m)
    masses = rng.uniform(0.5, 2.0, width)
    block = draw(st.sampled_from([1, 3, width, 4 * width + 1, m * width // 2 + 1, m * width]))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    ts = draw(st.lists(st.sampled_from([0.0, 1.0, *values]), min_size=1, max_size=16))
    f = get_function(name, {"p": 2.5} if name == "powp" else None)
    return f, mu, s1, s2, masses, np.array(ts), block


def assert_one_phi_at_each_t(f, mu, s1, s2, masses, ts):
    """phi over the batch ts, phi at each t alone and the t-quadrature's integrand agree bit
    for bit on grid rows."""
    single = [refine._phi_batch(f, mu.weights, s1, s2, np.array([t]), masses)[0]
              for t in ts.tolist()]
    assert refine._phi_batch(f, mu.weights, s1, s2, ts, masses).tolist() == single
    integrands = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(refine, "adaptive_simpson", lambda fv, *_, **__: integrands.append(fv) or 0.0)
        refine.t_quadrature(f, mu, s1, s2, (1.0, 1.0), masses)
    (fv,) = integrands
    assert fv(ts).tolist() == single


@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
@given(phi_grid_rows())
def test_phi_of_grid_rows_wider_than_a_block_has_one_value_at_each_t(case):
    # vals @ masses sums a row in an order that depends on the rows beside it, so the blocks
    # of rows must be cut at the same rows whatever batch of t is evaluated
    *args, block = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(refine, "QUAD_BATCH_VALUES", block)
        assert_one_phi_at_each_t(*args)


def test_phi_of_a_grid_wider_than_the_module_block_has_one_value_at_each_t():
    rng = np.random.default_rng(12)
    m = 130  # 130 x 130 values: more than one block of QUAD_BATCH_VALUES
    s1, s2 = rng.uniform(0.0, 2.0, (2, m, m))
    ts = np.array([0.0, 0.3, 1.0, 0.3, 0.7, 0.0])
    assert_one_phi_at_each_t(get_function("powp", {"p": 2.5}), ProbabilityVector.uniform(m),
                             s1, s2, rng.uniform(0.5, 2.0, m), ts)


def test_integral_bracketing_by_midpoint_and_trapezoid(rng):
    """For convex phi the composite midpoint rule under-estimates and the
    trapezoid rule over-estimates; the adaptive value must sit between."""
    for name in ("square", "exp", "neglog", "powp"):
        inst = make_instance(rng, name)
        g = lambda t: phi(inst, t)
        lo = composite_midpoint(g, 64)
        hi = composite_trapezoid(g, 64)
        mid = phi_integral_quad(inst)
        scale = 1e-12 * max(1.0, abs(hi))
        assert lo - scale <= mid <= hi + scale


def test_integral_neglog_matches_identric_product(rng):
    """Middle of the negative-log chain equals -log of the identric-mean product."""
    from jensenchain.means import ln_identric

    inst = make_instance(rng, "neglog")
    expected = -float(inst.mu.weights @ ln_identric(inst.s1, inst.s2))
    assert phi_integral_closed(inst) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# hadamard chain


def test_hadamard_single_node_collapses(square_instance):
    ch = chain_hadamard(square_instance, HadamardWeights([2.0], [0.3]))
    m1, m2 = ch.middle
    assert m1 == pytest.approx(m2, rel=1e-14)
    assert ch.inner_slacks[0] == pytest.approx(0.0, abs=1e-15)
    assert ch.passed


def test_hadamard_equal_nodes_have_zero_inner_slack(square_instance):
    ch = chain_hadamard(square_instance, HadamardWeights([1.0, 3.0], [0.4, 0.4]))
    assert ch.inner_slacks[0] == pytest.approx(0.0, abs=1e-15)


def test_hadamard_hand_anchor(square_instance):
    ch = chain_hadamard(square_instance, HadamardWeights([1.0, 1.0], [0.0, 1.0]))
    m1, m2 = ch.middle
    assert m1 == pytest.approx(0.265625, rel=1e-14)
    assert m2 == pytest.approx(0.28125, rel=1e-14)
    assert ch.passed


def test_hadamard_concave_orientation(rng):
    inst = make_instance(rng, "harmonic_frac")
    ch = chain_hadamard(inst, HadamardWeights([1.0, 2.0, 1.0], [0.1, 0.5, 0.9]))
    assert ch.passed


def test_hadamard_weight_validation():
    with pytest.raises(ValidationError):
        HadamardWeights([-1.0, 2.0], [0.1, 0.2])
    with pytest.raises(ValidationError):
        HadamardWeights([0.0, 0.0], [0.1, 0.2])
    with pytest.raises(ValidationError):
        HadamardWeights([1.0], [1.5])


def test_holds_is_the_one_verdict_and_passed_uses_the_floor():
    """Every slack, the inner one included, is judged against -tol; passed is holds(tol)."""
    ch = refine._assemble(1.0, (1.5, 1.4), 2.0, 1.5, 1.4, inner=(-0.1,))
    assert ch.tol == refine.chain_tolerance(1.0, 2.0) == refine.TOL_FLOOR * 2.0
    assert refine.chain_tolerance(1.0, -3.0, 1e-3) == 3e-3
    assert refine.chain_tolerance(0.5, 0.25, 1e-3) == 1e-3
    assert not ch.passed and not ch.holds(0.05)
    assert ch.holds(0.1) and ch.holds(1.0)
    tight = refine._assemble(1.0, 1.0 - 1e-10, 1.0, 1.0 - 1e-10, 1.0 - 1e-10)
    assert tight.passed == tight.holds(tight.tol) is True
    assert not tight.holds(1e-11)


@pytest.mark.parametrize("side", ["slack_lower", "slack_upper"])
def test_holds_at_exactly_minus_tol_and_not_one_ulp_below(side):
    tol = 0.1
    slacks = {"slack_lower": 0.0, "slack_upper": 0.0, side: -tol}
    assert refine.RefinementChain(1.0, 1.5, 2.0, tol=tol, **slacks).holds(tol)
    slacks[side] = math.nextafter(-tol, -math.inf)
    assert not refine.RefinementChain(1.0, 1.5, 2.0, tol=tol, **slacks).holds(tol)


@pytest.mark.parametrize("shape", [(3, 4), (3, 3)])
def test_live_pairs_lists_exactly_half_the_grid_and_no_more(shape):
    size = shape[0] * shape[1]
    half = size // 2
    for in_a in (half, half // 2):  # every live entry in a, then some in a and the rest in b
        a, b = np.zeros(size), np.zeros(size)
        a[:in_a] = 1.0
        b[in_a:half] = 2.0
        pairs = refine.live_pairs(a.reshape(shape), b.reshape(shape))
        assert pairs is not None and pairs.tolist() == list(range(half)), in_a
        b[half] = 3.0
        assert refine.live_pairs(a.reshape(shape), b.reshape(shape)) is None, in_a


# ---------------------------------------------------------------------------
# convexity check and tighten


def test_convexity_check_constant_family(square_instance):
    w = square_instance.w2
    inst = JensenInstance(
        f=square_instance.f, points=[0.0, 1.0], lam=UNI2, mu=UNI2, w1=w, w2=w
    )
    assert phi_convexity_check(inst, trials=50, seed=0).ok
    # one trial is the fewest the check runs
    assert phi_convexity_check(inst, trials=1, seed=0).ok
    with pytest.raises(ValidationError, match="trials must be >= 1"):
        phi_convexity_check(inst, trials=0)


def test_convexity_check_passes_for_corpus(rng):
    for name in FUN_RANGES:
        inst = make_instance(rng, name)
        assert phi_convexity_check(inst, trials=100, seed=1).ok


def test_convexity_check_reports_witnesses_for_mislabel():
    f = ConvexFunctionSpec("negsquare", Interval(), "convex", lambda x: -(x * x))
    w1 = WeightFunction.ones(UNI2, UNI2)
    w2 = validate_weight([[2.0, 0.0], [0.0, 2.0]], UNI2, UNI2)
    inst = JensenInstance(f=f, points=[0.0, 1.0], lam=UNI2, mu=UNI2, w1=w1, w2=w2)
    res = phi_convexity_check(inst, trials=200, seed=2)
    assert not res.ok
    assert len(res.witnesses) > 0
    assert {"t1", "t2", "alpha", "combined", "bound"} <= set(res.witnesses[0])
    # the bound is the chord of phi between t1 and t2 at alpha
    w = res.witnesses[0]
    v1, v2 = phi_values(inst, np.array([w["t1"], w["t2"]]))
    assert w["bound"] == pytest.approx(w["alpha"] * v1 + (1.0 - w["alpha"]) * v2, rel=1e-12)


def test_tighten_increasing_quadratic(square_instance):
    t_star, value = tighten(square_instance, 1e-9)
    assert t_star == pytest.approx(0.0, abs=1e-8)
    assert value == pytest.approx(0.25, rel=1e-12)


def test_tighten_constant_family():
    f = get_function("square")
    w = validate_weight([[1.5, 0.5], [0.5, 1.5]], UNI2, UNI2)
    inst = JensenInstance(f=f, points=[0.0, 1.0], lam=UNI2, mu=UNI2, w1=w, w2=w)
    t_star, value = tighten(inst, 1e-8)
    assert 0.0 <= t_star <= 1.0
    assert value == pytest.approx(phi(inst, 0.0), rel=1e-14)


def test_tighten_swapped_weights_same_value(rng):
    inst = make_instance(rng, "exp")
    swapped = JensenInstance(
        f=inst.f, points=inst.points, lam=inst.lam, mu=inst.mu, w1=inst.w2, w2=inst.w1
    )
    _, v1 = tighten(inst, 1e-10)
    _, v2 = tighten(swapped, 1e-10)
    assert v1 == pytest.approx(v2, rel=1e-9)


def test_tighten_bounds_contract(rng):
    for name in ("exp", "neglog", "harmonic_frac"):
        inst = make_instance(rng, name)
        t_star, value = tighten(inst, 1e-8)
        lower, upper = inst.oriented_bounds()
        tol = 1e-9 * max(1.0, abs(lower), abs(upper))
        if inst.f.is_convex:
            assert value <= min(phi(inst, 0.0), phi(inst, 1.0)) + tol
            assert value >= lower - tol
        else:
            assert value >= max(phi(inst, 0.0), phi(inst, 1.0)) - tol
            assert value <= upper + tol


def test_tighten_concave_maximizes():
    f = get_function("harmonic_frac")
    w1 = WeightFunction.ones(UNI2, UNI2)
    w2 = validate_weight([[1.5, 0.5], [0.5, 1.5]], UNI2, UNI2)
    inst = JensenInstance(f=f, points=[0.0, 2.0], lam=UNI2, mu=UNI2, w1=w1, w2=w2)
    _, value = tighten(inst, 1e-9)
    assert value >= max(phi(inst, 0.0), phi(inst, 1.0)) - 1e-12


# ---------------------------------------------------------------------------
# matrix form


def test_chain_matrix_uniform_matrices_hit_lower():
    f = get_function("square")
    b = DoublyStochasticMatrix.uniform(3)
    ch = chain_matrix([0.0, 1.0, 2.0], f, b, b, [0.0, 0.5, 1.0])
    assert all(v == pytest.approx(ch.lower, rel=1e-13) for _, v in ch.middle)


def test_chain_matrix_identity_hits_upper():
    f = get_function("square")
    b = DoublyStochasticMatrix.identity(3)
    ch = chain_matrix([0.0, 1.0, 2.0], f, b, b, [0.0, 1.0])
    assert all(v == pytest.approx(ch.upper, rel=1e-13) for _, v in ch.middle)


def test_chain_matrix_antidiagonal_midpoint():
    f = get_function("square")
    b = DoublyStochasticMatrix.identity(2)
    c = DoublyStochasticMatrix.antidiagonal(2)
    ch = chain_matrix([0.0, 1.0], f, b, c, [0.5])
    assert ch.middle[0][1] == pytest.approx(0.25, rel=1e-14)
    assert ch.middle[0][1] == pytest.approx(ch.lower, rel=1e-14)


def test_chain_matrix_equals_direct_two_matrix_form(rng):
    """Embedding and the direct (1/n) sum over matrix rows agree."""
    from jensenchain import matrix_instance, random_doubly_stochastic

    f = get_function("exp")
    n = 4
    x = rng.uniform(-1.0, 1.0, n)
    b = random_doubly_stochastic(n, seed=3)
    c = random_doubly_stochastic(n, seed=4)
    inst = matrix_instance(x, f, b, c)
    for t in (0.0, 0.3, 1.0):
        direct = (
            sum(
                math.exp(float(((1 - t) * b.values[i] + t * c.values[i]) @ x))
                for i in range(n)
            )
            / n
        )
        assert phi(inst, t) == pytest.approx(direct, rel=1e-13)


def test_chain_matrix_dimension_mismatch():
    f = get_function("square")
    b = DoublyStochasticMatrix.identity(2)
    c = DoublyStochasticMatrix.identity(3)
    with pytest.raises(ValidationError):
        chain_matrix([0.0, 1.0], f, b, c, [0.5])


# ---------------------------------------------------------------------------
# endpoint and single-weight consistency


def test_phi_endpoints_use_only_their_weight(rng):
    inst = make_instance(rng, "square")
    only_w1 = JensenInstance(
        f=inst.f, points=inst.points, lam=inst.lam, mu=inst.mu, w1=inst.w1, w2=inst.w1
    )
    only_w2 = JensenInstance(
        f=inst.f, points=inst.points, lam=inst.lam, mu=inst.mu, w1=inst.w2, w2=inst.w2
    )
    assert phi(inst, 0.0) == phi(only_w1, 0.0)
    assert phi(inst, 1.0) == phi(only_w2, 1.0)


def test_interpolated_single_weight_matches_two_weight_family(rng):
    for _ in range(10):
        inst = make_instance(rng, "exp")
        t = float(rng.random())
        wt = interpolate_weight(inst.w1, inst.w2, t)
        single = JensenInstance(
            f=inst.f, points=inst.points, lam=inst.lam, mu=inst.mu, w1=wt, w2=wt
        )
        a = phi(inst, t)
        b = phi(single, 0.0)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# sandwich property (hypothesis) and scalar points only


@given(seed=st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=150, deadline=None)
def test_sandwich_property(seed):
    rng = np.random.default_rng(seed)
    name = ["square", "exp", "neglog", "kyfan", "powp", "xlogx", "harmonic_frac"][seed % 7]
    inst = make_instance(rng, name)
    ch = chain_at_t(inst, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert ch.passed


@pytest.mark.parametrize("build", ["instance", "agm", "kyfan"])
def test_points_of_two_dimensions_are_refused(build):
    lam = ProbabilityVector([0.25, 0.25, 0.5])
    w = WeightFunction.ones(UNI2, lam)
    pts = np.full((3, 2), 0.25)
    with pytest.raises(ValidationError, match="^points must be a nonempty 1-D array$"):
        if build == "agm":
            agm_chain(pts, lam, UNI2, w, w)
        elif build == "kyfan":
            kyfan_chain(pts, lam, UNI2, w, w)
        else:
            JensenInstance(f=get_function("square"), points=pts, lam=lam, mu=UNI2, w1=w, w2=w)
