"""Application chains: anchors, engine agreement, specialized matrix forms."""

import dataclasses
import math
import timeit
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jensenchain import (
    DoublyStochasticMatrix,
    FiniteMeasureSpace,
    FunctionVector,
    JensenInstance,
    ProbabilityVector,
    ValidationError,
    WeightFunction,
    agm_chain,
    chain_at_t,
    chain_integral,
    chain_tolerance,
    embed_doubly_stochastic,
    get_function,
    harmonic_chain,
    kyfan_chain,
    lp_chain,
    matrix_power_bounds,
    matrix_power_chain,
    phi_integral_closed,
    phi_integral_quad,
    power_sum_chain,
    random_doubly_stochastic,
    validate_weight,
)
from jensenchain import apps, refine
from jensenchain.means import ln_identric, log_mean, pow_integral_mean
from jensenchain.numerics import QUAD_BATCH_VALUES
from jensenchain.refine import TOL_FLOOR, rel_err, row_sums, t_average, t_quadrature
from conftest import gauss_kronrod_oracle, ksum_matrix_power_middle, rand_prob, rand_weight

E = math.e
UNI2 = ProbabilityVector.uniform(2)


def _pair_from_matrices(n, b, c):
    return embed_doubly_stochastic(b), embed_doubly_stochastic(c)


def _random_setup(rng, n_max=6, m_max=6, positive_range=(0.1, 4.0)):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    lam = rand_prob(rng, n)
    mu = rand_prob(rng, m)
    w1 = rand_weight(rng, mu, lam)
    w2 = rand_weight(rng, mu, lam)
    x = rng.uniform(*positive_range, n)
    return x, lam, mu, w1, w2


# ---------------------------------------------------------------------------
# geometric / identric / arithmetic


def test_agm_equal_points_collapse():
    w = WeightFunction.ones(UNI2, UNI2)
    ch = agm_chain([2.5, 2.5], UNI2, UNI2, w, w)
    assert ch.lower == pytest.approx(2.5, rel=1e-12)
    assert ch.middle == pytest.approx(2.5, rel=1e-12)
    assert ch.upper == pytest.approx(2.5, rel=1e-12)


def test_agm_identity_antidiagonal_anchor():
    b = DoublyStochasticMatrix.identity(2)
    c = DoublyStochasticMatrix.antidiagonal(2)
    w1, w2 = _pair_from_matrices(2, b, c)
    ch = agm_chain([1.0, 2.0], UNI2, UNI2, w1, w2)
    assert ch.lower == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert ch.middle == pytest.approx(4.0 / E, rel=1e-12)
    assert ch.upper == pytest.approx(1.5, rel=1e-12)
    assert ch.passed
    assert ch.identity_checks[0].ok


def test_agm_identity_weights_give_geometric_mean(rng):
    n = 4
    x = rng.uniform(0.5, 3.0, n)
    b = DoublyStochasticMatrix.identity(n)
    w1, w2 = _pair_from_matrices(n, b, b)
    uni = ProbabilityVector.uniform(n)
    ch = agm_chain(x, uni, uni, w1, w2)
    assert ch.middle == pytest.approx(float(np.exp(np.log(x).mean())), rel=1e-12)


def test_agm_scaling_invariance(rng):
    x, lam, mu, w1, w2 = _random_setup(rng)
    base = agm_chain(x, lam, mu, w1, w2)
    for c in (0.01, 3.0, 250.0):
        scaled = agm_chain(c * x, lam, mu, w1, w2)
        assert scaled.lower == pytest.approx(c * base.lower, rel=1e-11)
        assert scaled.middle == pytest.approx(c * base.middle, rel=1e-11)
        assert scaled.upper == pytest.approx(c * base.upper, rel=1e-11)
        assert scaled.passed == base.passed


@pytest.mark.parametrize("scale", [1e-10, 1e-7, 1e-3])
def test_agm_middle_keeps_its_precision_at_small_points(scale):
    """The jensen row's closed form takes small segments far apart in ratio exactly."""
    w1, w2 = _pair_from_matrices(2, DoublyStochasticMatrix.identity(2),
                                 DoublyStochasticMatrix.antidiagonal(2))
    ch = agm_chain([scale, 1.05 * scale], UNI2, UNI2, w1, w2)
    want = math.exp(float(ln_identric(scale, 1.05 * scale)))
    assert ch.middle == pytest.approx(want, rel=1e-14)


def test_agm_rejects_nonpositive_points():
    w = WeightFunction.ones(UNI2, UNI2)
    with pytest.raises(ValidationError):
        agm_chain([1.0, 0.0], UNI2, UNI2, w, w)


def test_agm_agrees_with_generic_engine(rng):
    """The chain members are the exponentials of the negative-log engine run."""
    for _ in range(10):
        x, lam, mu, w1, w2 = _random_setup(rng)
        ch = agm_chain(x, lam, mu, w1, w2)
        inst = JensenInstance(
            f=get_function("neglog"), points=x, lam=lam, mu=mu, w1=w1, w2=w2
        )
        quad = phi_integral_quad(inst, atol=1e-12, rtol=1e-12)
        left, right = inst.jensen_sides()
        assert ch.lower == pytest.approx(math.exp(-right), rel=1e-12)
        assert ch.middle == pytest.approx(math.exp(-quad), rel=1e-9)
        assert ch.upper == pytest.approx(math.exp(-left), rel=1e-12)
        assert ch.passed


# ---------------------------------------------------------------------------
# Ky Fan


def test_kyfan_equal_points():
    w = WeightFunction.ones(UNI2, UNI2)
    ch = kyfan_chain([0.3, 0.3], UNI2, UNI2, w, w)
    want = (1.0 - 0.3) / 0.3
    for v in (ch.lower, ch.middle, ch.upper):
        assert v == pytest.approx(want, rel=1e-12)


def test_kyfan_half_points_give_unit_chain():
    w = WeightFunction.ones(UNI2, UNI2)
    ch = kyfan_chain([0.5, 0.5], UNI2, UNI2, w, w)
    for v in (ch.lower, ch.middle, ch.upper):
        assert v == pytest.approx(1.0, rel=1e-12)


def test_kyfan_anchor():
    b = DoublyStochasticMatrix.identity(2)
    c = DoublyStochasticMatrix.antidiagonal(2)
    w1, w2 = _pair_from_matrices(2, b, c)
    ch = kyfan_chain([0.2, 0.4], UNI2, UNI2, w1, w2)
    assert ch.lower == pytest.approx(7.0 / 3.0, rel=1e-12)
    assert abs(ch.middle - 2.3703) <= 1e-3
    assert ch.upper == pytest.approx(math.sqrt(6.0), rel=1e-12)
    assert ch.passed
    # the middle is the ratio of identric means of complementary row sums
    want = math.exp(float(ln_identric(0.6, 0.8) - ln_identric(0.2, 0.4)))
    assert ch.middle == pytest.approx(want, rel=1e-12)


def test_kyfan_rejects_out_of_range_points():
    w = WeightFunction.ones(UNI2, UNI2)
    with pytest.raises(ValidationError):
        kyfan_chain([0.2, 0.6], UNI2, UNI2, w, w)
    with pytest.raises(ValidationError):
        kyfan_chain([0.0, 0.4], UNI2, UNI2, w, w)


def test_kyfan_subnormal_point_keeps_its_row_sum():
    """lambda_j * x_j underflows 0.5 * 5e-324 to 0; the row sum multiplies it back first."""
    w1, w2 = _pair_from_matrices(2, DoublyStochasticMatrix.identity(2),
                                 DoublyStochasticMatrix.antidiagonal(2))
    inst = JensenInstance(f=get_function("kyfan"), points=[5e-324, 0.5], lam=UNI2, mu=UNI2,
                          w1=w1, w2=w2)
    assert inst.s1.tolist() == [5e-324, 0.5]
    assert inst.s2.tolist() == [0.5, 5e-324]
    assert chain_at_t(inst, [0.0, 0.5, 1.0]).passed
    # the closed-form t-average in the sandwich; chain_integral also checks it by quadrature,
    # which the next test pins
    middle = phi_integral_closed(inst)
    lower, upper = inst.oriented_bounds()
    tol = chain_tolerance(lower, upper)
    assert lower - tol <= middle <= upper + tol


def test_kyfan_subnormal_point_integral_chain_is_checked_by_quadrature():
    """The logarithmic spike of the kyfan row at t = 0 meets the tolerance only as a budget
    summed over [0, 1], not within each panel's share of it."""
    w1, w2 = _pair_from_matrices(2, DoublyStochasticMatrix.identity(2),
                                 DoublyStochasticMatrix.antidiagonal(2))
    inst = JensenInstance(f=get_function("kyfan"), points=[5e-324, 0.5], lam=UNI2, mu=UNI2,
                          w1=w1, w2=w2)
    assert chain_integral(inst).passed


def test_grid_row_sums_keep_a_subnormal_sample():
    """The one row-sum step repairs an underflowed lambda_j * g_j(x) on a sample grid too."""
    w1, w2 = _pair_from_matrices(2, DoublyStochasticMatrix.identity(2),
                                 DoublyStochasticMatrix.antidiagonal(2))
    g = np.array([[5e-324, 1.0], [0.5, 5e-324]])
    s1, s2 = row_sums(get_function("harmonic_frac"), g, UNI2, w1, w2)
    assert s1.tolist() == g.tolist()
    assert s2.tolist() == g[::-1].tolist()


def test_kyfan_random_instances_pass(rng):
    for _ in range(10):
        x, lam, mu, w1, w2 = _random_setup(rng, positive_range=(0.02, 0.5))
        ch = kyfan_chain(x, lam, mu, w1, w2)
        assert ch.passed
        assert ch.identity_checks[0].ok


@pytest.mark.parametrize("name, chain, sign, positive_range", [
    ("neglog", agm_chain, -1.0, (0.1, 4.0)),
    ("kyfan", kyfan_chain, 1.0, (0.02, 0.5)),
], ids=["agm", "kyfan"])
def test_agm_and_kyfan_are_exp_transforms_of_the_jensen_row(rng, name, chain, sign,
                                                            positive_range):
    """Bit for bit: agm is exp(-.) of the neglog row and kyfan exp(+.) of the kyfan row,
    the Jensen side sum_j lambda_j f(x_j) giving agm's lower and kyfan's upper bound."""
    for _ in range(20):
        x, lam, mu, w1, w2 = _random_setup(rng, positive_range=positive_range)
        ch = chain(x, lam, mu, w1, w2)
        inst = JensenInstance(f=get_function(name), points=x, lam=lam, mu=mu, w1=w1, w2=w2)
        right = inst.jensen_sides()[1]
        assert (ch.lower if sign < 0.0 else ch.upper) == np.exp(sign * right)
        assert ch.middle == np.exp(sign * phi_integral_closed(inst))
        rhs = np.exp(sign * phi_integral_quad(inst, 1e-12, 1e-12))
        assert ch.identity_checks[0].rhs == rhs
        # the side is the geometric mean (agm) or G'/G (kyfan) as they were computed directly
        if sign < 0.0:
            assert ch.lower == np.exp(lam.weights @ np.log(x))
        else:
            assert ch.upper == np.exp(lam.weights @ (np.log1p(-x) - np.log(x)))


# ---------------------------------------------------------------------------
# p-th power norms


def test_lp_anchor():
    b = DoublyStochasticMatrix.identity(2)
    c = DoublyStochasticMatrix.antidiagonal(2)
    w1, w2 = _pair_from_matrices(2, b, c)
    fv = FunctionVector([[1.0, 0.0], [0.0, 1.0]])
    ch = lp_chain(fv, FiniteMeasureSpace.counting(2), 2.0, UNI2, UNI2, w1, w2)
    assert ch.lower == pytest.approx(0.5, rel=1e-12)
    assert ch.middle == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert ch.upper == pytest.approx(1.0, rel=1e-12)
    assert ch.passed
    assert ch.identity_checks[0].ok


def test_lp_identical_functions_collapse():
    w = WeightFunction.ones(UNI2, UNI2)
    fv = FunctionVector([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5]])
    ch = lp_chain(fv, FiniteMeasureSpace.counting(3), 1.5, UNI2, UNI2, w, w)
    assert ch.lower == pytest.approx(ch.upper, rel=1e-12)
    assert ch.middle == pytest.approx(ch.upper, rel=1e-12)


def test_lp_signed_samples_use_absolute_values(rng):
    x, lam, mu, w1, w2 = _random_setup(rng, n_max=4)
    n = len(lam)
    samples = rng.uniform(-2.0, 2.0, (n, 3))
    fv = FunctionVector(samples)
    space = FiniteMeasureSpace([0.5, 1.0, 2.0])
    ch = lp_chain(fv, space, 2.0, lam, mu, w1, w2)
    assert ch.passed
    # middle and upper equal those of |samples|; lower may be strictly smaller
    ch_abs = lp_chain(FunctionVector(np.abs(samples)), space, 2.0, lam, mu, w1, w2)
    assert ch.middle == pytest.approx(ch_abs.middle, rel=1e-13)
    assert ch.upper == pytest.approx(ch_abs.upper, rel=1e-13)
    assert ch.lower <= ch_abs.lower + 1e-12


def test_lp_embedding_reproduces_power_sums(rng):
    """Diagonal sample grids embed the power-sum chain into the norm chain."""
    for _ in range(5):
        x, lam, mu, w1, w2 = _random_setup(rng, positive_range=(0.0, 3.0))
        n = len(lam)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        fv = FunctionVector(np.diag(x))
        ps = power_sum_chain(x, p, lam, mu, w1, w2)
        lp = lp_chain(fv, FiniteMeasureSpace.counting(n), p, lam, mu, w1, w2)
        assert lp.lower == pytest.approx(ps.lower, rel=1e-12, abs=1e-15)
        assert lp.middle == pytest.approx(ps.middle, rel=1e-12, abs=1e-15)
        assert lp.upper == pytest.approx(ps.upper, rel=1e-12, abs=1e-15)


def test_lp_p_one_middle_equals_upper(rng):
    """At p = 1 the column constraints collapse the middle onto the upper member."""
    x, lam, mu, w1, w2 = _random_setup(rng)
    n = len(lam)
    fv = FunctionVector(rng.uniform(0.0, 2.0, (n, 4)))
    ch = lp_chain(fv, FiniteMeasureSpace.counting(4), 1.0, lam, mu, w1, w2)
    assert ch.middle == pytest.approx(ch.upper, rel=1e-12)
    assert ch.slack_lower >= -ch.tol and ch.slack_upper >= -ch.tol


def test_lp_chain_allocates_no_n_by_n_array():
    """Row sums are w @ (lambda * g): at n = m = 600 and |X| = 3 no temporary holds n x n."""
    n = 600
    uni = ProbabilityVector.uniform(n)
    w1 = WeightFunction.ones(uni, uni)
    w2 = embed_doubly_stochastic(DoublyStochasticMatrix.antidiagonal(n))
    fv = FunctionVector(np.random.default_rng(5).uniform(0.0, 2.0, (n, 3)))
    space = FiniteMeasureSpace.counting(3)
    lp_chain(fv, space, 2.0, uni, uni, w1, w2)  # first call: anything built once is built
    tracemalloc.start()
    try:
        ch = lp_chain(fv, space, 2.0, uni, uni, w1, w2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ch.passed and ch.identity_checks[0].ok
    assert peak < n * n * 8


def test_lp_rejects_bad_p_and_shapes():
    w = WeightFunction.ones(UNI2, UNI2)
    fv = FunctionVector([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        lp_chain(fv, FiniteMeasureSpace.counting(2), 0.5, UNI2, UNI2, w, w)
    with pytest.raises(ValidationError):
        lp_chain(fv, FiniteMeasureSpace.counting(3), 2.0, UNI2, UNI2, w, w)


# ---------------------------------------------------------------------------
# power sums


def test_power_sum_trivial_weights_hit_lower(rng):
    lam = rand_prob(rng, 3)
    mu = rand_prob(rng, 2)
    w = WeightFunction.ones(mu, lam)
    x = np.array([0.5, 2.0, 1.0])
    ch = power_sum_chain(x, 2.5, lam, mu, w, w)
    assert ch.middle == pytest.approx(ch.lower, rel=1e-13)


def test_power_sum_single_point():
    one = ProbabilityVector([1.0])
    w = WeightFunction.ones(one, one)
    ch = power_sum_chain([1.7], 3.0, one, one, w, w)
    want = 1.7 ** 3
    for v in (ch.lower, ch.middle, ch.upper):
        assert v == pytest.approx(want, rel=1e-13)


def test_power_sum_matches_matrix_bounds_scaling(rng):
    """All-ones points with embedded matrices: n * middle equals the matrix middle."""
    for n in (2, 3, 5):
        b = random_doubly_stochastic(n, seed=int(rng.integers(1 << 30)))
        c = random_doubly_stochastic(n, seed=int(rng.integers(1 << 30)))
        w1, w2 = _pair_from_matrices(n, b, c)
        uni = ProbabilityVector.uniform(n)
        for p in (1, 2, 3, 4):
            ps = power_sum_chain(np.ones(n), float(p), uni, uni, w1, w2)
            _, mid, _ = matrix_power_bounds(b, c, p)
            assert n * ps.middle == pytest.approx(mid, rel=1e-12)


def test_power_sum_random_instances_pass(rng):
    for _ in range(10):
        x, lam, mu, w1, w2 = _random_setup(rng, positive_range=(0.0, 3.0))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.5]))
        ch = power_sum_chain(x, p, lam, mu, w1, w2)
        assert ch.passed
        assert ch.identity_checks[0].ok


def test_power_sum_rejects_negative_points():
    w = WeightFunction.ones(UNI2, UNI2)
    with pytest.raises(ValidationError):
        power_sum_chain([1.0, -0.5], 2.0, UNI2, UNI2, w, w)


# ---------------------------------------------------------------------------
# matrix power bounds


def test_matrix_power_identity_anchor():
    i2 = DoublyStochasticMatrix.identity(2)
    assert matrix_power_bounds(i2, i2, 2) == (1.0, 2.0, 2.0)


def test_matrix_power_p_one_attains_upper(rng):
    for n in (1, 2, 4):
        b = random_doubly_stochastic(n, seed=int(rng.integers(1 << 30)))
        c = random_doubly_stochastic(n, seed=int(rng.integers(1 << 30)))
        lower, middle, upper = matrix_power_bounds(b, c, 1)
        assert middle == pytest.approx(float(n), rel=1e-12)
        assert upper == float(n)


@pytest.mark.parametrize("n", [1, 3])
def test_matrix_power_checks_its_reduction_exactly_when_c_is_the_identity(monkeypatch, n):
    # a middle off by far more than the coincidence tolerance is caught only on the identity
    # branch: C = I takes it, and so a near-identity C (or a permutation) must not
    b = DoublyStochasticMatrix.uniform(n)
    eye = DoublyStochasticMatrix.identity(n)
    (honest,) = matrix_power_chain(b, eye, 2).identity_checks
    assert honest.name == "identity-reduction" and honest.ok
    monkeypatch.setattr(apps, "integral_mean", lambda f, b, c: 2.0 * (b + c))
    ch = matrix_power_chain(b, eye, 2)
    (check,) = ch.identity_checks
    assert check.name == "identity-reduction" and not check.ok
    assert (check.lhs, check.rhs) == (ch.middle, honest.rhs)
    assert check.tol == apps.MATRIX_COINCIDENCE_TOL
    if n > 1:
        near = np.eye(n)
        near[:2, :2] += [[-1e-300, 1e-300], [1e-300, -1e-300]]
        assert matrix_power_chain(b, DoublyStochasticMatrix(near), 2).identity_checks == ()
        antidiagonal = DoublyStochasticMatrix.antidiagonal(n)
        assert matrix_power_chain(b, antidiagonal, 2).identity_checks == ()


@pytest.mark.parametrize("p", [1, 2, 7, 10 ** 9, 10 ** 20])
def test_matrix_power_reduction_takes_diagonal_zeros_and_ones_at_any_p(p):
    """sum_{k<p} d^k in closed form: p at d = 1 and 1 at d = 0, without a numpy warning."""
    eye = DoublyStochasticMatrix.identity(3)
    ch = matrix_power_chain(eye, eye, p)
    (check,) = ch.identity_checks
    assert ch.middle == check.rhs == 3.0 and check.ok
    # the 3 x 3 antidiagonal has the diagonal (0, 1, 0); the middle is 1 + 4 / (p + 1)
    ch = matrix_power_chain(DoublyStochasticMatrix.antidiagonal(3), eye, p)
    (check,) = ch.identity_checks
    assert ch.middle == pytest.approx(1.0 + 4.0 / (p + 1), rel=1e-15)
    assert check.rhs == pytest.approx(1.0 + 4.0 / (p + 1), rel=1e-15) and check.ok


def test_matrix_power_identity_reduction_costs_the_support_only():
    """B a permutation, C = I: the reduction reads the entries the middle is summed over, so
    it allocates less than one n x n array and adds little to matrix_power_bounds."""
    n, p = 675, 6
    b = DoublyStochasticMatrix(np.eye(n)[np.random.default_rng(6).permutation(n)])
    eye = DoublyStochasticMatrix.identity(n)
    (check,) = matrix_power_chain(b, eye, p).identity_checks
    assert check.name == "identity-reduction" and check.ok
    tracemalloc.start()
    try:
        matrix_power_chain(b, eye, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8

    def best(call):
        return min(timeit.repeat(call, number=5, repeat=7))

    assert best(lambda: matrix_power_chain(b, eye, p)) <= 1.5 * best(
        lambda: matrix_power_bounds(b, eye, p))


def test_matrix_power_one_by_one():
    one = DoublyStochasticMatrix.identity(1)
    for p in (1, 2, 5):
        assert matrix_power_bounds(one, one, p) == (1.0, 1.0, 1.0)


def test_matrix_power_rejects_non_integer():
    i2 = DoublyStochasticMatrix.identity(2)
    with pytest.raises(ValidationError):
        matrix_power_bounds(i2, i2, 2.5)
    matrix_power_bounds(i2, i2, 2.0)  # integral float accepted


def test_matrix_power_identity_reduction_explicit(rng):
    """With c = identity the k-sum reduces to powers of b plus diagonal powers."""
    for n in (2, 3, 5):
        b = random_doubly_stochastic(n, seed=int(rng.integers(1 << 30)))
        eye = DoublyStochasticMatrix.identity(n)
        for p in (1, 2, 3, 4, 5, 6):
            _, middle, _ = matrix_power_bounds(b, eye, p)
            reduced = float(np.sum(b.values ** p))
            for k in range(p):
                reduced += float(np.sum(np.diag(b.values) ** k))
            reduced /= p + 1
            assert middle == pytest.approx(reduced, rel=1e-13)


def test_matrix_power_holds_for_generated_matrices(rng):
    for n in range(1, 7):
        for p in range(1, 7):
            b = random_doubly_stochastic(n, seed=n * 100 + p)
            c = random_doubly_stochastic(n, seed=n * 100 + p + 50)
            lower, middle, upper = matrix_power_bounds(b, c, p)
            assert lower - 1e-12 <= middle <= upper + 1e-12


def permutation_mixture(rng, n, k):
    """A convex combination of k random n x n permutation matrices: at most k n nonzeros."""
    grid = np.zeros((n, n))
    for a in rng.dirichlet(np.ones(k)):
        grid[np.arange(n), rng.permutation(n)] += a
    return grid


@st.composite
def matrix_pairs(draw):
    """(B, C, p): a random pair, the identity against a permutation, C = I, or two mixtures of
    a few permutations (mostly (0, 0) pairs from n = 6 on); n <= 40, p <= 30."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2 ** 30))
    family = draw(st.sampled_from(["random", "identity-permutation", "c-identity", "mixtures"]))
    eye = DoublyStochasticMatrix.identity(n)
    if family == "identity-permutation":
        perm = np.random.default_rng(seed).permutation(n)
        return eye, DoublyStochasticMatrix(np.eye(n)[perm]), p
    if family == "mixtures":
        rng = np.random.default_rng(seed)
        return (DoublyStochasticMatrix(permutation_mixture(rng, n, 2)),
                DoublyStochasticMatrix(permutation_mixture(rng, n, 3)), p)
    b = random_doubly_stochastic(n, seed=seed)
    if family == "c-identity":
        return b, eye, p
    return b, random_doubly_stochastic(n, seed=seed + 1), p


@settings(max_examples=150, deadline=None)
@given(pair=matrix_pairs())
def test_matrix_power_middle_matches_ksum_oracle(pair):
    b, c, p = pair
    _, middle, _ = matrix_power_bounds(b, c, p)
    want = ksum_matrix_power_middle(b, c, p)
    assert abs(middle - want) <= 1e-14 * abs(want)


@st.composite
def dense_pairs(draw):
    """(B, C, p) with no (0, 0) pair: a mixture of two permutations and a matrix without a zero
    entry, either way round; n <= 30, p <= 12."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pair = [DoublyStochasticMatrix(permutation_mixture(rng, n, 2)),
            random_doubly_stochastic(n, seed=int(rng.integers(2 ** 30)))]
    if draw(st.booleans()):
        pair.reverse()
    return (*pair, draw(st.integers(1, 12)))


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(pair=dense_pairs())
def test_matrix_power_middle_without_zero_pairs_is_the_full_grid_sum(pair):
    b, c, p = pair
    assert np.all((b.values != 0.0) | (c.values != 0.0))
    _, middle, _ = matrix_power_bounds(b, c, p)
    assert middle == float(pow_integral_mean(b.values, c.values, p).sum())


def test_matrix_power_chain_is_judged_by_the_chain_verdict():
    """Doubly stochastic within 1e-10, so the middle exceeds n by 1.6e-10: a slack, not an error."""
    e = 0.5 + 4e-11
    edge = DoublyStochasticMatrix([[e, e], [e, e]])
    ch = matrix_power_chain(edge, edge, 1)
    assert (ch.lower, ch.upper) == (2.0, 2.0)
    assert ch.middle == ksum_matrix_power_middle(edge, edge, 1)
    assert ch.slack_upper < 0.0 and ch.passed
    assert not ch.holds(1e-12 * 2.0)
    assert ch.tol == TOL_FLOOR * 2.0


def test_lambda_length_message_matches_the_instance():
    """lp, powersum and harmonic share JensenInstance's weight-pair checks and messages."""
    w = WeightFunction.ones(UNI2, UNI2)
    fv = FunctionVector(np.ones((3, 1)))
    one = FiniteMeasureSpace.counting(1)
    calls = [
        lambda: JensenInstance(f=get_function("square"), points=np.ones(3), lam=UNI2, mu=UNI2,
                               w1=w, w2=w),
        lambda: lp_chain(fv, one, 2.0, UNI2, UNI2, w, w),
        lambda: power_sum_chain(np.ones(3), 2.0, UNI2, UNI2, w, w),
        lambda: harmonic_chain(fv, one, UNI2, UNI2, w, w),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=r"^3 points but \|lambda\| = 2$"):
            call()


# ---------------------------------------------------------------------------
# harmonic (concave) chain


def test_harmonic_zero_functions_collapse_to_zero():
    w = WeightFunction.ones(UNI2, UNI2)
    fv = FunctionVector(np.zeros((2, 3)))
    ch = harmonic_chain(fv, FiniteMeasureSpace.counting(3), UNI2, UNI2, w, w)
    for v in (ch.lower, ch.middle, ch.upper):
        assert v == pytest.approx(0.0, abs=1e-14)
    assert ch.passed


def test_harmonic_anchor():
    w1 = WeightFunction.ones(UNI2, UNI2)
    w2 = validate_weight([[1.5, 0.5], [0.5, 1.5]], UNI2, UNI2)
    fv = FunctionVector([[0.0], [1.0]])
    ch = harmonic_chain(fv, FiniteMeasureSpace([1.0]), UNI2, UNI2, w1, w2)
    assert ch.lower == pytest.approx(0.25, rel=1e-12)
    want = 1.0 - 0.5 * (
        1.0 / float(log_mean(1.5, 1.25)) + 1.0 / float(log_mean(1.5, 1.75))
    )
    assert ch.middle == pytest.approx(want, rel=1e-12)
    assert abs(ch.middle - 0.32705) <= 1e-4
    assert ch.upper == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert ch.passed
    assert ch.identity_checks[0].ok


def test_harmonic_identical_functions_collapse(rng):
    lam = rand_prob(rng, 3)
    mu = rand_prob(rng, 2)
    w1 = rand_weight(rng, mu, lam)
    w2 = rand_weight(rng, mu, lam)
    row = rng.uniform(0.0, 3.0, 4)
    fv = FunctionVector(np.tile(row, (3, 1)))
    ch = harmonic_chain(fv, FiniteMeasureSpace.counting(4), lam, mu, w1, w2)
    assert ch.lower == pytest.approx(ch.upper, rel=1e-12)
    assert ch.middle == pytest.approx(ch.upper, rel=1e-12)


def test_harmonic_rejects_negative_samples():
    w = WeightFunction.ones(UNI2, UNI2)
    with pytest.raises(ValidationError, match="nonnegative"):
        harmonic_chain(
            FunctionVector([[0.0, -0.1], [1.0, 2.0]]),
            FiniteMeasureSpace.counting(2),
            UNI2,
            UNI2,
            w,
            w,
        )


def test_harmonic_single_point_space_matches_engine(rng):
    """On a one-point space the chain is the generic concave scalar chain."""
    from jensenchain import chain_integral

    for _ in range(5):
        x, lam, mu, w1, w2 = _random_setup(rng, positive_range=(0.0, 4.0))
        fv = FunctionVector(x[:, None])
        ch = harmonic_chain(fv, FiniteMeasureSpace([1.0]), lam, mu, w1, w2)
        inst = JensenInstance(
            f=get_function("harmonic_frac"), points=x, lam=lam, mu=mu, w1=w1, w2=w2
        )
        engine = chain_integral(inst)
        assert ch.lower == pytest.approx(engine.lower, rel=1e-12, abs=1e-15)
        assert ch.middle == pytest.approx(engine.middle, rel=1e-9, abs=1e-12)
        assert ch.upper == pytest.approx(engine.upper, rel=1e-12, abs=1e-15)
        assert ch.passed and engine.passed


def test_harmonic_random_instances_pass(rng):
    for _ in range(10):
        x, lam, mu, w1, w2 = _random_setup(rng)
        n = len(lam)
        fv = FunctionVector(rng.uniform(0.0, 5.0, (n, 3)))
        ch = harmonic_chain(fv, FiniteMeasureSpace(rng.uniform(0.5, 2.0, 3)), lam, mu, w1, w2)
        assert ch.passed
        assert ch.identity_checks[0].ok


# ---------------------------------------------------------------------------
# specializations: uniform measures + embedded matrices reproduce the
# particular matrix forms computed directly


def _direct_matrix_sums(b, c, x):
    s1 = b.values @ x
    s2 = c.values @ x
    return s1, s2


def test_agm_matrix_specialization(rng):
    n = 4
    x = rng.uniform(0.5, 3.0, n)
    b = random_doubly_stochastic(n, seed=21)
    c = random_doubly_stochastic(n, seed=22)
    uni = ProbabilityVector.uniform(n)
    ch = agm_chain(x, uni, uni, *_pair_from_matrices(n, b, c))
    s1, s2 = _direct_matrix_sums(b, c, x)
    want = float(np.prod(np.exp(ln_identric(s1, s2))) ** (1.0 / n))
    assert ch.middle == pytest.approx(want, rel=1e-12)
    assert ch.lower == pytest.approx(float(np.prod(x) ** (1.0 / n)), rel=1e-12)
    assert ch.upper == pytest.approx(float(x.mean()), rel=1e-12)


def test_kyfan_matrix_specialization(rng):
    n = 3
    x = rng.uniform(0.05, 0.5, n)
    b = random_doubly_stochastic(n, seed=31)
    c = random_doubly_stochastic(n, seed=32)
    uni = ProbabilityVector.uniform(n)
    ch = kyfan_chain(x, uni, uni, *_pair_from_matrices(n, b, c))
    s1, s2 = _direct_matrix_sums(b, c, x)
    t1, t2 = _direct_matrix_sums(b, c, 1.0 - x)
    want = float(np.prod(np.exp(ln_identric(t1, t2) - ln_identric(s1, s2))) ** (1.0 / n))
    assert ch.middle == pytest.approx(want, rel=1e-12)


def test_lp_matrix_specialization_antidiagonal(rng):
    """Identity/antidiagonal pairing: middle pairs row i with row n+1-i."""
    n = 4
    k = 3
    samples = np.abs(rng.uniform(-2.0, 2.0, (n, k)))
    p = 2.0
    b = DoublyStochasticMatrix.identity(n)
    c = DoublyStochasticMatrix.antidiagonal(n)
    uni = ProbabilityVector.uniform(n)
    fv = FunctionVector(samples)
    ch = lp_chain(fv, FiniteMeasureSpace.counting(k), p, uni, uni, *_pair_from_matrices(n, b, c))
    want = 0.0
    for i in range(n):
        want += float(pow_integral_mean(samples[i], samples[n - 1 - i], p).sum()) / n
    assert ch.middle == pytest.approx(want, rel=1e-12)


def test_harmonic_matrix_specialization(rng):
    n = 3
    k = 2
    samples = rng.uniform(0.0, 4.0, (n, k))
    b = random_doubly_stochastic(n, seed=41)
    c = random_doubly_stochastic(n, seed=42)
    uni = ProbabilityVector.uniform(n)
    fv = FunctionVector(samples)
    space = FiniteMeasureSpace.counting(k)
    ch = harmonic_chain(fv, space, uni, uni, *_pair_from_matrices(n, b, c))
    s1 = b.values @ samples
    s2 = c.values @ samples
    want = float(k - np.mean(np.sum(1.0 / log_mean(1.0 + s1, 1.0 + s2), axis=1)))
    assert ch.middle == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# batched t-quadrature against the oracle over its scalar integrand


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (3, 1), (16, 5), (40, 2), (120, 150)])
@pytest.mark.parametrize("power", [1.0, 1.5, 2.0, 3.7, None])
def test_t_quadrature_equals_oracle_over_scalar_integrand(rng, shape, power):
    """The engine's t-quadrature over an m x |X| grid of row sums, as the grid rows call it.

    Zero entries make t**p singular at an end of [0, 1]; None is harmonic_frac, m/(1+m).
    """
    s1 = rng.uniform(0.0, 2.0, shape) * (rng.random(shape) < 0.7)
    s2 = rng.uniform(0.0, 2.0, shape) * (rng.random(shape) < 0.7)
    mu = rand_prob(rng, shape[0])
    masses = rng.uniform(0.5, 2.0, shape[1])
    f = get_function("harmonic_frac") if power is None else get_function("powp", {"p": power})

    def scalar(t):
        return float(mu.weights @ (f.evaluate((1.0 - t) * s1 + t * s2) @ masses))

    ref = gauss_kronrod_oracle(scalar, 0.0, 1.0, atol=1e-12, rtol=1e-12)
    batches = []

    def recording(m):
        batches.append(m.size)
        return f.evaluate(m)

    traced = dataclasses.replace(f, evaluate=recording)
    assert t_quadrature(traced, mu, s1, s2, (0.0, 1.0), masses, atol=1e-12, rtol=1e-12) == ref
    # the value cap: a block of whole rows, at as many nodes as fit in 2**14 values
    assert max(batches) <= max(2 ** 14, shape[1])


def test_t_quadrature_of_a_dense_powersum_grid_holds_a_few_blocks_beyond_its_inputs():
    """A dense 658 x 658 grid is one node per integrand call; each call evaluates it a block of
    QUAD_BATCH_VALUES values at a time, not as n x n temporaries."""
    n = 658
    rng = np.random.default_rng(14)
    s1, s2 = rng.uniform(0.5, 1.5, (2, n, n))
    f, mu, masses = get_function("powp", {"p": 2.5}), ProbabilityVector.uniform(n), np.ones(n)
    sides = (1.0, 2.0)
    first = t_quadrature(f, mu, s1, s2, sides, masses, atol=1e-12, rtol=1e-12)
    tracemalloc.start()
    try:
        again = t_quadrature(f, mu, s1, s2, sides, masses, atol=1e-12, rtol=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first
    block = QUAD_BATCH_VALUES * 8
    assert peak < 6 * block, (peak, block)  # an n x n float64 array is 26 blocks


# ---------------------------------------------------------------------------
# grid rows (lp, powersum, harmonic) against a plain-loop evaluation of their kernels


def _mp_kernel(application, a, b, p):
    """The row's kernel at one sample: L_p^p(a, b) = A(t^p; a, b), or 1/L(1 + a, 1 + b)."""
    if abs(b - a) <= mpmath.mpf(10) ** -30 * max(a, b):
        mid = (a + b) / 2  # the closed forms' cancellation would leave no digits here
        return 1 / (1 + mid) if application == "harmonic" else mid ** p
    if application == "harmonic":
        return (mpmath.log1p(b) - mpmath.log1p(a)) / (b - a)
    return (b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))


def loop_grid_middle(application, grid, masses, p, lam, mu, w1, w2):
    """A grid row's middle by plain loops in 50-digit arithmetic: the row sums
    sum_j w(i,j) lambda_j g_j(x), the kernel at each (i, x), summed against mu and the masses."""
    grid, masses = grid.tolist(), masses.tolist()
    lam, mu = lam.weights.tolist(), mu.weights.tolist()
    w1, w2 = w1.values.tolist(), w2.values.tolist()
    with mpmath.workdps(50):
        mpf, p = mpmath.mpf, mpmath.mpf(p)
        total = mpf(0)
        for i in range(len(mu)):
            for x in range(len(masses)):
                s1 = sum(mpf(w1[i][j]) * mpf(lam[j]) * mpf(grid[j][x]) for j in range(len(lam)))
                s2 = sum(mpf(w2[i][j]) * mpf(lam[j]) * mpf(grid[j][x]) for j in range(len(lam)))
                total += mpf(mu[i]) * mpf(masses[x]) * _mp_kernel(application, s1, s2, p)
        if application == "harmonic":
            total = sum(mpf(m) for m in masses) - total
        return float(total)


@st.composite
def grid_rows(draw):
    """(application, points, masses, p, lam, mu, w1, w2) of a random lp, powersum or harmonic
    row: random weights, or over uniform measures two permutations, the identity against a
    permutation, or two mixtures of two permutations (from n = 4 on, mostly (0, 0) weight
    pairs); samples with zeros."""
    application = draw(st.sampled_from(["lp", "powersum", "harmonic"]))
    family = draw(st.sampled_from(["random", "permutations", "identity-permutation",
                                   "mixtures"]))
    n = draw(st.integers(1, 5 if family in ("random", "permutations") else 9))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]) | st.floats(1.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if family != "random":
        lam = mu = ProbabilityVector.uniform(n)

        def grid():
            if family == "mixtures":
                return permutation_mixture(rng, n, 2)
            return np.eye(n)[rng.permutation(n)]

        b = np.eye(n) if family == "identity-permutation" else grid()
        w1, w2 = (embed_doubly_stochastic(DoublyStochasticMatrix(g)) for g in (b, grid()))
    else:
        m = draw(st.integers(1, 5))
        lam, mu = rand_prob(rng, n), rand_prob(rng, m)
        w1, w2 = rand_weight(rng, mu, lam), rand_weight(rng, mu, lam)
    shape = (n,) if application == "powersum" else (n, draw(st.integers(1, 4)))
    points = rng.uniform(0.0, 3.0, shape) * (rng.random(shape) < 0.8)
    if application == "lp":
        points *= rng.choice([-1.0, 1.0], shape)
    masses = np.ones(n) if application == "powersum" else rng.uniform(0.5, 2.0, shape[1])
    return application, points, masses, p, lam, mu, w1, w2


@settings(deadline=None, max_examples=max(200, settings.default.max_examples))
@given(row=grid_rows())
def test_grid_rows_match_a_plain_loop_evaluation_of_their_kernels(row):
    application, points, masses, p, lam, mu, w1, w2 = row
    if application == "powersum":
        ch = power_sum_chain(points, p, lam, mu, w1, w2)
        grid = np.diag(points)
    elif application == "lp":
        fv, space = FunctionVector(points), FiniteMeasureSpace(masses)
        ch = lp_chain(fv, space, p, lam, mu, w1, w2)
        grid = np.abs(points)
    else:
        ch = harmonic_chain(FunctionVector(points), FiniteMeasureSpace(masses), lam, mu, w1, w2)
        grid = points
    want = loop_grid_middle(application, grid, masses, p, lam, mu, w1, w2)
    assert rel_err(ch.middle, want) <= 1e-12
    assert ch.identity_checks[0].ok


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(pair=dense_pairs(), x=st.lists(st.floats(0.01, 5.0), min_size=30, max_size=30),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.7]) | st.floats(1.0, 6.0))
def test_power_sum_without_zero_pairs_takes_the_full_grid_bit_for_bit(pair, x, p):
    """Every (i, j) pair is live, so the middle and the quadrature are the engine's over the
    whole n x n grid of row sums, unchanged."""
    b, c, _ = pair
    n = b.n
    x = np.array(x[:n])
    uni = ProbabilityVector.uniform(n)
    w1, w2 = _pair_from_matrices(n, b, c)
    ch = power_sum_chain(x, p, uni, uni, w1, w2)
    f = get_function("powp", {"p": p})
    lx = uni.weights * x
    s1, s2, ones = w1.values * lx, w2.values * lx, np.ones(n)
    assert ch.middle == t_average(f, uni, s1, s2, ones)
    sides = (ch.lower, ch.upper)
    assert ch.identity_checks[0].rhs == t_quadrature(f, uni, s1, s2, sides, ones, 1e-12, 1e-12)


def _identity_against_a_permutation(n, seed):
    uni = ProbabilityVector.uniform(n)
    perm = np.random.default_rng(seed).permutation(n)
    w1 = embed_doubly_stochastic(DoublyStochasticMatrix.identity(n))
    return uni, w1, embed_doubly_stochastic(DoublyStochasticMatrix(np.eye(n)[perm]))


def test_power_sum_quadrature_evaluates_only_the_live_pairs(monkeypatch):
    """The identity against a permutation, with three x_j = 0: each quadrature node evaluates
    t^p at the live pairs alone, at most 2n of the n^2."""
    n = 60
    uni, w1, w2 = _identity_against_a_permutation(n, 11)
    x = np.random.default_rng(12).uniform(0.0, 5.0, n)
    x[:3] = 0.0
    live = np.count_nonzero(((w1.values != 0.0) | (w2.values != 0.0)) & (x != 0.0))
    f = get_function("powp", {"p": 2.5})
    shapes = []

    def recording(m):
        shapes.append(m.shape)
        return f.evaluate(m)

    traced = dataclasses.replace(f, evaluate=recording)
    monkeypatch.setattr(apps, "get_function", lambda name, params=None: traced)
    nodes = []
    quadrature = refine.adaptive_simpson

    def counting(fv, *args, **kwargs):
        return quadrature(lambda ts: nodes.append(ts.size) or fv(ts), *args, **kwargs)

    monkeypatch.setattr(refine, "adaptive_simpson", counting)
    ch = power_sum_chain(x, 2.5, uni, uni, w1, w2)
    assert ch.passed and ch.identity_checks[0].ok
    quad = [shape for shape in shapes if len(shape) == 2]  # phi's (nodes, pairs) arrays
    assert quad and all(shape[1] == live for shape in quad)
    assert sum(k * m for k, m in quad) <= sum(nodes) * live
    assert live <= 2 * n


def test_power_sum_chain_over_sparse_weights_allocates_no_n_by_n_array():
    """At hard n = 600 (the identity against a permutation) the 2n live pairs replace the two
    n x n grids of row sums: the whole call peaks below one n x n float array."""
    n = 600
    uni, w1, w2 = _identity_against_a_permutation(n, 5)
    x = np.random.default_rng(6).uniform(0.0, 5.0, n)
    power_sum_chain(x, 2.5, uni, uni, w1, w2)  # first call: anything built once is built
    tracemalloc.start()
    try:
        ch = power_sum_chain(x, 2.5, uni, uni, w1, w2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ch.passed and ch.identity_checks[0].ok
    assert peak < n * n * 8
