"""Validators, constructors, and seeded generators for measures and weights."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jensenchain import (
    DoublyStochasticMatrix,
    FiniteMeasureSpace,
    FunctionVector,
    HadamardWeights,
    ProbabilityVector,
    ValidationError,
    WeightFunction,
    embed_doubly_stochastic,
    interpolate_weight,
    random_doubly_stochastic,
    random_weight,
    rank_one_weight,
    sinkhorn_normalize,
    validate_weight,
)
from jensenchain import cli

UNI2 = ProbabilityVector.uniform(2)


# ---------------------------------------------------------------------------
# ProbabilityVector


def test_probability_vector_accepts_uniform():
    pv = ProbabilityVector.uniform(5)
    assert len(pv) == 5
    assert pv.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_probability_vector_accepts_zero_mass_points():
    pv = ProbabilityVector([1.0, 0.0])
    assert pv.weights[1] == 0.0


def test_probability_vector_rejects_negative_entry():
    with pytest.raises(ValidationError, match="negative"):
        ProbabilityVector([0.6, 0.5, -0.1])


def test_probability_vector_rejects_bad_sum():
    with pytest.raises(ValidationError, match="sums to"):
        ProbabilityVector([0.5, 0.4])
    with pytest.raises(ValidationError):
        ProbabilityVector([0.5, 0.5 + 5e-12])


def test_probability_vector_is_frozen():
    pv = ProbabilityVector.uniform(3)
    with pytest.raises(ValueError):
        pv.weights[0] = 0.9


# ---------------------------------------------------------------------------
# validate_weight


def test_all_ones_grid_is_valid_for_any_measures(rng):
    for _ in range(20):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        mu = ProbabilityVector(np.diff(np.sort(np.concatenate([[0, 1], rng.random(m - 1)]))))
        lam = ProbabilityVector.uniform(n)
        w = validate_weight(np.ones((m, n)), mu, lam)
        assert w.shape == (m, n)


def test_negative_entry_rejected_with_position():
    grid = np.ones((2, 2))
    grid[1, 0] = -0.1
    with pytest.raises(ValidationError, match=r"\(1, 0\)"):
        validate_weight(grid, UNI2, UNI2)


def test_scaled_identity_is_valid_for_uniform_measures():
    n = 4
    uni = ProbabilityVector.uniform(n)
    w = validate_weight(n * np.eye(n), uni, uni)
    assert np.array_equal(w.values, n * np.eye(n))


def test_biorthogonality_residual_reported():
    grid = np.array([[1.1, 1.0], [1.0, 1.0]])
    with pytest.raises(ValidationError, match="residual"):
        validate_weight(grid, UNI2, UNI2)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError, match="shape"):
        validate_weight(np.ones((2, 3)), UNI2, UNI2)


def test_zero_mass_column_constraint_degenerates_gracefully():
    # with lambda = (1, 0) the row constraint pins column 0 to ones and
    # leaves column 1 free in the row sums but still column-normalized
    lam = ProbabilityVector([1.0, 0.0])
    grid = np.array([[1.0, 1.6], [1.0, 0.4]])
    w = validate_weight(grid, UNI2, lam)
    assert np.all(w.values[:, 0] == 1.0)


# ---------------------------------------------------------------------------
# rank_one_weight


def test_rank_one_zero_direction_gives_ones():
    w = rank_one_weight([0.0, 0.0], [3.0, -1.0], UNI2, UNI2)
    assert np.array_equal(w.values, np.ones((2, 2)))


def test_rank_one_hand_example():
    s = 1.0 / math.sqrt(2.0)
    w = rank_one_weight([s, -s], [s, -s], UNI2, UNI2)
    assert np.allclose(w.values, [[1.5, 0.5], [0.5, 1.5]], atol=1e-15)


def test_rank_one_rescales_long_vectors():
    w = rank_one_weight([2.0, -2.0], [2.0, -2.0], UNI2, UNI2)
    # after shrinking to unit norm the outer product caps at 1/2
    assert np.allclose(w.values, [[1.5, 0.5], [0.5, 1.5]], atol=1e-15)


def test_rank_one_projects_off_mean_vectors():
    mu = ProbabilityVector([0.3, 0.7])
    lam = ProbabilityVector([0.5, 0.5])
    w = rank_one_weight([1.0, 2.0], [1.0, -1.0], mu, lam)  # u has nonzero mu-mean
    assert np.all(w.values >= 0.0)


def test_rank_one_dimension_mismatch():
    with pytest.raises(ValidationError, match="size"):
        rank_one_weight([1.0], [1.0, -1.0], UNI2, UNI2)


@given(
    u=arrays(float, 3, elements=st.floats(-1e6, 1e6, allow_nan=False)),
    v=arrays(float, 4, elements=st.floats(-1e6, 1e6, allow_nan=False)),
)
@settings(max_examples=200, deadline=None)
def test_rank_one_always_validates(u, v):
    mu = ProbabilityVector.uniform(3)
    lam = ProbabilityVector([0.1, 0.2, 0.3, 0.4])
    w = rank_one_weight(u, v, mu, lam)
    assert np.all(w.values >= 0.0)


# ---------------------------------------------------------------------------
# embed / interpolate


def test_embed_identity():
    w = embed_doubly_stochastic(DoublyStochasticMatrix.identity(2))
    assert np.array_equal(w.values, 2.0 * np.eye(2))
    assert np.array_equal(w.mu.weights, [0.5, 0.5])


def test_embed_uniform_matrix_gives_ones():
    w = embed_doubly_stochastic(DoublyStochasticMatrix.uniform(3))
    assert np.allclose(w.values, np.ones((3, 3)), atol=1e-15)


def test_embed_antidiagonal():
    w = embed_doubly_stochastic(DoublyStochasticMatrix.antidiagonal(3))
    assert np.array_equal(w.values, 3.0 * np.fliplr(np.eye(3)))


def test_embedding_leaves_its_argument_unchanged_unless_it_is_spent_in_place():
    values = random_doubly_stochastic(6, seed=3).values  # read-only and owning: kept as is
    before = values.copy()
    a = DoublyStochasticMatrix(values)
    w = embed_doubly_stochastic(a)
    assert a.values is values and not values.flags.writeable
    assert values.tobytes() == before.tobytes()
    assert w.values.tobytes() == (6 * before).tobytes()
    # in place: the same products, written over the matrix's own values, read-only again
    spent = DoublyStochasticMatrix(before.copy())
    own = spent.values
    w_in_place = embed_doubly_stochastic(spent, in_place=True)
    assert w_in_place.values is own and not own.flags.writeable
    assert own.tobytes() == w.values.tobytes()


def test_interpolate_endpoints_and_hand_average():
    w1 = WeightFunction.ones(UNI2, UNI2)
    w2 = validate_weight([[1.5, 0.5], [0.5, 1.5]], UNI2, UNI2)
    assert np.array_equal(interpolate_weight(w1, w2, 0.0).values, w1.values)
    assert np.array_equal(interpolate_weight(w1, w2, 1.0).values, w2.values)
    assert np.allclose(
        interpolate_weight(w1, w2, 0.5).values, [[1.25, 0.75], [0.75, 1.25]], atol=1e-15
    )


def test_interpolate_of_equal_weights_is_identity():
    w = validate_weight([[1.5, 0.5], [0.5, 1.5]], UNI2, UNI2)
    # (1-t)*x + t*x equals x only up to one rounding of the two products
    assert np.allclose(interpolate_weight(w, w, 0.3).values, w.values, rtol=1e-15, atol=0.0)


def test_interpolate_is_affine_bit_for_bit(rng):
    for _ in range(20):
        w1 = random_weight(UNI2, UNI2, seed=int(rng.integers(1 << 30)))
        w2 = random_weight(UNI2, UNI2, seed=int(rng.integers(1 << 30)))
        t = float(rng.random())
        got = interpolate_weight(w1, w2, t).values
        assert np.array_equal(got, (1.0 - t) * w1.values + t * w2.values)


def test_interpolate_rejects_bad_t_and_mismatched_measures():
    w1 = WeightFunction.ones(UNI2, UNI2)
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        interpolate_weight(w1, w1, 1.5)
    other = WeightFunction.ones(ProbabilityVector([0.3, 0.7]), UNI2)
    with pytest.raises(ValidationError, match="different"):
        interpolate_weight(w1, other, 0.5)


# ---------------------------------------------------------------------------
# doubly stochastic matrices and Sinkhorn


def test_ds_validators():
    DoublyStochasticMatrix.identity(3)
    DoublyStochasticMatrix.antidiagonal(4)
    DoublyStochasticMatrix.uniform(5)
    with pytest.raises(ValidationError, match="row"):
        DoublyStochasticMatrix([[0.9, 0.0], [0.1, 1.0]])
    with pytest.raises(ValidationError, match="negative"):
        DoublyStochasticMatrix([[1.1, -0.1], [-0.1, 1.1]])
    with pytest.raises(ValidationError, match="square"):
        DoublyStochasticMatrix(np.ones((2, 3)) / 3.0)


def test_sinkhorn_balances_flat_start():
    m = sinkhorn_normalize([[1.0, 1.0], [1.0, 1.0]])
    assert np.allclose(m.values, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_sinkhorn_rejects_zero_line():
    with pytest.raises(ValidationError, match="positive"):
        sinkhorn_normalize([[0.0, 0.0], [1.0, 1.0]])


def test_random_ds_one_by_one():
    assert np.array_equal(random_doubly_stochastic(1, seed=99).values, [[1.0]])


def test_random_ds_residuals_and_determinism():
    a = random_doubly_stochastic(5, seed=7)
    b = random_doubly_stochastic(5, seed=7)
    c = random_doubly_stochastic(5, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.max(np.abs(a.values.sum(axis=0) - 1.0)) < 1e-12
    assert np.max(np.abs(a.values.sum(axis=1) - 1.0)) < 1e-12
    # embedding a generated matrix always passes the weight validator
    embed_doubly_stochastic(a)


def test_random_ds_rejects_bad_dimension():
    with pytest.raises(ValidationError):
        random_doubly_stochastic(0, seed=1)


# ---------------------------------------------------------------------------
# random_weight


def test_random_weight_is_deterministic_and_valid():
    a = random_weight(UNI2, UNI2, seed=1)
    b = random_weight(UNI2, UNI2, seed=1)
    assert np.array_equal(a.values, b.values)


def test_random_weight_zero_amplitude_gives_ones():
    w = random_weight(UNI2, UNI2, seed=3, amplitude=0.0)
    assert np.array_equal(w.values, np.ones((2, 2)))


def test_random_weight_zero_mass_column_pinned():
    lam = ProbabilityVector([1.0, 0.0])
    w = random_weight(UNI2, lam, seed=11)
    # lambda-projection forces v[0] = 0, so the first column stays at 1
    assert np.allclose(w.values[:, 0], 1.0, atol=1e-15)


def test_random_weight_various_shapes(rng):
    for _ in range(25):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        mu = ProbabilityVector.uniform(m)
        lam = ProbabilityVector.uniform(n)
        random_weight(mu, lam, seed=int(rng.integers(1 << 30)))


# ---------------------------------------------------------------------------
# ownership: which arrays are kept as handed in, and which are copied


def _holders(n):
    """name -> (an array the constructor accepts, the constructor, the array it holds), for
    every constructor that keeps a read-only float64 array; name is as messages give it."""
    uni = ProbabilityVector.uniform(n)
    eye = np.eye(n)
    return {
        "probability vector": (eye[0].copy(), ProbabilityVector, lambda obj: obj.weights),
        "weight grid": (n * eye, lambda a: WeightFunction(a, uni, uni), lambda obj: obj.values),
        "matrix": (eye, DoublyStochasticMatrix, lambda obj: obj.values),
        "samples": (eye, FunctionVector, lambda obj: obj.samples),
    }


HOLDERS = list(_holders(1))


def _freeze_as(values, dtype):
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@pytest.mark.parametrize("name", HOLDERS)
def test_a_read_only_float64_array_that_owns_its_data_is_kept(name):
    values, build, held = _holders(3)[name]
    kept = _freeze_as(values, np.float64)
    arr = held(build(kept))
    assert np.shares_memory(arr, kept)
    with pytest.raises(ValueError):
        arr[0] = 0.5


@pytest.mark.parametrize("name", HOLDERS)
def test_any_other_array_is_copied_and_the_copy_is_frozen(name):
    values, build, held = _holders(3)[name]
    view = values.view()
    view.flags.writeable = False  # read-only, but its base is writeable
    others = {
        "writeable": values,
        "read-only view": view,
        "float32": _freeze_as(values, np.float32),
        "int64": _freeze_as(values, np.int64),
        "list": values.tolist(),
    }
    for label, given_values in others.items():
        arr = held(build(given_values))
        assert arr.dtype == np.float64 and np.array_equal(arr, values), label
        if isinstance(given_values, np.ndarray):
            assert not np.shares_memory(arr, given_values), label
        with pytest.raises(ValueError):
            arr[0] = 0.5
    assert values.flags.writeable  # the caller's array is left as it was


# the 1-D arrays that refine and apps hold follow the same rule
VECTOR_HOLDERS = {
    "hadamard p": (lambda a: HadamardWeights(a, np.full(len(a), 0.5)), lambda hw: hw.p),
    "hadamard t": (lambda a: HadamardWeights(np.ones(len(a)), a), lambda hw: hw.t),
    "space masses": (FiniteMeasureSpace, lambda space: space.masses),
}


@pytest.mark.parametrize("name", VECTOR_HOLDERS)
def test_hadamard_weights_and_measure_spaces_hold_frozen_arrays(name):
    build, held = VECTOR_HOLDERS[name]
    values = np.array([0.25, 0.5, 1.0])
    kept = _freeze_as(values, np.float64)
    assert held(build(kept)) is kept
    for given_values in (values, values.tolist()):
        arr = held(build(given_values))
        assert np.array_equal(arr, values) and not np.shares_memory(arr, values)
        with pytest.raises(ValueError):
            arr[0] = -5.0
    assert values.flags.writeable  # the caller's array is left as it was


def test_producers_hand_their_grids_to_the_constructor_without_a_copy(monkeypatch):
    kept = []
    for cls in (WeightFunction, DoublyStochasticMatrix):
        def recording(self, init=cls.__post_init__):
            values = self.values
            init(self)
            kept.append((type(self).__name__, self.values is values))

        monkeypatch.setattr(cls, "__post_init__", recording)
    uni3 = ProbabilityVector.uniform(3)
    embed_doubly_stochastic(DoublyStochasticMatrix.identity(3))
    DoublyStochasticMatrix.uniform(3)
    sinkhorn_normalize(np.ones((3, 3)))
    w = WeightFunction.ones(uni3, uni3)
    interpolate_weight(w, w, 0.5)
    random_weight(uni3, uni3, seed=4)  # three rank-one weights, two interpolations
    assert len(kept) == 11 and all(same for _, same in kept), kept


# ---------------------------------------------------------------------------
# messages: the reductions that stand in for the masks name the same entry


BAD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(max_value=-np.finfo(float).smallest_subnormal, allow_infinity=False,
              allow_nan=False),
)


# the messages as the constructors worded them when every check built a full-size mask
NON_FINITE = {
    "probability vector": "probability vector entries must be finite",
    "weight grid": "weight grid entries must be finite",
    "matrix": "matrix entries must be finite",
    "samples": "samples must be finite",
}
NEGATIVE = {
    "probability vector": lambda j, x: f"probability vector entry {j} is negative: {x}",
    "weight grid": lambda i, j, x: f"weight grid entry ({i}, {j}) is negative: {x}",
    "matrix": lambda i, j, x: f"matrix entry ({i}, {j}) is negative: {x}",
}


@given(
    st.sampled_from(HOLDERS),
    st.integers(1, 6),
    st.integers(0, 35),
    BAD_VALUES,
    st.sampled_from(["copied", "kept"]),
)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_a_bad_entry_is_named_as_before(name, n, at, bad, form):
    values, build, _ = _holders(n)[name]
    k = np.unravel_index(at % values.size, values.shape)
    values[k] = bad
    if math.isfinite(bad):
        if name == "samples":
            return  # samples may be negative
        expected = NEGATIVE[name](*k, np.float64(bad))
    else:
        expected = NON_FINITE[name]
    with pytest.raises(ValidationError) as info:
        build(_freeze_as(values, np.float64) if form == "kept" else values)
    assert str(info.value) == expected


@given(st.integers(1, 6), st.integers(0, 35), BAD_VALUES, st.sampled_from(["list", "kept"]))
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_the_parser_names_a_non_finite_entry_as_before(n, at, bad, form):
    grid = np.ones((n, n))
    i, j = divmod(at % (n * n), n)
    grid[i, j] = bad
    raw = grid.tolist() if form == "list" else _freeze_as(grid, np.float64)
    if math.isfinite(bad):
        assert np.array_equal(cli._as_float_array(raw, "weights.B"), grid)
        return
    with pytest.raises(ValidationError) as info:
        cli._as_float_array(raw, "weights.B")
    assert str(info.value) == f"weights.B: non-finite value {np.float64(bad)} at index [{i}, {j}]"
