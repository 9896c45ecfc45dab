"""Report rendering: byte-identical to the item-by-item renderer, finite numbers only; generated
grids through the array encoder, byte-identical to %.17g."""

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jensenchain import NumericError, ProbabilityVector, random_doubly_stochastic, random_weight
from jensenchain import gridtext
from jensenchain.cli import main, render_json
from jensenchain.numerics import QUAD_BATCH_VALUES

from conftest import recursive_render

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0, 0.1, 1 / 3, 1e16, 1e-7]

finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
scalars = st.one_of(
    finite,
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
)
rows = st.lists(finite, max_size=6)
documents = st.recursive(
    scalars | rows | rows.map(tuple),
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_render_equals_the_item_by_item_oracle(doc):
    assert render_json(doc) == recursive_render(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        (),
        {},
        [[]],
        [-0.0, 5e-324, 1e308],
        [1, 2.0, True],
        [2.0, np.float64(0.5), None, "x"],
        (0.25, 0.5),
        {"a": [[0.1, 0.2], [], [0.3]], "b": {"c": (1e-300,)}},
    ],
    ids=repr,
)
def test_render_edge_cases(doc):
    assert render_json(doc) == recursive_render(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [1.0, math.inf],
        [-math.inf],
        [math.nan, 2.0],
        [1, math.inf],  # a mixed row takes the item-by-item branch
        {"upper": math.inf},
        np.float64(math.nan),
        [[0.5], (np.float32(-math.inf),)],
    ],
    ids=repr,
)
def test_render_refuses_non_finite_numbers(doc):
    with pytest.raises(NumericError, match="non-finite number -?(inf|nan)"):
        render_json(doc)


@pytest.mark.parametrize("n", [1, 2, 17, 250])
def test_generate_ds_equals_the_oracle(capsys, n):
    assert main(["generate", "ds", "--n", str(n), "--seed", "3"]) == 0
    values = random_doubly_stochastic(n, seed=3).values
    expected = recursive_render([[float(v) for v in row] for row in values]) + "\n"
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("n, m", [(1, 1), (3, 5), (250, 40)])
def test_generate_weight_equals_the_oracle(capsys, n, m):
    assert main(["generate", "weight", "--n", str(n), "--m", str(m), "--seed", "5"]) == 0
    w = random_weight(ProbabilityVector.uniform(m), ProbabilityVector.uniform(n), 5)
    payload = {"kind": "matrix", "values": [[float(v) for v in row] for row in w.values]}
    assert capsys.readouterr().out == recursive_render(payload) + "\n"


# ---------------------------------------------------------------------------
# the grid encoder: gridtext.encode_rows against %.17g, and render_json of an array against
# render_json of its list of rows

DBL_MAX = sys.float_info.max


def _encoder_edges():
    """Values where the digits, the rounding or the %g layout change."""
    values = [
        # ties at the 18th significant digit, which round half to even
        1234567890123456.75, 1234567890123456.25, 1125899906842624.75,
        562949953421312.125, 999999999999999.875,
        0.99999999999999994,
        # the 1e-4 / 1e-5 and 1e16 / 1e17 layout boundaries, and the ends of the fast range
        1e-4, 1e-5, 1e16, 1e17, 1e-11, 1e-12, 99999999999999984.0, 9.9999999999999991e-05,
        # subnormals, zeros and the ends of the doubles
        5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 0.0, -0.0, DBL_MAX,
    ]
    for j in range(-13, 19):  # powers of ten, and one ulp either side
        p = float(f"1e{j}")
        values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    return values + [-v for v in values]


ENCODER_EDGES = _encoder_edges()
bit_patterns = st.integers(0, 2**64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]).filter(math.isfinite)
grid_values = bit_patterns | finite | st.sampled_from(ENCODER_EDGES)


def tokens(text):
    """The numbers of a rendered grid, as printed."""
    return [t for t in text.replace(",", " ").split() if t not in ("[", "]")]


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(values=st.lists(grid_values, min_size=1, max_size=40), cols=st.integers(1, 5),
       indent=st.integers(0, 3))
def test_encoder_prints_every_double_as_17g(values, cols, indent):
    cols = min(cols, len(values))
    values = values[: len(values) // cols * cols]  # whole rows
    grid = np.array(values, dtype=float).reshape(-1, cols)
    assert tokens(gridtext.encode_rows(grid, indent)) == [f"{v:.17g}" for v in values]


def test_encoder_edge_values():
    grid = np.array(ENCODER_EDGES).reshape(1, -1)
    assert tokens(gridtext.encode_rows(grid, 0)) == [f"{v:.17g}" for v in ENCODER_EDGES]


WIDE = QUAD_BATCH_VALUES + 3  # a row wider than a block


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (7, 1), (1, 7), (2, WIDE),
                                   (QUAD_BATCH_VALUES // 50 * 2 + 3, 50)], ids=str)
def test_render_of_an_array_equals_render_of_its_rows(shape):
    grid = np.random.default_rng(sum(shape)).random(shape) * 10.0 ** (np.arange(shape[1]) % 9 - 6)
    for nest in (lambda g: g, lambda g: {"kind": "matrix", "values": g}, lambda g: [{"a": {"b": g}}]):
        plain = nest(grid.tolist())
        assert render_json(nest(grid)) == render_json(plain) == recursive_render(plain)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_render_of_an_array_refuses_non_finite_numbers_as_its_rows(bad):
    grid = np.full((3, 4), 0.25)
    grid[1, 2] = bad
    grid[2, 0] = -bad  # only the first one in row order is named
    with pytest.raises(NumericError) as plain:
        render_json(grid.tolist())
    with pytest.raises(NumericError, match="non-finite number -?(inf|nan)") as array:
        render_json(grid)
    assert str(array.value) == str(plain.value)


def per_number(grid, indent):
    """The text of grid's list of rows at indent as the per-number path prints it."""
    outer, pad, inner = ("  " * (indent + j) for j in range(3))
    rows = (f"[\n{inner}" + f",\n{inner}".join(f"{v:.17g}" for v in row) + f"\n{pad}]"
            for row in grid.tolist())
    return f"[\n{pad}" + f",\n{pad}".join(rows) + f"\n{outer}]"


def test_encoder_on_both_sides_of_every_decade_and_path_boundary():
    # X from -13 to 18: the per-number path for k = 16 - X from 23 on (|v| below 1e-6), the
    # two-product through k = 22, the exponent form below 1e-4, fixed notation through 1e17
    # and the per-number path above; at each decade's ends, where log10 leaves X one low,
    # and across it
    rng = np.random.default_rng(11)
    values = []
    for x in range(-13, 19):
        p = float(f"1e{x}")
        for step in (1e-14, 1e-12, 3e-12, 1e-9):
            values += [p * (1 + step), p * (1 - step)]
        values += (p * rng.uniform(1.0, 10.0, 40)).tolist()
    grid = np.array(values + [-v for v in values]).reshape(-1, 16)
    assert gridtext.encode_rows(grid, 0) == per_number(grid, 0)


def test_encoder_rounds_exact_ties_half_to_even_on_both_products():
    # v = m / 2**(k + 1) with m odd has v * 10**k = m 5**k / 2 exactly, a tie between two
    # 17-digit integers: k <= 22 takes the two-product, k >= 23 the per-number path
    values = []
    for k in range(1, 28):
        low = -(-2 * 10**16 // 5**k) | 1  # the first odd m with m 5**k / 2 >= 10**16
        for m in (low, low + 2, low + 4, 2 * low + 1, 2 * 10**17 // 5**k - 1 | 1):
            if m * 5**k < 2 * 10**17 and m < 2**53:
                values.append(m / 2 ** (k + 1))
    assert len(values) > 100
    grid = np.array(values + [-v for v in values]).reshape(2, -1)
    assert gridtext.encode_rows(grid, 1) == per_number(grid, 1)


def test_encoder_prints_zeros_subnormals_and_large_values_as_17g():
    grid = np.zeros((40, 30))
    grid[::3, ::2] = -0.0
    grid[1::7, 1::5] = [5e-324, -2.2250738585072009e-308, 1e17, -DBL_MAX, 1e-12, 0.5]
    assert gridtext.encode_rows(grid, 0) == per_number(grid, 0)


@pytest.mark.parametrize("indent", [0, 1, 2, 3])
@pytest.mark.parametrize("shape", [(1, WIDE), (QUAD_BATCH_VALUES // 7 + 5, 7), (3, 1)], ids=str)
def test_encoder_at_every_indent_and_block_shape(indent, shape):
    rng = np.random.default_rng(indent)
    grid = rng.random(shape) * 10.0 ** rng.integers(-13, 19, shape)
    assert gridtext.encode_rows(grid, indent) == per_number(grid, indent)
