"""Report rendering: byte-identical to the item-by-item renderer, finite numbers only."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jensenchain import NumericError, ProbabilityVector, random_doubly_stochastic, random_weight
from jensenchain.cli import main, render_json

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
