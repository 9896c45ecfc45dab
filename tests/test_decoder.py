"""The instance-file decoder: json.loads, except that grids arrive as float64 arrays."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jensenchain import cli

# json.loads as the CLI used it before grids were decoded to arrays: the reference
PLAIN = json.JSONDecoder(parse_constant=cli._refuse_constant)


def is_grid(value):
    """value is a list of equal-length, non-empty rows of JSON numbers that fit a double."""
    if not (isinstance(value, list) and value and all(isinstance(row, list) for row in value)):
        return False
    width = len(value[0])
    numbers = all(
        len(row) == width and all(type(v) in (int, float) for v in row) for row in value
    )
    if not (width and numbers):
        return False
    try:
        np.asarray(value, dtype=float)
    except OverflowError:  # an integer beyond the largest double stays a list
        return False
    return True


def assert_same(plain, decoded, path="$", in_list=False):
    """decoded is plain, except that grids are float64 arrays.

    A grid inside another array stays a list: the C scanner reads every
    array that is not a grid, nested arrays included.
    """
    if isinstance(decoded, np.ndarray):
        assert is_grid(plain), path
        expected = np.asarray(plain, dtype=float)
        assert decoded.dtype == np.float64 and decoded.shape == expected.shape, path
        assert decoded.tobytes() == expected.tobytes(), path  # bit for bit, signed zeros too
    elif isinstance(plain, dict):
        assert type(decoded) is dict and list(decoded) == list(plain), path
        for key in plain:
            assert_same(plain[key], decoded[key], f"{path}.{key}", in_list)
    elif isinstance(plain, list):
        assert not (is_grid(plain) and not in_list), f"{path}: a grid left as a list"
        assert type(decoded) is list and len(decoded) == len(plain), path
        for k, (a, b) in enumerate(zip(plain, decoded)):
            assert_same(a, b, f"{path}[{k}]", True)
    else:
        assert type(decoded) is type(plain) and repr(decoded) == repr(plain), path


def outcome(decoder, text):
    try:
        return "value", decoder.decode(text)
    except Exception as exc:  # the exception is the result to compare
        return "raised", (type(exc), str(exc))


def assert_decodes_like_json(text):
    """The decoder agrees with json.loads on text, also with a block of 4 values.

    A block that small sends every array longer than 4 characters through
    the row-by-row scan, and every grid of more than 4 values into several
    blocks.
    """
    plain = outcome(PLAIN, text)
    for block_values in (cli.QUAD_BATCH_VALUES, 4):
        with mock.patch.object(cli, "QUAD_BATCH_VALUES", block_values):
            decoded = outcome(cli._DECODER, text)
        assert plain[0] == decoded[0], (block_values, plain, decoded)
        if plain[0] == "raised":
            assert plain == decoded, block_values
        else:
            assert_same(plain[1], decoded[1])


# ---------------------------------------------------------------------------
# JSON texts: number tokens written as a document would hold them

NUMBER_TOKENS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.integers(-(10**400), 10**400).map(str),  # up to about 400 digits
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0", "-0.0", "0.0", "1e400", "-1e400", "1E-400", "2.5e+3", "1e308"]),
)
STRINGS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["[[", "]]", "[[1, 2], [3]]", "1.5", "-0", "true", "NaN"]),
).map(json.dumps)
SCALARS = st.one_of(NUMBER_TOKENS, STRINGS, st.sampled_from(["true", "false", "null"]))
SPACE = st.sampled_from(["", " ", "\n", "\t ", "\r\n  "])


@st.composite
def arrays(draw, items):
    gap = draw(SPACE)
    return "[" + gap + ("," + gap).join(draw(st.lists(items, max_size=4))) + gap + "]"


@st.composite
def grids(draw):
    """Rows of numbers: mostly equal-length, some ragged, empty or 3-D."""
    width = draw(st.integers(0, 4))
    shape = draw(st.sampled_from(["equal", "equal", "ragged", "deep", "mixed"]))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        size = width if shape != "ragged" else draw(st.integers(0, 4))
        row = [draw(NUMBER_TOKENS) for _ in range(size)]
        if shape == "deep":
            row = [f"[{v}, {v}]" for v in row]
        if shape == "mixed" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(SCALARS)
        gap = draw(SPACE)
        rows.append("[" + ("," + gap).join(row) + "]")
    gap = draw(SPACE)
    return "[" + gap + ("," + gap).join(rows) + gap + "]"


@st.composite
def objects(draw, items):
    gap = draw(SPACE)
    keys = draw(st.lists(STRINGS, max_size=4))
    pairs = [f"{key}{gap}:{gap}{draw(items)}" for key in keys]
    return "{" + gap + ("," + gap).join(pairs) + gap + "}"


DOCUMENTS = st.recursive(
    st.one_of(SCALARS, grids()),
    lambda items: st.one_of(arrays(items), objects(items), grids()),
    max_leaves=12,
)


@st.composite
def mutated(draw):
    """A document, then a few byte edits: replace, insert or delete one character."""
    text = draw(DOCUMENTS)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(list('[]{},:" -0123456789.eEtfnNI')))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert":
            text = text[:k] + char + text[k:]
        elif edit == "replace":
            text = text[:k] + char + text[k + 1 :]
        else:
            text = text[:k] + text[k + 1 :]
    return text


DIFFERENTIAL = settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@DIFFERENTIAL
@given(DOCUMENTS)
def test_documents_decode_like_json(text):
    assert_decodes_like_json(text)


@DIFFERENTIAL
@given(mutated())
def test_mutated_documents_decode_or_fail_like_json(text):
    assert_decodes_like_json(text)


@pytest.mark.parametrize("block_values", [cli.QUAD_BATCH_VALUES, 4])
def test_grids_become_float64_arrays_and_other_arrays_stay_lists(monkeypatch, block_values):
    monkeypatch.setattr(cli, "QUAD_BATCH_VALUES", block_values)
    doc = cli._DECODER.decode(
        '{"B": [[1, 0], [-0.0, 1e-300]], "v": [1, 2], "e": [], "ee": [[]], '
        '"s": [["1"]], "b": [[true]], "z": [[null]], "r": [[1], [1, 2]], "d": [[[1]]], '
        '"rr": [[1, 2], [3, 4], [5]], '
        '"big": [[1e400, 10]], "huge": [[1' + "0" * 400 + "]]}"
    )
    assert isinstance(doc["B"], np.ndarray) and doc["B"].dtype == np.float64
    assert doc["B"].tolist() == [[1.0, 0.0], [-0.0, 1e-300]]
    assert np.signbit(doc["B"][1, 0])
    assert np.isinf(doc["big"][0, 0])  # refused later, by the field's finite check
    for key, value in [("v", [1, 2]), ("e", []), ("ee", [[]]), ("s", [["1"]]),
                       ("b", [[True]]), ("z", [[None]]), ("r", [[1], [1, 2]]), ("d", [[[1]]]),
                       ("rr", [[1, 2], [3, 4], [5]])]:
        assert doc[key] == value and type(doc[key]) is list, key
    assert doc["huge"] == [[10**400]]  # beyond a double: stays an int, as json.loads gives


def test_a_grid_longer_than_one_block_is_one_array():
    rows = np.arange(3 * cli.QUAD_BATCH_VALUES, dtype=float).reshape(-1, 8) / 3.0
    text = json.dumps({"values": rows.tolist()})
    grid = cli._DECODER.decode(text)["values"]
    assert grid.shape == rows.shape and grid.tobytes() == rows.tobytes()
    ragged = text[:-3] + ", 1]]}"  # the last row is one longer: the whole grid stays a list
    assert cli._DECODER.decode(ragged) == json.loads(ragged)


def test_objects_nested_past_the_python_scanner_fall_back_to_the_c_scanner():
    # the Python scanner takes about twice the stack per object level of the C scanner,
    # so a document it cannot nest that deep is read again, whole, by the C scanner
    depth = 700
    decoded = cli._DECODER.decode('{"a": ' * depth + "[[1, 2]]" + "}" * depth)
    for _ in range(depth):
        decoded = decoded["a"]
    assert decoded == [[1, 2]] and type(decoded) is list
    too_deep = "[" * 100_000 + "]" * 100_000
    assert outcome(cli._DECODER, too_deep) == outcome(PLAIN, too_deep)


def test_non_finite_constants_are_refused_inside_and_outside_grids():
    for text in ('{"p": NaN}', '[[1, Infinity]]', '[[1], [2, -Infinity]]', '{"a": [[0], [NaN]]}'):
        kind, (exc_type, message) = outcome(cli._DECODER, text)
        assert kind == "raised" and exc_type is cli.ValidationError
        assert message.startswith("non-finite number") and outcome(PLAIN, text)[1][1] == message


# ---------------------------------------------------------------------------
# memory


def test_a_large_grid_document_peaks_below_half_of_plain_json(tmp_path):
    n = 400
    rng = np.random.default_rng(5)
    doc = {
        "application": "lp",
        "p": 2,
        "points": rng.random((n, 3)).tolist(),
        "weights": {"B": np.eye(n).tolist(), "C": np.eye(n)[rng.permutation(n)].tolist()},
    }
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(doc))

    def peak(load):
        tracemalloc.start()
        try:
            result = load()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    plain_peak, plain = peak(lambda: PLAIN.decode(path.read_text(encoding="utf-8")))
    grid_peak, decoded = peak(lambda: cli._load_document(str(path)))
    assert grid_peak < plain_peak / 2, (grid_peak, plain_peak)
    assert_same(plain, decoded)
