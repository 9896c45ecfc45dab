"""The instance-file decoder: json.loads, except that grids arrive as float64 arrays."""

import io
import json
import os
import re
import threading
import tracemalloc
from fractions import Fraction
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jensenchain import cli, gridtext
from jensenchain.errors import ValidationError

# json.loads as the CLI used it before grids were decoded to arrays: the reference
PLAIN = json.JSONDecoder(parse_constant=gridtext._refuse_constant)


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
        assert is_grid(plain) and not in_list, path
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


def outcome(decode, text):
    try:
        return "value", decode(text)
    except Exception as exc:  # the exception is the result to compare
        return "raised", (type(exc), str(exc))


def text_mode(data):
    """json.loads on data as a file opened in text mode reads it: UTF-8, with "\\r\\n" and
    "\\r" read as "\\n"."""
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return json.loads(text, parse_constant=gridtext._refuse_constant)


def assert_decodes_like_json(text):
    """The decoder agrees with json.loads on text, and on its UTF-8 bytes with json.loads on
    them as a file opened in text mode reads them, also with a block of 4 values.

    A block that small sends every array longer than 4 characters through
    the row-by-row scan, and every grid of more than 4 values into several
    blocks, and makes every grid longer than 4 bytes at an object's value
    one that the bytes path reads from the bytes; with _ARRAY_MIN at 0 the
    long tokens of each block then go through _values, which reads fewer
    than _ARRAY_MIN of them with float().
    """
    assert_same_outcome(text, PLAIN.decode)
    assert_same_outcome(text.encode("utf-8"), text_mode)


def assert_agree(plain, decoded, *context):
    """Two outcomes are one: the same error, or values alike but for grids (assert_same)."""
    assert plain[0] == decoded[0], (*context, plain, decoded)
    if plain[0] == "raised":
        assert plain == decoded, context
    else:
        assert_same(plain[1], decoded[1])


def assert_same_outcome(data, reference):
    """gridtext.loads(data) gives reference(data), its value or its error's type and message,
    at the module's block size and at blocks of 4 values."""
    plain = outcome(reference, data)
    for block_values, array_min in ((gridtext.QUAD_BATCH_VALUES, gridtext._ARRAY_MIN), (4, 0)):
        with mock.patch.object(gridtext, "QUAD_BATCH_VALUES", block_values), \
                mock.patch.object(gridtext, "_ARRAY_MIN", array_min):
            assert_agree(plain, outcome(gridtext.loads, data), block_values)


def traced_peak(load):
    """(the peak of memory traced while load() runs, its result)."""
    tracemalloc.start()
    try:
        result = load()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
def rank_one(n, seed):
    """1 + u v^T, n x n, entries in (0.1, 1.9): dense 17-digit decimals."""
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    return 1.0 + np.outer(u * (0.9 / (np.abs(u).max() * np.abs(v).max())), v)


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


# 400 examples, or the budget of the loaded profile if it is larger (see tests/conftest.py)
DIFFERENTIAL = settings(
    max_examples=max(400, settings.default.max_examples),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# the grammar: a document around a grid of one token family in one layout, with at most one
# mutation, read through loads (str and bytes), load and decode_rows

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# the kinds of token a dense grid mixes, a few of them a grid
TOKEN_KINDS = {
    "zero": st.sampled_from(["0", "0.0", "-0", "-0.0", "0e5", "-0e0", "0.000"]),
    "short": st.sampled_from(["1", "0.5", "-7", "12345678", "-1234.56", "0.000001", "9.0",
                              "0.9", "-0.00000", "0.123456"]),
    "repr": FLOATS.map(repr),  # 17 digits, exponents, signs
    "%.17g": FLOATS.map("{:.17g}".format),
    "integer": st.integers(-(10**20), 10**20).map(str),
    "below ten": st.floats(-9.9, 9.9).map(repr),  # one integer digit: the dots looked up
    "exponent": st.sampled_from(["2.5e-3", "1E+300", "1e22", "1e23", "-2.5e-7", "1E-400",
                                 "2.5e+3", "1e308", "123456789e-330", "0.1e1"]),
    "subnormal": st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308).map(repr),
    "past DBL_MAX": st.sampled_from(["1e400", "-1e999", "1.7976931348623159e308", "2e308",
                                     "1.8e308", "1" + "0" * 309]),
    "past the digit limit": st.just("9" * 4301),
}
# unsigned decimals and integers with no exponent, as the comma locator reads them
LOCATED_TOKENS = st.one_of(
    st.floats(1e-4, 1e6).map(repr),
    st.integers(0, 10**20).map(str),
    st.sampled_from(["0", "0.0", "0.5", "1.0123456789012345", "12345678901234567890123"]),
)
# JSON numbers of at most 24 bytes, each with a nonzero digit, among a sparse grid's zeros
SPARSE_VALUES = st.one_of(
    st.floats(min_value=5e-324, max_value=1e308).map(repr),
    st.floats(min_value=-1e308, max_value=-5e-324).map(repr),
    st.integers(1, 10**20).map(str),
    st.sampled_from(["1", "-7", "0.5", "1E+2", "2.5e-3", "1e400", "-0.00000000000000000001"]),
)
# not taken by the sparse tier: near misses of the grammar, zeros other than the zero token,
# tokens longer than 24 bytes, an integer beyond a double and one past the int digit limit
SPARSE_OTHERS = st.sampled_from(
    ["+1", "01", "1.", ".5", "1e", "-0", "-0.0", "0.00", "00", "1..5", "0.1" + "3" * 30,
     "1" + "0" * 309, "9" * 4301]
)

# (separator in a row, space after a row's "[", before its "]", gap between rows, space after
# the grid's "[", before its "]"): every row alike
LAYOUTS = {
    "json": (", ", "", "", ", ", "", ""),
    "compact": (",", "", "", ",", "", ""),
    "indent": (",\n    ", "\n    ", "\n  ", ",\n  ", "\n  ", "\n"),  # as generate prints it
    "indent deep": (",\n      ", "\n      ", "\n    ", ",\n    ", "\n    ", "\n  "),
    "spaced": (" , ", "", " ", ", ", "", ""),
    "hugged rows": (", ", "", "", ",", "", ""),
    "padded": (", ", "      ", " ", ",\n", "", ""),
}
SPARSE_LAYOUTS = {"json", "compact", "indent", "indent deep", "padded"}
SEPARATORS = st.sampled_from([", ", ",", ",\n      ", ",\t", ",\r\n  "])
PADDING = st.sampled_from(["", "", " ", "\n    ", "\n  "])  # inside a row's brackets
WHITESPACE = st.text(alphabet=" \t\n\r", max_size=3)
# the text in place of a comma and the whitespace around it
GAPS = ["", ",", ", ", ",  ", " ,", " , ", ",\n", ",,", " ", ",]", "],["]


def digit_string(draw, count, lead):
    """count random digits, the first of them nonzero when lead is set."""
    digits = draw(st.lists(st.integers(0, 9), min_size=count, max_size=count))
    if lead:
        digits[0] = draw(st.integers(1, 9))
    return "".join(map(str, digits))


def uniform_tokens(draw):
    """(a function drawing tokens of one layout, whether that layout is exact in a double)."""
    kind = draw(st.sampled_from(["ints01", "floats01", "fixed6", "digits15", "digits16"]))
    if kind == "ints01":  # as %.17g prints an identity or a permutation matrix
        return (lambda d: f"{d(st.sampled_from([0.0, 1.0])):.17g}"), True
    if kind == "floats01":  # as repr and json.dumps print them
        return (lambda d: repr(d(st.sampled_from([0.0, 1.0])))), True
    count = 7 if kind == "fixed6" else int(kind[-2:])
    point = 1 if kind == "fixed6" else draw(st.integers(0, count - 1))  # 0: an integer
    head = point or count

    def token(d):
        text = digit_string(d, count, head > 1)
        return text if not point else text[:point] + "." + text[point:]

    return token, count <= gridtext._EXACT_DIGITS


def sparse_cells(draw, rows, width):
    """(cells, clean): rows of one zero token with a few nonzero tokens placed first, last, as
    a whole row or anywhere; clean when every other token is one of SPARSE_VALUES and the
    first is the zero token."""
    zero = draw(st.sampled_from(["0", "0.0"]))
    cells = [[zero] * width for _ in range(rows)]
    place = draw(st.sampled_from(["first", "last", "row", "anywhere", "anywhere"]))
    if place == "first":
        spots = [(0, 0)]
    elif place == "last":
        spots = [(rows - 1, width - 1)]
    elif place == "row":
        spots = [(draw(st.integers(0, rows - 1)), j) for j in range(width)]
    else:
        spots = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, width - 1)),
                              max_size=4))
    clean = True
    for i, j in spots:
        other = draw(st.integers(0, 5)) == 0
        cells[i][j] = draw(SPARSE_OTHERS if other else SPARSE_VALUES)
        clean &= not other
    return cells, clean and cells[0][0] == zero


class Grid(NamedTuple):
    text: str  # the grid, its brackets and all
    body: str  # its rows: what decode_rows reads
    family: str
    layout: str
    edit: str  # the mutation inside the grid, or ""
    exact: bool  # uniform: exact in a double; sparse: as sparse_cells's clean
    off: bool  # an OFF_LAYOUT edit in a grid of at least two rows and columns


# mutations inside a grid; the first five take the grid off a uniform layout
OFF_LAYOUT = ["width", "sign", "leading zeros", "exponent", "row layout"]
GRID_EDITS = OFF_LAYOUT + ["short", "empty", "stray", "gap"]


@st.composite
def grids_of_a_family(draw, edits=True):
    """A grid: rows of uniform, sparse, located or dense mixed tokens in one layout, with at
    most one of GRID_EDITS when edits is set."""
    family = draw(st.sampled_from(["uniform", "sparse", "located", "dense", "dense"]))
    rows, width = draw(st.integers(1, 7)), draw(st.integers(1, 12))
    exact = True
    if family == "uniform":
        token, exact = uniform_tokens(draw)
        cells = [[token(draw) for _ in range(width)] for _ in range(rows)]
    elif family == "sparse":
        cells, exact = sparse_cells(draw, rows, width)
    elif family == "located":
        cells = [[draw(LOCATED_TOKENS) for _ in range(width)] for _ in range(rows)]
    else:
        kinds = draw(st.lists(st.sampled_from(sorted(TOKEN_KINDS)), min_size=1, max_size=3,
                              unique=True))
        cells = [[draw(TOKEN_KINDS[draw(st.sampled_from(kinds))]) for _ in range(width)]
                 for _ in range(rows)]
    layout = draw(st.sampled_from([*LAYOUTS, "free", "any"]))
    if layout == "free":
        sep, lead, trail, gap = draw(SEPARATORS), draw(PADDING), draw(PADDING), draw(SEPARATORS)
        outer = ("", "")
    elif layout != "any":
        sep, lead, trail, gap, *outer = LAYOUTS[layout]
    else:
        sep, lead, trail, gap, outer = ",", "", "", ",", (draw(WHITESPACE), draw(WHITESPACE))
    row_layouts = [(sep, lead, trail)] * rows
    edit = draw(st.sampled_from(["", "", "", *GRID_EDITS])) if edits else ""
    i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, width - 1))
    if edit in ("width", "sign"):
        cells[i][j] = ("1" if edit == "width" else "-") + cells[i][j]
    elif edit == "leading zeros":  # on every token, so the layout stays uniform
        cells = [["0" + token for token in row] for row in cells]
    elif edit == "exponent":
        cells[i][j] += draw(st.sampled_from(["e0", "E+1", "e-2"]))
    elif edit == "row layout":
        k = draw(st.integers(0, 2))
        row = list(row_layouts[i])
        row[k] = draw((SEPARATORS if k == 0 else PADDING).filter(lambda other: other != row[k]))
        row_layouts[i] = tuple(row)
    elif edit == "short":
        del cells[i][j]
    elif edit == "empty":
        cells[i][j] = ""
    elif edit == "stray":  # a byte inside a token
        at = draw(st.integers(0, len(cells[i][j])))
        cells[i][j] = cells[i][j][:at] + draw(st.sampled_from("/aExe.-+")) + cells[i][j][at:]
    if layout == "any":  # any JSON whitespace around every token and bracket
        body = "".join(
            (draw(WHITESPACE) + "," + draw(WHITESPACE) if k else "")
            + "[" + ",".join(draw(WHITESPACE) + t + draw(WHITESPACE) for t in row) + "]"
            for k, row in enumerate(cells))
    else:
        body = gap.join(f"[{lead}{sep.join(row)}{trail}]"
                        for row, (sep, lead, trail) in zip(cells, row_layouts))
    commas = [m.start() for m in re.finditer(",", body)]
    if edit == "gap" and commas:
        at = draw(st.sampled_from(commas))
        a, b = at, at + 1
        while a and body[a - 1] in " \t\n\r":
            a -= 1
        while b < len(body) and body[b] in " \t\n\r":
            b += 1
        body = body[:a] + draw(st.sampled_from(GAPS).filter(lambda g: g != body[a:b])) + body[b:]
    off = edit in OFF_LAYOUT and min(rows, width) >= 2
    return Grid("[" + outer[0] + body + outer[1] + "]", body, family, layout, edit, exact, off)


# keys and strings with characters of two, three and four UTF-8 bytes
UTF8_TEXT = st.text(alphabet=st.sampled_from("aeüé☃€\U0001f600"), max_size=5)
UTF8_STRINGS = UTF8_TEXT.map(lambda t: json.dumps(t, ensure_ascii=False))
MARKS = ["\ufdd0", "\\ufdd0", "\\uFDD0", "\\uFdD0"]  # the mark of a stand-in, raw or escaped


def json_grid(text):
    """Whether json reads text as a grid."""
    try:
        return is_grid(PLAIN.decode(text))
    except ValueError:  # a refused constant, or past the int digit limit
        return False


class Drawn(NamedTuple):
    text: str  # the document
    grid: Grid
    whole: bool  # every grid in it is read from the bytes of a file, and its text is not


@st.composite
def documents(draw):
    """A grid alone, at an object's value (among UTF-8 keys, strings, numbers, grids and
    grids inside strings, or nested objects), beside or inside one of DOCUMENTS, then at
    most one mutation: one in the grid, a few byte edits, a stand-in's mark, or the end cut
    off."""
    mutation = draw(st.sampled_from(["", "", "grid", "grid", "bytes", "mark", "truncated"]))
    grid = draw(grids_of_a_family(edits=mutation == "grid"))
    whole = json_grid(grid.text)
    context = draw(st.sampled_from(["alone", "value", "value", "nested", "document"]))
    gap = draw(SPACE)
    if context == "alone":
        text = grid.text
    elif context == "nested":
        depth = draw(st.integers(1, 3))
        text = '{"a": ' * depth + grid.text + "}" * depth
    elif context == "value":
        pairs = [(draw(UTF8_STRINGS), grid.text)]
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["string", "number", "grid", "grid in a string"]))
            if kind in ("grid", "grid in a string"):
                other = draw(grids_of_a_family(edits=False)).text
                whole &= kind != "grid" or json_grid(other)
                value = other if kind == "grid" else json.dumps(other)
            else:
                value = draw(UTF8_STRINGS if kind == "string" else NUMBER_TOKENS)
            pairs.insert(draw(st.integers(0, len(pairs))), (draw(UTF8_STRINGS), value))
        text = "{" + gap + ("," + gap).join(f"{k}:{gap}{v}" for k, v in pairs) + gap + "}"
    else:  # the grid beside a document of any JSON, or inside an array, where it stays a list
        other, whole = draw(DOCUMENTS), False
        text = draw(st.sampled_from([
            '{"B": ' + grid.text + "," + gap + '"d": ' + other + "}",
            '{"d": ' + other + "," + gap + '"B": ' + grid.text + "}",
            "[" + other + "," + gap + grid.text + "]",
        ]))
    if mutation == "bytes":
        for _ in range(draw(st.integers(1, 3))):
            k = draw(st.integers(0, len(text)))
            char = draw(st.sampled_from(list('[]{},:" -0123456789.eEtfnNI')))
            edit = draw(st.sampled_from(["replace", "insert", "delete"]))
            text = text[:k] + (char if edit != "delete" else "") + text[k + (edit != "insert"):]
    elif mutation == "mark":
        mark = draw(st.sampled_from(MARKS))
        pair = draw(st.sampled_from([f'"s": "{mark}0"', f'"{mark}0": 1']))
        text = draw(st.sampled_from(["{" + pair + ', "B": ' + text + "}",
                                     '{"B": ' + text + ", " + pair + "}"]))
    elif mutation == "truncated":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return Drawn(text, grid, whole and mutation in ("", "grid"))


def assert_tiers_give_json_grids(body):
    """The uniform and the sparse tier each give a grid only where json gives that grid."""
    expected = reference(body)
    for tier in (gridtext._uniform, gridtext._sparse):
        decoded = tier(body.encode())
        if decoded is not None:
            assert expected is not None and decoded.shape == expected.shape, (tier, body)
            assert decoded.tobytes() == expected.tobytes(), (tier, body)


@settings(DIFFERENTIAL, max_examples=max(600, settings.default.max_examples))
@given(documents(), st.integers(1, 40), st.sampled_from(["\n", "\r\n", "\r"]))
def test_drawn_documents_decode_like_json(drawn, read_size, newline):
    # loads on the str, then on its bytes with the drawn newline, as a file opened in text
    # mode reads them, at the module's block size and at blocks of 4 values
    text, grid, whole = drawn
    assert_same_outcome(text, PLAIN.decode)
    data = text.replace("\n", newline).encode("utf-8")
    assert_same_outcome(data, text_mode)
    # load, reading the file read_size bytes at a time, which cuts grids, tokens and UTF-8
    # sequences at the read boundaries; where every grid stands at an object's value or
    # alone and is one, each is read from the file's bytes, and the whole text is never read
    plain = outcome(text_mode, data)
    for decoded, read_again in read_from_file(data, read_size):
        assert_agree(plain, decoded)
        assert not (whole and read_again and plain[0] == "value")
    # decode_rows on the grid's rows, and the tiers that take them
    kernel(grid.body)
    assert_tiers_give_json_grids(grid.body)
    body = grid.body.encode()
    if grid.family == "uniform" and grid.layout not in ("any", "spaced"):  # "," after a token
        taken = gridtext._uniform(body) is not None
        assert taken == grid.exact if not grid.edit else not (taken and grid.off), grid
    if grid.family == "sparse" and not grid.edit and grid.layout in SPARSE_LAYOUTS:
        head = body[: gridtext._SPARSE_HEAD]
        sparse_head = 8 * sum(byte in b"123456789" for byte in head) <= len(head)
        assert gridtext._sparse(body) is not None or not (grid.exact and sparse_head), grid


@pytest.mark.parametrize("block_values", [gridtext.QUAD_BATCH_VALUES, 4])
def test_grids_become_float64_arrays_and_other_arrays_stay_lists(monkeypatch, block_values):
    monkeypatch.setattr(gridtext, "QUAD_BATCH_VALUES", block_values)
    doc = gridtext.loads(
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
    rows = np.arange(3 * gridtext.QUAD_BATCH_VALUES, dtype=float).reshape(-1, 8) / 3.0
    text = json.dumps({"values": rows.tolist()})
    grid = gridtext.loads(text)["values"]
    assert grid.shape == rows.shape and grid.tobytes() == rows.tobytes()
    ragged = text[:-3] + ", 1]]}"  # the last row is one longer: the whole grid stays a list
    assert gridtext.loads(ragged) == json.loads(ragged)


def test_the_cli_loads_documents_through_the_gridtext_decoder(tmp_path, monkeypatch):
    # blocks of 4 values cut the 10 x 3 grid into at least three blocks
    monkeypatch.setattr(gridtext, "QUAD_BATCH_VALUES", 4)
    points = (np.arange(30.0) / 7).reshape(10, 3)
    text = json.dumps({"application": "harmonic", "points": points.tolist()})
    path = tmp_path / "grid.json"
    path.write_text(text)
    with mock.patch.object(gridtext, "decode_rows", wraps=gridtext.decode_rows) as rows:
        doc = cli._load_document(str(path))
    assert rows.call_count >= 3
    plain = json.loads(text)
    assert list(doc) == list(plain) and doc["application"] == plain["application"]
    assert doc["points"].tobytes() == np.array(plain["points"]).tobytes()
    assert not doc["points"].flags.writeable


def test_objects_nested_as_deep_as_json_reads_them_hold_grids():
    # one decoder reads every document, so a grid at an object's value is an array at every
    # depth json reads, and a document nested past that fails as json.loads fails
    depth = 700
    text = '{"a": ' * depth + "[[1, 2]]" + "}" * depth
    decoded = gridtext.loads(text)
    assert_same(PLAIN.decode(text), decoded)
    for _ in range(depth):
        decoded = decoded["a"]
    assert decoded.tolist() == [[1.0, 2.0]] and not decoded.flags.writeable
    too_deep = "[" * 100_000 + "]" * 100_000
    assert outcome(gridtext.loads, too_deep) == outcome(PLAIN.decode, too_deep)


def test_non_finite_constants_are_refused_inside_and_outside_grids():
    for text in ('{"p": NaN}', '[[1, Infinity]]', '[[1], [2, -Infinity]]', '{"a": [[0], [NaN]]}'):
        kind, (exc_type, message) = outcome(gridtext.loads, text)
        assert kind == "raised" and exc_type is ValidationError
        assert message.startswith("non-finite number")
        assert outcome(PLAIN.decode, text)[1][1] == message


# ---------------------------------------------------------------------------
# documents read from their bytes


# a grid of about 23 KB of text, longer than a block: read from the bytes at any block size
LONG_GRID = json.dumps((np.random.default_rng(11).random((40, 30)) * 7 - 3).tolist())


@pytest.mark.parametrize("text", [
    # non-ASCII text before, between and after long grids
    '{"s": "\u00fcnic\u00f8de \u2603", "B": ' + LONG_GRID + ', "t": "\u20ac", "C": ' + LONG_GRID
    + ', "\u00e9": "\U0001f600"}',
    json.dumps({"s": "ünicøde ☃", "B": json.loads(LONG_GRID)}, ensure_ascii=False),
    # the text of a long grid at an object's value, inside a string
    json.dumps({"s": '"x": ' + LONG_GRID, "B": json.loads(LONG_GRID)}),
    json.dumps({"s": "x: " + LONG_GRID}),
    # a grid inside an outer array stays a list
    "[" + LONG_GRID + ", 1]",
    '{"a": [' + LONG_GRID + "]}",
    '[{"a": ' + LONG_GRID + "}]",
    '{"a": [{"b": ' + LONG_GRID + '}], "B": ' + LONG_GRID + "}",
    # a top-level grid, and one with whitespace around it
    LONG_GRID,
    " \n\t" + LONG_GRID.replace("[[", "[ \n [", 1) + " \n",
    # duplicate keys holding grids: the last one is kept
    '{"B": ' + LONG_GRID + ', "B": ' + LONG_GRID.replace("[[", "[[1, ", 1).replace("], [", ", 1], [1, ")
    .replace("]]", ", 1]]") + "}",
    '{"B": ' + LONG_GRID + ', "B": 5}',
    # malformed documents after, before and around a long grid
    '{"B": ' + LONG_GRID + ', "x": [1, 2,]}',
    '{"B": ' + LONG_GRID + ', "x": tru}',
    '{"B": ' + LONG_GRID,
    '{"B": ' + LONG_GRID + "} x",
    '{"x": "\\q", "B": ' + LONG_GRID + "}",
    '{"B": ' + LONG_GRID + ', "p": NaN}',
    '{"B": ' + LONG_GRID + ', "seed": ' + "9" * 5000 + "}",
    '{"B": ' + LONG_GRID + ', "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
    '\ufeff{"B": ' + LONG_GRID + "}",
    # a long grid that is not one: a NaN, a string or a ragged row in it
    '{"B": ' + LONG_GRID.replace("]]", ", NaN]]") + "}",
    '{"B": ' + LONG_GRID.replace("]]", ', "1"]]') + "}",
    '{"B": ' + LONG_GRID.replace("]]", ", 1]]") + "}",
    # a letter in place of a row's "[", in a grid read a row at a time at blocks of 4 values
    '{"B": ' + LONG_GRID.replace("], [", "], x", 1) + "}",
    # U+FDD0, the mark of a stand-in, raw or escaped, in a string or a key beside a long grid
    '{"s": "\ufdd00", "B": ' + LONG_GRID + "}",
    '{"B": ' + LONG_GRID + ', "s": "\ufdd00"}',
    '{"s": "\\ufdd00", "B": ' + LONG_GRID + "}",
    '{"s": "\\uFDD01", "B": ' + LONG_GRID + "}",
    '{"s": "\\uFdD00", "B": ' + LONG_GRID + "}",
    '{"\ufdd00": 1, "B": ' + LONG_GRID + "}",
    '{"\\uFDD00": 1, "B": ' + LONG_GRID + "}",
], ids=range(32))
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_documents_read_from_their_bytes_decode_like_json(text, newline):
    # the grids laid out one number a line, as generate prints them, with the file's newlines
    text = text.replace(", ", "," + newline + "  ")
    assert_same_outcome(text.encode("utf-8"), text_mode)


def test_objects_nested_deep_after_a_long_grid_are_read_as_json_reads_them():
    # a long grid at an object's value is read from the bytes at any depth json reads
    text = ('{"B": ' + LONG_GRID + ', "a": ' + '{"a": ' * 700 + '{"C": ' + LONG_GRID + "}"
            + "}" * 700 + "}")
    decoded = gridtext.loads(text.encode())
    assert_same(json.loads(text), decoded)
    for _ in range(701):
        decoded = decoded["a"]
    assert isinstance(decoded["C"], np.ndarray)


def test_an_error_after_a_long_grid_is_placed_in_the_file_text():
    data = ('{\r\n"B": ' + LONG_GRID.replace("], ", "],\r\n") + ',\r"x": tru}').encode()
    with pytest.raises(json.JSONDecodeError) as error:
        gridtext.loads(data)
    assert (error.value.lineno, error.value.colno) == (42, 6)  # "\r\n" and "\r" end a line
    assert outcome(gridtext.loads, data) == outcome(text_mode, data)


@pytest.mark.parametrize("before", [b"", b'{"s": "caf\xc3\xa9", "B": ' + LONG_GRID.encode() + b", "])
def test_invalid_utf8_is_placed_at_its_byte_in_the_file(before):
    data = (before or b"{") + b'"x": "\xff"}'
    with pytest.raises(UnicodeDecodeError) as error:
        gridtext.loads(data)
    assert error.value.start == data.index(b"\xff")
    assert outcome(gridtext.loads, data) == outcome(text_mode, data)


def test_a_grid_read_from_the_bytes_owns_its_data_and_is_read_only():
    doc = gridtext.loads(('{"B": ' + LONG_GRID + "}").encode())
    assert doc["B"].flags.owndata and not doc["B"].flags.writeable
    assert doc["B"].tobytes() == np.array(json.loads(LONG_GRID)).tobytes()


def test_a_long_grid_in_an_object_inside_an_array_stays_a_list():
    # json reads no grid inside an array, so the walk does not descend into arrays, and the
    # grid read from the bytes is dropped for the list json gives
    rows = json.loads(LONG_GRID)
    for text in ('[{"a": ' + LONG_GRID + "}]", '{"a": [{"b": ' + LONG_GRID + '}], "c": 1}'):
        for data in (text, text.encode()):
            decoded = gridtext.loads(data)
            inner = decoded[0]["a"] if text.startswith("[") else decoded["a"][0]["b"]
            assert type(inner) is list and inner == rows


@pytest.mark.parametrize("text", [
    '{"B": ' + LONG_GRID + ', "B": ""}',
    '{"B": ' + LONG_GRID + ', "B": ' + LONG_GRID + "}",
    '{"B": ' + LONG_GRID + ', "C": {"B": ' + LONG_GRID + ', "B": 5}}',
], ids=range(3))
def test_a_duplicate_key_over_a_long_grid_is_read_once(text):
    # the grid's stand-in is gone from the value, so the text is not read again
    data = text.encode()
    plain = outcome(text_mode, data)
    for decoded, read_again in read_from_file(data, 1 << 14):
        assert_same(plain[1], decoded[1])
        assert not read_again


@pytest.mark.parametrize("text", [
    '{"s": "\ud800", "B": ' + LONG_GRID + "}",
    '{"B": ' + LONG_GRID + ', "s": ["\udfff", 1]}',
    '{"s": "\udfff", "B": [[1, 2]]}',
    '{"s": "\ud800",\r\n "B": ' + LONG_GRID + ',\r\n "x": tru}',
    '\ufeff{"B": ' + LONG_GRID + "}",
    '\ufeff{"B": [[1, 2]]}',
], ids=range(6))
def test_a_str_with_a_lone_surrogate_or_a_byte_order_mark_decodes_like_json(text):
    # a lone surrogate fails on the str's UTF-8 bytes: the str itself is read, as json reads it
    assert_same_outcome(text, lambda t: json.loads(t, parse_constant=gridtext._refuse_constant))


def test_a_grid_in_990_nested_objects_decodes_like_json():
    # json's C scanner reads objects nested about as deep as Python's recursion limit, and
    # from Python 3.12 on past it, so the walk over them keeps a stack of its own.  On older
    # versions json reads this document only near the top of the stack, and fails here.
    depth = 990
    for grid in ("[[1, 2]]", LONG_GRID):
        text = '{"a": ' * depth + grid + "}" * depth
        for data, reference in ((text, PLAIN.decode), (text.encode(), text_mode)):
            plain, decoded = outcome(reference, data), outcome(gridtext.loads, data)
            assert plain[0] == decoded[0], (plain[0], decoded[0])
            if plain[0] == "raised":
                assert plain == decoded
                continue
            plain, decoded = plain[1], decoded[1]
            for _ in range(depth):
                assert list(decoded) == ["a"]
                plain, decoded = plain["a"], decoded["a"]
            assert decoded.tobytes() == np.array(plain, dtype=float).tobytes()
            assert not decoded.flags.writeable


# ---------------------------------------------------------------------------
# documents read from a file a block at a time


def read_from_file(data, read_size):
    """(outcome, whether the text was read again) of gridtext.load on a file of data, read
    read_size bytes at least at a time, at the module's block size and at blocks of 4
    values (which read every grid longer than 4 bytes at an object's value a block of rows
    at a time)."""
    results = []
    window = gridtext._decode_window
    for block_values, array_min in ((gridtext.QUAD_BATCH_VALUES, gridtext._ARRAY_MIN), (4, 0)):
        failed = []

        def recording(win):
            try:
                return window(win)
            except Exception:
                failed.append(True)
                raise

        with mock.patch.object(gridtext, "QUAD_BATCH_VALUES", block_values), \
                mock.patch.object(gridtext, "_ARRAY_MIN", array_min), \
                mock.patch.object(gridtext, "_READ_SIZE", read_size), \
                mock.patch.object(gridtext, "_decode_window", recording):
            results.append((outcome(gridtext.load, io.BytesIO(data)), bool(failed)))
    return results

def load_message(path, data):
    """The message cli._load_document gives for the file of data at path, taken from json.loads
    on the file's text as a file opened in text mode reads it."""
    try:
        text_mode(data)
    except UnicodeDecodeError as exc:
        return f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
    except json.JSONDecodeError as exc:
        return f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
    except RecursionError:
        return f"{path}: JSON nested too deeply"
    raise AssertionError("the file holds a JSON document")


LONG_DOC = '{\r\n"\u00e9\u2603": ' + LONG_GRID.replace("], ", "],\r\n") + ', "s": "\u20ac"}'
MALFORMED_FILES = {
    "truncated in a number": LONG_DOC.encode()[:5000],
    "truncated after the grid": LONG_DOC.encode()[:-8],
    "truncated in a key's UTF-8": LONG_DOC.encode()[:6],
    "truncated in a string's UTF-8": LONG_DOC.encode()[:-3],
    "not UTF-8 before the grid": LONG_DOC.encode().replace(b"\xc3\xa9", b"\xff", 1),
    "not UTF-8 in the grid": LONG_DOC.encode().replace(b", ", b", \xfe", 1),
    "not UTF-8 after the grid": LONG_DOC.encode().replace(b"\xe2\x82\xac", b"\xe2\x82"),
    "byte order mark": b"\xef\xbb\xbf" + LONG_DOC.encode(),
    "nested too deeply after the grid": ('{"B": ' + LONG_GRID + ', "x": ' + "[" * 100_000
                                         + "]" * 100_000 + "}").encode(),
}


@pytest.mark.parametrize("read_size", [1, 7, 1 << 16])
@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_a_malformed_file_read_a_block_at_a_time_keeps_its_exit_2_message(
    tmp_path, capsys, monkeypatch, name, read_size
):
    data = MALFORMED_FILES[name]
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    monkeypatch.setattr(gridtext, "_READ_SIZE", read_size)
    for block_values in (gridtext.QUAD_BATCH_VALUES, 4):
        monkeypatch.setattr(gridtext, "QUAD_BATCH_VALUES", block_values)
        assert cli.main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {load_message(path, data)}\n"


def test_a_file_that_cannot_seek_is_read_whole_as_its_bytes():
    # a pipe, as /dev/stdin can be: the text path may have to read it again from its start
    text = '{"B": ' + LONG_GRID + ', "x": tru}'
    for data in (('{"B": ' + LONG_GRID + "}").encode(), text.encode()):
        read_end, write_end = os.pipe()

        def write(data=data, fd=write_end):
            with open(fd, "wb") as out:
                out.write(data)

        writer = threading.Thread(target=write)
        writer.start()
        with open(read_end, "rb") as fh:
            decoded = outcome(gridtext.load, fh)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert_agree(outcome(text_mode, data), decoded)


def test_a_file_is_read_a_block_at_a_time(tmp_path, monkeypatch):
    """A document of two long grids: no read takes more than about a block of its grids'
    text, and no read reaches past the file."""
    text = '{"B": ' + LONG_GRID + ', "C": ' + LONG_GRID + "}"
    path = tmp_path / "doc.json"
    path.write_text(text)
    monkeypatch.setattr(gridtext, "QUAD_BATCH_VALUES", 64)  # about 1.3 KB of LONG_GRID
    monkeypatch.setattr(gridtext, "_READ_SIZE", 256)
    reads = []

    class Recording(io.FileIO):
        def read(self, size=-1):
            reads.append(size)
            return super().read(size)

    with Recording(path, "rb") as fh:
        doc = gridtext.load(fh)
    assert_same(json.loads(text), doc)
    assert reads and max(reads) < 4 * 1024 and -1 not in reads, reads
    assert sum(reads) < 2 * len(text)


# ---------------------------------------------------------------------------
# memory


def test_a_large_grid_document_peaks_below_half_of_plain_json(tmp_path):
    n = 400
    rng = np.random.default_rng(5)
    points = rng.random((n, 3)).tolist()

    # B = I, then B = a second permutation: the blocks of B and C take the uniform-layout path
    for b_is_identity in (True, False):
        b = np.eye(n) if b_is_identity else np.eye(n)[rng.permutation(n)]
        doc = {
            "application": "lp",
            "p": 2,
            "points": points,
            "weights": {"B": b.tolist(), "C": np.eye(n)[rng.permutation(n)].tolist()},
        }
        path = tmp_path / "hard.json"
        path.write_text(json.dumps(doc))
        plain_peak, plain = traced_peak(lambda: PLAIN.decode(path.read_text(encoding="utf-8")))
        grid_peak, decoded = traced_peak(lambda: cli._load_document(str(path)))
        assert grid_peak < plain_peak / 2, (grid_peak, plain_peak)
        assert_same(plain, decoded)


def test_a_dense_document_peaks_at_its_bytes_and_its_grid_plus_a_block(tmp_path):
    # n = 700, 1 + u v^T: 17-digit decimals, about 13 bytes of text a value
    n = 700
    grid = rank_one(n, seed=6)
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"application": "jensen", "function": {"name": "square"},
                                "points": list(range(n)),
                                "weights": {"omega1": {"kind": "matrix", "values": grid.tolist()}}}))
    block = json.dumps({"values": grid[: gridtext.QUAD_BATCH_VALUES // n].tolist()}).encode()

    block_peak, _ = traced_peak(lambda: gridtext.loads(block))  # one block's work, its grid
    doc_peak, doc = traced_peak(lambda: cli._load_document(str(path)))
    assert doc["weights"]["omega1"]["values"].tobytes() == grid.tobytes()
    # the file's bytes, the grid, and the work of a block: no copy of the text as a str, and
    # no grid beside its blocks
    size = path.stat().st_size
    assert doc_peak < size + grid.nbytes + 1.5 * block_peak, (doc_peak, size, block_peak)


def test_a_dense_str_document_peaks_at_its_text_and_its_grid_plus_a_block():
    # a str is read through its UTF-8 bytes, as a file is: one copy of its text, not one for
    # each long grid in it
    n = 700
    grid = rank_one(n, seed=6)
    text = json.dumps({"application": "jensen", "points": list(range(n)),
                       "weights": {"omega1": {"kind": "matrix", "values": grid.tolist()}}})
    block = json.dumps({"values": grid[: gridtext.QUAD_BATCH_VALUES // n].tolist()}).encode()

    block_peak, _ = traced_peak(lambda: gridtext.loads(block))
    doc_peak, doc = traced_peak(lambda: gridtext.loads(text))
    assert doc["weights"]["omega1"]["values"].tobytes() == grid.tobytes()
    assert doc_peak < len(text) + grid.nbytes + 1.5 * block_peak, (doc_peak, len(text), block_peak)


# ---------------------------------------------------------------------------
# the grid kernel: gridtext.decode_rows on the text of a block of rows


def reference(text):
    """np.array(json.loads("[" + text + "]"), dtype=float) if that is a grid, else None."""
    try:
        value = PLAIN.decode("[" + text + "]")
    except ValueError:  # malformed, a refused constant, or past the int digit limit
        return None
    return np.asarray(value, dtype=float) if is_grid(value) else None


def kernel(text):
    """decode_rows on the UTF-8 bytes of text, checked bit for bit against the reference, with
    the long tokens read by _values's array tiers at any count (_ARRAY_MIN 0) and at the
    module's count."""
    expected = reference(text)
    data = text.encode("utf-8")
    for array_min in (0, gridtext._ARRAY_MIN):
        with mock.patch.object(gridtext, "_ARRAY_MIN", array_min):
            decoded = gridtext.decode_rows(data, 0, len(data))
        if expected is None:
            assert decoded is None, (array_min, text)
        else:
            assert decoded is not None and decoded.shape == expected.shape, (array_min, text)
            assert decoded.tobytes() == expected.tobytes(), (array_min, text)
    return decoded


# ---------------------------------------------------------------------------
# fixed rows of numbers, each read by decode_rows and the tiers, and inside brackets by loads


def long_tokens(text):
    """text with zeros after the last digit of each decimal, so that it is a long token."""
    return re.sub(r"-?[0-9][.0-9]*(?![.0-9eE])",
                  lambda m: m[0] + "0" * 9 if "." in m[0] else m[0], text)


def rows_of(tokens, width):
    return ", ".join("[" + ", ".join(tokens[k : k + width]) + "]"
                     for k in range(0, len(tokens) - width + 1, width))


def mantissas_at_the_exact_path_limits():
    """Mantissas of 15 to 20 digits at q = -23, -22, 22 and 23, as integers and decimals."""
    rng = np.random.default_rng(11)
    tokens = []
    for digits in range(15, 21):
        for _ in range(20):
            mantissa = str(int(rng.integers(1, 10))) + "".join(map(str, rng.integers(0, 10, digits - 1)))
            for q in (-23, -22, 22, 23):
                tokens.append(f"{mantissa}e{q}")
                point = int(rng.integers(1, digits))
                tokens.append(f"{mantissa[:point]}.{mantissa[point:]}e{q + digits - point}")
    return rows_of(tokens, 4)


def subnormal_and_overflowing_tokens():
    """Random subnormals of every size, the smallest normal and the values just below it, and
    past the largest double, with q at most 308: more than _ARRAY_MIN tokens, read by the
    arrays up to their rounding."""
    rng = np.random.default_rng(11)
    subnormal = (rng.integers(1, 1 << 52, 200) >> rng.integers(0, 52, 200)).view(float)
    tokens = [repr(v) for v in subnormal.tolist()]
    tokens += ["5e-324", "4.9406564584124654e-324", "2.4703282292062328e-324", "1e-320",
               "2.2250738585072009e-308", "2.2250738585072011e-308", "2.2250738585072014e-308",
               "-2.2250738585072012e-308", "1.7976931348623157e308", "1.7976931348623158e308",
               "1.7976931348623159e308", "-1.7976931348623157e308", "1e309", "-1e309",
               "2e308", "1.8e308", "-5e308", "1e-400", "123456789e-330", "1e-340"]
    tokens += [repr(v) for v in rng.random(64 - len(tokens) % 8).tolist()]
    assert len(tokens) >= gridtext._ARRAY_MIN and len(tokens) % 8 == 0
    return rows_of(tokens, 8)


HARD_TOKENS = [
    "9007199254740993", "9007199254740995",  # 2**53 + 1 ties to even, and 2**53 + 3
    "1e22", "1e23", "0.511821625", "123456789.0",
    "9007199254740991",  # 2**53 - 1
    "2.2250738585072011e-308",  # the largest subnormal, almost
    "2.2250738585072014e-308",  # the smallest normal
    "4.9e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",  # about half of 5e-324
    "1.7976931348623157e308", "1.7976931348623158e308", "1e400", "1e-400", "0.1",
    "123456789012345678901234567890",
    # below a power of two that each rounds up to as a double: 2**54 - 1, 2**60 - 1, 2**63 - 1
    "18014398509481983", "1152921504606846975", "9223372036854775807",
]
# near misses of the short grammar, among them zeros the zero step does not take
NEAR_MISSES = ["01", "-01", "00.5", "1.", ".5", "-", "-.5", "1e5", "+1", "0.0.", "1-2", "0x1",
               "1E5", "-0e0", "1.5e", "0.00", "00.0", "-0.0", "0.0e0", "0e0", "0.0-", "9.0",
               "0.9"]
EIGHT_BYTES = ["12345678", "-1234567", "0.123456", "-0.12345", "-1234.56", "1.000000", "-0.00000"]
NINE_BYTES = ["123456789", "-12345678", "0.1234567", "-0.123456", "-12345.67", "1.0000000"]
BESIDE_HUGGING = [
    # hugs its separators but for one gap, in a row and at a row break
    "[1.5, 2.25, 3.125 , 4.5], [5.5, 6.5, 7.5, 8.5]",
    "[1.5, 2.25, 3.125, 4.5] , [5.5, 6.5, 7.5, 8.5]",
    "[1.5, 2.25, 3.125, 4.5],\n[5.5, 6.5, 7.5, 8.5]",
    "[1.5,2.25,3.125,4.5],[5.5,6.5,7.5,8.5]",
    # the only multi-digit integer part is the last token's
    "[1.5, 2.25, 3.125, 4.5], [5.5, 6.5, 7.5, 12.5]",
    # a token without a dot, so the dots are located
    "[1.5, 2.25, 3.125, 4.5], [5.5, 6.5, 7, 12.5]",
    # -0 and -0.0 among signed tokens: json gives -0 as the int 0, -0.0 as a float
    "[-0, -0.0, -1.5, 0.5], [-0.000, -0e0, -0.0e5, -7]",
    # json.dumps's first row, then a space after an integer, or before a comma and none
    # after it: the comma locator declines the block
    "[1.5, 2.5], [35 , 4.5]",
    "[1.5, 2.5], [3.5 ,45]",
]
GRID_CASES = [
    # signed zeros: json reads "-0" as the int 0, so it is +0.0; "-0.0" and "-0e0" are floats
    *(f"[{token}]" for token in ["0", "-0", "0e5", "0.000", "0.0000000000000000000000000",
                                 "-0.0", "-0e0", "-0.0e-400", "-0.00000000000000000000000000"]),
    *(f"[{token}], [-{token}]" for token in HARD_TOKENS),
    mantissas_at_the_exact_path_limits(),
    # beyond a double (an int stays a list), just inside it, and past the int digit limit
    "[1, 1e400], [-1e999, 2]", "[1, 1" + "0" * 309 + "]", "[1, 1" + "0" * 300 + "]",
    "[1, 1" + "0" * 4300 + "]",
    subnormal_and_overflowing_tokens(),
    # anything but rows of JSON numbers
    "[1, 2], [3]", "[1, 2] [3, 4]", "[1, 2],, [3, 4]", "[1 2]", "[1, 2], [3, 4],",
    "[[1]]", "[1], 2", "[01]", "[1.]", "[.5]", "[-]", "[+1]", "[1e]", "[1e+]", "[1.5.5]",
    "[1e5e5]", "[1e5.5]", "[1-2]", "[--1]", "[1x]", '["1"]', "[true]", "[NaN]", "[]",
    "[1, \u00e9]", "[1]\x0b", "[1\x00]",
    # short tokens at eight bytes and long ones at nine
    "[" + ", ".join(EIGHT_BYTES) + "], [" + ", ".join(NINE_BYTES + ["0"]) + "]",
    # near misses of the short grammar alone, among short tokens, and among a majority of the
    # zero step's "0.0", in a layout that the sparse tier declines: no token read as a zero
    # may hide a refusal
    *(text.format(token) for token in NEAR_MISSES for text in (
        "[{}]", "[0.0, 0.0, {}], [0.5, -7, 0]", "[0.0, {}, 0.0, 1], [-0.0, 12, -0, 0.25]",
        "[0.0,0.0, 0.0], [0.0, {},  0.0], [0.0, 0.0, 0.0]")),
    # beside the layouts that hug their separators, with short tokens and long ones
    *(t for text in BESIDE_HUGGING for t in (text, long_tokens(text))),
    # a stray or missing comma, refused as json refuses it
    "[1.5000000001, 2.5000000001,], [3.5000000001, 4.5000000001]",
    "[1.5000000001, 2.5000000001] [3.5000000001, 4.5000000001]",
    "[1.5000000001, 2.5000000001], [3.5000000001, 4.5000000001],",
    "[1.5000000001,, 2.5000000001], [3.5000000001, 4.5000000001]",
    # as many commas as gaps, one of them in the wrong gap
    "[1.5000000001,, 2.5000000001] [3.5000000001, 4.5000000001]",
    "[1.5000000001, 2.5000000001,] [3.5000000001, 4.5000000001]",
    # as many dots as tokens, two in one token, and a lone "-" last in the block
    "[1..5, -]",
    "[1.., -]",
    # json.dumps's first row, then a letter in place of a row's "]" or "[", the brackets as
    # many as the rows need
    "[1.5, 2.5], [3.5, 4.5x, [5.5, 6.5]",
    "[1.5, 2.5], [3.5, 4.5], x5.5, 6.5]",
    # and a "/" in a token, read as a digit past the locator's byte counts
    "[1.5, 2.5], [3.5, 4/5]",
    # signed zeros in signed blocks of long tokens
    "[-0, -0.0, -1.2345678901, 0.5], [-0.000000000000, -0e0, -0.0e5, 1],"
    " [0, 0.0, 1.2345678901, -2.5]",
    # a token outside the rows' brackets, and commas as many as the gaps but not in them
    "[1, 2], 3, [4]", "[1 ,, 2 3]",
    # sparse blocks: a nonzero token after the zero head, long integers, a leading zero
    "[0.0, 0.0], [1e-05, 0.0]", "[0,3],[0,12345678901234567890]", "[0.0, 0.0], [0.0, 01]",
]
# cases a tier must take
TAKEN_BY = {"[0.0, 0.0], [1e-05, 0.0]": "_sparse"}


@pytest.mark.parametrize("text", GRID_CASES, ids=range(len(GRID_CASES)))
def test_fixed_grids_decode_like_json(text):
    kernel(text)
    assert_tiers_give_json_grids(text)
    if text in TAKEN_BY:
        assert getattr(gridtext, TAKEN_BY[text])(text.encode()) is not None
    assert_decodes_like_json("[" + text + "]")


def test_every_eisel_lemire_table_entry_is_the_leading_64_bits_of_its_power_of_five():
    table = gridtext._pow5_high()
    assert table.size == 308 + 342 + 1
    for k, q in enumerate(range(-342, 309)):
        x = Fraction(5) ** q
        shift = 63 - (x.numerator.bit_length() - x.denominator.bit_length())
        while x * Fraction(2) ** shift >= 2**64:
            shift -= 1
        while x * Fraction(2) ** shift < 2**63:
            shift += 1
        assert int(table[k]) == int(x * Fraction(2) ** shift), q  # int() truncates
        # and the high word of the 128-bit entry of fast_float's table, built its way
        if q < 0:
            p5 = 5**-q
            z = (p5 - 1).bit_length()
            wide = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // p5 + 1
            wide >>= max(wide.bit_length() - 128, 0)
        else:
            wide = 5**q << max(128 - (5**q).bit_length(), 0)
            wide >>= max(wide.bit_length() - 128, 0)
        assert int(table[k]) == wide >> 64, q


@DIFFERENTIAL
@given(st.integers(1, 10**19 - 1), st.integers(-342, 308))
@example(9007199254740993, 0)  # a tie, to even
@example(1, -342)
@example(17976931348623157, 292)
@example(10**19 - 1, 308)  # infinity
@example(22250738585072011, -324)  # subnormal
def test_eisel_lemire_rounds_like_float(w, q):
    bits, undecided = gridtext._eisel_lemire(np.array([w], dtype=np.uint64), np.array([q]))
    if not undecided[0]:
        assert int(bits[0]) == int(np.float64(float(f"{w}e{q}")).view(np.uint64)), (w, q)


# w <= 2**53 and |q| <= 22, where w and 10**|q| are exact doubles, and just past those limits
for _w, _q in [(w, q) for w in (2**53 - 1, 2**53, 2**53 + 1) for q in (0, -22, 22, -23, 23)] + [
        (1, -22), (1, 22), (1, 23)]:
    test_eisel_lemire_rounds_like_float = example(_w, _q)(test_eisel_lemire_rounds_like_float)


def test_eisel_lemire_leaves_few_shortest_decimals_to_float():
    # the shortest decimals of 1 + u v^T, as json.dumps prints them: a few in a thousand
    # need the next 64 bits of 5**q (2 of these 1600)
    tokens = json.dumps(rank_one(40, seed=3).ravel().tolist())[1:-1].split(", ")
    w = np.array([int(t.replace(".", "")) for t in tokens], dtype=np.uint64)
    q = np.array([t.index(".") + 1 - len(t) for t in tokens])
    bits, undecided = gridtext._eisel_lemire(w, q)
    assert np.count_nonzero(undecided) < len(tokens) // 20
    expected = np.array([float(t) for t in tokens]).view(np.uint64)
    assert (bits[~undecided] == expected[~undecided]).all()


@pytest.mark.parametrize("indent", [None, 2])
def test_a_tall_narrow_grid_is_cut_into_blocks_by_characters(indent):
    rng = np.random.default_rng(9)
    tall = rng.random((40000, 1))
    tall[::7] = 0.5  # rows of several lengths
    grid = json.dumps(tall.tolist(), indent=indent)
    # Each grid is 4 blocks: one at the first row's 5 characters a value, two of about
    # QUAD_BATCH_VALUES values, and the rest.  After the grid comes another key (its last
    # block runs into the quote and is decoded again, cut at the grid's end), the end of
    # the object (the last block ends at the grid's own "]") or the end of the text.  Each
    # text is read from its bytes, as the CLI reads a file.
    texts = {'{"values": ' + grid + ', "C": ' + grid + "}": 4 + 1 + 4,
             '{"values": ' + grid + "}": 4, grid: 4}
    for text, calls in texts.items():
        with mock.patch.object(gridtext, "decode_rows", wraps=gridtext.decode_rows) as rows:
            decoded = gridtext.loads(text.encode())
        assert_same(PLAIN.decode(text), decoded)
        assert rows.call_count == calls


def test_a_row_wider_than_a_block_peaks_like_a_block(monkeypatch):
    rng = np.random.default_rng(8)
    wide = rng.random((2, 40 * 1024))
    text = json.dumps({"values": wide.tolist()})

    monkeypatch.setattr(gridtext, "QUAD_BATCH_VALUES", 1024)
    block = json.dumps({"values": wide[:, :1024].tolist()})
    block_peak, _ = traced_peak(lambda: gridtext.loads(block))
    grid_peak, decoded = traced_peak(lambda: gridtext.loads(text))
    assert decoded["values"].tobytes() == wide.tobytes()
    # the text, the blocks and the grid, plus the work of one block: not of one whole row
    assert grid_peak < len(text) + 3 * wide.nbytes + 2 * block_peak, (grid_peak, block_peak)


# ---------------------------------------------------------------------------
# uniform layout: every token and gap laid out as in the first row


@pytest.mark.parametrize("print_grid", [
    lambda p: json.dumps(p.tolist())[1:-1],  # 0.0 and 1.0
    lambda p: gridtext.encode_rows(p, 0)[1:-1].strip(),  # 0 and 1, one number a line
])
def test_a_permutation_matrix_never_reaches_the_general_kernel(monkeypatch, print_grid):
    def general_kernel(*args):
        raise AssertionError("a uniform-layout block reached _values")

    monkeypatch.setattr(gridtext, "_values", general_kernel)
    p = np.eye(300)[np.random.default_rng(3).permutation(300)]
    text = print_grid(p)
    assert kernel(text).tobytes() == p.tobytes()
    # through the document decoder: blocks of rows, and of 4 values each
    for block_values in (gridtext.QUAD_BATCH_VALUES, 4):
        with mock.patch.object(gridtext, "QUAD_BATCH_VALUES", block_values):
            decoded = gridtext.loads('{"C": [' + text + "]}")["C"]
        assert decoded.tobytes() == p.tobytes(), block_values


def test_a_byte_order_mark_is_refused_as_json_loads_refuses_it():
    text = '\ufeff{"B": [[1, 0], [0, 1]]}'
    with pytest.raises(json.JSONDecodeError) as plain:
        json.loads(text)
    with pytest.raises(json.JSONDecodeError) as decoded:
        gridtext.loads(text)
    assert (decoded.value.msg, decoded.value.pos) == (plain.value.msg, plain.value.pos)


# ---------------------------------------------------------------------------
# short tokens beside long ones, the zero step's "0.0" among them


def test_a_block_of_zero_tokens_is_returned_whole_by_the_zero_step(monkeypatch):
    def general(*args):
        raise AssertionError("a zero token reached the general kernel")

    text = "[0.0,0.0, 0.0], [0.0, 0.0,  0.0]"  # spacing the sparse tier declines
    assert gridtext._sparse(text.encode()) is None
    for step in ("_parts", "_values"):
        monkeypatch.setattr(gridtext, step, general)
    decoded = kernel(text)
    assert decoded.tobytes() == np.zeros((2, 3)).tobytes()
    assert not np.signbit(decoded).any()


def test_a_permutation_mixture_hands_values_only_its_long_tokens(monkeypatch):
    n, rng = 300, np.random.default_rng(5)
    mixture = np.zeros((n, n))
    for a in rng.dirichlet(np.ones(3)):
        mixture[np.arange(n), rng.permutation(n)] += a
    text = json.dumps(mixture.tolist())[1:-1]
    handed = []
    values = gridtext._values

    def spy(words, ends, *parts):
        handed.append(ends.copy())
        return values(words, ends, *parts)

    monkeypatch.setattr(gridtext, "_values", spy)
    assert kernel(text).tobytes() == mixture.tobytes()
    tokens = [m for m in re.finditer(r"[-+.eE0-9]+", text)]
    long_ends = [m.end() for m in tokens if len(m[0]) > 8]
    assert 0 < len(long_ends) < len(tokens) // 20  # k = 3 values of 300 a row
    for ends in handed:  # once at _ARRAY_MIN 0, once at the module's
        assert ends.tolist() == long_ends
    assert len(handed) == 2


# ---------------------------------------------------------------------------
# a grid of unsigned rows and signed ones


@pytest.mark.parametrize("block_values", [4, 8])
def test_a_block_without_signs_beside_a_signed_one(block_values):
    unsigned = [[1.25 + k / 7 for k in range(4)] for _ in range(3)]
    signed = [[-1.25 - k / 7, 0.5, -0.0, 9.75] for k in range(3)]
    for grid in (unsigned + signed, signed + unsigned):
        text = json.dumps({"C": grid})
        with mock.patch.object(gridtext, "QUAD_BATCH_VALUES", block_values), \
                mock.patch.object(gridtext, "_ARRAY_MIN", 0):
            decoded = gridtext.loads(text)["C"]
        assert decoded.tobytes() == np.array(grid).tobytes()


# ---------------------------------------------------------------------------
# the sparse tier: one zero token, "0" or "0.0", but a few tokens with a nonzero digit


def mixture_block(n=512, rows=32, k=3, seed=5):
    """(bytes, grid): the first rows of a convex combination of k permutation matrices, n x n,
    as json.dumps prints it, a block of at most k * rows nonzero tokens."""
    rng = np.random.default_rng(seed)
    mixture = np.zeros((n, n))
    for a in rng.dirichlet(np.ones(k)):
        mixture[np.arange(n), rng.permutation(n)] += a
    return json.dumps(mixture[:rows].tolist())[1:-1].encode(), mixture[:rows]


def test_a_birkhoff_mixture_block_reaches_no_general_step(monkeypatch):
    def general(*args):
        raise AssertionError("a zero token reached the general kernel")

    for step in ("_parts", "_values"):
        monkeypatch.setattr(gridtext, step, general)
    for zero in ("0.0", "0"):
        data, grid = mixture_block()
        if zero == "0":
            data = data.replace(b"0.0,", b"0,").replace(b"0.0]", b"0]")
        decoded = gridtext.decode_rows(data, 0, len(data))
        assert decoded.tobytes() == grid.tobytes(), zero


def test_dense_blocks_and_blocks_past_their_grid_are_declined_before_the_array_work(
        monkeypatch):
    def array_work(raw):
        raise AssertionError("the sparse tier's array work ran")

    monkeypatch.setattr(gridtext, "_nonzero_tokens", array_work)
    rng = np.random.default_rng(4)
    dense = rng.random((30, 30))
    sparse, _ = mixture_block()
    zero_first = dense.copy()
    zero_first[0, 0] = 0.0
    blocks = [json.dumps(dense.tolist())[1:-1],
              json.dumps(zero_first.tolist())[1:-1],  # a zero first, nonzero digits after it
              sparse.decode()[:-1] + ']], "C": [[0.0, 0.5]',  # past the grid: a quote
              sparse.decode()[:-1] + "]]}, [0.0, 0.5]"]  # and a brace
    for text in blocks:
        assert gridtext._sparse(text.encode()) is None, text[:40]
        kernel(text)


def test_more_than_array_min_tokens_far_apart_are_declined_before_the_windows(monkeypatch):
    # each nonzero token 8 cells from the last: their runs of nonzero digits lie more than 24
    # bytes apart, so they count as a token each before any window is gathered
    calls = []
    nonzero_tokens = gridtext._nonzero_tokens
    monkeypatch.setattr(gridtext, "_nonzero_tokens",
                        lambda *args: calls.append(args) or nonzero_tokens(*args))
    for count in (gridtext._ARRAY_MIN, gridtext._ARRAY_MIN + 1):
        grid = np.zeros((48, 48))
        grid.flat[1 : 8 * count : 8] = 0.125
        text = json.dumps(grid.tolist())[1:-1]
        calls.clear()
        tier = gridtext._sparse(text.encode())
        assert (tier is None) == (count > gridtext._ARRAY_MIN)
        assert len(calls) == (count <= gridtext._ARRAY_MIN)
        kernel(text)


def test_a_mixture_with_two_nonzero_tokens_in_its_first_256_bytes_is_sparse():
    grid = np.zeros((32, 128))
    grid[0, 1:3] = [0.12345678912345678, 0.98765432198765432]  # 17 nonzero digits each
    grid[np.arange(1, 32), np.arange(5, 36)] = 0.5
    data = json.dumps(grid.tolist())[1:-1].encode()
    head = data[:256]
    assert 8 * (len(head) - len(head.translate(None, b"123456789"))) > len(head)
    tier = gridtext._sparse(data)
    assert tier is not None and tier.tobytes() == grid.tobytes()


def test_the_sparse_tier_takes_at_most_array_min_nonzero_tokens():
    for count in (gridtext._ARRAY_MIN, gridtext._ARRAY_MIN + 1):
        grid = np.zeros((2, gridtext._ARRAY_MIN))
        grid.flat[-count:] = 1.0  # after a zero head
        text = json.dumps(grid.tolist())[1:-1]
        assert (gridtext._sparse(text.encode()) is None) == (count > gridtext._ARRAY_MIN)
        kernel(text)


# ---------------------------------------------------------------------------
# the comma locator: blocks laid out as json.dumps prints a grid of unsigned numbers


def test_a_json_dumps_first_row_is_found_alone_or_before_a_row_break():
    # the offset of its "]", where a grid of one row ends
    assert gridtext._dumps_head(b"[0.5, 1.5]") == 9
    assert gridtext._dumps_head(b"[0.5, 1.5], [2.5, 3.5]") == 9
    assert gridtext._dumps_head(b"[0.5, 1.5],[2.5, 3.5]") == -1


def test_every_block_of_a_json_dumps_grid_takes_the_locator_and_no_other_layout_calls_it(
        monkeypatch):
    grid = rank_one(300, seed=3)
    rows = grid.tolist()
    layouts = {
        "json.dumps": json.dumps(rows),
        "pretty": "[\n  [\n    " + "\n  ],\n  [\n    ".join(
            ",\n    ".join(f"{v:.17g}" for v in row) for row in rows) + "\n  ]\n]",
        "spaced": "[" + ", ".join("[" + " , ".join(map(repr, row)) + " ]" for row in rows) + "]",
        "compact": json.dumps(rows, separators=(",", ":")),
        # json.dumps's gaps in a row, with another row break
        "padded rows": "[" + ", ".join("[" + ", ".join(map(repr, row)) + " ]"
                                       for row in rows) + "]",
        "hugged rows": json.dumps(rows).replace("], [", "],["),
        # json.dumps's row breaks, with another gap in a row
        "hugged gaps": json.dumps(rows).replace(", ", ",").replace("],[", "], ["),
        "spaced gaps": json.dumps(rows).replace(", ", " , ").replace("] , [", "], ["),
    }
    located, decoded = [], []
    locate, decode_rows = gridtext._located, gridtext.decode_rows

    def spy_locate(*args):
        found = locate(*args)
        located.append(found is not None)
        return found

    def spy_decode(*args):
        block = decode_rows(*args)
        decoded.append(block is not None)
        return block

    monkeypatch.setattr(gridtext, "_located", spy_locate)
    monkeypatch.setattr(gridtext, "decode_rows", spy_decode)
    for name, text in layouts.items():
        located.clear()
        decoded.clear()
        assert gridtext.loads(text).tobytes() == grid.tobytes(), name
        if name == "json.dumps":
            assert located.count(True) == decoded.count(True) > 1, located
        else:
            assert located == [] and decoded.count(True) > 1, name
