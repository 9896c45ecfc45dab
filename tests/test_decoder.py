"""The instance-file decoder: json.loads, except that grids arrive as float64 arrays."""

import json
import tracemalloc
from fractions import Fraction
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


def outcome(decode, text):
    try:
        return "value", decode(text)
    except Exception as exc:  # the exception is the result to compare
        return "raised", (type(exc), str(exc))


def assert_decodes_like_json(text):
    """The decoder agrees with json.loads on text, also with a block of 4 values.

    A block that small sends every array longer than 4 characters through
    the row-by-row scan, and every grid of more than 4 values into several
    blocks.
    """
    plain = outcome(PLAIN.decode, text)
    for block_values in (gridtext.QUAD_BATCH_VALUES, 4):
        with mock.patch.object(gridtext, "QUAD_BATCH_VALUES", block_values):
            decoded = outcome(gridtext.loads, text)
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


# 400 examples, or the budget of the loaded profile if it is larger (see tests/conftest.py)
DIFFERENTIAL = settings(
    max_examples=max(400, settings.default.max_examples),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@DIFFERENTIAL
@given(DOCUMENTS)
def test_documents_decode_like_json(text):
    assert_decodes_like_json(text)


@DIFFERENTIAL
@given(mutated())
def test_mutated_documents_decode_or_fail_like_json(text):
    assert_decodes_like_json(text)


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


def test_objects_nested_past_the_python_scanner_fall_back_to_the_c_scanner():
    # the Python scanner takes about twice the stack per object level of the C scanner,
    # so a document it cannot nest that deep is read again, whole, by the C scanner
    depth = 700
    decoded = gridtext.loads('{"a": ' * depth + "[[1, 2]]" + "}" * depth)
    for _ in range(depth):
        decoded = decoded["a"]
    assert decoded == [[1, 2]] and type(decoded) is list
    too_deep = "[" * 100_000 + "]" * 100_000
    assert outcome(gridtext.loads, too_deep) == outcome(PLAIN.decode, too_deep)


def test_non_finite_constants_are_refused_inside_and_outside_grids():
    for text in ('{"p": NaN}', '[[1, Infinity]]', '[[1], [2, -Infinity]]', '{"a": [[0], [NaN]]}'):
        kind, (exc_type, message) = outcome(gridtext.loads, text)
        assert kind == "raised" and exc_type is ValidationError
        assert message.startswith("non-finite number")
        assert outcome(PLAIN.decode, text)[1][1] == message


# ---------------------------------------------------------------------------
# memory


def test_a_large_grid_document_peaks_below_half_of_plain_json(tmp_path):
    n = 400
    rng = np.random.default_rng(5)
    points = rng.random((n, 3)).tolist()

    def peak(load):
        tracemalloc.start()
        try:
            result = load()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

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
        plain_peak, plain = peak(lambda: PLAIN.decode(path.read_text(encoding="utf-8")))
        grid_peak, decoded = peak(lambda: cli._load_document(str(path)))
        assert grid_peak < plain_peak / 2, (grid_peak, plain_peak)
        assert_same(plain, decoded)


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
    """decode_rows(text), checked bit for bit against the reference."""
    decoded, expected = gridtext.decode_rows(text, 0, len(text)), reference(text)
    if expected is None:
        assert decoded is None, text
    else:
        assert decoded is not None and decoded.shape == expected.shape, text
        assert decoded.tobytes() == expected.tobytes(), text
    return decoded


def one(token):
    return kernel(f"[{token}]")[0, 0]


def test_signed_zeros_follow_json_ints_and_floats():
    # json reads "-0" as the int 0, so it is +0.0; "-0.0" and "-0e0" are floats
    for token in ["0", "-0", "0e5", "0.000", "0.0000000000000000000000000"]:
        assert one(token) == 0.0 and not np.signbit(one(token)), token
    for token in ["-0.0", "-0e0", "-0.0e-400", "-0.00000000000000000000000000"]:
        assert one(token) == 0.0 and np.signbit(one(token)), token


@pytest.mark.parametrize("token, value", [
    ("9007199254740993", 9007199254740992.0),  # 2**53 + 1 ties to even
    ("9007199254740995", 9007199254740996.0),
    ("1e23", 1e23),
    ("2.2250738585072011e-308", 2.2250738585072011e-308),  # the largest subnormal, almost
    ("2.2250738585072014e-308", 2.2250738585072014e-308),  # the smallest normal
    ("4.9e-324", 5e-324),
    ("2.4703282292062328e-324", 5e-324),  # just above half the smallest subnormal
    ("2.4703282292062327e-324", 0.0),
    ("1.7976931348623157e308", 1.7976931348623157e308),
    ("1.7976931348623158e308", 1.7976931348623157e308),
    ("1e400", np.inf),
    ("1e-400", 0.0),
    ("0.1", 0.1),
    ("123456789012345678901234567890", 1.2345678901234568e29),
])
def test_hard_tokens_round_like_float(token, value):
    assert one(token) == value
    assert one("-" + token) == -value


def test_mantissas_of_15_to_20_digits_at_the_exact_path_limits():
    rng = np.random.default_rng(11)
    tokens = []
    for digits in range(15, 21):
        for _ in range(20):
            mantissa = str(int(rng.integers(1, 10))) + "".join(map(str, rng.integers(0, 10, digits - 1)))
            for q in (-23, -22, 22, 23):
                tokens.append(f"{mantissa}e{q}")
                point = int(rng.integers(1, digits))
                tokens.append(f"{mantissa[:point]}.{mantissa[point:]}e{q + digits - point}")
    width = 4
    rows = [tokens[k : k + width] for k in range(0, len(tokens) - width + 1, width)]
    kernel(", ".join("[" + ", ".join(row) + "]" for row in rows))


def test_values_beyond_a_double_or_the_digit_limit_are_declined():
    assert np.isinf(kernel("[1, 1e400], [-1e999, 2]")).tolist() == [[False, True], [True, False]]
    assert kernel("[1, 1" + "0" * 309 + "]") is None  # an int beyond a double stays a list
    assert kernel("[1, 1" + "0" * 300 + "]")[0, 1] == 1e300
    past = "[[1, 1" + "0" * 4300 + "]]"
    with mock.patch.object(gridtext, "QUAD_BATCH_VALUES", 4):
        kind, (exc_type, message) = outcome(gridtext.loads, past)
    assert kind == "raised" and exc_type is ValueError and "4300" in message
    assert outcome(PLAIN.decode, past) == (kind, (exc_type, message))


@pytest.mark.parametrize("text", [
    "[1, 2], [3]", "[1, 2] [3, 4]", "[1, 2],, [3, 4]", "[1 2]", "[1, 2], [3, 4],",
    "[[1]]", "[1], 2", "[01]", "[1.]", "[.5]", "[-]", "[+1]", "[1e]", "[1e+]", "[1.5.5]",
    "[1e5e5]", "[1e5.5]", "[1-2]", "[--1]", "[1x]", '["1"]', "[true]", "[NaN]", "[]",
    "[1, \u00e9]", "[1]\x0b", "[1\x00]",
])
def test_anything_but_rows_of_json_numbers_is_declined(text):
    assert kernel(text) is None


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


WHITESPACE = st.text(alphabet=" \t\n\r", max_size=3)


@st.composite
def spaced_grids(draw):
    """Equal-length rows of numbers, with any JSON whitespace around every token and bracket."""
    width = draw(st.integers(1, 9))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        tokens = [draw(WHITESPACE) + draw(NUMBER_TOKENS) + draw(WHITESPACE) for _ in range(width)]
        rows.append(draw(WHITESPACE) + "[" + ",".join(tokens) + "]" + draw(WHITESPACE))
    return "[" + ",".join(rows) + "]"


@DIFFERENTIAL
@given(spaced_grids())
def test_grids_with_any_whitespace_decode_like_json_across_blocks(text):
    # with blocks of 4 values, a grid of more than one row crosses block boundaries,
    # and a row of more than 4 values is decoded in pieces
    assert_decodes_like_json(text)
    kernel(text[1:-1].strip(" \t\n\r"))


@pytest.mark.parametrize("indent", [None, 2])
def test_a_tall_narrow_grid_is_cut_into_blocks_by_characters(indent):
    rng = np.random.default_rng(9)
    tall = rng.random((40000, 1))
    tall[::7] = 0.5  # rows of several lengths
    grid = json.dumps(tall.tolist(), indent=indent)
    # Each grid is 4 blocks: one at the first row's 5 characters a value, two of about
    # QUAD_BATCH_VALUES values, and the rest.  After the grid comes another key (its last
    # block runs into the quote and is decoded again, cut at the grid's end), the end of
    # the object (the last block ends at the grid's own "]") or the end of the text.
    texts = {'{"values": ' + grid + ', "C": ' + grid + "}": 4 + 1 + 4,
             '{"values": ' + grid + "}": 4, grid: 4}
    for text, calls in texts.items():
        with mock.patch.object(gridtext, "decode_rows", wraps=gridtext.decode_rows) as rows:
            decoded = gridtext.loads(text)
        assert_same(PLAIN.decode(text), decoded)
        assert rows.call_count == calls


def test_a_row_wider_than_a_block_peaks_like_a_block(monkeypatch):
    rng = np.random.default_rng(8)
    wide = rng.random((2, 40 * 1024))
    text = json.dumps({"values": wide.tolist()})

    def peak(load):
        tracemalloc.start()
        try:
            result = load()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(gridtext, "QUAD_BATCH_VALUES", 1024)
    block_peak, _ = peak(lambda: gridtext.loads(json.dumps({"values": wide[:, :1024].tolist()})))
    grid_peak, decoded = peak(lambda: gridtext.loads(text))
    assert decoded["values"].tobytes() == wide.tobytes()
    # the text, the blocks and the grid, plus the work of one block: not of one whole row
    assert grid_peak < len(text) + 3 * wide.nbytes + 2 * block_peak, (grid_peak, block_peak)


# ---------------------------------------------------------------------------
# uniform layout: every token and gap laid out as in the first row


def digit_string(draw, count, lead):
    """count random digits, the first of them nonzero when lead is set."""
    digits = draw(st.lists(st.integers(0, 9), min_size=count, max_size=count))
    if lead:
        digits[0] = draw(st.integers(1, 9))
    return "".join(map(str, digits))


@st.composite
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


SEPARATORS = st.sampled_from([", ", ",", ",\n      ", ",\t", ",\r\n  "])
PADDING = st.sampled_from(["", "", " ", "\n    ", "\n  "])  # inside a row's brackets


@st.composite
def uniform_grids(draw, min_side=1):
    """(rows of tokens, then per row: separator, space after "[", space before "]"; the row
    gap; whether the layout is exact in a double)."""
    token, exact = draw(uniform_tokens())
    width, rows = draw(st.integers(min_side, 6)), draw(st.integers(min_side, 6))
    tokens = [[token(draw) for _ in range(width)] for _ in range(rows)]
    layout = [draw(st.tuples(SEPARATORS, PADDING, PADDING))] * rows
    return tokens, layout, draw(SEPARATORS), exact


def grid_text(tokens, layout, gap):
    return gap.join(f"[{lead}{sep.join(row)}{trail}]"
                    for row, (sep, lead, trail) in zip(tokens, layout))


@DIFFERENTIAL
@given(uniform_grids())
def test_uniform_layout_grids_decode_like_json(grid):
    tokens, layout, gap, exact = grid
    text = grid_text(tokens, layout, gap)
    assert (gridtext._uniform(text.encode("ascii")) is not None) == exact, text
    kernel(text)
    assert_decodes_like_json("[" + text + "]")


@st.composite
def near_uniform_grids(draw):
    """A uniform-layout grid of at least two rows and columns with one thing out of place, or
    with a leading zero on every token."""
    tokens, layout, gap, _ = draw(uniform_grids(min_side=2))
    i, j = draw(st.integers(0, len(tokens) - 1)), draw(st.integers(0, len(tokens[0]) - 1))
    edit = draw(st.sampled_from(["width", "sign", "leading zeros", "exponent", "separator",
                                 "whitespace", "short last row"]))
    if edit == "width":
        tokens[i][j] = "1" + tokens[i][j]
    elif edit == "sign":
        tokens[i][j] = "-" + tokens[i][j]
    elif edit == "leading zeros":  # on every token, so the layout stays uniform
        tokens = [["0" + token for token in row] for row in tokens]
    elif edit == "exponent":
        tokens[i][j] += draw(st.sampled_from(["e0", "E+1", "e-2"]))
    elif edit in ("separator", "whitespace"):
        k = 0 if edit == "separator" else draw(st.integers(1, 2))
        row = list(layout[i])
        row[k] = draw((SEPARATORS if k == 0 else PADDING).filter(lambda other: other != row[k]))
        layout = layout[:i] + [tuple(row)] + layout[i + 1 :]
    else:
        tokens[-1].pop()
    return grid_text(tokens, layout, gap)


@DIFFERENTIAL
@given(near_uniform_grids())
def test_grids_just_off_a_uniform_layout_decode_like_json(text):
    assert gridtext._uniform(text.encode("ascii")) is None, text
    kernel(text)
    assert_decodes_like_json("[" + text + "]")


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
