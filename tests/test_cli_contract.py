"""The CLI contract on hostile input: exit 0, 1 or 2, no traceback, strict JSON on stdout."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import jensenchain
from jensenchain import NumericError, functions, get_function, gridtext
from jensenchain.cli import main
from jensenchain.numerics import golden_section_minimize
from jensenchain.refine import _assemble

SQUARE = {
    "application": "jensen",
    "function": {"name": "square"},
    "lambda": [0.5, 0.5],
    "mu": [0.5, 0.5],
    "points": [0.0, 1.0],
    "weights": {
        "omega1": {"kind": "ones"},
        "omega2": {"kind": "matrix", "values": [[1.5, 0.5], [0.5, 1.5]]},
    },
}

POWERSUM = {
    "application": "powersum",
    "p": 2.5,
    "points": [1.0, 2.0],
    "weights": {"B": [[1.0, 0.0], [0.0, 1.0]], "C": [[0.0, 1.0], [1.0, 0.0]]},
}


def _refuse(name):
    raise ValueError(f"{name} in output")


def strict_json(text):
    return json.loads(text, parse_constant=_refuse)


def run_raw(tmp_path, data: bytes, command="verify", *flags):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with np.errstate(all="ignore"):
            code = main([command, str(path), *flags])
    return code, out.getvalue(), err.getvalue()


def run_doc(tmp_path, doc, command="verify", *flags):
    return run_raw(tmp_path, json.dumps(doc).encode(), command, *flags)


def assert_refused(result, *fragments):
    code, out, err = result
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


# ---------------------------------------------------------------------------
# non-finite output


def test_overflowing_upper_bound_exits_2_with_empty_stdout(tmp_path):
    # exp(710) overflows: the upper bound, and with it the tolerance, used to be inf
    doc = dict(SQUARE, function={"name": "exp"}, points=[710, 0])
    assert_refused(run_doc(tmp_path, doc), "upper bound is inf")


def test_overflow_warning_does_not_precede_the_diagnosis(tmp_path):
    # a fresh interpreter, where Python's warning filters would print numpy's RuntimeWarning
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(SQUARE, function={"name": "exp"}, points=[710, 0])))
    src = str(Path(jensenchain.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="always")
    proc = subprocess.run(
        [sys.executable, "-m", "jensenchain.cli", "verify", str(path)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines()[0].startswith("error:")
    assert "RuntimeWarning" not in proc.stderr


def test_overflow_in_a_closed_form_exits_2_without_traceback(tmp_path, monkeypatch):
    # an OverflowError from a math-module closed form is a failed computation: exit 2, not 1
    def overflowing(a, b):
        raise OverflowError("math range error")

    domain, direction, evaluate, _ = functions._CATALOG["exp"]
    monkeypatch.setitem(functions._CATALOG, "exp", (domain, direction, evaluate, overflowing))
    result = run_doc(tmp_path, dict(SQUARE, function={"name": "exp"}))
    assert "Traceback" not in result[2]
    assert_refused(result, "OverflowError: math range error")


@pytest.mark.parametrize("name, points", [
    # math.expm1(719) overflows; the mean is about 1.14e305 and the upper bound about 4.1e307
    ("exp", [-10, 709]),
    # a * a overflows; the mean and both Jensen sides are about 1.2e308
    ("square", [1e154, 1.2e154]),
])
def test_a_closed_form_past_its_naive_overflow_is_verified(tmp_path, name, points):
    doc = {"function": {"name": name}, "points": points, "weights": POWERSUM["weights"]}
    code, out, err = run_doc(tmp_path, doc)
    assert (code, err) == (0, "")
    report = strict_json(out)
    assert report["pass"] is True and math.isfinite(report["integral"])
    (check,) = report["identity_checks"]
    assert check["ok"] and check["rel_err"] <= 1e-8


@pytest.mark.parametrize("member", range(4))
def test_assemble_refuses_each_non_finite_member(member):
    args = [0.0, 1.0, 1.0, 1.0]
    args[member] = math.nan if member % 2 else math.inf
    lower, upper, mid_lo, mid_hi = args
    with pytest.raises(NumericError, match="not a finite number"):
        _assemble(lower, mid_lo, upper, mid_lo, mid_hi)


# ---------------------------------------------------------------------------
# ingest errors that used to escape as tracebacks


def test_deeply_nested_document_exits_2(tmp_path):
    assert_refused(run_raw(tmp_path, b"[" * 100_000 + b"]" * 100_000), "doc.json", "nested")


def test_invalid_utf8_exits_2(tmp_path):
    data = json.dumps(SQUARE).encode().replace(b'"square"', b'"squ\xffare"')
    assert_refused(run_raw(tmp_path, data), "doc.json", "not UTF-8")


def test_a_byte_order_mark_exits_2_naming_it(tmp_path):
    data = b"\xef\xbb\xbf" + json.dumps(SQUARE).encode()
    assert_refused(run_raw(tmp_path, data), "doc.json", "line 1, column 1", "UTF-8 BOM")


def test_huge_integer_exponent_exits_2(tmp_path):
    data = json.dumps(dict(POWERSUM, p=0)).replace('"p": 0', '"p": ' + "9" * 401)
    assert_refused(run_raw(tmp_path, data.encode()), "error: p: ")


def test_huge_integer_in_an_array_exits_2(tmp_path):
    assert_refused(run_doc(tmp_path, dict(SQUARE, points=[0.0, 10 ** 400])), "error: points: ")


# more digits than json may turn into an int where the interpreter limits them (4300 by default)
DIGITS = "9" * 5000
NO_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit")


@pytest.mark.parametrize(
    "old, new",
    [
        pytest.param('"p": 2.5', f'"p": {DIGITS}', id="p"),
        pytest.param("[[1.0, 0.0]", f"[[{DIGITS}, 0.0]", id="grid"),
        pytest.param('"p": 2.5', f'"p": 2.5, "seed": {DIGITS}', id="seed", marks=NO_DIGIT_LIMIT),
    ],
)
def test_integer_past_the_digit_limit_exits_2(tmp_path, old, new):
    data = json.dumps(POWERSUM).replace(old, new)
    assert_refused(run_raw(tmp_path, data.encode()), "error: ")


def text_mode_error(path):
    """The error line of a document read as a file opened in text mode (UTF-8, "\\r\\n" and
    "\\r" read as "\\n") and parsed by json.loads, as the CLI words each failure."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        return f"error: {path}: not UTF-8 text ({exc.reason} at byte {exc.start})\n"
    try:
        json.loads(text, parse_constant=gridtext._refuse_constant)
    except json.JSONDecodeError as exc:
        return (f"error: {path}: malformed JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}\n")
    except RecursionError:
        return f"error: {path}: JSON nested too deeply\n"
    except ValueError as exc:
        return f"error: {path}: {exc}\n"
    raise AssertionError("the document is well formed")


# a 40 x 30 grid in a powersum document, one number a line as generate prints them: longer
# than a block, so the CLI reads it from the file's bytes before it meets the fault
GRID_DOC = json.dumps(dict(POWERSUM, weights={"B": np.eye(40, 30).tolist(), "C": (
    np.random.default_rng(13).random((40, 30)) * 7 - 3).tolist()}), indent=1)


@pytest.mark.parametrize("fault", [
    pytest.param(lambda d: d.replace(b'"powersum"', b'"power\xffsum"'), id="invalid-utf8"),
    pytest.param(lambda d: d[: len(d) // 2] + b"\xc3" + d[len(d) // 2 :], id="invalid-utf8-in-grid"),
    pytest.param(lambda d: d[:-2] + b'"x": "\xe2\x82"}', id="truncated-utf8"),
    pytest.param(lambda d: b"\xef\xbb\xbf" + d, id="bom"),
    pytest.param(lambda d: d.replace(b"\n", b"\r\n")[:-1] + b", tru}", id="crlf"),
    pytest.param(lambda d: d.replace(b"\n", b"\r")[:-1] + b", tru}", id="cr"),
    pytest.param(lambda d: d.replace(b"\n", b"\r\n").replace(b"]\r\n }", b"],\r\n }"), id="crlf-grid"),
    pytest.param(lambda d: d.replace(b'"p": 2.5', b'"p": NaN'), id="nan"),
    pytest.param(lambda d: d.replace(b"0.0", b"-Infinity", 1), id="infinity-in-grid"),
    pytest.param(lambda d: d.replace(b'"p": 2.5', b'"p": ' + b"9" * 5000), id="digit-limit",
                 marks=NO_DIGIT_LIMIT),
    pytest.param(lambda d: d[:-1] + b', "seed": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                 id="deep"),
])
def test_input_errors_read_from_bytes_are_those_of_a_text_mode_read(tmp_path, fault):
    data = fault(GRID_DOC.encode())
    code, out, err = run_raw(tmp_path, data)
    assert (code, out, err) == (2, "", text_mode_error(tmp_path / "doc.json"))


# ---------------------------------------------------------------------------
# non-finite input


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_constants_are_refused_at_parse_time(tmp_path, token):
    data = json.dumps(SQUARE).replace("[0.0, 1.0]", f"[0.0, {token}]")
    assert_refused(run_raw(tmp_path, data.encode()), "doc.json", f"non-finite number {token}")


def test_overflowing_point_names_the_field(tmp_path):
    data = json.dumps(SQUARE).replace("[0.0, 1.0]", "[0.0, 1e400]")
    assert_refused(run_raw(tmp_path, data.encode()), "points: non-finite value inf at index [1]")


def test_overflowing_weight_grid_value_names_the_field(tmp_path):
    data = json.dumps(SQUARE).replace("[[1.5, 0.5]", "[[-1e400, 0.5]")
    assert_refused(
        run_raw(tmp_path, data.encode()), "weights.omega2", "values: non-finite value -inf"
    )


@pytest.mark.parametrize("n, i, j", [(2, 1, 0), (200, 150, 7)])
def test_an_overflowing_matrix_entry_names_its_index(tmp_path, n, i, j):
    rows = [["1.0" if col == row else "0.0" for col in range(n)] for row in range(n)]
    rows[i][j] = "1e400"
    b = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    doc = dict(POWERSUM, points=[1.0] * n, weights={"B": "B", "C": np.eye(n).tolist()})
    data = json.dumps(doc).replace('"B": "B"', f'"B": {b}')
    assert_refused(
        run_raw(tmp_path, data.encode()), f"error: weights.B: non-finite value inf at index [{i}, {j}]"
    )


def test_overflowing_exponent_names_the_field(tmp_path):
    data = json.dumps(POWERSUM).replace('"p": 2.5', '"p": 1e400')
    assert_refused(run_raw(tmp_path, data.encode()), "error: p: expected a finite number")


def test_overflowing_function_parameter_is_refused(tmp_path):
    data = json.dumps(dict(SQUARE, function={"name": "powp", "params": {"p": 2.0}}))
    data = data.replace('"p": 2.0', '"p": 1e400')
    assert_refused(run_raw(tmp_path, data.encode()), "finite p")


@pytest.mark.parametrize("command", ["verify", "tighten"])
@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_flag_is_refused(tmp_path, command, tol):
    assert_refused(run_doc(tmp_path, SQUARE, command, "--tol", tol), "--tol: expected a finite")


def test_a_finite_tol_whose_chain_tolerance_overflows_is_refused(tmp_path):
    # max(1, |lower|, |upper|) is 2.5, and 1e308 * 2.5 overflows
    doc = {"application": "jensen", "function": {"name": "square"}, "points": [1, 2],
           "weights": {"B": [[1, 0], [0, 1]], "C": [[0, 1], [1, 0]]}}
    assert_refused(run_doc(tmp_path, doc, "verify", "--tol", "1e308"), "--tol", "overflow")
    code, out, _ = run_doc(tmp_path, doc, "verify", "--tol", "1e300")
    assert code == 0 and strict_json(out)["tolerance"] == 1e300 * 2.5


# ---------------------------------------------------------------------------
# tighten iteration cap


def test_tighten_cap_exits_2_naming_cap_bracket_and_tolerance(tmp_path):
    result = run_doc(tmp_path, SQUARE, "tighten", "--tol", "1e-300")
    assert_refused(result, "cap of 1000 iterations", "1.000e-300")


def test_tighten_reports_the_requested_bracket_when_reached(tmp_path):
    code, out, _ = run_doc(tmp_path, SQUARE, "tighten", "--tol", "1e-9")
    assert code == 0
    assert strict_json(out)["bracket_width"] == 1e-9


def test_golden_section_cap_is_an_error():
    with pytest.raises(NumericError, match="cap of 5 iterations"):
        golden_section_minimize(lambda t: t, 0.0, 1.0, 1e-10, max_iter=5)
    x, _ = golden_section_minimize(lambda t: t, 0.0, 1.0, 0.1, max_iter=5)
    assert 0.0 <= x <= 0.1


# ---------------------------------------------------------------------------
# fuzz


BASES = [
    SQUARE,
    {
        "function": {"name": "powp", "params": {"p": 1.5}},
        "lambda": [0.2, 0.3, 0.5],
        "mu": [0.5, 0.5],
        "points": [0.5, 2.0, 1.0],
        "weights": {
            "omega1": {"kind": "ones"},
            "omega2": {"kind": "rank_one", "u": [1.0, -1.0], "v": [0.1, 0.0, -0.1]},
        },
    },
    POWERSUM,
    {"application": "agm", "points": POWERSUM["points"], "weights": POWERSUM["weights"]},
    {"application": "kyfan", "points": [0.1, 0.3], "weights": POWERSUM["weights"]},
    {"application": "matrixpower", "p": 3, "weights": POWERSUM["weights"]},
    {"application": "lp", "p": 2.0, "points": [[1.0, 2.0], [0.5, 3.0]],
     "space": {"masses": [0.5, 1.5]}, "weights": POWERSUM["weights"]},
    {"application": "harmonic", "points": [[1.0, 2.0], [0.5, 3.0]],
     "weights": POWERSUM["weights"]},
]

OVERFLOW = 1.2345e300  # rendered as 1.2345e+300, then replaced by a literal that overflows

json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([10 ** 400, -(10 ** 400), math.nan, math.inf, -math.inf, OVERFLOW]),
    st.floats(-1e6, 1e6),
    st.text(max_size=6),
)
json_values = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=5), kids, max_size=3),
    max_leaves=12,
)
FIELDS = ["application", "function", "points", "lambda", "mu", "weights", "p", "space",
          "t_grid", "hadamard", "seed", "extra"]


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for k, v in enumerate(obj):
            yield from _paths(v, prefix + (k,))


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@st.composite
def documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["replace", "replace", "add", "drop", "nest"]))
        if action == "replace":
            _set(doc, draw(st.sampled_from(list(_paths(doc))[1:])), draw(json_values))
        elif action == "nest":
            # an array one level deeper or shallower than its field declares
            path = draw(st.sampled_from(list(_paths(doc))[1:]))
            node = doc
            for key in path:
                node = node[key]
            if isinstance(node, list) and node and draw(st.booleans()):
                _set(doc, path, node[0])
            else:
                _set(doc, path, [node])
        elif action == "add":
            doc[draw(st.sampled_from(FIELDS))] = draw(json_values)
        elif doc:
            doc.pop(draw(st.sampled_from(sorted(doc))))
    text = json.dumps(doc, allow_nan=True).replace("1.2345e+300", "1e400")
    return text.encode()


@st.composite
def raw_bytes(draw):
    kind = draw(st.sampled_from(["bytes", "mutated", "nested"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "nested":
        depth = draw(st.sampled_from([1, 50, 1000, 100_000]))
        opener, closer = draw(st.sampled_from([(b"[", b"]"), (b'{"a":', b"}")]))
        return opener * depth + b"1" + closer * depth
    data = bytearray(json.dumps(draw(st.sampled_from(BASES))).encode())
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(data) - 1))
        data[k:k + 1] = draw(st.binary(min_size=0, max_size=3))
    return bytes(data)


@st.composite
def exp_near_overflow(draw):
    """exp instances with points near log(DBL_MAX) ~ 709.78, where exp and its means overflow."""
    n = draw(st.integers(1, 3))
    near = st.floats(705.0, 712.0) | st.sampled_from([709.0, 709.78, 709.79, 710.0])
    points = draw(st.lists(near | st.floats(-20.0, 20.0) | st.floats(-20.0, 720.0),
                           min_size=n, max_size=n))
    eye = np.eye(n)
    pick = st.sampled_from([eye, np.roll(eye, 1, axis=0), np.full((n, n), 1.0 / n)])
    doc = {"function": {"name": "exp"}, "points": points,
           "weights": {"B": draw(pick).tolist(), "C": draw(pick).tolist()}}
    if draw(st.booleans()):
        doc["hadamard"] = {"p": [1.0, 2.0], "t": [0.25, 0.75]}
    return json.dumps(doc).encode()


@st.composite
def pow_near_overflow(draw):
    """powp, powersum and lp instances with values near DBL_MAX ** (1/(p+1)), where x ** (p+1)
    overflows; every chain member stays below about 1e3**p * DBL_MAX ** (p/(p+1))."""
    n = draw(st.integers(1, 3))
    p = draw(st.sampled_from([1.0, 2.0, 2.5, 3.0]) | st.floats(1.0, 4.0))
    threshold = sys.float_info.max ** (1.0 / (p + 1.0))
    near = st.floats(0.05, 1e3).map(lambda k: k * threshold) | st.sampled_from([0.0, threshold])
    eye = np.eye(n)
    pick = st.sampled_from([eye, np.roll(eye, 1, axis=0), np.full((n, n), 1.0 / n)])
    weights = {"B": draw(pick).tolist(), "C": draw(pick).tolist()}
    kind = draw(st.sampled_from(["powp", "powersum", "lp"]))
    if kind == "lp":
        points = draw(st.lists(st.lists(near, min_size=2, max_size=2), min_size=n, max_size=n))
        doc = {"application": "lp", "p": p, "points": points, "weights": weights}
    else:
        points = draw(st.lists(near, min_size=n, max_size=n))
        doc = {"application": "powersum", "p": p, "points": points, "weights": weights}
        if kind == "powp":
            doc = {"function": {"name": "powp", "params": {"p": p}}, "points": points,
                   "weights": weights}
    return json.dumps(doc).encode()


DBL_MAX = sys.float_info.max
# name -> (params, the largest point where f is finite); the drawn points stay a relative 1e-12
# (exp: 1e-9) inside it, for a row sum can round an ulp past the largest point
# (test_points_at_the_overflow_threshold_are_verified)
NEAR_OVERFLOW = {
    "exp": ({}, math.log(DBL_MAX) - 1e-9),
    "square": ({}, math.sqrt(DBL_MAX) * (1.0 - 1e-12)),
    "xlogx": ({}, 2.5563481638716906e305 * (1.0 - 1e-12)),
    "powp2": ({"p": 2.0}, DBL_MAX ** 0.5 * (1.0 - 1e-12)),
    "powp3": ({"p": 3.0}, DBL_MAX ** (1.0 / 3.0) * (1.0 - 1e-12)),
    "powp10": ({"p": 10.0}, DBL_MAX ** 0.1 * (1.0 - 1e-12)),
}


@st.composite
def catalog_near_overflow(draw):
    """exp, square, xlogx and powp documents with points up to where f overflows."""
    key = draw(st.sampled_from(sorted(NEAR_OVERFLOW)))
    params, top = NEAR_OVERFLOW[key]
    n = draw(st.integers(1, 3))
    if key == "exp":
        near = st.floats(top - 20.0, top) | st.floats(-750.0, 20.0) | st.just(top)
    else:
        low = 0.0 if key == "square" else 1e-3
        near = (st.floats(low, 1.0).map(lambda k: k * top) | st.floats(1e-20, 1e3)
                | st.just(top))
        if key == "square":
            near = near | near.map(lambda x: -x)
    points = draw(st.lists(near, min_size=n, max_size=n))
    eye = np.eye(n)
    pick = st.sampled_from([eye, np.roll(eye, 1, axis=0), np.full((n, n), 1.0 / n)])
    function = {"name": key[:4] if key.startswith("powp") else key}
    if params:
        function["params"] = params
    doc = {"function": function, "points": points,
           "weights": {"B": draw(pick).tolist(), "C": draw(pick).tolist()}}
    if draw(st.booleans()):
        doc["hadamard"] = {"p": [1.0, 2.0], "t": [0.25, 0.75]}
    return doc


def _jensen_sides(doc):
    """f at the mean of the points and the mean of f, as the engine forms them (uniform lambda)."""
    f = get_function(doc["function"]["name"], doc["function"].get("params"))
    pts = np.array(doc["points"], dtype=float)
    lam = np.full(pts.size, 1.0 / pts.size)
    with np.errstate(all="ignore"):
        return float(f.evaluate(float(lam @ pts))), float(lam @ f.evaluate(pts))


@settings(max_examples=max(150, settings.default.max_examples), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=catalog_near_overflow())
def test_cli_verifies_catalog_functions_near_overflow(doc):
    """Finite Jensen sides bound every chain member, so the instance is verified, never refused."""
    assume(all(math.isfinite(side) for side in _jensen_sides(doc)))
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_doc(Path(tmp), doc)
    assert code in (0, 1), err
    strict_json(out)


def test_points_at_the_overflow_threshold_are_verified(tmp_path):
    eye = np.eye(3)
    doc = {"function": {"name": "exp"}, "points": [690.0, math.log(DBL_MAX), math.log(DBL_MAX)],
           "weights": {"B": eye.tolist(), "C": np.roll(eye, 1, axis=0).tolist()}}
    assert all(math.isfinite(side) for side in _jensen_sides(doc))
    code, out, err = run_doc(tmp_path, doc)
    assert code in (0, 1), err


@pytest.mark.parametrize("n", [11, 13, 22])
def test_row_sums_past_the_largest_point_are_verified(tmp_path, n):
    """With B = I, s1 = n * (x / n) rounds an ulp past log(DBL_MAX) for these n."""
    eye = np.eye(n)
    doc = {"function": {"name": "exp"}, "points": [math.log(DBL_MAX)] * (n - 1) + [690.0],
           "weights": {"B": eye.tolist(), "C": np.roll(eye, 1, axis=0).tolist()}}
    code, out, err = run_doc(tmp_path, doc)
    assert code == 0, err
    strict_json(out)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(points=st.lists(st.floats(0.0, DBL_MAX) | st.floats(0.0, 1e3)
                       | st.floats(0.5, 1.0).map(lambda k: k * DBL_MAX), min_size=1, max_size=3))
def test_harmonic_frac_near_the_largest_double_is_never_an_internal_error(points):
    n = len(points)
    eye = np.eye(n)
    doc = {"function": {"name": "harmonic_frac"}, "points": points,
           "weights": {"B": eye.tolist(), "C": np.roll(eye, 1, axis=0).tolist()}}
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_doc(Path(tmp), doc)
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "internal error" not in err


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=documents() | raw_bytes(), command=st.sampled_from(["verify", "verify", "tighten"]))
def test_cli_contract_holds_on_hostile_input(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_raw(Path(tmp), data, command)
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "internal error" not in err
    if code in (0, 1):
        strict_json(out)
    else:
        assert out == ""


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=exp_near_overflow(), command=st.sampled_from(["verify", "verify", "tighten"]))
def test_cli_contract_holds_near_exp_overflow(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_raw(Path(tmp), data, command)
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "internal error" not in err
    if code in (0, 1):
        strict_json(out)
    else:
        assert out == "" and err.startswith("error: ")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=pow_near_overflow())
def test_cli_verifies_powers_near_overflow(data):
    """Every chain member is finite, so the instance is verified (exit 0 or 1), never refused."""
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_raw(Path(tmp), data, "verify")
    assert code in (0, 1), err
    strict_json(out)
