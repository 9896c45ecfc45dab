"""Output checks that do not rely on the program under test.

``check(op, code, out, err, workdir)`` returns a list of problems (empty
when the outcome is right).  The reference values come from the
expectation that ``corpus.py`` computed with numpy when it built the
operation; the program's own verdicts are never trusted.
"""

import json
import os

import numpy as np

from corpus import chain_tol

REL = 1e-9      # lower/upper/phi endpoints against the numpy reference
SUM_TOL = 1e-10  # row and column sums of generated grids


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _is_number(v):
    # render_json prints integral floats without a fraction, so JSON may hand back an int
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _rel_close(a, b, rel=REL):
    return _is_number(a) and abs(a - b) <= rel * max(abs(a), abs(b))


def _check_sides(report, expect, problems):
    for key in ("lower", "upper"):
        if not _rel_close(report.get(key), expect[key]):
            problems.append(f"{key} {report.get(key)!r} != reference {expect[key]!r}")


def _check_verify(report, expect, code, problems):
    _check_sides(report, expect, problems)
    if report.get("pass") is not (code == 0):
        problems.append(f"pass {report.get('pass')!r} disagrees with exit {code}")
    if code != 0:
        return
    lo, hi = expect["lower"], expect["upper"]
    tol = report.get("tolerance")
    if not _is_number(tol) or not 0.0 < tol <= 1e-6 * max(1.0, abs(lo), abs(hi)):
        problems.append(f"tolerance {tol!r} is not a small positive number")
        return
    middle = report.get("middle")
    if expect["kind"] == "jensen":
        values = [m.get("value") for m in middle] + [report.get("integral")]
    elif isinstance(middle, list):
        values = middle
    else:
        values = [middle]
    for v in values:
        if not _is_number(v) or not lo - tol <= v <= hi + tol:
            problems.append(f"middle member {v!r} outside [{lo!r}, {hi!r}]")


def _check_grid(grid, rows, cols, row_scale, col_scale, problems):
    try:
        g = np.asarray(grid, dtype=float)
    except (TypeError, ValueError) as exc:
        problems.append(f"grid is not a numeric matrix: {exc}")
        return
    if g.shape != (rows, cols):
        problems.append(f"grid shape {g.shape} != {(rows, cols)}")
        return
    if np.any(g < 0.0):
        problems.append("grid has a negative entry")
    row_res = np.max(np.abs(g.sum(axis=1) * row_scale - 1.0))
    col_res = np.max(np.abs(g.sum(axis=0) * col_scale - 1.0))
    if max(row_res, col_res) > SUM_TOL:
        problems.append(f"grid sums off by {max(row_res, col_res):.3e}")


def _check_tighten(report, expect, problems):
    for key in ("phi_at_0", "phi_at_1"):
        if not _rel_close(report.get(key), expect[key]):
            problems.append(f"{key} {report.get(key)!r} != reference {expect[key]!r}")
    value, t_star = report.get("value"), report.get("t_star")
    if not (_is_number(value) and _is_number(t_star)):
        problems.append("value or t_star is not a number")
        return
    if not 0.0 <= t_star <= 1.0:
        problems.append(f"t_star {t_star} outside [0, 1]")
    ends = (expect["phi_at_0"], expect["phi_at_1"])
    tol = chain_tol(expect["lower"], expect["upper"])
    if expect["convex"] and value > min(ends) + tol:
        problems.append(f"value {value} is worse than min(phi(0), phi(1)) = {min(ends)}")
    if not expect["convex"] and value < max(ends) - tol:
        problems.append(f"value {value} is worse than max(phi(0), phi(1)) = {max(ends)}")
    if report.get("bracket_width") != expect["tol"]:
        problems.append(f"bracket_width {report.get('bracket_width')!r} != --tol {expect['tol']!r}")


def check(op, code, out, err, workdir):
    """Problems with one operation's outcome; [] means it is correct."""
    expect = op["expect"]
    if code != expect["exit"]:
        return [f"exit {code}, expected {expect['exit']}: {err.strip()[:200]}"]
    if expect["exit"] == 2:
        problems = [] if err.startswith("error:") else ["no error message on stderr"]
        return problems + (["stdout not empty on error"] if out else [])
    kind = expect["kind"]
    if kind == "weight":
        if out:
            return ["stdout not empty with --out"]
        try:
            with open(os.path.join(workdir, expect["out"]), encoding="utf-8") as fh:
                out = fh.read()
        except OSError as exc:
            return [f"--out file not readable: {exc}"]
    try:
        report = strict_json(out)
    except ValueError as exc:
        return [f"output is not strict JSON: {exc}"]
    problems = []
    if kind in ("jensen", "scalar"):
        if not isinstance(report, dict):
            return ["report is not an object"]
        _check_verify(report, expect, code, problems)
    elif kind == "ds":
        _check_grid(report, expect["n"], expect["n"], 1.0, 1.0, problems)
    elif kind == "weight":
        if not isinstance(report, dict) or report.get("kind") != "matrix":
            return ["weight output is not a matrix entry"]
        # uniform measures: lambda-weighted row sums and mu-weighted column sums equal 1
        _check_grid(report.get("values"), expect["m"], expect["n"],
                    1.0 / expect["n"], 1.0 / expect["m"], problems)
    elif kind == "tighten":
        if not isinstance(report, dict):
            return ["report is not an object"]
        _check_tighten(report, expect, problems)
    return problems
