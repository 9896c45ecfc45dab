"""Command-line front end: verify instance files, generate test objects, tighten bounds.

Instance files are JSON documents.  Reports are JSON written to standard
output with all numbers at 17 significant digits, so values survive a
round-trip exactly and identical inputs produce byte-identical reports.
Exit codes: 0 all chains pass, 1 a chain violated its tolerance, 2
input/validation/numeric error.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import apps, gridtext, refine
from .errors import NumericError, ValidationError
from .functions import get_function
from .gridtext import render_json
from .measures import (
    DoublyStochasticMatrix,
    ProbabilityVector,
    WeightFunction,
    embed_doubly_stochastic,
    freeze,
    random_doubly_stochastic,
    random_weight,
    rank_one_weight,
)
from .refine import HadamardWeights, JensenInstance

DEFAULT_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

# application -> (fields its document must hold, fields it may hold, builder); seed is ignored.
# A builder takes the document and the --grid values (None unless its row takes t_grid) and
# returns its chains by name, the main one first under "".  It looks functions up when called,
# so a module attribute patched later (by the bench tracer or a test) is the one called.
_OPTIONAL = ("application", "seed", "lambda", "mu")
_APPLICATIONS = {
    "jensen": (("function", "points", "weights"), (*_OPTIONAL, "t_grid", "hadamard"),
               lambda doc, grid: _verify_jensen(doc, grid)),
    "agm": (("points", "weights"), _OPTIONAL,
            lambda doc, _: {"": apps.agm_chain(*_points_and_weights(doc))}),
    "kyfan": (("points", "weights"), _OPTIONAL,
              lambda doc, _: {"": apps.kyfan_chain(*_points_and_weights(doc))}),
    "lp": (("points", "weights", "p"), (*_OPTIONAL, "space"), lambda doc, _: {"": _lp(doc)}),
    "powersum": (("points", "weights", "p"), _OPTIONAL, lambda doc, _: {"": _power_sum(doc)}),
    "matrixpower": (("weights", "p"), _OPTIONAL, lambda doc, _: _verify_matrixpower(doc)),
    "harmonic": (("points", "weights"), (*_OPTIONAL, "space"),
                 lambda doc, _: {"": apps.harmonic_chain(*_samples_and_weights(doc))}),
}
# weight kind -> (the array fields its entry holds beside kind, builder taking them, mu and lam)
_WEIGHT_KINDS = {
    "ones": ((), WeightFunction.ones),
    "rank_one": (("u", "v"), rank_one_weight),
    "matrix": (("values",), WeightFunction),
}
# array field, as messages name it -> its dimension (_parse_points is given that of points)
_NDIM = {
    "t_grid": 1, "--grid": 1, "lambda": 1, "mu": 1, "u": 1, "v": 1, "values": 2,
    "weights.B": 2, "weights.C": 2, "space.masses": 1, "hadamard.p": 1, "hadamard.t": 1,
}


# ---------------------------------------------------------------------------
# instance-file parsing


class _Decoded(dict):
    """A document that a subcommand decoded from its file (_load_document): nothing outside
    the parse holds its arrays, so the B/C weights are embedded in the matrices' own
    buffers."""


def _load_document(path: str) -> dict:
    """The JSON object in the file at path, read by gridtext.load a block at a time: its long
    grids are decoded from the file's bytes, which are never held whole."""
    try:
        with open(path, "rb") as fh:
            doc = gridtext.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # a ValueError too, so first
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ValidationError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # a refused constant, or an integer past the int digit limit
        raise ValidationError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: instance file must be a JSON object")
    unknown = set(doc).difference(*(row[0] + row[1] for row in _APPLICATIONS.values()))
    if unknown:
        raise ValidationError(f"{path}: unknown field(s) {sorted(unknown)}")
    return doc


def _object(raw, label, required, optional=()):
    """raw, if it is a JSON object holding every required field and no field outside both lists."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{label}: expected an object, got {type(raw).__name__}")
    for name in required:
        if name not in raw:
            raise ValidationError(f"{label}: missing required field {name!r}")
    unknown = set(raw).difference(required, optional)
    if unknown:
        raise ValidationError(f"{label}: unknown field(s) {sorted(unknown)}")
    return raw


def _as_float_array(raw, field, ndim=None):
    """raw as a read-only float64 array of the dimension _NDIM declares for field (or ndim).

    A decoded grid is returned as it is; a list becomes a new array, frozen here.
    """
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{field}: not a numeric array ({exc})") from exc
    if not isinstance(raw, np.ndarray):
        # np.asarray also takes true, false, numeric strings and null (as nan)
        for value in np.asarray(raw, dtype=object).flat:
            if type(value) not in (int, float):
                raise ValidationError(f"{field}: {json.dumps(value)} is not a number")
    ndim = _NDIM[field] if ndim is None else ndim
    if arr.ndim != ndim:
        raise ValidationError(f"{field}: expected a {ndim}-D array, got {arr.ndim}-D")
    # JSON has no inf or nan, but a literal such as 1e400 overflows to inf; the mask that
    # names the first one is built only when min or max is not finite (NaN makes both NaN)
    if arr.size and not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        finite = np.isfinite(arr)
        k = np.unravel_index(int(np.argmin(finite)), arr.shape)
        at = f" at index {list(map(int, k))}" if k else ""
        raise ValidationError(f"{field}: non-finite value {arr[k]}{at}")
    return arr if arr is raw else freeze(arr)


def _in_field(label, build, *args):
    """build(*args); a ValidationError is prefixed with the field label unless it names it."""
    try:
        return build(*args)
    except ValidationError as exc:
        if str(exc).startswith((f"{label}:", f"{label}.")):
            raise
        raise ValidationError(f"{label}: {exc}") from exc


def _prob(doc, name) -> ProbabilityVector:
    if name not in doc:  # optional in _APPLICATIONS, but the omega1/omega2 form needs it
        raise ValidationError(f"missing required field {name!r}")
    return _in_field(name, ProbabilityVector, _as_float_array(doc[name], name))


def _parse_function(doc):
    spec = _object(doc["function"], "function", ("name",), ("params", "direction"))
    name, params = spec["name"], spec.get("params")
    if not isinstance(name, str):
        raise ValidationError(f"function: name must be a string, got {name!r}")
    if params is not None and not isinstance(params, dict):
        raise ValidationError(f"function: params must be an object, got {params!r}")
    f = get_function(name, params)
    if "direction" in spec:
        f = f.with_direction(spec["direction"])
    return f


def _parse_weight_entry(entry, label, mu, lam) -> WeightFunction:
    kind = _object(entry, label, ("kind",), entry)["kind"]  # any field, until the kind is known
    name = kind if isinstance(kind, str) else None  # a decoded grid compares elementwise
    if name not in _WEIGHT_KINDS:
        kinds = ", ".join(_WEIGHT_KINDS)
        raise ValidationError(f"unknown weight kind {kind!r}; expected one of {kinds}")
    fields, build = _WEIGHT_KINDS[name]
    _object(entry, label, ("kind", *fields))
    return build(*[_as_float_array(entry[key], key) for key in fields], mu, lam)


def _is_uniform(pv: ProbabilityVector) -> bool:
    n = len(pv)
    return bool(np.allclose(pv.weights, 1.0 / n, rtol=0.0, atol=1e-12))


def _parse_matrices(doc, n_points):
    """(B, C) of the B/C weights form, which fixes lambda and mu to uniform."""
    weights = _object(doc["weights"], "weights", ("B", "C"))

    def _matrix(key):
        label = f"weights.{key}"
        return _in_field(label, DoublyStochasticMatrix, _as_float_array(weights[key], label))

    b = _matrix("B")
    c = _matrix("C")
    if b.n != c.n:
        raise ValidationError(f"weights: B is {b.n}x{b.n} but C is {c.n}x{c.n}")
    n = b.n
    if n_points is not None and n_points != n:
        raise ValidationError(f"weights: matrices are {n}x{n} but there are {n_points} points")
    for name in ("lambda", "mu"):
        if name in doc:
            pv = _prob(doc, name)
            if len(pv) != n or not _is_uniform(pv):
                raise ValidationError(f"{name}: the B/C matrix form fixes {name} to uniform({n})")
    return b, c


def _parse_weights(doc, n_points):
    """Returns (lam, mu, w1, w2)."""
    weights = doc["weights"]
    if isinstance(weights, dict) and ("B" in weights or "C" in weights):
        b, c = _parse_matrices(doc, n_points)
        uni = ProbabilityVector.uniform(b.n)
        owned = type(doc) is _Decoded  # so b and c are spent here: n*B is held, not B beside it
        return uni, uni, embed_doubly_stochastic(b, owned), embed_doubly_stochastic(c, owned)
    _object(weights, "weights", ("omega1", "omega2"))
    lam = _prob(doc, "lambda")
    mu = _prob(doc, "mu")
    w1, w2 = [
        _in_field(f"weights.{key}", _parse_weight_entry, weights[key], f"weights.{key}", mu, lam)
        for key in ("omega1", "omega2")
    ]
    return lam, mu, w1, w2


def _parse_points(doc, ndim):
    """points: scalar points (ndim 1), or an n x |X| grid of sampled functions (ndim 2)."""
    return _as_float_array(doc["points"], "points", ndim)


def _points_and_weights(doc):
    """(points, lam, mu, w1, w2) of a document over scalar points."""
    pts = _parse_points(doc, 1)
    return (pts, *_parse_weights(doc, pts.size))


def _samples_and_weights(doc):
    """(function vector, space, lam, mu, w1, w2) of a document over an n x |X| sample grid."""
    pts = _parse_points(doc, 2)
    fv, space = apps.FunctionVector(pts), _parse_space(doc, pts.shape[1])
    return (fv, space, *_parse_weights(doc, pts.shape[0]))


def _parse_space(doc, width):
    if "space" not in doc:
        return apps.FiniteMeasureSpace.counting(width)
    masses = _as_float_array(_object(doc["space"], "space", ("masses",))["masses"], "space.masses")
    return _in_field("space.masses", apps.FiniteMeasureSpace, masses)


def _parse_p(doc):
    p = doc["p"]
    # bool is a subclass of int, so true would otherwise pass as 1
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        raise ValidationError(f"p: expected a number, got {p!r}")
    try:
        p = float(p)
    except OverflowError as exc:
        raise ValidationError(f"p: {exc}") from exc
    if not math.isfinite(p):
        raise ValidationError(f"p: expected a finite number, got {p}")
    return p


def _parse_hadamard(doc):
    if "hadamard" not in doc:
        return None
    raw = _object(doc["hadamard"], "hadamard", ("p", "t"))
    p, t = _as_float_array(raw["p"], "hadamard.p"), _as_float_array(raw["t"], "hadamard.t")
    return _in_field("hadamard", HadamardWeights, p, t)


# ---------------------------------------------------------------------------
# report assembly


def _jensen_instance(doc) -> JensenInstance:
    return JensenInstance(_parse_function(doc), *_points_and_weights(doc))


def _verify_jensen(doc, grid_flag):
    """The jensen row's builder: the sandwich on the t grid, its t-average in closed form
    (checked against quadrature) and, if the document asks for it, the Hadamard chain."""
    inst = _jensen_instance(doc)
    if grid_flag is not None:
        grid = _as_float_array(grid_flag, "--grid")
    else:
        grid = _as_float_array(doc.get("t_grid", list(DEFAULT_GRID)), "t_grid")
    chains = {"": refine.chain_at_t(inst, grid), "integral": refine.chain_integral(inst)}
    hw = _parse_hadamard(doc)
    if hw is not None:
        chains["hadamard"] = refine.chain_hadamard(inst, hw)
    return chains


def _verify_matrixpower(doc):
    b, c = _parse_matrices(doc, None)
    return {"": apps.matrix_power_chain(b, c, _parse_p(doc))}


def _power_sum(doc):
    x, *weights = _points_and_weights(doc)
    return apps.power_sum_chain(x, _parse_p(doc), *weights)


def _lp(doc):
    fv, space, *weights = _samples_and_weights(doc)
    return apps.lp_chain(fv, space, _parse_p(doc), *weights)


def _verify_scalar_app(application, chains, scale):
    """(report, all-pass bool) of any application's chains by name, the main one under "".

    The main chain sets the tolerance and has slacks lower/upper; another has <name>_lower,
    <name>_inner, <name>_upper, and a single middle member reported under its name.  Each t
    of a (t, value) middle outside the tolerance is a witness, any other violated chain one
    member witness (named middle for the main one).  This and the row builders keep the
    names perfbench/spans.py traces them by.
    """
    main = chains[""]
    tol = refine.chain_tolerance(main.lower, main.upper, scale)
    if not math.isfinite(tol):  # finite bounds: the scale is too large for them
        raise ValidationError(f"--tol: the scale {scale:g} makes the chain tolerance overflow")
    middle = main.middle
    if isinstance(middle, list):
        middle = [{"t": t, "value": v} for t, v in middle]
    report = {"application": application, "tolerance": tol, "lower": main.lower,
              "upper": main.upper, "middle": middle}
    slacks, checks, witnesses = {}, [], []
    ok = True
    for name, chain in chains.items():
        prefix = f"{name}_" if name else ""
        if name and not isinstance(chain.middle, (list, tuple)):
            report[name] = chain.middle
        slacks[prefix + "lower"] = chain.slack_lower
        if chain.inner_slacks:
            (slacks[prefix + "inner"],) = chain.inner_slacks  # a four-member chain has one
        slacks[prefix + "upper"] = chain.slack_upper
        held = chain.holds(tol)
        ok = ok and held
        bounds = {"lower": chain.lower, "upper": chain.upper}
        if isinstance(chain.middle, list):
            lo, hi = chain.lower - tol, chain.upper + tol
            witnesses += [{"t": t, "value": v, **bounds} for t, v in chain.middle
                          if v < lo or v > hi]
        elif not held:
            witnesses.append({"member": name or "middle", "value": chain.middle, **bounds})
        checks += chain.identity_checks
    ok = ok and all(chk.ok for chk in checks)
    checks = [dict(vars(chk)) for chk in checks]
    report.update({"slacks": slacks, "pass": ok, "identity_checks": checks, "witnesses": witnesses})
    return report, ok


def _check_fields(doc, application):
    """ValidationError naming the first field of doc outside the application's row, else the
    first required field doc lacks."""
    required, optional, _ = _APPLICATIONS[application]
    for name in doc:
        if name not in required and name not in optional:
            raise ValidationError(f"{name}: not a valid field for application {application!r}")
    for name in required:
        if name not in doc:
            raise ValidationError(f"missing required field {name!r}")


def run_verify(doc: dict, scale=refine.TOL_FLOOR, grid_flag=None):
    """Verify a parsed instance document; returns (report dict, all-pass bool).

    scale is the chain tolerance scale (--tol), turned into each chain's
    tolerance by refine.chain_tolerance; grid_flag holds the --grid values,
    which only an application taking t_grid accepts.
    """
    application = doc.get("application", "jensen")
    # a list or an object is unhashable, so test the type before the lookup
    if not (isinstance(application, str) and application in _APPLICATIONS):
        raise ValidationError(
            f"application: unknown {application!r}; expected one of {', '.join(_APPLICATIONS)}"
        )
    _, optional, build = _APPLICATIONS[application]
    if grid_flag is not None and "t_grid" not in optional:
        raise ValidationError(f"--grid: not a valid option for application {application!r}")
    _check_fields(doc, application)
    return _verify_scalar_app(application, build(doc, grid_flag), scale)


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(path: str, tol=refine.TOL_FLOOR, grid=None) -> int:
    doc = _Decoded(_load_document(path))
    report, ok = run_verify(doc, scale=tol, grid_flag=grid)
    sys.stdout.write(render_json(report) + "\n")
    return 0 if ok else 1


def cmd_generate(kind: str, n: int, m=None, seed: int = 0, out=None) -> int:
    if kind == "ds":
        if m is not None:
            raise ValidationError("--m: not a valid option for generate ds")
        matrix = random_doubly_stochastic(n, seed)
        payload = matrix.values
    elif kind == "weight":
        rows = m if m is not None else n
        w = random_weight(ProbabilityVector.uniform(rows), ProbabilityVector.uniform(n), seed)
        payload = {"kind": "matrix", "values": w.values}
    else:
        raise ValidationError(f"unknown generator kind {kind!r}; expected ds or weight")
    text = render_json(payload)  # a grid's text is large: printed, not copied with its "\n"
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            print(text, file=fh)
    return 0


def cmd_tighten(path: str, tol_t: float = 1e-8) -> int:
    doc = _Decoded(_load_document(path))
    application = doc.get("application", "jensen")
    if not (isinstance(application, str) and application == "jensen"):
        raise ValidationError("tighten needs a jensen-style instance (function + points)")
    _check_fields(doc, "jensen")
    inst = _jensen_instance(doc)
    t_star, value = refine.tighten(inst, tol_t)
    report = {
        "t_star": t_star,
        "value": value,
        "phi_at_0": refine.phi(inst, 0.0),
        "phi_at_1": refine.phi(inst, 1.0),
        "bracket_width": tol_t,
    }
    sys.stdout.write(render_json(report) + "\n")
    return 0


def _parse_grid_flag(text):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"--grid: {exc}") from exc
    if not values:
        raise ValidationError("--grid: needs at least one value")
    return values


@functools.cache
def _build_parser():
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="jensenchain",
        description="Verify refinement chains of the discrete Jensen inequality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify the chains of a JSON instance file")
    p_verify.add_argument("path")
    p_verify.add_argument("--tol", type=float, default=refine.TOL_FLOOR,
                          help="chain tolerance scale (default %(default)g)")
    p_verify.add_argument("--grid", type=str, default=None, help="comma list of t values")

    p_gen = sub.add_parser("generate", help="generate a doubly stochastic matrix or weight")
    p_gen.add_argument("kind", choices=("ds", "weight"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", type=str, default=None)

    p_tight = sub.add_parser("tighten", help="search the best middle bound over t")
    p_tight.add_argument("path")
    p_tight.add_argument("--tol", type=float, default=1e-8, help="bracket width for t")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not math.isfinite(tol):
            raise ValidationError(f"--tol: expected a finite number, got {tol}")
        if args.command == "verify" and tol < 0.0:
            # a negative scale would fail every chain, so it is an input error, not a verdict
            raise ValidationError(f"--tol: expected a nonnegative scale, got {tol}")
        # overflow and NaN surface through the finite checks of the chain and the
        # renderer (exit 2, naming the value), not as numpy warnings ahead of them
        with np.errstate(all="ignore"):
            if args.command == "verify":
                grid = _parse_grid_flag(args.grid) if args.grid is not None else None
                return cmd_verify(args.path, tol=args.tol, grid=grid)
            if args.command == "generate":
                if args.n < 1 or (args.m is not None and args.m < 1):
                    raise ValidationError("dimensions must be positive")
                if args.seed < 0:
                    raise ValidationError(
                        f"--seed: expected a nonnegative integer, got {args.seed}"
                    )
                return cmd_generate(args.kind, args.n, m=args.m, seed=args.seed, out=args.out)
            return cmd_tighten(args.path, tol_t=args.tol)
    except (ValidationError, NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # e.g. an OverflowError from a math-module closed form: a failed computation, so exit 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug: exit 1 is kept for a verdict, so it is refused with exit 2 all the same
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
