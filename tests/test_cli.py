"""CLI contract: exit codes, report schema, determinism, round-trips."""

import json
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from jensenchain import (
    ProbabilityVector,
    random_doubly_stochastic,
    rank_one_weight,
    validate_weight,
)
from jensenchain import cli, gridtext, numerics
from jensenchain.cli import main, render_json

UNI2 = ProbabilityVector.uniform(2)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


AGM_ANCHOR = {
    "application": "agm",
    "points": [1.0, 2.0],
    "weights": {"B": [[1.0, 0.0], [0.0, 1.0]], "C": [[0.0, 1.0], [1.0, 0.0]]},
}

SQUARE_JENSEN = {
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


# ---------------------------------------------------------------------------
# verify


def test_verify_agm_anchor(tmp_path, capsys):
    code = main(["verify", write(tmp_path, "agm.json", AGM_ANCHOR)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["lower"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert report["middle"] == pytest.approx(4.0 / math.e, rel=1e-12)
    assert report["upper"] == pytest.approx(1.5, rel=1e-12)
    assert report["identity_checks"][0]["ok"] is True
    assert report["witnesses"] == []
    assert report["tolerance"] > 0


def test_verify_jensen_grid_and_integral(tmp_path, capsys):
    doc = dict(SQUARE_JENSEN)
    doc["t_grid"] = [0.0, 1.0]
    doc["hadamard"] = {"p": [1.0, 1.0], "t": [0.0, 1.0]}
    code = main(["verify", write(tmp_path, "sq.json", doc)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    values = {entry["t"]: entry["value"] for entry in report["middle"]}
    assert values[0.0] == pytest.approx(0.25, rel=1e-13)
    assert values[1.0] == pytest.approx(0.3125, rel=1e-13)
    assert report["integral"] == pytest.approx(0.25 + 0.0625 / 3.0, rel=1e-12)
    assert report["slacks"]["hadamard_inner"] == pytest.approx(
        0.28125 - 0.265625, rel=1e-12
    )
    assert report["pass"] is True


def test_hadamard_nodes_all_at_one_verify(tmp_path, capsys):
    """The weighted node mean p @ t / sum(p) can round to 1.0000000000000002 when every node is
    1; it is kept inside the nodes' hull, so the document verifies."""
    doc = {"application": "jensen", "function": {"name": "square"}, "points": [1.0, 2.0],
           "weights": AGM_ANCHOR["weights"],
           "hadamard": {"p": [5.6, 4.6, 2.8, 5.0, 9.3, 2.1, 7.4, 2.6], "t": [1] * 8}}
    assert main(["verify", write(tmp_path, "had.json", doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    # both middle members are phi(1) = 2.5, the upper bound
    assert report["slacks"]["hadamard_inner"] == 0.0 and report["slacks"]["hadamard_upper"] == 0.0


def test_hadamard_weight_zero_verifies(tmp_path, capsys):
    """A Hadamard node weight may be 0: only a negative one is refused."""
    doc = dict(SQUARE_JENSEN, hadamard={"p": [0.0, 1.0, 2.0], "t": [0.2, 0.5, 0.9]})
    assert main(["verify", write(tmp_path, "had0.json", doc)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_row_sum_past_the_domain_is_named_with_both_row_sums(tmp_path, capsys):
    """B is doubly stochastic within its tolerance, but its first row sum 0.50000000004 leaves
    kyfan's (0, 1/2]; the other, C's 0.5, does not, so the check must take the larger end of
    the two. The jensen form reaches the row-sum check; the kyfan application stops earlier,
    at integral_mean's segment check."""
    doc = {"application": "jensen", "function": {"name": "kyfan"}, "points": [0.5, 0.5],
           "weights": {"B": [[0.50000000004, 0.50000000004], [0.49999999996, 0.49999999996]],
                       "C": [[0.5, 0.5], [0.5, 0.5]]}}
    assert main(["verify", write(tmp_path, "kyfan_edge.json", doc)]) == 2
    assert ("row sums for row i=0 are 0.50000000004 and 0.5, outside the domain of kyfan"
            in capsys.readouterr().err)


@pytest.mark.parametrize("application, p, points", [
    ("jensen", 1e5, [1.0, 1.00000001]),
    ("jensen", 1e6, [1.0, 1.00000001]),
    ("lp", 1e5, [[1.0], [1.00000001]]),
])
def test_steep_powers_on_nearly_equal_points_verify(tmp_path, capsys, application, p, points):
    """Row sums 1e-8 apart, inside the band where f(midpoint) is off from A(t^p) by about
    p^2 u^2 / 6: the closed form owns that band, so the middle meets its t-quadrature."""
    doc = {"application": application, "points": points,
           "weights": {"B": [[1.0, 0.0], [0.0, 1.0]], "C": [[0.0, 1.0], [1.0, 0.0]]}}
    if application == "lp":
        doc["p"] = p
    else:
        doc["function"] = {"name": "powp", "params": {"p": p}}
    assert main(["verify", write(tmp_path, "steep.json", doc)]) == 0
    (check,) = json.loads(capsys.readouterr().out)["identity_checks"]
    assert check["ok"] is True and check["rel_err"] <= 1e-10


@pytest.mark.xfail(strict=True, reason="the t-quadrature's first panel misses the endpoint "
                   "spikes of t**p and (1-t)**p, so it accepts 0 at depth 0")
def test_powp_at_a_huge_exponent_verifies(tmp_path, capsys):
    """powp at p = 1e6 on [0, 1] with C the swap: the closed form gives 9.99999000001e-07 and
    the quadrature 0, so a valid instance exits 1."""
    doc = {"application": "jensen", "function": {"name": "powp", "params": {"p": 1e6}},
           "points": [0.0, 1.0], "weights": AGM_ANCHOR["weights"]}
    assert main(["verify", write(tmp_path, "powp.json", doc)]) == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the t-quadrature's per-panel tolerance "
                   "halves with each depth, and on the near-overflow panel of this exp row "
                   "the residual does not keep up")
def test_exp_near_overflow_with_a_swap_verifies(tmp_path, capsys):
    """exp on [696.278..., -708.493...] with C the swap is valid, with finite Jensen sides,
    but exits 2 with 'adaptive quadrature did not converge on [0.9998638379156546,
    0.9998638379165641] (residual 2.493e+276 at depth 40)'.  It is a fixed witness of what
    test_cli_verifies_catalog_functions_near_overflow can draw at random."""
    doc = {"function": {"name": "exp"}, "points": [696.2780766596751, -708.4934446365237],
           "weights": AGM_ANCHOR["weights"]}
    assert main(["verify", write(tmp_path, "exp.json", doc)]) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: on this exp row the t-quadrature spends "
                   "its whole evaluation budget before it converges")
def test_exp_near_overflow_with_a_swap_verifies_within_the_quadrature_budget(tmp_path, capsys):
    """exp on [689.969..., -750.0] with B = I and C the swap is valid, with finite Jensen
    sides, but exits 2 with 'adaptive quadrature exceeded its budget of 100000 integrand
    evaluations on [0.0, 1.0] (at depth 34)': the budget runs out, where the swap above fails
    to converge at depth 40.  It is a second fixed witness of what
    test_cli_verifies_catalog_functions_near_overflow can draw at random."""
    doc = {"function": {"name": "exp"}, "points": [689.9695085952419, -750.0],
           "weights": AGM_ANCHOR["weights"]}
    assert main(["verify", write(tmp_path, "exp.json", doc)]) == 0


def test_verify_jensen_closed_form_holds_at_small_points(tmp_path, capsys):
    """neglog on [1e-10, 2e-10]: each row's segment is 1e-10 long but spans a ratio of 2, so
    the closed-form t-average must match its quadrature (it was 0.08% off, and exited 1)."""
    doc = {"application": "jensen", "function": {"name": "neglog"}, "points": [1e-10, 2e-10],
           "weights": AGM_ANCHOR["weights"]}
    assert main(["verify", write(tmp_path, "small.json", doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["identity_checks"][0]["rel_err"] <= 1e-15
    # the middle of the agm row, exp(-integral), is the identric mean I(1e-10, 2e-10)
    assert math.exp(-report["integral"]) == pytest.approx(4e-10 / math.e, rel=1e-14)


def test_verify_bad_lambda_sum_names_field(tmp_path, capsys):
    doc = dict(SQUARE_JENSEN)
    doc["lambda"] = [0.5, 0.4]
    code = main(["verify", write(tmp_path, "bad.json", doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert "lambda" in err


def test_verify_mislabeled_direction_fails_with_witness(tmp_path, capsys):
    doc = json.loads(json.dumps(SQUARE_JENSEN))
    doc["function"]["direction"] = "concave"  # square is convex: chain must break
    code = main(["verify", write(tmp_path, "lie.json", doc)])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert len(report["witnesses"]) > 0
    assert "t" in report["witnesses"][0]


def test_verify_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"application": "agm",\n  "points": [1.0 2.0]}')
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_verify_missing_file(tmp_path, capsys):
    code = main(["verify", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_verify_unknown_field_rejected(tmp_path, capsys):
    doc = dict(AGM_ANCHOR)
    doc["bogus"] = 1
    code = main(["verify", write(tmp_path, "x.json", doc)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_verify_kyfan_lp_powersum_harmonic_matrixpower(tmp_path, capsys):
    docs = [
        {
            "application": "kyfan",
            "points": [0.2, 0.4],
            "weights": {"B": [[1.0, 0.0], [0.0, 1.0]], "C": [[0.0, 1.0], [1.0, 0.0]]},
        },
        {
            "application": "lp",
            "p": 2,
            "points": [[1.0, 0.0], [0.0, 1.0]],
            "weights": {"B": [[1.0, 0.0], [0.0, 1.0]], "C": [[0.0, 1.0], [1.0, 0.0]]},
        },
        {
            "application": "powersum",
            "p": 3,
            "points": [0.5, 1.5],
            "lambda": [0.5, 0.5],
            "mu": [0.5, 0.5],
            "weights": {
                "omega1": {"kind": "ones"},
                "omega2": {"kind": "rank_one", "u": [1.0, -1.0], "v": [0.5, -0.5]},
            },
        },
        {
            "application": "harmonic",
            "points": [[0.0], [1.0]],
            "lambda": [0.5, 0.5],
            "mu": [0.5, 0.5],
            "space": {"masses": [1.0]},
            "weights": {
                "omega1": {"kind": "ones"},
                "omega2": {"kind": "matrix", "values": [[1.5, 0.5], [0.5, 1.5]]},
            },
        },
        {
            "application": "matrixpower",
            "p": 2,
            "weights": {"B": [[1.0, 0.0], [0.0, 1.0]], "C": [[1.0, 0.0], [0.0, 1.0]]},
        },
    ]
    for k, doc in enumerate(docs):
        code = main(["verify", write(tmp_path, f"doc{k}.json", doc)])
        out = capsys.readouterr().out
        assert code == 0, doc["application"]
        report = json.loads(out)
        assert report["pass"] is True
        assert report["application"] == doc["application"]
    # anchor content for the matrixpower run
    assert report["lower"] == 1.0 and report["middle"] == 2.0 and report["upper"] == 2.0


@pytest.mark.parametrize(
    "doc",
    [
        {"application": "lp", "points": [[1.0, 0.0], [0.0, 1.0]]},
        {"application": "powersum", "points": [0.5, 1.5]},
        {"application": "matrixpower"},
    ],
    ids=lambda doc: doc["application"],
)
def test_verify_rejects_boolean_exponent(tmp_path, capsys, doc):
    doc = dict(doc, p=True, weights=AGM_ANCHOR["weights"])
    assert main(["verify", write(tmp_path, "p.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: p: expected a number")


def test_quadrature_budget_exhaustion_exits_2(tmp_path, capsys, monkeypatch):
    # the first panel takes 15 nodes; its two halves would take 30 more
    monkeypatch.setattr(numerics, "QUAD_MAX_EVALS", 20)
    assert main(["verify", write(tmp_path, "agm.json", AGM_ANCHOR)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget of 20 integrand evaluations on [0.0, 1.0] (at depth 1)" in captured.err


def test_overflowing_integrand_exits_2_at_the_first_infinite_value(tmp_path, capsys):
    # 300**200 overflows, so the t-quadrature integrand would be inf from its first node; the
    # sides overflow first (150**200 in the lower one), and the row refuses them before it
    doc = {
        "application": "powersum",
        "p": 200,
        "points": [100.0, 300.0],
        "lambda": [0.5, 0.5],
        "mu": [0.5, 0.5],
        "weights": {
            "omega1": {"kind": "ones"},
            "omega2": {"kind": "rank_one", "u": [1.0, -1.0], "v": [0.5, -0.5]},
        },
    }
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["verify", write(tmp_path, "ps.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the chain's lower bound is inf, not a finite number\n"


EYE2_SWAP = {"B": [[1.0, 0.0], [0.0, 1.0]], "C": [[0.0, 1.0], [1.0, 0.0]]}


@pytest.mark.parametrize("application, points, p, weights", [
    ("powersum", [1.0, 3.0], 1e6, {"B": [[0.5, 0.5], [0.5, 0.5]], "C": [[1.0, 0.0], [0.0, 1.0]]}),
    ("lp", [[1.0], [2.0]], 1e300, EYE2_SWAP),
])
def test_grid_rows_refuse_an_infinite_side_before_their_quadrature(tmp_path, capsys, application,
                                                                    points, p, weights):
    """Sides that overflow are named as the jensen row names them, not as an integrand error
    of the t-quadrature that would follow (exit 2 either way)."""
    doc = {"application": application, "p": p, "points": points, "weights": weights}
    assert main(["verify", write(tmp_path, "doc.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the chain's lower bound is inf, not a finite number\n"


@pytest.mark.parametrize("application, points",
                         [("powersum", [1.2e154, 1.2e154]), ("lp", [[1.2e154], [1.2e154]])])
def test_grid_rows_whose_sides_near_the_largest_double_are_verified(tmp_path, capsys,
                                                                      application, points):
    """At p = 2 the sides are about 1.4e308: every Kronrod panel sum of the unscaled
    integrand overflows, so the quadrature check integrates phi scaled by the sides."""
    doc = {"application": application, "p": 2, "points": points, "weights": EYE2_SWAP}
    assert main(["verify", write(tmp_path, "doc.json", doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert [check["ok"] for check in report["identity_checks"]] == [True]


def test_harmonic_middle_at_small_samples_is_accurate(tmp_path, capsys):
    """1 - 1/L(1 + s1, 1 + s2) rounds 1 + s and cancels; the harmonic_frac row's closed form
    does not, so the middle lies inside its bounds without the tolerance's help."""
    doc = {"application": "harmonic", "points": [[1e-10], [3e-10]], "weights": EYE2_SWAP}
    assert main(["verify", write(tmp_path, "doc.json", doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    with mpmath.workdps(50):
        a, b = mpmath.mpf(1e-10), mpmath.mpf(3e-10)
        exact = float(1 - (mpmath.log1p(b) - mpmath.log1p(a)) / (b - a))
    assert abs(report["middle"] - exact) <= 4 * math.ulp(exact)
    assert report["slacks"]["lower"] >= 0.0 and report["slacks"]["upper"] >= 0.0


def test_verify_matrix_form_requires_uniform_measures(tmp_path, capsys):
    doc = dict(AGM_ANCHOR)
    doc["lambda"] = [0.3, 0.7]
    code = main(["verify", write(tmp_path, "nu.json", doc)])
    assert code == 2
    assert "uniform" in capsys.readouterr().err


def test_verify_tol_flag_loosens_pass(tmp_path, capsys):
    doc = json.loads(json.dumps(SQUARE_JENSEN))
    doc["function"]["direction"] = "concave"
    path = write(tmp_path, "loose.json", doc)
    assert main(["verify", path]) == 1
    capsys.readouterr()
    # an absurdly loose tolerance turns the violation into a pass
    assert main(["verify", path, "--tol", "10.0"]) == 0
    capsys.readouterr()


# doubly stochastic within 1e-10, so the p = 1 middle exceeds its upper bound n = 2 by 1.6e-10
EDGE = 0.5 + 4e-11
MATRIX_EDGE = {
    "application": "matrixpower",
    "p": 1,
    "weights": {"B": [[EDGE, EDGE], [EDGE, EDGE]], "C": [[EDGE, EDGE], [EDGE, EDGE]]},
}


def test_matrixpower_edge_document_follows_the_tolerance(tmp_path, capsys):
    path = write(tmp_path, "edge.json", MATRIX_EDGE)
    assert main(["verify", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True and report["witnesses"] == []
    assert report["slacks"]["upper"] < 0.0
    assert main(["verify", path, "--tol", "1e-12"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["pass"] is False
    assert report["witnesses"] == [
        {"member": "middle", "value": report["middle"], "lower": 2.0, "upper": 2.0}
    ]


def test_matrixpower_identity_reduction_takes_constant_time_in_p(tmp_path, capsys):
    """C = I sums the diagonal's geometric series in closed form, not one term per power."""
    doc = {"application": "matrixpower", "p": 10 ** 9,
           "weights": {"B": [[0.5, 0.5], [0.5, 0.5]], "C": [[1.0, 0.0], [0.0, 1.0]]}}
    path = write(tmp_path, "huge_p.json", doc)
    start = time.perf_counter()
    assert main(["verify", path]) == 0
    assert time.perf_counter() - start < 1.0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["middle"] == pytest.approx(4.0 / (10 ** 9 + 1), rel=1e-12)


def test_matrixpower_identity_reduction_is_a_reported_check(tmp_path, capsys, monkeypatch):
    """C = I recomputes the middle in its reduced diagonal form; a mismatch is a failed
    identity check, so it exits 1 with the check in the report, as every failed check does."""
    doc = {"application": "matrixpower", "p": 3,
           "weights": {"B": [[0.25, 0.75], [0.75, 0.25]], "C": [[1.0, 0.0], [0.0, 1.0]]}}
    path = write(tmp_path, "c_identity.json", doc)
    assert main(["verify", path]) == 0
    (check,) = json.loads(capsys.readouterr().out)["identity_checks"]
    assert check["name"] == "identity-reduction" and check["ok"] is True
    assert check["tol"] == cli.apps.MATRIX_COINCIDENCE_TOL
    monkeypatch.setattr(cli.apps, "integral_mean", lambda f, b, c: 2.0 * (b + c))
    assert main(["verify", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    (failed,) = report["identity_checks"]
    assert failed["name"] == "identity-reduction" and failed["ok"] is False
    assert failed["lhs"] == report["middle"] and failed["rhs"] == check["rhs"]
    assert report["pass"] is False


VERDICT_DOCS = {
    "jensen": dict(SQUARE_JENSEN, hadamard={"p": [1.0, 2.0], "t": [0.2, 0.9]}),
    "agm": AGM_ANCHOR,
    "kyfan": dict(AGM_ANCHOR, application="kyfan", points=[0.2, 0.4]),
    "lp": {"application": "lp", "p": 2.5, "points": [[1.0, 0.5], [0.25, 2.0]],
           "space": {"masses": [0.5, 1.5]}, "weights": AGM_ANCHOR["weights"]},
    "powersum": dict(AGM_ANCHOR, application="powersum", p=3, points=[0.5, 1.5]),
    "harmonic": {"application": "harmonic", "points": [[0.0, 3.0], [1.0, 0.5]],
                 "weights": AGM_ANCHOR["weights"]},
    "matrixpower": MATRIX_EDGE,
}


@pytest.mark.parametrize("scale", [1e-15, 1e-9, 1e-3])
@pytest.mark.parametrize("application", sorted(VERDICT_DOCS))
def test_verdict_parity_across_applications(tmp_path, capsys, application, scale):
    """One rule for every application: the tolerance is scale * max(1, |lower|, |upper|), and
    pass holds exactly when every reported slack is >= -tolerance and every identity check is ok."""
    path = write(tmp_path, "doc.json", VERDICT_DOCS[application])
    code = main(["verify", path, "--tol", repr(scale)])
    report = json.loads(capsys.readouterr().out)
    assert report["application"] == application
    tol = report["tolerance"]
    assert tol == scale * max(1.0, abs(report["lower"]), abs(report["upper"]))
    slacks_hold = all(s >= -tol for s in report["slacks"].values())
    checks_ok = all(chk["ok"] for chk in report["identity_checks"])
    assert report["identity_checks"] or application == "matrixpower"
    assert report["pass"] is (slacks_hold and checks_ok)
    assert code == (0 if report["pass"] else 1)


def test_verify_grid_flag(tmp_path, capsys):
    code = main(["verify", write(tmp_path, "g.json", SQUARE_JENSEN), "--grid", "0,0.5"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert [e["t"] for e in report["middle"]] == [0.0, 0.5]


@pytest.mark.parametrize("application", sorted(set(VERDICT_DOCS) - {"jensen"}))
def test_verify_grid_flag_is_refused_by_an_application_without_a_t_grid(
    tmp_path, capsys, application
):
    path = write(tmp_path, "doc.json", VERDICT_DOCS[application])
    assert main(["verify", path, "--grid", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --grid: not a valid option for application '{application}'\n"


REPORT_KEYS = ["application", "tolerance", "lower", "upper", "middle", "slacks", "pass",
               "identity_checks", "witnesses"]


@pytest.mark.parametrize("application", sorted(VERDICT_DOCS))
def test_every_application_has_the_one_report_layout(tmp_path, capsys, application):
    main(["verify", write(tmp_path, "doc.json", VERDICT_DOCS[application])])
    report = json.loads(capsys.readouterr().out)
    if application == "jensen":  # the document holds hadamard weights
        assert list(report) == REPORT_KEYS[:5] + ["integral"] + REPORT_KEYS[5:]
        assert list(report["slacks"]) == [
            "lower", "upper", "integral_lower", "integral_upper",
            "hadamard_lower", "hadamard_inner", "hadamard_upper",
        ]
    else:
        assert list(report) == REPORT_KEYS
        assert list(report["slacks"]) == ["lower", "upper"]


def test_a_violated_integral_chain_has_its_own_witness(tmp_path, capsys):
    assert main(["verify", write(tmp_path, "sq.json", SQUARE_JENSEN)]) == 0
    assert json.loads(capsys.readouterr().out)["witnesses"] == []
    doc = json.loads(json.dumps(SQUARE_JENSEN))
    doc["function"]["direction"] = "concave"
    assert main(["verify", write(tmp_path, "lie.json", doc)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["witnesses"][-1] == {"member": "integral", "value": report["integral"],
                                       "lower": report["lower"], "upper": report["upper"]}
    assert all("t" in w for w in report["witnesses"][:-1])


def test_report_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, "det.json", AGM_ANCHOR)
    main(["verify", path])
    first = capsys.readouterr().out
    main(["verify", path])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("n", [2, 200])  # 200 rows are read block by block, 2 at once
def test_a_decoded_grid_is_the_array_the_chain_reads(tmp_path, capsys, n):
    eye, uni = np.eye(n), [1.0 / n] * n
    omega = dict(SQUARE_JENSEN, **{"points": list(range(n)), "lambda": uni, "mu": uni, "weights": {
        "omega1": {"kind": "ones"}, "omega2": {"kind": "matrix", "values": (n * eye).tolist()},
    }})
    doc = cli._load_document(write(tmp_path, "omega.json", omega))
    grid = doc["weights"]["omega2"]["values"]
    assert np.shares_memory(cli._parse_weights(doc, n)[3].values, grid)
    with pytest.raises(ValueError):
        grid[0, 0] = 0.0
    # a list is made an array once, by the parser, which freezes it for the constructors to keep
    assert not cli._as_float_array(omega["lambda"], "lambda").flags.writeable
    matrices = {"application": "matrixpower", "p": 2,
                "weights": {"B": np.roll(eye, 1, axis=1).tolist(), "C": eye.tolist()}}
    doc = cli._load_document(write(tmp_path, "bc.json", matrices))
    b, c = cli._parse_matrices(doc, None)
    assert np.shares_memory(b.values, doc["weights"]["B"])
    assert np.shares_memory(c.values, doc["weights"]["C"])
    assert main(["verify", write(tmp_path, "bc.json", matrices)]) == 0
    assert main(["verify", write(tmp_path, "omega.json", omega)]) == 0


# ---------------------------------------------------------------------------
# generate


def test_generate_ds_matrix(tmp_path, capsys):
    code = main(["generate", "ds", "--n", "3", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    values = np.asarray(json.loads(out))
    assert values.shape == (3, 3)
    assert np.max(np.abs(values.sum(axis=0) - 1.0)) < 1e-12
    assert np.max(np.abs(values.sum(axis=1) - 1.0)) < 1e-12


def test_generate_ds_trivial(capsys):
    assert main(["generate", "ds", "--n", "1", "--seed", "123"]) == 0
    assert json.loads(capsys.readouterr().out) == [[1.0]]


def test_generate_weight_block_and_round_trip(tmp_path, capsys):
    code = main(["generate", "weight", "--m", "2", "--n", "2", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    block = json.loads(out)
    assert block["kind"] == "matrix"
    validate_weight(np.asarray(block["values"]), UNI2, UNI2)
    # embed into an instance file; verify must not hit a validation error
    doc = {
        "application": "jensen",
        "function": {"name": "exp"},
        "lambda": [0.5, 0.5],
        "mu": [0.5, 0.5],
        "points": [-1.0, 1.0],
        "weights": {"omega1": {"kind": "ones"}, "omega2": block},
    }
    code = main(["verify", write(tmp_path, "rt.json", doc)])
    capsys.readouterr()
    assert code == 0


def test_generate_ds_embeds_into_instance_file(tmp_path, capsys):
    """Generator output pasted into an instance never produces a validation exit."""
    main(["generate", "ds", "--n", "3", "--seed", "11"])
    b = json.loads(capsys.readouterr().out)
    main(["generate", "ds", "--n", "3", "--seed", "12"])
    c = json.loads(capsys.readouterr().out)
    doc = {"application": "agm", "points": [1.0, 2.0, 3.0], "weights": {"B": b, "C": c}}
    code = main(["verify", write(tmp_path, "ds_rt.json", doc)])
    capsys.readouterr()
    assert code in (0, 1)
    assert code == 0  # a valid chain also passes


def test_generate_out_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["generate", "ds", "--n", "4", "--seed", "9", "--out", str(out1)]) == 0
    assert main(["generate", "ds", "--n", "4", "--seed", "9", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize("kind", ["ds", "weight"])
def test_generate_refuses_a_negative_seed(capsys, kind):
    assert main(["generate", kind, "--n", "2", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed: expected a nonnegative integer, got -1\n"


def test_generate_ds_refuses_m(capsys):
    # a doubly stochastic matrix is square: --m would be ignored, so it is refused
    assert main(["generate", "ds", "--n", "2", "--m", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --m: not a valid option for generate ds\n"


def test_generate_rejects_bad_dims(capsys):
    assert main(["generate", "ds", "--n", "0"]) == 2
    capsys.readouterr()


def test_seventeen_digit_round_trip(capsys):
    main(["generate", "ds", "--n", "5", "--seed", "31"])
    out = capsys.readouterr().out
    values = json.loads(out)
    assert render_json(values) + "\n" == out  # parse and re-render is byte-stable
    from jensenchain import random_doubly_stochastic

    exact = random_doubly_stochastic(5, seed=31).values
    assert np.array_equal(np.asarray(values), exact)  # 17 digits round-trips exactly


# ---------------------------------------------------------------------------
# tighten


def test_tighten_square_instance(tmp_path, capsys):
    code = main(["tighten", write(tmp_path, "t.json", SQUARE_JENSEN)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["t_star"] == pytest.approx(0.0, abs=1e-6)
    assert report["value"] == pytest.approx(0.25, rel=1e-10)
    assert report["phi_at_0"] == pytest.approx(0.25, rel=1e-13)
    assert report["phi_at_1"] == pytest.approx(0.3125, rel=1e-13)


def test_tighten_swapped_weights_same_value(tmp_path, capsys):
    doc = json.loads(json.dumps(SQUARE_JENSEN))
    doc["weights"] = {"omega1": doc["weights"]["omega2"], "omega2": doc["weights"]["omega1"]}
    main(["tighten", write(tmp_path, "s1.json", SQUARE_JENSEN), "--tol", "1e-10"])
    v1 = json.loads(capsys.readouterr().out)["value"]
    main(["tighten", write(tmp_path, "s2.json", doc), "--tol", "1e-10"])
    v2 = json.loads(capsys.readouterr().out)["value"]
    assert v1 == pytest.approx(v2, rel=1e-9)


def test_tighten_rejects_app_instances(tmp_path, capsys):
    code = main(["tighten", write(tmp_path, "a.json", AGM_ANCHOR)])
    assert code == 2
    capsys.readouterr()


def test_cached_parser_matches_fresh_parsers(tmp_path, capsys):
    sq = write(tmp_path, "sq.json", SQUARE_JENSEN)
    agm = write(tmp_path, "agm.json", AGM_ANCHOR)
    runs = [
        ["verify", sq, "--grid", "0,0.5"],
        ["generate", "ds", "--n", "3", "--seed", "4"],
        ["verify", agm, "--tol", "1e-3"],
        ["tighten", sq],
        ["verify", sq],
        ["tighten", sq, "--tol", "1e-4"],
        ["generate", "weight", "--n", "2", "--m", "3"],
        ["verify", agm],
    ]

    def outcomes(fresh):
        results = []
        for argv in runs:
            if fresh:
                cli._build_parser.cache_clear()
            code = main(argv)
            results.append((code, capsys.readouterr().out))
        return results

    assert outcomes(fresh=False) == outcomes(fresh=True)
    assert cli._build_parser() is cli._build_parser()


# ---------------------------------------------------------------------------
# which fields each application takes

COMMON_FIELDS = {"application", "seed", "weights", "lambda", "mu"}
FIELD_ROWS = {
    "jensen": COMMON_FIELDS | {"function", "points", "t_grid", "hadamard"},
    "agm": COMMON_FIELDS | {"points"},
    "kyfan": COMMON_FIELDS | {"points"},
    "lp": COMMON_FIELDS | {"points", "space", "p"},
    "powersum": COMMON_FIELDS | {"points", "p"},
    "matrixpower": COMMON_FIELDS | {"p"},
    "harmonic": COMMON_FIELDS | {"points", "space"},
}
KNOWN_FIELDS = set().union(*FIELD_ROWS.values())
FIELD_VALUES = {
    "function": {"name": "square"},
    "points": [1.0, 2.0],
    "t_grid": [0.5],
    "hadamard": {"p": [1.0], "t": [0.5]},
    "space": {"masses": [1.0, 1.0]},
    "p": 2,
}


@pytest.mark.parametrize(
    "application, field",
    [(app, name) for app in FIELD_ROWS for name in sorted(KNOWN_FIELDS - FIELD_ROWS[app])],
)
def test_verify_refuses_a_field_outside_the_application_row(tmp_path, capsys, application, field):
    doc = dict(VERDICT_DOCS[application], **{field: FIELD_VALUES[field]})
    assert main(["verify", write(tmp_path, "doc.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field}: not a valid field for application '{application}'\n"


@pytest.mark.parametrize("application", sorted(FIELD_ROWS))
def test_verify_accepts_and_ignores_seed(tmp_path, capsys, application):
    path = write(tmp_path, "doc.json", VERDICT_DOCS[application])
    code = main(["verify", path])
    plain = capsys.readouterr().out
    seeded = write(tmp_path, "seeded.json", dict(VERDICT_DOCS[application], seed=7))
    assert main(["verify", seeded]) == code
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("application", [["agm"], {"name": "agm"}, 3, None])
def test_verify_refuses_an_application_that_is_not_a_name(tmp_path, capsys, application):
    doc = dict(AGM_ANCHOR, application=application)
    assert main(["verify", write(tmp_path, "doc.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: application: unknown {application!r}; expected one of")
    assert "Traceback" not in captured.err


def test_verify_refuses_a_negative_tolerance_scale(tmp_path, capsys):
    path = write(tmp_path, "agm.json", AGM_ANCHOR)
    for flag in (["--tol=-1e-300"], ["--tol", "-1.5"]):
        assert main(["verify", path, *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --tol:")
    assert main(["verify", path, "--tol", "0"]) == 0  # a strict check
    report = json.loads(capsys.readouterr().out)
    assert report["tolerance"] == 0.0 and report["pass"] is True


# the far regime of the power mean, where hi ** (p + 1) overflows but every member is finite
SWAP_WEIGHTS = {"B": [[1.0, 0.0], [0.0, 1.0]], "C": [[0.0, 1.0], [1.0, 0.0]]}


def test_powp_chain_past_the_power_overflow(tmp_path, capsys):
    doc = {"function": {"name": "powp", "params": {"p": 2}}, "points": [1e102, 1e103],
           "weights": SWAP_WEIGHTS}
    assert main(["verify", write(tmp_path, "powp.json", doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["integral"] == 3.6999999999999994e205
    (check,) = report["identity_checks"]
    assert check["ok"] is True and check["rel_err"] < 1e-15


def test_powersum_chain_past_the_power_overflow(tmp_path, capsys):
    doc = {"application": "powersum", "p": 2, "points": [1e102, 1e103], "weights": SWAP_WEIGHTS}
    assert main(["verify", write(tmp_path, "powersum.json", doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["middle"] == 3.3666666666666667e205
    (check,) = report["identity_checks"]
    assert check["ok"] is True and check["rel_err"] < 1e-15


@pytest.mark.parametrize("field", sorted(KNOWN_FIELDS - FIELD_ROWS["jensen"]))
def test_tighten_refuses_a_field_outside_the_jensen_row(tmp_path, capsys, field):
    doc = dict(SQUARE_JENSEN, **{field: FIELD_VALUES[field]})
    assert main(["tighten", write(tmp_path, "doc.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field}: not a valid field for application 'jensen'\n"


# a grid decodes to a float64 array, which compares elementwise: it must still be refused
GRID = [[1, 2], [3, 4]]


@pytest.mark.parametrize(
    "command, doc, fragment",
    [
        ("verify", dict(SQUARE_JENSEN, function={"name": "square", "direction": GRID}),
         "unknown direction array("),
        ("verify", dict(SQUARE_JENSEN, function={"name": "powp", "params": {"p": [[2.0]]}}),
         "parameter 'p' is not a number"),
        ("verify", dict(SQUARE_JENSEN, weights={"omega1": {"kind": "ones"},
                                                "omega2": {"kind": GRID}}),
         "unknown weight kind array("),
        ("verify", dict(AGM_ANCHOR, application="powersum", p=[[1]]),
         "p: expected a number, got array([[1.]])"),
        ("verify", dict(AGM_ANCHOR, application=GRID), "application: unknown array("),
        ("tighten", dict(SQUARE_JENSEN, application=GRID), "tighten needs a jensen-style"),
    ],
    ids=["direction", "powp-p", "kind", "p", "verify-application", "tighten-application"],
)
def test_a_grid_where_a_scalar_belongs_is_refused(tmp_path, capsys, command, doc, fragment):
    assert main([command, write(tmp_path, "doc.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and fragment in captured.err


# ---------------------------------------------------------------------------
# required and allowed fields of every object in an instance document

JENSEN_EVERY_OBJECT = {
    "function": {"name": "powp", "params": {"p": 2.0}, "direction": "convex"},
    "lambda": [0.2, 0.3, 0.5],
    "mu": [0.5, 0.5],
    "points": [0.5, 2.0, 1.0],
    "hadamard": {"p": [1.0, 2.0], "t": [0.2, 0.9]},
    "weights": {
        "omega1": {"kind": "rank_one", "u": [1.0, -1.0], "v": [0.1, 0.0, -0.1]},
        "omega2": {"kind": "matrix", "values": [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]},
    },
}

OBJECT_BASES = {
    "jensen": JENSEN_EVERY_OBJECT,
    "ones": SQUARE_JENSEN,
    "agm": AGM_ANCHOR,
    "lp": VERDICT_DOCS["lp"],
}
# (base document, path to the object, its required fields, the name its errors give it)
OBJECTS = [
    ("jensen", ("function",), ("name",), "function"),
    ("jensen", ("function", "params"), ("p",), "function"),
    ("jensen", ("hadamard",), ("p", "t"), "hadamard"),
    ("jensen", ("weights",), ("omega1", "omega2"), "weights"),
    ("jensen", ("weights", "omega1"), ("kind", "u", "v"), "weights.omega1"),
    ("jensen", ("weights", "omega2"), ("kind", "values"), "weights.omega2"),
    ("ones", ("weights", "omega1"), ("kind",), "weights.omega1"),
    ("agm", ("weights",), ("B", "C"), "weights"),
    ("lp", ("space",), ("masses",), "space"),
]


def _with_object(base, path, change):
    """A deep copy of the base document whose object at path is change(that object)."""
    doc = json.loads(json.dumps(OBJECT_BASES[base]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = change(parent[path[-1]])
    return doc


def _without(key):
    return lambda obj: {k: v for k, v in obj.items() if k != key}


def _object_mutations():
    """(document, object name, fragment of the error) for each malformed object."""
    for base, path, required, label in OBJECTS:
        where = f"{base}-{'.'.join(path)}"
        unknown = _with_object(base, path, lambda obj: dict(obj, bogus=1))
        yield pytest.param(unknown, label, "bogus", id=f"{where}-unknown")
        for key in required:
            dropped = _with_object(base, path, _without(key))
            yield pytest.param(dropped, label, repr(key), id=f"{where}-without-{key}")
        listed = _with_object(base, path, lambda obj: [obj])
        yield pytest.param(listed, label, "object", id=f"{where}-list")


@pytest.mark.parametrize("base", sorted(OBJECT_BASES))
def test_the_object_base_documents_are_valid(tmp_path, capsys, base):
    assert main(["verify", write(tmp_path, "doc.json", OBJECT_BASES[base])]) in (0, 1)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("doc, label, fragment", _object_mutations())
def test_a_malformed_object_exits_2_naming_it(tmp_path, capsys, doc, label, fragment):
    assert main(["verify", write(tmp_path, "doc.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert label in captured.err and fragment in captured.err


REQUIRED_FIELDS = {
    "jensen": ("function", "points", "weights"),
    "agm": ("points", "weights"),
    "kyfan": ("points", "weights"),
    "lp": ("points", "weights", "p"),
    "powersum": ("points", "weights", "p"),
    "matrixpower": ("weights", "p"),
    "harmonic": ("points", "weights"),
}


@pytest.mark.parametrize(
    "application, field", [(app, name) for app in REQUIRED_FIELDS for name in REQUIRED_FIELDS[app]]
)
def test_a_missing_required_field_exits_2_naming_it(tmp_path, capsys, application, field):
    doc = {k: v for k, v in VERDICT_DOCS[application].items() if k != field}
    assert main(["verify", write(tmp_path, "doc.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: missing required field {field!r}\n"


def test_a_missing_field_is_reported_before_a_bad_one(tmp_path, capsys):
    doc = dict(AGM_ANCHOR, application="powersum", points="not points")
    assert main(["verify", write(tmp_path, "doc.json", doc)]) == 2
    assert capsys.readouterr().err == "error: missing required field 'p'\n"


# ---------------------------------------------------------------------------
# numbers are JSON numbers: no booleans, strings or nulls

ONE_BY_TWO = dict(
    SQUARE_JENSEN,
    mu=[1.0],
    weights={"omega1": {"kind": "ones"}, "omega2": {"kind": "matrix", "values": [[1, 1]]}},
)
BOOL_IN_GRID = dict(
    ONE_BY_TWO,
    weights={"omega1": {"kind": "ones"}, "omega2": {"kind": "matrix", "values": [[1, True]]}},
)


@pytest.mark.parametrize(
    "doc, fragment",
    [
        (dict(AGM_ANCHOR, points=["1", True]), 'points: "1" is not a number'),
        (dict(AGM_ANCHOR, points=[1.0, True]), "points: true is not a number"),
        (dict(AGM_ANCHOR, points=[1.0, None]), "points: null is not a number"),
        (BOOL_IN_GRID, "weights.omega2: values: true is not a number"),
        (dict(SQUARE_JENSEN, function={"name": "powp", "params": {"p": True}}),
         "parameter 'p' is not a number, got True"),
        (dict(SQUARE_JENSEN, function={"name": "powp", "params": {"p": "2"}}),
         "parameter 'p' is not a number, got '2'"),
    ],
    ids=["string-point", "bool-point", "null-point", "bool-grid-entry", "bool-p", "string-p"],
)
def test_a_value_that_is_not_a_json_number_is_refused(tmp_path, capsys, doc, fragment):
    assert main(["verify", write(tmp_path, "doc.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and fragment in captured.err


def test_the_one_by_two_grid_document_is_valid(tmp_path, capsys):
    assert main(["verify", write(tmp_path, "doc.json", ONE_BY_TWO)]) == 0


# ---------------------------------------------------------------------------
# every array field has one declared dimension


def _reshaped(doc, path, change):
    """A deep copy of doc whose value at path is change(that value)."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = change(parent[path[-1]])
    return doc


# (document, path to an array field, the name its errors give it, its dimension)
ARRAY_FIELDS = [
    (dict(SQUARE_JENSEN, t_grid=[0.0, 0.5]), ("t_grid",), "t_grid", 1),
    (JENSEN_EVERY_OBJECT, ("points",), "points", 1),
    (JENSEN_EVERY_OBJECT, ("lambda",), "lambda", 1),
    (JENSEN_EVERY_OBJECT, ("mu",), "mu", 1),
    (JENSEN_EVERY_OBJECT, ("hadamard", "p"), "hadamard.p", 1),
    (JENSEN_EVERY_OBJECT, ("hadamard", "t"), "hadamard.t", 1),
    (JENSEN_EVERY_OBJECT, ("weights", "omega1", "u"), "weights.omega1: u", 1),
    (JENSEN_EVERY_OBJECT, ("weights", "omega1", "v"), "weights.omega1: v", 1),
    (JENSEN_EVERY_OBJECT, ("weights", "omega2", "values"), "weights.omega2: values", 2),
    (AGM_ANCHOR, ("weights", "B"), "weights.B", 2),
    (AGM_ANCHOR, ("weights", "C"), "weights.C", 2),
    (VERDICT_DOCS["lp"], ("points",), "points", 2),
    (VERDICT_DOCS["lp"], ("space", "masses"), "space.masses", 1),
]


@pytest.mark.parametrize("doc, path, label, ndim", ARRAY_FIELDS,
                         ids=[".".join(row[1]) + f"-{row[3]}d" for row in ARRAY_FIELDS])
@pytest.mark.parametrize("nesting", [1, -1], ids=["wrapped", "unwrapped"])
def test_an_array_of_the_wrong_dimension_exits_2_naming_it(
    tmp_path, capsys, doc, path, label, ndim, nesting
):
    assert main(["verify", write(tmp_path, "doc.json", doc)]) in (0, 1)
    capsys.readouterr()
    bad = _reshaped(doc, path, (lambda a: [a]) if nesting == 1 else (lambda a: a[0]))
    assert main(["verify", write(tmp_path, "bad.json", bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {label}: expected a {ndim}-D array, got {ndim + nesting}-D\n"


# application -> (module, name) of the chain function its builder calls
CHAIN_FUNCTIONS = {
    "jensen": (cli.refine, "chain_at_t"),
    "agm": (cli.apps, "agm_chain"),
    "kyfan": (cli.apps, "kyfan_chain"),
    "lp": (cli.apps, "lp_chain"),
    "powersum": (cli.apps, "power_sum_chain"),
    "matrixpower": (cli.apps, "matrix_power_chain"),
    "harmonic": (cli.apps, "harmonic_chain"),
}


@pytest.mark.parametrize("application", sorted(CHAIN_FUNCTIONS))
def test_an_unexpected_exception_exits_2_as_an_internal_error(
    tmp_path, capsys, monkeypatch, application
):
    # exit 1 means a violated chain, so a bug must not reach it; the chain function is
    # looked up when the document is verified, so the patched one is called
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(*CHAIN_FUNCTIONS[application], broken)
    assert main(["verify", write(tmp_path, "doc.json", VERDICT_DOCS[application])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: RuntimeError: boom\n"


def test_run_verify_leaves_the_arrays_of_a_callers_document_unchanged():
    # a read-only float64 array that owns its data is kept, not copied, by the matrix it
    # builds: embedding it must still write n*B elsewhere
    b, c = (random_doubly_stochastic(5, seed).values for seed in (1, 2))
    before = b.tobytes(), c.tobytes()
    doc = {"application": "jensen", "function": {"name": "square"},
           "points": [0.0, 1.0, 2.0, 3.0, 4.0], "weights": {"B": b, "C": c}}
    for verify in (cli.run_verify, lambda d: cli._verify_jensen(d, None)):
        verify(doc)
        assert (b.tobytes(), c.tobytes()) == before
        assert doc["weights"]["B"] is b and not b.flags.writeable


# ---------------------------------------------------------------------------
# memory: a verify holds its weight arrays and a few blocks


def traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def dense_weight(rng, n):
    """An n x n weight 1 + u v^T over uniform measures: 17-digit decimals in its text."""
    uni = ProbabilityVector.uniform(n)
    return rank_one_weight(rng.standard_normal(n), rng.standard_normal(n), uni, uni).values


def dense_block_peak(n):
    """The peak of decoding one block of an n-wide dense grid, as
    tests/test_decoder.py::test_a_dense_document_peaks_at_its_bytes_and_its_grid_plus_a_block
    measures the work of a block."""
    rng = np.random.default_rng(6)
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    grid = 1.0 + np.outer(u * (0.9 / (np.abs(u).max() * np.abs(v).max())), v)
    block = json.dumps({"values": grid[: numerics.QUAD_BATCH_VALUES // n].tolist()}).encode()
    return traced_peak(lambda: gridtext.loads(block))[0]


def omega_doc(application, n, rng, **fields):
    """A dense omega-form document: omega1 a dense matrix, omega2 rank one from u and v."""
    uni = [1.0 / n] * n
    return {"application": application, "lambda": uni, "mu": uni, **fields,
            "weights": {"omega1": {"kind": "matrix", "values": dense_weight(rng, n).tolist()},
                        "omega2": {"kind": "rank_one", "u": rng.standard_normal(n).tolist(),
                                   "v": rng.standard_normal(n).tolist()}}}


def permutations_doc(application, n, rng, **fields):
    """A B/C document whose B and C are permutation matrices."""
    b, c = (np.eye(n)[rng.permutation(n)].tolist() for _ in range(2))
    return {"application": application, **fields, "weights": {"B": b, "C": c}}


MEMORY_DOCS = {
    # name -> (document builder, n, bytes of the weight arrays the verify holds)
    "jensen-omega": (lambda n, rng: omega_doc("jensen", n, rng, function={"name": "square"},
                                              points=list(range(n))), 700, lambda n: 16 * n * n),
    "jensen-bc": (lambda n, rng: permutations_doc("jensen", n, rng, function={"name": "exp"},
                                                  points=rng.uniform(-1, 1, n).tolist()),
                  700, lambda n: 16 * n * n),
    "lp-bc": (lambda n, rng: permutations_doc("lp", n, rng, p=2.5,
                                              points=rng.uniform(-1, 1, (n, 3)).tolist()),
              700, lambda n: 16 * n * n + 24 * n),
    "powersum-omega": (lambda n, rng: omega_doc("powersum", n, rng, p=2.5,
                                                points=rng.uniform(0, 5, n).tolist()),
                       658, lambda n: 16 * n * n),
    "matrixpower-dense": (lambda n, rng: {
        "application": "matrixpower", "p": 3,
        "weights": {"B": random_doubly_stochastic(n, 1).values.tolist(),
                    "C": random_doubly_stochastic(n, 2).values.tolist()}}, 500,
        lambda n: 16 * n * n),
}


@pytest.mark.parametrize("name", sorted(MEMORY_DOCS))
def test_a_large_verify_peaks_at_its_weight_arrays_plus_two_blocks(tmp_path, capsys, name):
    """The file is read a block at a time, B and C are embedded in their own buffers, and the
    row chains are summed by blocks: the verify holds its n x n weight arrays (and a sample
    grid), and at most two blocks' work of decoding beyond them, not the file's bytes, a
    copy of B and C, or an n x n array of means."""
    build, n, weight_bytes = MEMORY_DOCS[name]
    path = write(tmp_path, f"{name}.json", build(n, np.random.default_rng(3)))
    assert main(["verify", path]) == 0  # anything built once per process is built
    capsys.readouterr()
    peak, code = traced_peak(lambda: main(["verify", path]))
    assert code == 0 and json.loads(capsys.readouterr().out)["pass"] is True
    block = dense_block_peak(n)
    assert peak < weight_bytes(n) + 2 * block, (peak, weight_bytes(n), block)
