"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All expected values are hand-derived anchors or property statements; the
corpora are seeded and deterministic.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math

import numpy as np
import pytest

from jensenchain import (
    DoublyStochasticMatrix,
    FiniteMeasureSpace,
    FunctionVector,
    HadamardWeights,
    JensenInstance,
    ProbabilityVector,
    WeightFunction,
    agm_chain,
    chain_at_t,
    chain_hadamard,
    embed_doubly_stochastic,
    get_function,
    harmonic_chain,
    identric,
    integral_mean,
    kyfan_chain,
    logarithmic,
    lp_chain,
    matrix_power_bounds,
    p_logarithmic,
    phi_convexity_check,
    phi_integral_closed,
    phi_integral_quad,
    random_doubly_stochastic,
    random_weight,
    rank_one_weight,
    validate_weight,
)
from jensenchain.means import EPS_DEG, ln_identric, log_mean, pow_integral_mean
from conftest import make_instance, rand_prob, rand_weight

E = math.e
CATALOG = ("square", "exp", "neglog", "kyfan", "powp", "xlogx", "harmonic_frac")
GRID = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
UNI2 = ProbabilityVector.uniform(2)

_INSTANCES_PER_FUNCTION = 1000


def _report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """1000 seeded instances per catalog function, n, m <= 8, scalar points."""
    out = {}
    for k, name in enumerate(CATALOG):
        rng = np.random.default_rng(1_000_000 + k)
        out[name] = [make_instance(rng, name) for _ in range(_INSTANCES_PER_FUNCTION)]
    return out


def test_criterion_1_chain_sandwich(corpus):
    violations = 0
    total = 0
    for name in CATALOG:
        for inst in corpus[name]:
            ch = chain_at_t(inst, GRID)
            total += 1
            if not ch.passed:
                violations += 1
    _report(
        1,
        violations == 0,
        f"sandwich held on grid {{0, 1/4, 1/2, 3/4, 1}} for {total} instances "
        f"({_INSTANCES_PER_FUNCTION} per catalog function), {violations} violations",
    )


def test_criterion_2_integral_chain_and_closed_form(corpus):
    worst = 0.0
    bad = 0
    total = 0
    for name in CATALOG:
        for inst in corpus[name]:
            closed = phi_integral_closed(inst)
            quad = phi_integral_quad(inst)
            err = abs(closed - quad) / max(1.0, abs(closed), abs(quad))
            worst = max(worst, err)
            lower, upper = inst.oriented_bounds()
            tol = 1e-9 * max(1.0, abs(lower), abs(upper))
            in_sandwich = (
                lower - tol <= closed <= upper + tol and lower - tol <= quad <= upper + tol
            )
            total += 1
            if err > 1e-8 or not in_sandwich:
                bad += 1
    _report(
        2,
        bad == 0,
        f"closed form vs quadrature within 1e-8 on {total} instances "
        f"(worst rel err {worst:.2e}), both inside the sandwich",
    )


def test_criterion_3_phi_convexity(corpus):
    bad = 0
    total = 0
    for k, name in enumerate(CATALOG):
        for idx, inst in enumerate(corpus[name]):
            total += 1
            if not phi_convexity_check(inst, trials=100, seed=7_000 + 13 * k + idx).ok:
                bad += 1
    _report(
        3,
        bad == 0,
        f"midpoint convexity/concavity held for 100 random triples on each of "
        f"{total} instances",
    )


def test_criterion_4_hadamard_chain(corpus):
    rng = np.random.default_rng(44)
    bad = 0
    total = 0
    for name in CATALOG:
        for inst in corpus[name][:200]:
            k = int(rng.integers(1, 6))
            hw = HadamardWeights(rng.random(k) + 1e-3, rng.random(k))
            total += 1
            if not chain_hadamard(inst, hw).passed:
                bad += 1
    # hand anchor: phi(t) = 0.25 + 0.0625 t^2
    w1 = WeightFunction.ones(UNI2, UNI2)
    w2 = validate_weight([[1.5, 0.5], [0.5, 1.5]], UNI2, UNI2)
    inst = JensenInstance(
        f=get_function("square"), points=[0.0, 1.0], lam=UNI2, mu=UNI2, w1=w1, w2=w2
    )
    ch = chain_hadamard(inst, HadamardWeights([1.0, 1.0], [0.0, 1.0]))
    m1, m2 = ch.middle
    anchor = (
        abs(m1 - 0.265625) <= 1e-12
        and abs(m2 - 0.28125) <= 1e-12
        and m1 <= m2
        and ch.passed
    )
    _report(
        4,
        bad == 0 and anchor,
        f"four-member chain held for {total} random node sets (k <= 5); "
        f"anchor 0.265625 <= 0.28125 reproduced",
    )


def test_criterion_5_agm():
    rng = np.random.default_rng(55)
    bad = 0
    total = 0
    for _ in range(400):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        lam, mu = rand_prob(rng, n), rand_prob(rng, m)
        w1, w2 = rand_weight(rng, mu, lam), rand_weight(rng, mu, lam)
        x = rng.uniform(0.1, 4.0, n)
        ch = agm_chain(x, lam, mu, w1, w2)
        total += 1
        if not (ch.passed and all(c.ok for c in ch.identity_checks)):
            bad += 1
    b = DoublyStochasticMatrix.identity(2)
    c = DoublyStochasticMatrix.antidiagonal(2)
    ch = agm_chain([1.0, 2.0], UNI2, UNI2, embed_doubly_stochastic(b), embed_doubly_stochastic(c))
    anchor = (
        abs(ch.lower - math.sqrt(2.0)) <= 1e-12
        and abs(ch.middle - 4.0 / E) <= 1e-12
        and abs(ch.upper - 1.5) <= 1e-12
    )
    w = WeightFunction.ones(UNI2, UNI2)
    eq = agm_chain([1.7, 1.7], UNI2, UNI2, w, w)
    equality = all(abs(v - 1.7) <= 1e-12 for v in (eq.lower, eq.middle, eq.upper))
    _report(
        5,
        bad == 0 and anchor and equality,
        f"geometric/identric/arithmetic chain held on {total} instances; "
        f"anchor sqrt(2) <= 4/e <= 3/2 to 1e-12; equality case exact",
    )


def test_criterion_6_kyfan():
    rng = np.random.default_rng(66)
    bad = 0
    total = 0
    for _ in range(400):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        lam, mu = rand_prob(rng, n), rand_prob(rng, m)
        w1, w2 = rand_weight(rng, mu, lam), rand_weight(rng, mu, lam)
        x = rng.uniform(0.02, 0.5, n)
        ch = kyfan_chain(x, lam, mu, w1, w2)
        total += 1
        if not (ch.passed and all(c.ok for c in ch.identity_checks)):
            bad += 1
    b = DoublyStochasticMatrix.identity(2)
    c = DoublyStochasticMatrix.antidiagonal(2)
    ch = kyfan_chain(
        [0.2, 0.4], UNI2, UNI2, embed_doubly_stochastic(b), embed_doubly_stochastic(c)
    )
    anchor = (
        abs(ch.lower - 7.0 / 3.0) <= 1e-12
        and abs(ch.middle - 2.3703) <= 1e-3
        and abs(ch.upper - math.sqrt(6.0)) <= 1e-12
        and ch.passed
    )
    _report(
        6,
        bad == 0 and anchor,
        f"complementary-mean ratio chain held on {total} instances drawn from (0, 1/2]; "
        f"anchor 7/3 <= 2.3703 <= sqrt(6) reproduced",
    )


def test_criterion_7_lp():
    rng = np.random.default_rng(77)
    bad = 0
    total = 0
    for _ in range(300):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        width = int(rng.integers(1, 7))
        lam, mu = rand_prob(rng, n), rand_prob(rng, m)
        w1, w2 = rand_weight(rng, mu, lam), rand_weight(rng, mu, lam)
        fv = FunctionVector(rng.uniform(-2.0, 2.0, (n, width)))
        space = FiniteMeasureSpace(rng.uniform(0.5, 2.0, width))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        ch = lp_chain(fv, space, p, lam, mu, w1, w2)
        total += 1
        if not (ch.passed and all(c.ok for c in ch.identity_checks)):
            bad += 1
    b = DoublyStochasticMatrix.identity(2)
    c = DoublyStochasticMatrix.antidiagonal(2)
    ch = lp_chain(
        FunctionVector([[1.0, 0.0], [0.0, 1.0]]),
        FiniteMeasureSpace.counting(2),
        2.0,
        UNI2,
        UNI2,
        embed_doubly_stochastic(b),
        embed_doubly_stochastic(c),
    )
    anchor = (
        abs(ch.lower - 0.5) <= 1e-12
        and abs(ch.middle - 2.0 / 3.0) <= 1e-12
        and abs(ch.upper - 1.0) <= 1e-12
    )
    _report(
        7,
        bad == 0 and anchor,
        f"p-th power norm chain and integral-interchange identity (1e-8) held on "
        f"{total} instances (|X| <= 6, p in {{1, 1.5, 2, 3}}); anchor 1/2 <= 2/3 <= 1",
    )


def test_criterion_8_power_sums_and_matrix_bounds():
    rng = np.random.default_rng(88)
    bad = 0
    total = 0
    for n in range(1, 7):
        for p in range(1, 7):
            for rep in range(3):
                b = random_doubly_stochastic(n, seed=int(rng.integers(1 << 30)))
                c = random_doubly_stochastic(n, seed=int(rng.integers(1 << 30)))
                lower, middle, upper = matrix_power_bounds(b, c, p)
                total += 1
                if not (lower - 1e-12 * n <= middle <= upper + 1e-12 * n):
                    bad += 1
                # coincidence of the k-sum with its identity-matrix reduction
                eye = DoublyStochasticMatrix.identity(n)
                _, mid_id, _ = matrix_power_bounds(b, eye, p)
                reduced = float(np.sum(b.values ** p))
                for k in range(p):
                    reduced += float(np.sum(np.diag(b.values) ** k))
                reduced /= p + 1
                if abs(mid_id - reduced) > 1e-12 * max(1.0, abs(mid_id)):
                    bad += 1
    anchor = matrix_power_bounds(
        DoublyStochasticMatrix.identity(2), DoublyStochasticMatrix.identity(2), 2
    ) == (1.0, 2.0, 2.0)
    _report(
        8,
        bad == 0 and anchor,
        f"power bounds held for {total} generated matrix pairs (n <= 6, p <= 6) with the "
        f"identity-matrix reduction coinciding to 1e-12; anchor (1, 2, 2) reproduced",
    )


def test_criterion_9_harmonic_concave_chain():
    rng = np.random.default_rng(99)
    bad = 0
    total = 0
    for _ in range(300):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        width = int(rng.integers(1, 7))
        lam, mu = rand_prob(rng, n), rand_prob(rng, m)
        w1, w2 = rand_weight(rng, mu, lam), rand_weight(rng, mu, lam)
        fv = FunctionVector(rng.uniform(0.0, 5.0, (n, width)))
        space = FiniteMeasureSpace(rng.uniform(0.5, 2.0, width))
        ch = harmonic_chain(fv, space, lam, mu, w1, w2)
        total += 1
        if not (ch.passed and all(c.ok for c in ch.identity_checks)):
            bad += 1
    w1 = WeightFunction.ones(UNI2, UNI2)
    w2 = validate_weight([[1.5, 0.5], [0.5, 1.5]], UNI2, UNI2)
    ch = harmonic_chain(
        FunctionVector([[0.0], [1.0]]), FiniteMeasureSpace([1.0]), UNI2, UNI2, w1, w2
    )
    anchor = (
        abs(ch.lower - 0.25) <= 1e-12
        and abs(ch.middle - 0.32705) <= 1e-4
        and abs(ch.upper - 1.0 / 3.0) <= 1e-12
        and ch.passed
    )
    _report(
        9,
        bad == 0 and anchor,
        f"reversed (concave) chain held on {total} instances; "
        f"anchor 1/4 <= 0.32705 <= 1/3 reproduced",
    )


def test_criterion_10_cesaro_convergence():
    """Averaged paired-power means converge to the limit norm as the sequence settles."""
    f = np.array([1.0, 2.0, 0.5, 3.0])
    g = np.array([0.02, -0.01, 0.012, -0.016])
    target = float(np.sum(f ** 2))

    def averaged(n):
        i = np.arange(1, n + 1, dtype=float)
        fi = f[None, :] + g[None, :] / i[:, None]
        fr = f[None, :] + g[None, :] / (n + 1.0 - i)[:, None]
        vals = pow_integral_mean(np.abs(fi), np.abs(fr), 2.0)
        return float(vals.sum()) / n

    errors = [abs(averaged(n) - target) for n in (10, 100, 1000)]
    ok = errors[0] > errors[1] > errors[2] and errors[2] < 1e-3
    _report(
        10,
        ok,
        f"averaged quantity within {errors[2]:.2e} of the limit at n = 1000 (< 1e-3), "
        f"|error| decreasing over n in {{10, 100, 1000}}: "
        + " > ".join(f"{e:.2e}" for e in errors),
    )


def test_criterion_11_means_unit_suite():
    checks = []
    # closed-form examples at 1e-12 relative
    checks.append(abs(identric(3.0, 3.0) - 3.0) <= 1e-12 * 3.0)
    checks.append(abs(identric(1.0, 2.0) - 4.0 / E) <= 1e-12 * (4.0 / E))
    checks.append(abs(logarithmic(5.0, 5.0) - 5.0) <= 1e-12 * 5.0)
    checks.append(abs(logarithmic(1.0, E) - (E - 1.0)) <= 1e-12 * (E - 1.0))
    checks.append(abs(logarithmic(1.0, 2.0) - 1.0 / math.log(2.0)) <= 1e-12 * 1.5)
    checks.append(abs(p_logarithmic(0.0, 2.0, 1.0) - 1.0) <= 1e-12)
    checks.append(abs(p_logarithmic(0.0, 1.0, 2.0) - 1.0 / math.sqrt(3.0)) <= 1e-12)
    checks.append(p_logarithmic(2.7, 2.7, 3.0) == 2.7)
    sq = get_function("square")
    checks.append(abs(integral_mean(sq, 0.0, 1.0) - 1.0 / 3.0) <= 1e-12)
    checks.append(integral_mean(sq, 2.0, 2.0) == 4.0)
    nl = get_function("neglog")
    checks.append(abs(integral_mean(nl, 1.0, E) + 1.0 / (E - 1.0)) <= 1e-12)
    # quadrature-backed examples at 1e-8
    from jensenchain.numerics import adaptive_simpson

    quad_ln = adaptive_simpson(np.log, 1.0, E) / (E - 1.0)
    checks.append(abs(identric(1.0, E) - math.exp(quad_ln)) <= 1e-8)
    quad_sq = adaptive_simpson(lambda t: t * t, 0.0, 1.0)
    checks.append(abs(p_logarithmic(0.0, 1.0, 2.0) - math.sqrt(quad_sq)) <= 1e-8)
    # branch-consistency band
    rng = np.random.default_rng(11)
    band_ok = True
    for _ in range(200):
        a = float(rng.uniform(0.5, 40.0))
        b = a + float(rng.uniform(1.0, 10.0)) * EPS_DEG * max(1.0, a)
        m, u2 = 0.5 * (a + b), ((b - a) / (a + b)) ** 2
        series_i = m * math.exp(-u2 * (1 / 6 + u2 * (1 / 20 + u2 / 42)))
        series_l = m / (1 + u2 * (1 / 3 + u2 * (1 / 5 + u2 / 7)))
        p = float(rng.uniform(1.0, 4.0))
        c2 = p * (p - 1) / 6
        series_p = m ** p * (1 + u2 * (c2 + u2 * c2 * (p - 2) * (p - 3) / 20))
        band_ok &= abs(math.exp(float(ln_identric(a, b))) - series_i) <= 1e-10 * m
        band_ok &= abs(float(log_mean(a, b)) - series_l) <= 1e-10 * m
        band_ok &= abs(float(pow_integral_mean(a, b, p)) - series_p) <= 1e-10 * max(1.0, m ** p)
    ok = all(checks) and band_ok
    _report(
        11,
        ok,
        f"{len(checks)} mean examples reproduced (1e-12 closed / 1e-8 quadrature); "
        f"branch-consistency band held on 200 samples",
    )


def test_criterion_12_generators(tmp_path):
    from jensenchain.cli import main, render_json

    bad = 0
    rng = np.random.default_rng(12)
    for k in range(500):
        n = int(rng.integers(1, 9))
        mat = random_doubly_stochastic(n, seed=k)
        if max(
            float(np.max(np.abs(mat.values.sum(axis=0) - 1.0))),
            float(np.max(np.abs(mat.values.sum(axis=1) - 1.0))),
        ) >= 1e-12:
            bad += 1
    for k in range(500):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        mu, lam = rand_prob(rng, m), rand_prob(rng, n)
        w = rank_one_weight(
            rng.standard_normal(m) * 3.0, rng.standard_normal(n) * 3.0, mu, lam
        )
        validate_weight(w.values, mu, lam)
    # CLI round-trip: rendered at 17 significant digits and parsed back exactly
    round_trip_ok = True
    for seed in (0, 1, 17):
        mat = random_doubly_stochastic(4, seed=seed)
        text = render_json([[float(v) for v in row] for row in mat.values])
        back = np.asarray(json.loads(text))
        round_trip_ok &= bool(np.array_equal(back, mat.values))
    out = tmp_path / "gen.json"
    code = main(["generate", "weight", "--m", "3", "--n", "4", "--seed", "2", "--out", str(out)])
    block = json.loads(out.read_text())
    exact = random_weight(ProbabilityVector.uniform(3), ProbabilityVector.uniform(4), 2)
    round_trip_ok &= bool(np.array_equal(np.asarray(block["values"]), exact.values))
    ok = bad == 0 and code == 0 and round_trip_ok
    _report(
        12,
        ok,
        "500 Sinkhorn matrices (residual < 1e-12) and 500 rank-one weights validated; "
        "file-format round trip preserved all 17-digit values exactly",
    )
