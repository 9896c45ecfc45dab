"""Seeded input corpora for the benchmark, built with numpy alone.

Each workload is a pool of distinct operations.  An operation is the argv
that is handed to ``jensenchain.cli.main`` plus an expectation computed here,
independently of the program: the exit code known by construction and the
reference values the output checker compares against.  Documents are
written to a directory as JSON files; ``manifest.json`` lists the pool.

Every cost-setting parameter (size, exponent, number of permutations in a
mixture, space size) comes from the operation's slot u in (0, 1), laid out
evenly over each range, so sizes cover their ranges without gaps for a
quantile to fall into and every seed yields the same mix of work.  The
seed draws the values: points, weights, permutations, generator seeds.

Run as a script to write a corpus:

    python3 perfbench/corpus.py --workload verify-small --seed 1 --out DIR
"""

import argparse
import json
import os
import sys

import numpy as np

WORKLOADS = ("verify-small", "verify-large", "generate-tighten")

FUNCTIONS = ("square", "exp", "neglog", "kyfan", "powp", "xlogx", "harmonic_frac")
CONCAVE = {"harmonic_frac"}
SCALAR_APPS = ("agm", "kyfan", "lp", "powersum", "matrixpower", "harmonic")
CHAIN_TOL = 1e-9  # the program's documented default chain tolerance scale


# ---------------------------------------------------------------------------
# reference functions (numpy), used for expectations and by the checker


def f_eval(name, x, p=None):
    x = np.asarray(x, dtype=float)
    if name == "square":
        return x * x
    if name == "exp":
        return np.exp(x)
    if name == "neglog":
        return -np.log(x)
    if name == "kyfan":
        return np.log1p(-x) - np.log(x)
    if name == "powp":
        return x ** p
    if name == "xlogx":
        return x * np.log(x)
    if name == "harmonic_frac":
        return x / (1.0 + x)
    raise ValueError(name)


def spread(rng, lo, hi, shape):
    """Uniform draws on [lo, hi], stratified down the first axis (one per 1/n stratum).

    Stratifying keeps the spread of every document's points alike, so the
    quadrature work per document varies less from seed to seed.
    """
    shape = (shape,) if isinstance(shape, int) else shape
    strata = np.argsort(rng.random(shape), axis=0)
    return lo + (hi - lo) * (strata + rng.random(shape)) / shape[0]


def draw_points(rng, name, n):
    if name == "square":
        return spread(rng, -3.0, 3.0, n)
    if name == "exp":
        return spread(rng, -4.0, 4.0, n)
    if name in ("neglog", "xlogx"):
        return np.exp(spread(rng, np.log(0.05), np.log(20.0), n))
    if name == "kyfan":
        return spread(rng, 0.02, 0.5, n)
    if name == "powp":
        return spread(rng, 0.0, 5.0, n)
    if name == "harmonic_frac":
        return spread(rng, 0.0, 10.0, n)
    raise ValueError(name)


def slots(count, kinds=1, kind=0):
    """count slots in (0, 1), evenly spaced and interleaved with those of the other kinds."""
    return [(k + (kind + 0.5) / kinds) / count for k in range(count)]


def size(u, lo, hi):
    return int(round(lo + u * (hi - lo)))


def chain_tol(lower, upper):
    return CHAIN_TOL * max(1.0, abs(lower), abs(upper))


# ---------------------------------------------------------------------------
# weights


def prob_vector(rng, n):
    w = rng.dirichlet(np.full(n, 2.0))
    return w / w.sum()


def permutation(rng, n):
    return np.eye(n)[rng.permutation(n)]


def perm_mixture(rng, n, k):
    alpha = rng.dirichlet(np.ones(k))
    out = np.zeros((n, n))
    for a in alpha:
        out[np.arange(n), rng.permutation(n)] += a
    return out


def rank_one_grid(rng, mu, lam):
    """1 + u v^T with mu.u = 0 and lam.v = 0, entries at least 0.1."""
    u = rng.standard_normal(mu.size)
    v = rng.standard_normal(lam.size)
    for _ in range(2):
        u = u - u @ mu
        v = v - v @ lam
    scale = 0.9 / max(np.max(np.abs(u)) * np.max(np.abs(v)), 1e-300)
    return 1.0 + np.outer(u * scale, v)


def bc_weights(rng, n, family):
    """(B, C) doubly stochastic pair; family "hard" is (I, permutation)."""
    if family == "hard":
        return np.eye(n), permutation(rng, n)
    return perm_mixture(rng, n, 2 + n % 3), perm_mixture(rng, n, 2 + (n + 1) % 3)


def weight_block(rng, n, form, family="flat"):
    """Document fields for the weights plus (lam, mu, W1, W2) as used by the program.

    Omega grids are 1 + u v^T; omega1 is the all-ones weight for even n.
    """
    if form == "bc":
        b, c = bc_weights(rng, n, family)
        uni = np.full(n, 1.0 / n)
        return {"weights": {"B": b.tolist(), "C": c.tolist()}}, uni, uni, n * b, n * c
    lam = prob_vector(rng, n)
    mu = prob_vector(rng, n)
    w2 = rank_one_grid(rng, mu, lam)
    if n % 2 == 0:
        w1 = np.ones((n, n))
        entry1 = {"kind": "ones"}
    else:
        w1 = rank_one_grid(rng, mu, lam)
        entry1 = {"kind": "matrix", "values": w1.tolist()}
    fields = {
        "lambda": lam.tolist(),
        "mu": mu.tolist(),
        "weights": {"omega1": entry1, "omega2": {"kind": "matrix", "values": w2.tolist()}},
    }
    return fields, lam, mu, w1, w2


# ---------------------------------------------------------------------------
# documents and expectations


def jensen_doc(rng, name, u, n, form, family="flat", mislabel=False, hadamard=False):
    p = 1.2 + 2.8 * u if name == "powp" else None
    x = draw_points(rng, name, n)
    fields, lam, mu, _, _ = weight_block(rng, n, form, family)
    spec = {"name": name}
    if p is not None:
        spec["params"] = {"p": p}
    convex = name not in CONCAVE
    declared_convex = convex != mislabel
    if mislabel:
        spec["direction"] = "convex" if declared_convex else "concave"
    doc = {"application": "jensen", "function": spec, "points": x.tolist()}
    doc.update(fields)
    if hadamard:
        k = 2 + n % 4
        doc["hadamard"] = {"p": rng.uniform(0.1, 1.0, k).tolist(), "t": rng.random(k).tolist()}
    left = float(f_eval(name, np.array([lam @ x]), p)[0])
    right = float(lam @ f_eval(name, x, p))
    lower, upper = (left, right) if declared_convex else (right, left)
    expect = {"kind": "jensen", "lower": lower, "upper": upper, "exit": 0}
    if mislabel and abs(right - left) > chain_tol(lower, upper):
        expect["exit"] = 1
    return doc, expect


def scalar_app_doc(rng, app, u, n, form, family="flat"):
    """Document for agm/kyfan/powersum/lp/harmonic/matrixpower with reference sides."""
    doc = {"application": app}
    if app == "matrixpower":
        b, c = bc_weights(rng, n, family)
        p = 1 + int(6 * u)
        doc.update({"weights": {"B": b.tolist(), "C": c.tolist()}, "p": p})
        return doc, {"kind": "scalar", "lower": float(n) ** (2 - p), "upper": float(n), "exit": 0}
    fields, lam, _, _, _ = weight_block(rng, n, form, family)
    doc.update(fields)
    if app == "agm":
        x = np.exp(spread(rng, np.log(0.1), np.log(10.0), n))
        lower, upper = float(np.exp(lam @ np.log(x))), float(lam @ x)
    elif app == "kyfan":
        x = spread(rng, 0.02, 0.5, n)
        a = float(lam @ x)
        lower, upper = (1.0 - a) / a, float(np.exp(lam @ (np.log1p(-x) - np.log(x))))
    elif app == "powersum":
        x = spread(rng, 0.0, 5.0, n)
        p = 1.0 + 3.0 * u
        doc["p"] = p
        lower, upper = float(np.sum((lam * x) ** p)), float(lam @ x ** p)
    else:  # lp and harmonic sample n functions on a finite space
        k = 2 + int(7 * u)
        masses = np.ones(k)
        if n % 2:
            masses = rng.uniform(0.2, 3.0, k)
            doc["space"] = {"masses": masses.tolist()}
        if app == "lp":
            x = spread(rng, -3.0, 3.0, (n, k))
            p = 1.0 + 3.0 * u
            doc["p"] = p
            lower = float(masses @ np.abs(lam @ x) ** p)
            upper = float(lam @ (np.abs(x) ** p @ masses))
        else:
            x = spread(rng, 0.0, 5.0, (n, k))
            lower = float(lam @ ((x / (1.0 + x)) @ masses))
            g = lam @ x
            upper = float((g / (1.0 + g)) @ masses)
    doc["points"] = x.tolist()
    return doc, {"kind": "scalar", "lower": lower, "upper": upper, "exit": 0}


MALFORMED_KINDS = (
    "lambda-sum", "unknown-field", "truncated", "domain", "not-ds", "lp-p", "application", "function",
)


def malformed_doc(rng, kind, n):
    """(document text, expectation) for an input the program must reject with exit 2."""
    doc, _ = jensen_doc(rng, "neglog", 0.5, n, "omega")
    if kind == "lambda-sum":
        doc["lambda"] = (np.asarray(doc["lambda"]) * 1.01).tolist()
    elif kind == "unknown-field":
        doc["extra"] = 1
    elif kind == "domain":
        doc["points"][0] = -1.0
    elif kind == "not-ds":
        b = perm_mixture(rng, n, 2)
        b[0] *= 1.5
        doc = {"application": "agm", "points": doc["points"],
               "weights": {"B": b.tolist(), "C": np.eye(n).tolist()}}
    elif kind == "lp-p":
        doc, _ = scalar_app_doc(rng, "lp", 0.5, n, "omega")
        doc["p"] = 0.5
    elif kind == "application":
        doc["application"] = "median"
    elif kind == "function":
        doc["function"] = {"name": "cube"}
    text = json.dumps(doc)
    if kind == "truncated":
        text = text[: len(text) // 2]
    return text, {"kind": "error", "exit": 2}


def tighten_doc(rng, name, u, n, form, tol):
    p = 1.2 + 2.8 * u if name == "powp" else None
    x = draw_points(rng, name, n)
    fields, lam, mu, w1, w2 = weight_block(rng, n, form)
    spec = {"name": name}
    if p is not None:
        spec["params"] = {"p": p}
    doc = {"application": "jensen", "function": spec, "points": x.tolist()}
    doc.update(fields)
    lx = lam * x
    phi0 = float(f_eval(name, w1 @ lx, p) @ mu)
    phi1 = float(f_eval(name, w2 @ lx, p) @ mu)
    left = float(f_eval(name, np.array([lam @ x]), p)[0])
    right = float(lam @ f_eval(name, x, p))
    expect = {
        "kind": "tighten", "exit": 0, "convex": name not in CONCAVE, "tol": tol,
        "phi_at_0": phi0, "phi_at_1": phi1, "lower": min(left, right), "upper": max(left, right),
    }
    return doc, expect


# ---------------------------------------------------------------------------
# workloads


class Pool:
    """Collects operations and the files they read."""

    def __init__(self):
        self.ops = []
        self.files = {}

    def verify(self, label, doc_or_text, expect, extra_argv=()):
        name = f"{len(self.ops):03d}-{label}.json"
        text = doc_or_text if isinstance(doc_or_text, str) else json.dumps(doc_or_text)
        self.files[name] = text
        self.ops.append({"label": label, "argv": ["verify", "{dir}/" + name, *extra_argv],
                         "expect": expect})

    def add(self, label, argv, expect):
        self.ops.append({"label": label, "argv": argv, "expect": expect})


def build_verify_small(rng):
    pool = Pool()
    lo, hi = 2, 24
    kinds = len(FUNCTIONS) + len(SCALAR_APPS)
    for i, name in enumerate(FUNCTIONS):
        for k, u in enumerate(slots(20, kinds, i)):
            form = "bc" if k % 2 else "omega"
            family = "hard" if k % 4 == 1 else "flat"
            doc, expect = jensen_doc(rng, name, u, size(u, lo, hi), form, family,
                                     hadamard=(k % 3 == 0))
            extra = ("--grid", "0,0.5,1") if k % 10 == 4 else ()
            pool.verify(f"jensen-{name}", doc, expect, extra)
    for i, app in enumerate(SCALAR_APPS, start=len(FUNCTIONS)):
        for k, u in enumerate(slots(20, kinds, i)):
            form = "bc" if (k % 2 or app == "matrixpower") else "omega"
            family = "hard" if k % 4 == 1 else "flat"
            doc, expect = scalar_app_doc(rng, app, u, size(u, lo, hi), form, family)
            pool.verify(app, doc, expect)
    # about 10% of the pool mislabels the curvature direction, about 5% is malformed
    for i, name in enumerate(FUNCTIONS + FUNCTIONS[:1]):
        for u in slots(4, 8, i):
            doc, expect = jensen_doc(rng, name, u, size(u, lo, hi), "omega", mislabel=True)
            pool.verify(f"mislabel-{name}", doc, expect)
    for kind, u in zip(MALFORMED_KINDS * 2, slots(2 * len(MALFORMED_KINDS))):
        text, expect = malformed_doc(rng, kind, size(u, lo, hi))
        pool.verify(f"malformed-{kind}", text, expect)
    return pool


LARGE_JENSEN = ("neglog", "exp", "square", "xlogx", "powp")


def build_verify_large(rng):
    pool = Pool()
    lo, hi = 300, 700
    kinds = [("jensen", f) for f in LARGE_JENSEN] + [("powersum", None), ("matrixpower", None),
                                                     ("lp", None)]
    for i, (app, name) in enumerate(kinds):
        for k, u in enumerate(slots(3, len(kinds), i)):
            n = size(u, lo, hi)
            family = "hard" if k % 2 == 0 else "flat"
            # flat documents alternate between mixtures of permutations and 1 + u v^T grids
            form = "omega" if family == "flat" and app != "matrixpower" and i % 2 else "bc"
            if app == "powersum":
                # zeros in B/C make t^p singular at the ends for fractional p, so t-quadrature
                # needs thousands of n x n power evaluations (seconds per op at n = 700);
                # here powersum uses 1 + u v^T grids and verify-small carries the zero case
                family, form = "flat", "omega"
            if app == "jensen":
                doc, expect = jensen_doc(rng, name, u, n, form, family)
                pool.verify(f"jensen-{name}-{family}", doc, expect)
            else:
                doc, expect = scalar_app_doc(rng, app, u, n, form, family)
                pool.verify(f"{app}-{family}", doc, expect)
    # the largest dense document sits in every pool, so the memory peak is steady
    doc, expect = jensen_doc(rng, "neglog", 1.0, hi, "omega")
    pool.verify("jensen-neglog-flat", doc, expect)
    return pool


def build_generate_tighten(rng):
    pool = Pool()
    for u in slots(16, 2, 0):
        n = size(u, 50, 250)
        seed = int(rng.integers(0, 2**31))
        pool.add("generate-ds", ["generate", "ds", "--n", str(n), "--seed", str(seed)],
                 {"kind": "ds", "exit": 0, "n": n})
    for k, u in enumerate(slots(16, 2, 1)):
        n, m = size(u, 50, 250), size(1.0 - u, 50, 250)
        seed = int(rng.integers(0, 2**31))
        pool.add("generate-weight",
                 ["generate", "weight", "--n", str(n), "--m", str(m), "--seed", str(seed),
                  "--out", f"{{dir}}/weight-{k:02d}.json"],
                 {"kind": "weight", "exit": 0, "n": n, "m": m, "out": f"weight-{k:02d}.json"})
    for k, u in enumerate(slots(28)):
        name = FUNCTIONS[k % len(FUNCTIONS)]
        tol = 10.0 ** (-12.0 + 4.0 * ((11 * k) % 28 + 0.5) / 28)
        doc, expect = tighten_doc(rng, name, u, size(u, 50, 400), "bc" if k % 2 else "omega", tol)
        fname = f"tighten-{k:02d}.json"
        pool.files[fname] = json.dumps(doc)
        pool.add(f"tighten-{name}", ["tighten", "{dir}/" + fname, "--tol", repr(tol)], expect)
    return pool


BUILDERS = {
    "verify-small": build_verify_small,
    "verify-large": build_verify_large,
    "generate-tighten": build_generate_tighten,
}


def build(workload, seed):
    """The workload's operation pool for a seed (a pure function of both)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return BUILDERS[workload](rng)


def write(workload, seed, out_dir):
    pool = build(workload, seed)
    os.makedirs(out_dir, exist_ok=True)
    for name, text in pool.files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": pool.ops}, fh)
    return pool


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    write(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
