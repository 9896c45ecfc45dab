"""Time the grid encoder, gridtext.encode_rows, per grid family, in nanoseconds of process time a number.

    python3 tools/encode_bench.py [--seed 1] [--reps 15] [--against TREE] [--smoke]

Each family is one n x n grid (n = 250) built from the seed, encoded at the indent its
text has where it is printed:

- ds: the grid `jensenchain generate ds --n 250` prints, at indent 0 (values of about 1/n,
  "0.00" and 17 digits);
- weight: the grid `jensenchain generate weight --n 250 --m 250` prints, at indent 1, the
  "values" of its matrix object (values near 1, "0.9" or "1." and 16 digits);
- uniform: uniform draws in [0, 1), at indent 0;
- exponents: 10**u for u uniform in [-6, 16], at indent 0: every layout of fixed notation
  and the two largest exponents of the exponent form;
- negative: the exponents grid negated, at indent 2, whose separators take two words;
- zeros: a convex combination of 3 permutation matrices, at indent 0, nearly all 0.0,
  which %.17g prints "0";
- subnormal: uniform draws of the subnormal doubles, at indent 3.

The grids of ds and weight come from this tree's generators, the others from numpy alone,
so both trees encode the same grids.  Every encode is checked byte for byte against the
text of the per-number path: each number as f"{v:.17g}" prints it, laid out as
render_json lays out a list of rows; a mismatch exits 1.  The families are timed one
after another: first one untimed encode per tree, so that the allocator has settled on
the family's buffer sizes (after the subnormal family, whose per-number path frees many
small objects, the first encode of the next family pays for fresh pages), then the
repetitions, each one encode per tree, in alternating order, with the time of this
process (time.process_time_ns).  The table gives, per family, the median and quartiles of
ns a number over the repetitions.

--against TREE also imports TREE's jensenchain (TREE is a source tree's root or its src
directory) under another package name, times it interleaved with this tree's, and prints
the median and quartiles over the repetitions of the ratio this / TREE: a ratio whose
quartiles straddle 1 is within the noise of the machine.

--smoke encodes smaller grids (n = 130, each still more than one block of numbers) once
per tree: the byte-for-byte check alone, no timing.
"""

import argparse
import gc
import importlib
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from decode_bench import load_gridtext, source_dir  # noqa: E402

SIZES = {"full": 250, "smoke": 130}


def families(seed, n):
    """{family: (grid, indent)}, each a pure function of the seed and n."""
    measures = importlib.import_module("jensenchain.measures")
    uniform = measures.ProbabilityVector.uniform(n)
    rng = np.random.default_rng(seed)
    exponents = 10.0 ** rng.uniform(-6.0, 16.0, (n, n))
    zeros = np.zeros((n, n))
    for a in rng.dirichlet(np.ones(3)):
        zeros[np.arange(n), rng.permutation(n)] += a
    subnormal = rng.integers(1, 1 << 52, (n, n), dtype=np.uint64).view(float)
    return {
        "ds": (measures.random_doubly_stochastic(n, seed).values, 0),
        "weight": (measures.random_weight(uniform, uniform, seed).values, 1),
        "uniform": (rng.random((n, n)), 0),
        "exponents": (exponents, 0),
        "negative": (-exponents, 2),
        "zeros": (zeros, 0),
        "subnormal": (subnormal, 3),
    }


def reference(grid, indent):
    """The text of grid at indent through the per-number path: render_json's layout of a
    list of rows, each number as f"{v:.17g}" prints it."""
    outer, pad, inner = ("  " * (indent + j) for j in range(3))
    rows = (f"[\n{inner}" + f",\n{inner}".join(f"{v:.17g}" for v in row) + f"\n{pad}]"
            for row in grid.tolist())
    return f"[\n{pad}" + f",\n{pad}".join(rows) + f"\n{outer}]"


def encode(tree, grid, indent, expected):
    """Process-time ns of the encode of grid by tree, a (package name, gridtext) pair; exits
    1 unless it gives expected byte for byte."""
    name, gridtext = tree
    gc.collect()
    start = time.process_time_ns()
    text = gridtext.encode_rows(grid, indent)
    spent = time.process_time_ns() - start
    if text != expected:
        sys.exit(f"encode_bench: {name} encodes a grid unlike the per-number path")
    return spent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=15)
    ap.add_argument("--against", metavar="TREE")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.reps < 2:
        ap.error("--reps must be at least 2, for quartiles")

    modules = [load_gridtext(source_dir(HERE.parent), "jensenchain")]
    if args.against:
        modules.append(load_gridtext(source_dir(args.against), "jensenchain_against"))
    trees = [(module.__name__.split(".")[0], module) for module in modules]
    grids = families(args.seed, SIZES["smoke" if args.smoke else "full"])
    expected = {name: reference(grid, indent) for name, (grid, indent) in grids.items()}
    if args.smoke:
        for name, (grid, indent) in grids.items():
            for tree in trees:
                encode(tree, grid, indent, expected[name])
        print(f"encode_bench: {len(grids)} families x {len(trees)} trees encode as the "
              "per-number path")
        return 0

    ns = {(name, k): [] for name in grids for k in range(len(trees))}
    for name, (grid, indent) in grids.items():
        for tree in trees:  # untimed: the allocator settles on the family's sizes
            encode(tree, grid, indent, expected[name])
        for rep in range(args.reps):
            for k in range(len(trees))[:: 1 if rep % 2 == 0 else -1]:
                ns[name, k].append(encode(trees[k], grid, indent, expected[name]) / grid.size)

    print(f"python {platform.python_version()}, numpy {np.__version__}, seed {args.seed}, "
          f"{args.reps} repetitions; ns a number, median [quartiles]")
    header = f"{'family':<12} {'numbers':>7}  {'this tree':>22}"
    if args.against:
        header += f"  {'against':>22}  {'this/against':>22}"
    print(header)
    for name, (grid, _) in grids.items():
        row = f"{name:<12} {grid.size:>7}"
        for k in range(len(trees)):
            q1, q2, q3 = statistics.quantiles(ns[name, k], n=4, method="inclusive")
            row += f"  {q2:>8.1f} [{q1:>5.1f}, {q3:>5.1f}]"
        if args.against:
            ratios = [a / b for a, b in zip(ns[name, 0], ns[name, 1])]
            q1, q2, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
            row += f"  {q2:>8.3f} [{q1:>5.3f}, {q3:>5.3f}]"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
