"""Time the grid decoder, gridtext.loads, per grid family, in nanoseconds of process time a value.

    python3 tools/decode_bench.py [--seed 1] [--reps 15] [--against TREE] [--smoke]

Each family is one grid built with numpy from the seed.  The first four are printed by
json.dumps, as perfbench/corpus.py writes the documents of the benchmark:

- permutation: a permutation matrix, n x n, read through the uniform-layout path;
- mixture: a convex combination of 3 permutation matrices, n x n, nearly all "0.0",
  read through the sparse tier;
- rank-one: 1 + u v^T, n x n, dense 17-digit decimals, whose tokens the general kernel
  finds from their commas (the comma locator);
- tall: a 40000 x 1 column of uniform draws in [0, 1).

Two more are sparse grids in other layouts:

- compact: the mixture printed by json.dumps with separators=(",", ":"), "0.0," a zero;
- integer: 10 P1 + P2 for two permutation matrices, printed as integers, its zeros "0"
  (with 3 P1 + P2 every entry is one digit, a layout the uniform tier reads).

The others are printed by f-strings:

- generated: rows of uniform draws scaled to sum to 1, values of about 1/n, n x n,
  printed %.17g as `jensenchain generate ds` prints its grids: tokens of up to 22
  characters with leading zeros, and "e-" tokens below 1e-4;
- rounded: uniform draws in [-1, 1), n x n, printed with 9 decimals ("%.9f"): 11 and 12
  character tokens, whose signs keep the grid off the uniform-layout path;
- pretty: the rank-one grid printed %.17g one number a line, nested as
  `jensenchain generate weight` writes its grids, so every row break is "]" "," after a
  line of indentation;
- spaced: the rank-one grid as json.dumps prints it, with a space before every "," and
  "]".

pretty and spaced are the layouts that the comma locator's first-row check sends to the
edge scan, so they time what that check costs a layout it declines.

The last two, printed by json.dumps, sit at the edges of the tiers:

- crowded: a convex combination of 12 permutation matrices, n x n, whose blocks hold more
  nonzero tokens than the sparse tier takes, far apart, read by the general kernel: its
  "0.0" tokens by the zero step, the others by the array steps after it;
- few-short: the rank-one grid with its first column set to 2.5, one token of 3 bytes a
  row among 17-digit ones, each read by the array steps after the comma locator.

Each grid is decoded from its UTF-8 bytes, as the CLI reads a file.  Every decode is
checked bit for bit against np.array(json.loads(text)); a mismatch exits 1.  A
repetition times one decode of each family, with the time of this process
(time.process_time_ns), and the trees in alternating order.  The table gives, per family,
the median and quartiles of ns a value over the repetitions.

--against TREE also imports TREE's jensenchain (TREE is a source tree's root or its
src directory) under another package name, times it interleaved with this tree's,
and prints the median and quartiles over the repetitions of the ratio this / TREE: a
ratio whose quartiles straddle 1 is within the noise of the machine.

--smoke decodes small grids, each still longer than one block, once per tree: the
bit-for-bit check alone, no timing.

Before any timing, one decode of each family per tree counts the blocks that each tier of
gridtext.decode_rows decoded (uniform, sparse, general: the blocks neither of the first two
took), the general blocks whose tokens the comma locator found, and the tokens that the
general kernel's _values sent to float(), by wrapping the functions of the loaded module; a
tree without one of them prints "-" for it.  The run exits 1 where a general block of a
json.dumps dense family (LOCATED: rank-one, few-short) does not take this tree's comma
locator, --smoke runs included, and --smoke exits 1 where this tree sends any token of
those families to float().
"""

import argparse
import gc
import importlib
import importlib.util
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
# (n of the square grids, tall rows): at n = 256 a block of the mixture holds about 190
# nonzero tokens, few enough for the sparse tier
SIZES = {"full": (512, 40000), "smoke": (256, 20000)}


def source_dir(path):
    path = Path(path).resolve()
    if (path / "src" / "jensenchain").is_dir():
        path = path / "src"
    if not (path / "jensenchain" / "gridtext.py").is_file():
        sys.exit(f"decode_bench: no jensenchain sources under {path}")
    return path


def load_gridtext(src, name):
    """src/jensenchain imported as the package name; its gridtext module."""
    package = src / "jensenchain"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    gridtext = importlib.import_module(f"{name}.gridtext")
    if not Path(gridtext.__file__).resolve().is_relative_to(src):
        sys.exit(f"decode_bench: imported {gridtext.__file__}, not the sources under {src}")
    return gridtext


def families(seed, n, tall):
    """{family: grid text}, each a pure function of the seed and the sizes."""
    rng = np.random.default_rng(seed)
    mixture = np.zeros((n, n))
    for a in rng.dirichlet(np.ones(3)):
        mixture[np.arange(n), rng.permutation(n)] += a
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    grids = {
        "permutation": np.eye(n)[rng.permutation(n)],
        "mixture": mixture,
        "rank-one": 1.0 + np.outer(u * (0.9 / (np.abs(u).max() * np.abs(v).max())), v),
        "tall": rng.random((tall, 1)),
    }
    texts = {name: json.dumps(grid.tolist()) for name, grid in grids.items()}
    texts["compact"] = json.dumps(mixture.tolist(), separators=(",", ":"))
    p1, p2 = (np.eye(n, dtype=int)[rng.permutation(n)] for _ in range(2))
    texts["integer"] = json.dumps((10 * p1 + p2).tolist())
    generated = rng.random((n, n))
    generated /= generated.sum(axis=1, keepdims=True)
    for name, grid, form in (("generated", generated, ".17g"),
                             ("rounded", rng.uniform(-1.0, 1.0, (n, n)), ".9f")):
        texts[name] = "[" + ", ".join(
            "[" + ", ".join(f"{v:{form}}" for v in row) + "]" for row in grid.tolist()) + "]"
    rows = grids["rank-one"].tolist()
    texts["pretty"] = "[\n  [\n    " + "\n  ],\n  [\n    ".join(
        ",\n    ".join(f"{v:.17g}" for v in row) for row in rows) + "\n  ]\n]"
    texts["spaced"] = "[" + ", ".join(
        "[" + " , ".join(repr(v) for v in row) + " ]" for row in rows) + "]"
    crowded = np.zeros((n, n))
    for a in rng.dirichlet(np.ones(12)):
        crowded[np.arange(n), rng.permutation(n)] += a
    texts["crowded"] = json.dumps(crowded.tolist())
    few_short = grids["rank-one"].copy()
    few_short[:, 0] = 2.5
    texts["few-short"] = json.dumps(few_short.tolist())
    return texts


TIERS = ("_uniform", "_sparse")  # then the general kernel
LOCATED = ("rank-one", "few-short")  # each general block takes the comma locator


def tier_counts(gridtext, read, data):
    """[uniform, sparse, general, located, float()] in one read of data: the blocks that
    gridtext's decode_rows decoded, located those of the general blocks whose tokens the
    comma locator found, float() the tokens that _values left to float(); None for a
    function gridtext does not have."""
    counts = dict.fromkeys(("decode_rows", "_located", "_values") + TIERS, 0)
    saved = {name: getattr(gridtext, name) for name in counts if hasattr(gridtext, name)}

    def counting(name, tier):
        def wrapped(*args):
            block = tier(*args)
            # _values gives (bits, indices of the tokens left to float())
            counts[name] += block[1].size if name == "_values" else block is not None
            return block
        return wrapped

    for name, tier in saved.items():
        setattr(gridtext, name, counting(name, tier))
    try:
        read(data)
    finally:
        for name, tier in saved.items():
            setattr(gridtext, name, tier)
    found = [counts[name] if name in saved else None for name in TIERS]
    located, floats = (counts[name] if name in saved else None for name in ("_located", "_values"))
    return found + [counts["decode_rows"] - sum(c or 0 for c in found), located, floats]


def decode(tree, data, expected):
    """Process-time ns of the decode of data by tree, a (package name, read) pair; exits 1
    unless it gives expected bit for bit."""
    name, read = tree
    gc.collect()
    start = time.process_time_ns()
    grid = read(data)
    spent = time.process_time_ns() - start
    if not (isinstance(grid, np.ndarray) and grid.dtype == np.float64
            and grid.shape == expected.shape and grid.tobytes() == expected.tobytes()):
        sys.exit(f"decode_bench: {name} decodes a grid unlike json.loads")
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
    trees = [(module.__name__.split(".")[0], module.loads) for module in modules]
    texts = families(args.seed, *SIZES["smoke" if args.smoke else "full"])
    expected = {name: np.array(json.loads(text), dtype=float) for name, text in texts.items()}
    texts = {name: text.encode("utf-8") for name, text in texts.items()}

    print("blocks decoded by each tier: uniform / sparse / general / located (of general);"
          " tokens sent to float()")
    print(f"{'family':<12}" + "".join(f"  {name:>22} {'float()':>7}" for name, _ in trees))
    unlocated, to_float = [], []
    for name, data in texts.items():
        counts = [tier_counts(module, read, data) for module, (_, read) in zip(modules, trees)]
        cells = ((" / ".join("-" if c is None else str(c) for c in row[:4]),
                  "-" if row[4] is None else row[4]) for row in counts)
        print(f"{name:<12}" + "".join(f"  {blocks:>22} {floats:>7}" for blocks, floats in cells))
        general, located, floats = counts[0][2:]
        if name in LOCATED and located != general:
            unlocated.append(name)
        if args.smoke and name in LOCATED and floats:
            to_float.append(name)
    if unlocated:
        sys.exit(f"decode_bench: general blocks of {', '.join(unlocated)} not read through the "
                 "comma locator")
    if to_float:
        sys.exit(f"decode_bench: tokens of {', '.join(to_float)} sent to float()")
    if args.smoke:
        for name, data in texts.items():
            for tree in trees:
                decode(tree, data, expected[name])
        print(f"decode_bench: {len(texts)} families x {len(trees)} trees decode like json.loads")
        return 0

    ns = {(name, k): [] for name in texts for k in range(len(trees))}
    for rep in range(args.reps):
        order = range(len(trees))[:: 1 if rep % 2 == 0 else -1]
        for name, data in texts.items():
            for k in order:
                ns[name, k].append(decode(trees[k], data, expected[name]) / expected[name].size)

    print(f"python {platform.python_version()}, numpy {np.__version__}, seed {args.seed}, "
          f"{args.reps} repetitions; ns a value, median [quartiles]")
    header = f"{'family':<12} {'values':>7}  {'this tree':>22}"
    if args.against:
        header += f"  {'against':>22}  {'this/against':>22}"
    print(header)
    for name in texts:
        row = f"{name:<12} {expected[name].size:>7}"
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
