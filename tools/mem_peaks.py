"""Trace the memory peak of each operation of a benchmark pool, one cli.main call at a time.

    python3 tools/mem_peaks.py [--workload verify-large] [--seed 1] [--against TREE] [--smoke]

The pool is built by perfbench/corpus.py of the checkout this script lives in, in a
temporary directory.  Each tree replays the whole pool through its own
jensenchain.cli.main in one child process (so two packages never share an
interpreter), in the pool's order, with stdout and stderr captured, and each operation
runs under tracemalloc: its peak is the most memory that Python and numpy held at once
during the call, above what the process held before it.  That is the traced peak of
ROADMAP item 16, which the benchmark's peak_rss_mb (the process's ru_maxrss) follows
only to within where the allocator places block-sized temporaries.

The table gives, per operation, the bytes of the weight arrays its verify holds (see
weight_bytes: each weight grid and any sample grid, 8 bytes a value), then each tree's
traced peak in MB and its peak over those arrays.  Its last row gives the largest of
each column.  A tree whose operation exits other than the pool expects exits 1 after
the table.

--against TREE replays TREE (a source tree's root or its src directory) as well.

--smoke replays one operation of each label, the one with the smallest document: the
exit-code check and the table, over few documents.
"""

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "perfbench" / "corpus.py"
WORKLOADS = ("verify-small", "verify-large", "generate-tighten")
MB = 1e6


def source_dir(path):
    path = Path(path).resolve()
    if (path / "src" / "jensenchain").is_dir():
        path = path / "src"
    if not (path / "jensenchain" / "cli.py").is_file():
        sys.exit(f"mem_peaks: no jensenchain sources under {path}")
    return path


# ---------------------------------------------------------------------------
# child: replay the pool through one tree


def replay(src, ops, result_path):
    sys.path.insert(0, str(src))
    import jensenchain.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"mem_peaks: imported {cli.__file__}, not the sources under {src}")
    results = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(op["argv"])
                except SystemExit as exc:
                    code = exc.code
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        results.append({"exit": code, "peak": peak})
    Path(result_path).write_text(json.dumps(results))


# ---------------------------------------------------------------------------
# parent: build the pool, replay it through each tree, print the table


def weight_bytes(doc):
    """Bytes of the float64 weight arrays that a verify of doc holds: n x n for each of B
    and C, |mu| x |lambda| for each of omega1 and omega2 (whatever its kind), and the
    points where they are an n x |X| sample grid; 0 for a document that is none of these."""
    if not isinstance(doc, dict):
        return 0
    total = 0
    points = doc.get("points")
    if isinstance(points, list) and points and isinstance(points[0], list):
        total += 8 * len(points) * len(points[0])
    weights = doc.get("weights")
    if isinstance(weights, dict):
        total += sum(8 * len(weights[key]) ** 2 for key in ("B", "C")
                     if isinstance(weights.get(key), list))
        sides = [doc.get(key) for key in ("mu", "lambda")]
        if all(isinstance(side, list) for side in sides):
            total += sum(8 * len(sides[0]) * len(sides[1]) for key in ("omega1", "omega2")
                         if key in weights)
    return total


def document_of(op, corpus_dir):
    """The path of the document an operation reads, or None (generate reads none)."""
    for arg in op["argv"][1:]:
        if arg.startswith("{dir}/") and arg.endswith(".json") and "out" not in op["expect"]:
            return corpus_dir / arg[len("{dir}/"):]
    return None


def smallest_of_each_label(ops, corpus_dir):
    """The positions in ops of the operation with the smallest document of each label."""
    chosen = {}
    for k, op in enumerate(ops):
        doc = document_of(op, corpus_dir)
        size = doc.stat().st_size if doc else 0
        if op["label"] not in chosen or size < chosen[op["label"]][0]:
            chosen[op["label"]] = (size, k)
    return sorted(k for _, k in chosen.values())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default="verify-large")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--against", metavar="TREE")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    trees = [source_dir(HERE.parent)] + ([source_dir(args.against)] if args.against else [])

    with tempfile.TemporaryDirectory(prefix="mem_peaks-") as tmp:
        corpus_dir = Path(tmp) / "corpus"
        subprocess.run([sys.executable, str(CORPUS), "--workload", args.workload,
                        "--seed", str(args.seed), "--out", str(corpus_dir)], check=True)
        ops = json.loads((corpus_dir / "manifest.json").read_text())["ops"]
        picked = smallest_of_each_label(ops, corpus_dir) if args.smoke else range(len(ops))
        ops = [ops[k] for k in picked]
        weights = []
        for op in ops:
            doc = document_of(op, corpus_dir)
            try:
                weights.append(weight_bytes(json.loads(doc.read_text())) if doc else 0)
            except ValueError:  # a malformed document holds no weights
                weights.append(0)
            op["argv"] = [a.replace("{dir}", str(corpus_dir)) for a in op["argv"]]
        (Path(tmp) / "ops.json").write_text(json.dumps(ops))
        runs = []
        for k, src in enumerate(trees):
            result = Path(tmp) / f"tree{k}.json"
            subprocess.run([sys.executable, __file__, "--replay", str(src),
                            str(Path(tmp) / "ops.json"), str(result)], check=True)
            runs.append(json.loads(result.read_text()))

    print(f"{args.workload}, seed {args.seed}, {len(ops)} ops; tracemalloc peak of each "
          "cli.main call, MB (1e6 bytes)")
    for k, src in enumerate(trees):
        print(f"tree {k}: {src}")
    header = f"{'op':<28} {'weights':>7}"
    for k in range(len(trees)):
        header += f"  {f'peak {k}':>7} {f'over {k}':>7}"
    print(header)
    wrong = []
    for i, op in enumerate(ops):
        row = f"{picked[i]:03d} {op['label']:<24} {weights[i] / MB:>7.2f}"
        for k, run in enumerate(runs):
            peak = run[i]["peak"]
            row += f"  {peak / MB:>7.2f} {(peak - weights[i]) / MB:>7.2f}"
            if run[i]["exit"] != op["expect"]["exit"]:
                wrong.append(f"tree {k} op {picked[i]:03d} {op['label']}: exit {run[i]['exit']}, "
                             f"expected {op['expect']['exit']}")
        print(row)
    largest = f"{'largest':<28} {max(weights) / MB:>7.2f}"
    for run in runs:
        largest += (f"  {max(r['peak'] for r in run) / MB:>7.2f}"
                    f" {max(r['peak'] - g for r, g in zip(run, weights)) / MB:>7.2f}")
    print(largest)
    for line in wrong:
        print(line)
    return 1 if wrong else 0


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--replay":
        replay(Path(sys.argv[2]), json.loads(Path(sys.argv[3]).read_text()), sys.argv[4])
        sys.exit(0)
    sys.exit(main())
