"""Compare what two jensenchain source trees print over the benchmark corpora.

    python3 tools/report_diff.py PARENT_SRC CHANGE_SRC [--seeds 1 7] [--workloads W ...]

PARENT_SRC and CHANGE_SRC are each a tree's ``src`` directory, or the tree's
root if it holds ``src/jensenchain``.  The corpora come from
``perfbench/corpus.py`` of the checkout this script lives in, one per workload
and seed.  Every operation runs through each tree's ``jensenchain.cli.main``,
in one child process per tree and corpus, so the two packages never share an
interpreter.

The summary lists, per application (the first word of the operation's
label), how many operations differ in exit code, stdout, ``--out`` bytes or
first stderr line, the worst relative change of every numeric field of the
JSON they print (list positions folded into ``[]``), and the numeric fields
that only one tree prints, each with the number of leaves the change adds
(``+``) or drops (``-``).  Then it names each differing operation.  Exit
status: 0 when every operation agrees, 1 when some differ.
"""

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "perfbench" / "corpus.py"
WORKLOADS = ("verify-small", "verify-large", "generate-tighten")
ASPECTS = ("exit", "stdout", "out", "stderr1")


def source_dir(path):
    path = Path(path).resolve()
    if (path / "src" / "jensenchain").is_dir():
        path = path / "src"
    if not (path / "jensenchain" / "cli.py").is_file():
        sys.exit(f"report_diff: no jensenchain sources under {path}")
    return path


# ---------------------------------------------------------------------------
# child: run one corpus through one tree


def run_corpus(src, corpus_dir, result_path):
    sys.path.insert(0, str(src))
    import jensenchain.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"report_diff: imported {cli.__file__}, not the sources under {src}")
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    results = []
    for op in manifest["ops"]:
        argv = [a.replace("{dir}", str(corpus_dir)) for a in op["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a result to compare, not the end of the run
                code = "crash"
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        written = None
        if "out" in op["expect"]:
            path = corpus_dir / op["expect"]["out"]
            if path.exists():
                written = path.read_text(encoding="utf-8")
                path.unlink()
        lines = err.getvalue().splitlines()
        results.append({"label": op["label"], "exit": code, "stdout": out.getvalue(),
                        "out": written, "stderr1": lines[0] if lines else ""})
    Path(result_path).write_text(json.dumps(results))


# ---------------------------------------------------------------------------
# parent: build corpora, run both trees, compare


def run_tree(src, corpus_dir, tmp, tag):
    result = Path(tmp) / f"{tag}.json"
    subprocess.run([sys.executable, __file__, "--run", str(src), str(corpus_dir), str(result)],
                   check=True)
    return json.loads(result.read_text())


def numbers(text, prefix=""):
    """{path: float} of the numeric leaves of a JSON text; None if it is not JSON."""
    try:
        doc = json.loads(text)
    except (TypeError, ValueError):
        return None
    leaves = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, val in node.items():
                walk(val, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for k, val in enumerate(node):
                walk(val, f"{path}[{k}]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            leaves[path] = float(node)

    walk(doc, prefix)
    return leaves


def fold(path):
    """path with list positions replaced by []."""
    return re.sub(r"\[\d+\]", "[]", path)


def rel_change(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(parent, change, worst, layout):
    """Aspects in which two results differ; records numeric changes in worst[field] and the
    leaves only one side prints in layout[(sign, field)]."""
    differ = [k for k in ASPECTS if parent[k] != change[k]]
    if "stdout" in differ or "out" in differ:
        for key, prefix in (("stdout", ""), ("out", "out:")):
            a, b = numbers(parent[key], prefix), numbers(change[key], prefix)
            if a is None or b is None:
                continue
            for sign, only in (("-", a.keys() - b.keys()), ("+", b.keys() - a.keys())):
                for path in only:
                    layout[sign, fold(path)] += 1
            for path in a.keys() & b.keys():
                field = fold(path)
                worst[field] = max(worst.get(field, 0.0), rel_change(a[path], b[path]))
    return differ


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = ap.parse_args(argv)
    trees = (source_dir(args.parent_src), source_dir(args.change_src))

    counts = defaultdict(lambda: dict.fromkeys(("ops", "same", *ASPECTS), 0))
    worst = defaultdict(dict)
    layout = defaultdict(Counter)
    listed = []
    with tempfile.TemporaryDirectory(prefix="report_diff-") as tmp:
        for workload in args.workloads:
            for seed in args.seeds:
                corpus_dir = Path(tmp) / f"{workload}-{seed}"
                subprocess.run([sys.executable, str(CORPUS), "--workload", workload,
                                "--seed", str(seed), "--out", str(corpus_dir)], check=True)
                parent, change = (run_tree(src, corpus_dir, tmp, tag)
                                  for src, tag in zip(trees, ("parent", "change")))
                for k, (a, b) in enumerate(zip(parent, change)):
                    app = a["label"].split("-")[0]
                    row = counts[app]
                    row["ops"] += 1
                    differ = compare(a, b, worst[app], layout[app])
                    row["same"] += not differ
                    for aspect in differ:
                        row[aspect] += 1
                    if differ:
                        listed.append(f"{workload} seed {seed} op {k:03d} {a['label']}: "
                                      + ", ".join(differ)
                                      + (f" (exit {a['exit']} -> {b['exit']})"
                                         if "exit" in differ else ""))

    total = sum(row["ops"] for row in counts.values())
    same = sum(row["same"] for row in counts.values())
    print(f"parent {trees[0]}\nchange {trees[1]}")
    print(f"workloads {', '.join(args.workloads)}; seeds {', '.join(map(str, args.seeds))}; "
          f"{same}/{total} ops identical")
    print(f"\n{'application':<12} {'ops':>5} {'same':>5} " + " ".join(f"{a:>7}" for a in ASPECTS))
    for app, row in sorted(counts.items()):
        print(f"{app:<12} {row['ops']:>5} {row['same']:>5} "
              + " ".join(f"{row[a]:>7}" for a in ASPECTS))
    changed = [(app, field, v) for app in sorted(worst)
               for field, v in sorted(worst[app].items()) if v > 0.0]
    if changed:
        print("\nworst relative change per numeric field (fields that moved)")
        for app, field, v in changed:
            print(f"  {app:<12} {field:<32} {v:.3g}")
    if any(layout.values()):
        print("\nnumeric fields printed by one tree only (+ change, - parent): leaves")
        for app in sorted(layout):
            for (sign, field), count in sorted(layout[app].items()):
                print(f"  {app:<12} {sign} {field:<30} {count}")
    if listed:
        print("\ndiffering ops")
        for line in listed:
            print("  " + line)
    return 0 if same == total else 1


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--run":
        run_corpus(Path(sys.argv[2]), Path(sys.argv[3]), sys.argv[4])
        sys.exit(0)
    sys.exit(main())
