"""Mutation testing: change one site of a module at a time and see whether its tests fail.

    python3 tools/mutate.py [--module src/jensenchain/gridtext.py] [--tests tests/test_decoder.py]
        [--functions NAME,NAME | --lines FIRST-LAST] [--seed 0] [--timeout 600] [--jobs 1]
        [--out mutants.jsonl] [--list] [--smoke]

Operators, one site each (DeMillo, Lipton and Sayward, "Hints on Test Data Selection",
IEEE Computer 11(4), 1978): "<" <-> "<=", ">" <-> ">=", "==" <-> "!=", "+" <-> "-",
"*" <-> "//", min <-> max and np.minimum <-> np.maximum, and an if guard's "return None"
or "raise" replaced by "pass".  Sites are those inside the functions named by --functions,
or on the lines --lines gives, of --module.

Each mutant is written into a fresh temporary copy of src/ and tests/, so no bytecode
and no Hypothesis example database carries over from one to the next, and runs
"pytest -x" on --tests there at --hypothesis-seed=--seed, with Hypothesis's shrink phase
off: a failing example kills the mutant as it is found.  A run that fails kills the
mutant; a run past --timeout seconds counts as killed too.  One JSON line per mutant
goes to --out (site, operator, outcome, seconds), and a survivor not listed in
tools/mutate_equivalent.txt (one "site operator" key a line, then its reason) makes the
tool exit 1.  --smoke mutates gridtext's _dumps_head and _located against
tests/test_decoder.py; --list prints the sites and runs nothing.
"""

import argparse
import ast
import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EQUIVALENT = os.path.join(ROOT, "tools", "mutate_equivalent.txt")
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult}
CALLS = {"min": "max", "max": "min", "minimum": "maximum", "maximum": "minimum"}
# a pytest plugin, loaded before the tests are collected
NO_SHRINK = """from hypothesis import Phase, settings
settings.register_profile("mutate", phases=[Phase.explicit, Phase.generate], database=None)
settings.load_profile("mutate")
"""


def _guard(stmt):
    return isinstance(stmt, ast.Raise) or (
        isinstance(stmt, ast.Return) and (stmt.value is None or (
            isinstance(stmt.value, ast.Constant) and stmt.value.value is None)))


def sites(tree, wanted):
    """(node, replacement source, operator name) for every mutable site for which wanted(node,
    function name) holds, in source order."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if function is not None and wanted(node, function):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
                new = SWAPS[type(node.op)]
                found.append((node, dict(op=new()), f"{type(node.op).__name__}->{new.__name__}"))
            elif isinstance(node, ast.Compare):
                for k, op in enumerate(node.ops):
                    if type(op) in SWAPS:
                        ops = list(node.ops)
                        ops[k] = SWAPS[type(op)]()
                        found.append((node, dict(ops=ops),
                                      f"{type(op).__name__}->{type(ops[k]).__name__}"))
            elif isinstance(node, ast.Call):
                func = node.func
                attr = "id" if isinstance(func, ast.Name) else "attr"
                name = getattr(func, attr, None)
                if name in CALLS and (attr == "id" or isinstance(func.value, ast.Name)):
                    call = type(func)(**{**func.__dict__, attr: CALLS[name]})
                    found.append((node, dict(func=call), f"{name}->{CALLS[name]}"))
            elif isinstance(node, ast.If):
                for stmt in node.body + node.orelse:
                    if _guard(stmt):
                        found.append((stmt, None, f"delete-{type(stmt).__name__.lower()}"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def mutant(source, node, change):
    """source with node's text replaced by its mutated form, or by "pass" (change None)."""
    lines = source.splitlines(keepends=True)
    start = sum(map(len, lines[: node.lineno - 1])) + len(
        lines[node.lineno - 1].encode()[: node.col_offset].decode())
    end = sum(map(len, lines[: node.end_lineno - 1])) + len(
        lines[node.end_lineno - 1].encode()[: node.end_col_offset].decode())
    if change is None:
        text = "pass"
    else:
        copy = type(node)(**{**node.__dict__, **change})
        text = ast.unparse(copy)
        text = text if isinstance(node, ast.stmt) else f"({text})"
    return source[:start] + text + source[end:]


def run(module, text, tests, seed, timeout):
    """(outcome, seconds) of the tests on a fresh copy of the tree with module's text."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        with open(os.path.join(tmp, os.path.relpath(module, ROOT)), "w") as fh:
            fh.write(text)
        with open(os.path.join(tmp, "no_shrink.py"), "w") as fh:
            fh.write(NO_SHRINK)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(tmp, "src"), tmp]),
                   PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "-p", "no_shrink", f"--hypothesis-seed={seed}", tests]
        began = time.perf_counter()
        try:
            done = subprocess.run(command, cwd=tmp, env=env, capture_output=True,
                                  timeout=timeout)
            outcome = "survived" if done.returncode == 0 else "killed"
        except subprocess.TimeoutExpired:
            outcome = "timeout"  # counted as killed
        return outcome, round(time.perf_counter() - began, 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--module", default="src/jensenchain/gridtext.py")
    ap.add_argument("--tests", default="tests/test_decoder.py")
    ap.add_argument("--functions", help="comma-separated function names")
    ap.add_argument("--lines", help="FIRST-LAST, the lines whose sites are mutated")
    ap.add_argument("--seed", type=int, default=0, help="the runs' --hypothesis-seed")
    ap.add_argument("--timeout", type=float, default=600.0, help="seconds a mutant, then killed")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out", default=os.devnull, help="the JSONL of mutants and outcomes")
    ap.add_argument("--list", action="store_true", help="print the sites, run nothing")
    ap.add_argument("--smoke", action="store_true",
                    help="gridtext's _dumps_head and _located against tests/test_decoder.py")
    args = ap.parse_args(argv)
    if args.smoke:
        args.functions = "_dumps_head,_located"
    if args.functions:
        names = set(args.functions.split(","))
        wanted = lambda node, function: function in names  # noqa: E731
    elif args.lines:
        first, last = map(int, args.lines.split("-"))
        wanted = lambda node, function: first <= getattr(node, "lineno", 0) <= last  # noqa: E731
    else:
        ap.error("give --functions or --lines")
    module = os.path.join(ROOT, args.module)
    with open(module) as fh:
        source = fh.read()
    name = os.path.basename(module)
    found, seen = [], {}
    for node, change, op in sites(ast.parse(source), wanted):
        key = f"{name}:{node.lineno}:{node.col_offset} {op}"
        seen[key] = seen.get(key, 0) + 1
        found.append((key + (f"#{seen[key]}" if seen[key] > 1 else ""),
                      mutant(source, node, change)))
    if args.list:
        print("\n".join(key for key, _ in found), f"\n{len(found)} sites", sep="")
        return 0
    with open(EQUIVALENT) as fh:
        equivalent = {" ".join(line.split()[:2]) for line in fh
                      if line.strip() and not line.startswith("#")}
    survivors = []
    with open(args.out, "w") as out, concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        jobs = {pool.submit(run, module, text, args.tests, args.seed, args.timeout): key
                for key, text in found}
        for job in concurrent.futures.as_completed(jobs):
            key = jobs[job]
            outcome, seconds = job.result()
            site, op = key.split(" ")
            out.write(json.dumps(dict(site=site, operator=op, outcome=outcome,
                                      seconds=seconds)) + "\n")
            out.flush()
            if outcome == "survived" and key not in equivalent:
                survivors.append(key)
            print(f"{outcome:9} {seconds:7.1f} s  {key}", flush=True)
    print(f"{len(found)} mutants, {len(survivors)} unlisted survivors", *sorted(survivors),
          sep="\n")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
