#!/usr/bin/env python3
"""Benchmark for jensenchain: closed-loop CLI operations, checked outputs, layer spans.

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is driven only through
``jensenchain.cli.main(argv)``, in this process, one operation at a time
(one client, closed loop), with stdout captured.  Inputs are built by
``corpus.py`` in a child process, so this process's memory peak is the
program's.  Every output is checked by ``check.py`` against references
that the program did not compute.

The last line of stdout is the result object; the line before it holds
diagnostics (BLAS setting, machine-speed reference, raw times, op counts).
See NOTES.md.
"""

import os

# one BLAS thread for the workload process and its children; must precede the numpy import
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

REF_MS = 1.0  # reference time that scaled times are reported at; it sets their unit
REF_EVERY_S = 0.04  # a reference sample after every 40 ms of op time
# Slope of log(op time) on log(reference time) across passes of identical work,
# measured on the build machine at 0.46-0.77 (see NOTES.md): op time moves about
# half as much as the reference's when the host's speed drifts.
ELASTICITY = 0.5

# Timed ops per second of --seconds, per workload: the timed phase runs a fixed
# number of whole passes over the pool, sized so it lasts about --seconds here.
NOMINAL_RATE = {"verify-small": 120.0, "verify-large": 6.5, "generate-tighten": 20.0}
SETUP_LAUNCHES = 15
IMPORTTIME_LAUNCHES = 3

# fresh interpreters import the program as an installed one would, with bytecode caching
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
IMPORT_CODE = f"import sys; sys.path.insert(0, {str(SRC)!r}); import jensenchain.cli"
READY_CODE = IMPORT_CODE + "; print('ready', flush=True)"


# ---------------------------------------------------------------------------
# set-up measurements (fresh interpreters, one at a time)


def launch_until_ready():
    """Seconds from launching a fresh interpreter until jensenchain.cli is imported."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", READY_CODE], cwd=ROOT, env=CHILD_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"import of jensenchain.cli failed (exit {proc.returncode})")
    return elapsed


def import_times():
    """(numpy cumulative ms, jensenchain self ms) from one `python -X importtime` launch."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CODE], cwd=ROOT,
                          env=CHILD_ENV, capture_output=True, text=True, check=True)
    numpy_us = 0
    own_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the header line
        name = fields[2].strip()
        if name == "numpy":
            numpy_us = int(fields[1])
        if name == "jensenchain" or name.startswith("jensenchain."):
            own_us += int(fields[0])
    return numpy_us / 1000.0, own_us / 1000.0


class SpeedReference:
    """A fixed slice of Python, JSON and numpy work, timed between operations.

    The host's speed drifts by tens of percent over seconds to minutes.
    The reference runs interleaved with the ops, so it sees the same drift,
    and serves as a control variate: every raw time of a pass is multiplied
    by (REF_MS / median reference time of that pass) ** ELASTICITY.  The
    reference is the benchmark's own code, so a change to the program
    cannot move it, and two programs measured at the same machine speed are
    scaled alike whatever ELASTICITY is; the constant only sets how much of
    the drift is taken out.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.text = json.dumps({"grid": rng.random((24, 24)).tolist(), "tag": "reference"})
        self.small = rng.random(24) + 0.5
        self.big = rng.random((120, 120))
        self.times = []

    def _body(self):
        np.asarray(json.loads(self.text)["grid"]).sum()
        for _ in range(30):
            float(np.log(self.small * 1.5) @ self.small)
        np.sqrt(self.big * self.big + 1.0).sum()
        words = {}
        for k in range(600):
            words[f"k{k % 50}"] = words.get(f"k{k % 50}", 0.0) + k * 0.5

    def sample(self):
        # the untimed first run refills the caches the preceding op evicted, so the
        # timed run does not depend on how much memory the program touched
        self._body()
        start = time.perf_counter()
        self._body()
        self.times.append(time.perf_counter() - start)

    def factor(self, since):
        """Scale for raw times measured while the samples from index `since` on were taken."""
        return (REF_MS / 1000.0 / statistics.median(self.times[since:])) ** ELASTICITY


# ---------------------------------------------------------------------------
# operations


def load_program():
    if not (SRC / "jensenchain" / "cli.py").is_file():
        sys.exit(f"perfbench: no jensenchain sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jensenchain.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported {cli.__file__}, not the sources under {SRC}")
    return cli


def run_op(cli, argv):
    """(exit code, stdout, stderr, seconds) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed op, never an aborted run
            traceback.print_exc(file=err)
            code = "crash"
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def digest(op, code, out, workdir):
    # stderr is left out: Python prints a RuntimeWarning only the first time it fires
    h = hashlib.sha256(f"{code}\0{out}\0".encode())
    if "out" in op["expect"]:
        path = workdir / op["expect"]["out"]
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def clear_outputs(op, workdir):
    if "out" in op["expect"]:
        (workdir / op["expect"]["out"]).unlink(missing_ok=True)


def warm_up(cli, ops, workdir):
    """Run every op once, untimed, with the full output check; returns per-op (problems, digest)."""
    results = []
    for op in ops:
        clear_outputs(op, workdir)
        code, out, err, _ = run_op(cli, op["argv"])
        problems = check.check(op, code, out, err, str(workdir))
        results.append((problems, digest(op, code, out, workdir)))
    return results


@dataclasses.dataclass
class Phase:
    latencies: list = dataclasses.field(default_factory=list)  # raw seconds per op
    scaled: list = dataclasses.field(default_factory=list)     # at reference speed
    wall: float = 0.0
    scaled_wall: float = 0.0
    failed: int = 0
    pass_walls: list = dataclasses.field(default_factory=list)  # (raw seconds, factor)


def timed_phase(cli, ops, schedule, reference, workdir, speed, tracer=None, between=None):
    """Run each pass of the schedule, closed loop, with reference samples interleaved.

    An op passes when its output equals the checked warm-up output of the
    same op.  between(i, factor), if given, runs after pass i with the
    clock stopped; factor scales that pass's raw times to reference speed.
    """
    phase = Phase()
    gc.collect()
    for i, sequence in enumerate(schedule):
        first_sample = len(speed.times)
        raw = []
        wall = 0.0
        since_sample = 0.0
        for k in sequence:
            start = time.perf_counter()
            op = ops[k]
            clear_outputs(op, workdir)
            if tracer is not None:
                tracer.enter(spans.ROOT_LAYER)
            code, out, _, seconds = run_op(cli, op["argv"])
            if tracer is not None:
                tracer.exit()
                tracer.end_op()
            raw.append(seconds)
            problems, ref = reference[k]
            if problems or digest(op, code, out, workdir) != ref:
                phase.failed += 1
            elapsed = time.perf_counter() - start
            wall += elapsed
            since_sample += elapsed
            if since_sample >= REF_EVERY_S:
                speed.sample()
                since_sample = 0.0
        speed.sample()
        factor = speed.factor(first_sample)
        phase.latencies.extend(raw)
        phase.scaled.extend(t * factor for t in raw)
        phase.wall += wall
        phase.scaled_wall += wall * factor
        phase.pass_walls.append((round(wall, 5), round(factor, 5)))
        if between is not None:
            between(i, factor)
    return phase


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description="jensenchain benchmark")
    ap.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = load_program()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(cli, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def measure(cli, args, workdir):
    phases = {}
    clock = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "corpus.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--out", str(workdir)], check=True)
    manifest = json.loads((workdir / "manifest.json").read_text())
    ops = manifest["ops"]
    for op in ops:
        op["argv"] = [a.replace("{dir}", str(workdir)) for a in op["argv"]]

    passes = max(1, round(args.seconds * NOMINAL_RATE[args.workload] / len(ops)))
    if args.trace:
        passes = max(1, passes // 2)  # an untraced and a traced phase share the run time
    rng = np.random.default_rng([args.seed, 7])
    schedule = [rng.permutation(len(ops)).tolist() for _ in range(passes)]

    # set-up launches are spread between the passes, so they sample the same
    # stretch of machine speed as the timed ops instead of one moment of it
    setup, setup_scaled = [], []
    launches_after = collections.Counter(
        int((j + 0.5) * passes / SETUP_LAUNCHES) for j in range(SETUP_LAUNCHES))

    def launch_setups(i, factor):
        for _ in range(launches_after[i]):
            setup.append(launch_until_ready())
            setup_scaled.append(setup[-1] * factor)

    speed = SpeedReference()
    for _ in range(20):
        speed.sample()
    probe_before = 1000.0 * statistics.median(speed.times)
    phases["corpus"], clock = time.perf_counter() - clock, time.perf_counter()
    reference = warm_up(cli, ops, workdir)
    phases["warm_up"], clock = time.perf_counter() - clock, time.perf_counter()
    untraced = timed_phase(cli, ops, schedule, reference, workdir, speed,
                           between=None if args.trace else launch_setups)
    phases["timed"] = time.perf_counter() - clock
    attempted, failed = len(untraced.latencies), untraced.failed
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "pool_ops": len(ops), "passes": passes,
        "timed_ops": attempted, "timed_wall_s": round(untraced.wall, 3),
        "pass_walls": untraced.pass_walls,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "warmup_problems": {ops[k]["label"] + f"#{k}": p
                            for k, (p, _) in enumerate(reference) if p},
    }

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = timed_phase(cli, ops, schedule, reference, workdir, speed, tracer)
        finally:
            tracer.uninstall()
        attempted += len(traced.latencies)
        failed += traced.failed
        metrics = tracer.metrics()
        imports = [import_times() for _ in range(IMPORTTIME_LAUNCHES)]
        metrics["setup.import_numpy_ms"] = statistics.median(t[0] for t in imports)
        metrics["setup.import_jensenchain_ms"] = statistics.median(t[1] for t in imports)
        metrics["trace.overhead"] = traced.scaled_wall / untraced.scaled_wall
        units = {"self_ms": "ms", "kb": "KiB", "overhead": "ratio"}
        metrics = {k: {"value": v, "unit": units.get(k.rpartition(".")[2],
                                                       "ms" if k.endswith("_ms") else "count")}
                   for k, v in metrics.items()}
        diagnostics["missing_targets"] = tracer.missing_targets
        diagnostics["missing_layers"] = tracer.missing_layers
        diagnostics["traced_wall_s"] = round(traced.wall, 3)
    else:
        scaled = untraced.scaled
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "ops_per_s": {"value": len(scaled) / untraced.scaled_wall, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(scaled) * 1000.0, "unit": "ms"},
            "op_p90_ms": {"value": quantile(scaled, 90) * 1000.0, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        lat = untraced.latencies
        diagnostics["raw"] = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(lat) / untraced.wall,
            "op_p50_ms": statistics.median(lat) * 1000.0,
            "op_p90_ms": quantile(lat, 90) * 1000.0,
        }
    diagnostics["phase_s"] = {k: round(v, 3) for k, v in phases.items()}
    diagnostics["fail_ratio"] = failed / attempted
    diagnostics["reference_ms"] = {
        "before": round(probe_before, 4),
        "median": round(1000.0 * statistics.median(speed.times), 4),
        "samples": len(speed.times),
    }
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
