"""Self-tests of the benchmark: corpora, coverage, output checker, spans.

    python3 -m pytest perfbench -q
"""

import json
import math
import re

import numpy as np
import pytest

import check
import corpus
import run
import spans

cli = run.load_program()


def _docs(pool):
    """(op, parsed document or None) for each op of a pool."""
    out = []
    for op in pool.ops:
        doc = None
        if op["argv"][0] in ("verify", "tighten"):
            text = pool.files[op["argv"][1].removeprefix("{dir}/")]
            try:
                doc = json.loads(text)
            except json.JSONDecodeError:
                doc = None
        out.append((op, doc))
    return out


def _size(doc):
    if "points" in doc:
        return len(doc["points"])
    return len(doc["weights"]["B"])


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_corpus(workload, tmp_path):
    corpus.write(workload, 5, tmp_path / "a")
    corpus.write(workload, 5, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    other = corpus.build(workload, 6)
    assert json.dumps(other.ops) != (tmp_path / "a" / "manifest.json").read_text()


def test_verify_small_covers_every_application_function_and_exit_class():
    docs = _docs(corpus.build("verify-small", 3))
    valid = [(op, d) for op, d in docs if op["expect"]["exit"] != 2]
    apps = {d.get("application", "jensen") for _, d in valid}
    assert apps == {"jensen", *corpus.SCALAR_APPS}
    assert {d["function"]["name"] for _, d in valid if d["application"] == "jensen"} == set(
        corpus.FUNCTIONS)
    assert {op["expect"]["exit"] for op, _ in docs} == {0, 1, 2}
    assert any("hadamard" in d for _, d in valid)
    assert all(2 <= _size(d) <= 24 for _, d in valid)
    mislabeled = sum(op["label"].startswith("mislabel") for op, _ in docs)
    malformed = sum(op["expect"]["exit"] == 2 for op, _ in docs)
    assert 0.08 <= mislabeled / len(docs) <= 0.12
    assert 0.04 <= malformed / len(docs) <= 0.06


def test_verify_large_covers_its_applications_and_families():
    docs = _docs(corpus.build("verify-large", 3))
    assert {d["application"] for _, d in docs} == {"jensen", "powersum", "matrixpower", "lp"}
    assert {d["function"]["name"] for _, d in docs if d["application"] == "jensen"} == set(
        corpus.LARGE_JENSEN)
    assert {op["label"].rsplit("-", 1)[1] for op, _ in docs} == {"hard", "flat"}
    assert all("omega1" in d["weights"] or "B" in d["weights"] for _, d in docs)
    assert {op["expect"]["exit"] for op, _ in docs} == {0}
    assert all(300 <= _size(d) <= 700 for _, d in docs)


def test_generate_tighten_covers_generators_and_tighten():
    pool = corpus.build("generate-tighten", 3)
    kinds = {op["expect"]["kind"] for op in pool.ops}
    assert kinds == {"ds", "weight", "tighten"}
    assert all("--out" in op["argv"] for op in pool.ops if op["expect"]["kind"] == "weight")
    tols = [op["expect"]["tol"] for op in pool.ops if op["expect"]["kind"] == "tighten"]
    assert all(1e-12 <= t <= 1e-8 for t in tols)
    assert all(50 <= op["expect"]["n"] <= 250 for op in pool.ops if "n" in op["expect"])
    tightened = {d["function"]["name"] for op, d in _docs(pool) if d is not None}
    assert tightened == set(corpus.FUNCTIONS)


# ---------------------------------------------------------------------------
# the output checker


def _run(op, workdir):
    argv = [a.replace("{dir}", str(workdir)) for a in op["argv"]]
    code, out, err, _ = run.run_op(cli, argv)
    return code, out, err


@pytest.fixture(scope="module")
def small_pool(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("small")
    return corpus.write("verify-small", 4, workdir), workdir


def test_checker_accepts_every_real_outcome(small_pool):
    pool, workdir = small_pool
    for op in pool.ops:
        code, out, err = _run(op, workdir)
        assert check.check(op, code, out, err, str(workdir)) == [], op["label"]


def _first(pool, label_prefix):
    return next(op for op in pool.ops if op["label"].startswith(label_prefix))


def test_checker_flags_corrupted_reports(small_pool):
    pool, workdir = small_pool
    op = _first(pool, "jensen-")
    code, out, err = _run(op, workdir)
    report = json.loads(out)
    assert code == 0 and check.check(op, code, out, err, str(workdir)) == []

    flipped = dict(report, **{"pass": False})
    assert check.check(op, code, json.dumps(flipped), err, str(workdir))

    perturbed = dict(report, lower=report["lower"] * (1.0 + 1e-6) + 1e-6)
    assert check.check(op, code, json.dumps(perturbed), err, str(workdir))

    for key, token in (("upper", "inf"), ("integral", "Infinity"), ("lower", "NaN")):
        corrupted = re.sub(rf'("{key}": )[^,\n]+', rf"\g<1>{token}", out, count=1)
        assert corrupted != out
        assert check.check(op, code, corrupted, err, str(workdir)), token

    assert check.check(op, 1, out, err, str(workdir))


def test_checker_flags_wrong_exit_classes(small_pool):
    pool, workdir = small_pool
    mislabeled = next(op for op in pool.ops if op["expect"]["exit"] == 1)
    code, out, err = _run(mislabeled, workdir)
    assert code == 1
    report = json.loads(out)
    assert check.check(mislabeled, 0, json.dumps(dict(report, **{"pass": True})), err, "")
    malformed = _first(pool, "malformed-")
    assert check.check(malformed, 0, "{}", "", "")
    assert check.check(malformed, 2, "{}", "error: x", "")


def test_checker_flags_bad_generated_grid_and_tighten(tmp_path):
    ds = {"argv": [], "expect": {"kind": "ds", "exit": 0, "n": 3}}
    good = np.full((3, 3), 1.0 / 3.0)
    assert check.check(ds, 0, json.dumps(good.tolist()), "", "") == []
    bad = good.copy()
    bad[0, 0] += 1e-8
    assert check.check(ds, 0, json.dumps(bad.tolist()), "", "")

    expect = {"kind": "tighten", "exit": 0, "convex": True, "tol": 1e-9, "phi_at_0": 2.0,
              "phi_at_1": 3.0, "lower": 1.0, "upper": 4.0}
    op = {"argv": [], "expect": expect}
    report = {"t_star": 0.2, "value": 1.5, "phi_at_0": 2.0, "phi_at_1": 3.0, "bracket_width": 1e-9}
    assert check.check(op, 0, json.dumps(report), "", "") == []
    assert check.check(op, 0, json.dumps(dict(report, value=2.5)), "", "")
    assert check.check(op, 0, json.dumps(dict(report, phi_at_1=3.1)), "", "")


# ---------------------------------------------------------------------------
# spans


def test_self_time_subtracts_children_and_counts_layer_entries():
    spans_ = [
        ("cli.main", 0, 100, None),
        ("means", 10, 40, 0),
        ("means", 15, 25, 1),      # nested in the same layer: not a new entry
        ("functions.evaluate", 50, 60, 0),
        ("means", 52, 55, 3),      # entered again from another layer
    ]
    self_ns, entries = spans.self_times(spans_)
    assert self_ns == {"cli.main": 60, "means": 33, "functions.evaluate": 7}
    assert entries == {"cli.main": 1, "means": 2, "functions.evaluate": 1}


def test_tracer_wraps_every_import_site_and_restores_them():
    import jensenchain.apps as apps
    import jensenchain.means as means
    import jensenchain.numerics as numerics
    import jensenchain.refine as refine

    original = numerics.adaptive_simpson
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (numerics, refine, apps, means):
            assert module.adaptive_simpson is not original
            assert module.adaptive_simpson.__wrapped__ is original
        assert apps.phi_integral_quad.__wrapped__ is refine.phi_integral_quad.__wrapped__
        tracer.enter(spans.ROOT_LAYER)
        value = means.integral_mean(apps.get_function("square"), 0.0, 1.0)
        tracer.exit()
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert math.isclose(value, 1.0 / 3.0)
    assert tracer.missing_targets == [] and tracer.missing_layers == []
    metrics = tracer.metrics()
    assert metrics["means.calls"] == 1 and metrics["functions.evaluate.calls"] == 1
    for module in (numerics, refine, apps, means):
        assert module.adaptive_simpson is original


def test_tracer_reports_a_missing_target_instead_of_crashing(monkeypatch):
    monkeypatch.setitem(spans.LAYERS, "refine.closed", ["refine:no_longer_here"])
    monkeypatch.setitem(spans.LAYERS, "means", ["means:gone", "means:log_mean"])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert sorted(tracer.missing_targets) == ["means:gone", "refine:no_longer_here"]
    assert tracer.missing_layers == ["refine.closed"]
    metrics = tracer.metrics()
    assert "refine.closed.self_ms" not in metrics and "means.calls" in metrics
