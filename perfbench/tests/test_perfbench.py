"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

They check the tracer's wrapping and counts, the expected answers (the
cohomology dimensions against sympy's exact rank) and the failure paths.
"""

import json
import os
import shutil
import subprocess
import sys
from random import Random
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from calibrate import SpeedTrack  # noqa: E402
from tracer import Tracer, engine_modules, _namespaces  # noqa: E402
from workloads import EXPECTED, Cohomology, workloads  # noqa: E402


@pytest.fixture(scope="module")
def nc():
    return run.engine()


def _run_bench(*argv, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + list(argv),
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    return proc


def _bindings():
    """(owner, attribute, value) for every module and class attribute of the engine."""
    out = []
    for owner in _namespaces(engine_modules()):
        for attr, value in vars(owner).items():
            out.append((owner, attr, value))
    return out


def test_apply_delta_twice_counts_two_calls(nc):
    sl2 = run.build(nc, workloads(ROOT)["cohomology"])["sl2-adjoint"]
    f = nc.cohomology.random_cochain(sl2, 1, Random(0), max_degree=1)
    with Tracer() as tracer:
        assert nc.cohomology.apply_delta(nc.cohomology.apply_delta(f)).is_zero()
    assert tracer.metrics(1.0)["cohomology.apply_delta_calls"] == (2, "count")
    assert tracer.poly_calls["mul"] > 0


def test_every_binding_is_wrapped_and_restored(nc):
    before = {(id(owner), attr): value for owner, attr, value in _bindings()}
    tracer = Tracer().install()
    try:
        originals = {id(fn) for fn in tracer.wrapped}
        assert nc.cohomology.apply_delta in tracer.wrapped.values()
        for owner, attr, value in _bindings():
            assert id(value) not in originals, "%s.%s left unwrapped" % (owner.__name__, attr)
        # names bound by `from .x import f` in other modules
        assert nc.cli.apply_delta is nc.cohomology.apply_delta
        assert nc.deformation.apply_dN is nc.cohomology.apply_dN
        assert nc.homotopy.eval_cochain is nc.cohomology.eval_cochain
        assert nc.wells.solve is nc.linalg.solve
        assert nc.wells.poly_unimodular_inverse is nc.linalg.poly_unimodular_inverse
        assert nc.extension.act_form is nc.cohomology.act_form
        poly = nc.poly.Poly
        assert vars(poly)["__radd__"] is not before[(id(poly), "__radd__")]
    finally:
        tracer.uninstall()
    after = {(id(owner), attr): value for owner, attr, value in _bindings()}
    assert after == before


def test_identities_never_call_linalg(nc):
    workload = workloads(ROOT)["identities"]
    tally = run.Tally()
    tracer, _ = run.traced_pass(workload, nc, workload.tasks(1), tally)
    assert tally.failed == 0
    metrics = tracer.metrics(1.0)
    linalg = {k: v for k, (v, _) in metrics.items() if k.startswith("linalg.") and k.endswith("_calls")}
    assert linalg and all(v == 0 for v in linalg.values()), linalg
    assert metrics["cohomology.apply_delta_calls"][0] > 0


def test_check_nonesuch_exits_two(nc):
    verbs = workloads(ROOT)["verbs"]
    task = next(t for t in verbs.tasks(1) if t["argv"][-1] == "nonesuch")
    code, stdout = verbs.run(nc, None, task)
    assert code == 2
    assert "status: error" in stdout.splitlines()
    assert verbs.check(task, (code, stdout), {}) is None


def test_wrong_answers_count_as_failures(nc):
    verbs = workloads(ROOT)["verbs"]
    task = dict(next(t for t in verbs.tasks(1) if t["argv"][-1] == "nonesuch"), exit=0)
    tally = run.Tally()
    tally.run(verbs, nc, None, task)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert Cohomology().check({"name": "sl2-line-d2-b6"}, [30, 4, 4, 0], {}) is not None


def test_traced_counts_repeat_exactly():
    results = []
    for _ in range(2):
        proc = _run_bench("--workload", "verbs", "--seed", "3", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    first, second = (r["metrics"] for r in results)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert set(first) == {m["name"] for m in json.load(handle)["per_layer"]}
    exact = [n for n in first if n.endswith(("_calls", "_cells", "_frac")) and not n.startswith("trace.")]
    assert len(exact) > 20
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_bench("--workload", "verbs", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_calibration_excludes_probe_time():
    with SpeedTrack() as track:
        start = perf_counter()
        while perf_counter() - start < 0.3:
            pass
        end = perf_counter()
    assert len(track.durations) >= 5
    assert 0 < track.raw(start, end) < end - start
    assert track.calibrated(start, end) > 0


def _flatten(cochain, index):
    vec = {}
    for key, value in cochain.values.items():
        for c, poly in enumerate(value.coords):
            for mono, coeff in poly.terms.items():
                vec[index.setdefault((key, c, mono), len(index))] = coeff
    return vec


def _rank(vectors, rows=None):
    """Exact rank over Q of the columns ``vectors`` (restricted to ``rows``)."""
    from sympy import Matrix, Rational

    rows = sorted({i for v in vectors for i in v}) if rows is None else rows
    if not rows or not vectors:
        return 0
    m = Matrix(len(rows), len(vectors), lambda i, j: Rational(vectors[j].get(rows[i], 0)))
    return m.to_DM().rank()


@pytest.mark.parametrize("name", sorted(EXPECTED["cohomology"]))
def test_cohomology_answers_match_sympy_rank(nc, name):
    pytest.importorskip("sympy")
    coeffs, degree, bound = Cohomology.SLICES[name]
    rep = run.build(nc, Cohomology())[coeffs]
    co = nc.cohomology
    basis = co.cochain_space(rep, degree, bound)
    index = {}
    assert _rank([_flatten(f, index) for f in basis]) == len(basis)
    index = {}
    images = [_flatten(co.apply_delta(f), index) for f in basis]
    cocycle = len(basis) - _rank(images)
    # coboundaries: images of the degree-(n-1) slice at bound + structure
    # degree that stay inside the bounded slice, as solve_truncated defines them
    structure = max(
        [1]
        + [p.total_degree() for t in (rep.algebra.table, rep.action) for v in t.entries.values() for p in v]
    )
    lower = co.cochain_space(rep, degree - 1, bound + structure)
    index = {}
    vecs = [_flatten(co.apply_delta(g), index) for g in lower]
    high = [i for (key, c, mono), i in index.items() if sum(mono) > bound]
    coboundary = _rank(vecs) - _rank(vecs, high)
    assert [len(basis), cocycle, coboundary, cocycle - coboundary] == EXPECTED["cohomology"][name]
