"""nijconf benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload identities --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root.  ``--workload all`` runs every workload in a
fresh process of its own, one after another, and prints them together.

A run sets the engine up ``SETUP_REPEATS`` times (after one warm-up), then
runs the workload's fixed task list in a closed loop, pass after pass, until
``--seconds`` have passed; the first pass always completes.  Each task's
outcome is checked against its known answer.  With ``--trace 1`` one more
pass runs with every engine layer wrapped (see tracer.py) and the per-layer
metrics are printed instead of the end-to-end ones.

All times are calibrated to a fixed reference speed (see calibrate.py).  The
last line of standard output is the JSON result; the exit code is 0 only if
every task was right.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import types
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from calibrate import REFERENCE_PROBE_S, SpeedTrack  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import fixture_paths, workloads  # noqa: E402

WORKLOADS = ("identities", "cohomology", "verbs")
SETUP_REPEATS = 7


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
    }


def commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def engine():
    """The engine's modules, imported if they are not yet."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.import_module("nijconf")
    importlib.import_module("nijconf.cli")
    return types.SimpleNamespace(
        **{layer: sys.modules["nijconf." + layer] for layer in LAYERS}
    )


def fresh_engine():
    """Import nijconf afresh, as a new process would."""
    for name in list(sys.modules):
        if name == "nijconf" or name.startswith("nijconf."):
            del sys.modules[name]
    return engine()


def build(nc, workload):
    """Parse the checked-in workspaces and build the workload's fixtures."""
    paths = fixture_paths(ROOT)
    return workload.build(nc, nc.cli.parse_workspace([paths["core"], paths["homotopy"]]))


def setup(workload):
    nc = fresh_engine()
    return nc, build(nc, workload)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.memo = {}

    def run(self, workload, nc, fixtures, task):
        """Run and check one task; return its (start, end) stamps."""
        self.attempted += 1
        start = perf_counter()
        try:
            outcome = workload.run(nc, fixtures, task)
        except Exception as exc:  # a raising task is a failed task
            end = perf_counter()
            error = "raised %s: %s" % (type(exc).__name__, exc)
        else:
            end = perf_counter()
            error = workload.check(task, outcome, self.memo)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append("%s: %s" % (task["name"], error))
        return start, end


def measure(workload, nc, fixtures, tasks, seconds, tally):
    """Closed loop over the task list until ``seconds`` pass; stamps per task."""
    stamps = [[] for _ in tasks]
    deadline = perf_counter() + seconds
    passes = 0
    while passes == 0 or perf_counter() < deadline:
        for index, task in enumerate(tasks):
            if passes and perf_counter() >= deadline:
                break
            stamps[index].append(tally.run(workload, nc, fixtures, task))
        passes += 1
    return stamps


def traced_pass(workload, nc, tasks, tally):
    """Set up and run every task once with all layers wrapped."""
    tracer = Tracer()
    stamps = []
    with tracer:
        fixtures = build(nc, workload)
        for index, task in enumerate(tasks, 1):
            tracer.task = index
            stamps.append(tally.run(workload, nc, fixtures, task))
    return tracer, stamps


def run_one(args):
    if not os.path.exists(os.path.join(SRC, "nijconf", "__init__.py")):
        sys.stderr.write("perfbench: no nijconf sources under %s\n" % SRC)
        return 2
    paths = fixture_paths(ROOT)
    missing = [path for path in paths.values() if not os.path.exists(path)]
    if missing:
        sys.stderr.write("perfbench: missing fixtures %s\n" % ", ".join(missing))
        return 2
    workload = workloads(ROOT)[args.workload]
    tasks = workload.tasks(args.seed)
    tally = Tally()
    info = machine()
    print("# perfbench workload=%s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("# machine: cpu=%s nproc=%s python=%s commit=%s" % (
        info["cpu"], info["nproc"], info["python"], info["commit"]))

    with SpeedTrack() as track:
        setup_stamps = []
        setup(workload)  # warm-up: byte-compilation and first-touch costs
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            nc, fixtures = setup(workload)
            setup_stamps.append((start, perf_counter()))
        stamps = measure(workload, nc, fixtures, tasks, args.seconds, tally)
        if args.trace:
            tracer, traced_stamps = traced_pass(workload, nc, tasks, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setup_s = statistics.median(track.calibrated(a, b) for a, b in setup_stamps)
    per_task = [statistics.median(track.calibrated(a, b) for a, b in s) for s in stamps]
    raw_per_task = [statistics.median(track.raw(a, b) for a, b in s) for s in stamps]
    samples = sum(len(s) for s in stamps)
    passes = min(len(s) for s in stamps)
    wall_s = sum(per_task)
    verdict_p50_ms = statistics.median(per_task) * 1000.0
    print("# calibration: %d probes, median %.4f ms, reference %.4f ms" % (
        len(track.durations), statistics.median(track.durations) * 1000.0,
        REFERENCE_PROBE_S * 1000.0))
    print("%s setup_s %.4f s (median of %d set-ups)" % (args.workload, setup_s, SETUP_REPEATS))
    print("%s wall_s %.4f s (sum of per-task medians, %d tasks, %d full passes; raw %.4f s)" % (
        args.workload, wall_s, len(tasks), passes, sum(raw_per_task)))
    print("%s verdict_p50_ms %.3f ms (median over %d tasks of per-task medians, %d samples)" % (
        args.workload, verdict_p50_ms, len(tasks), samples))
    print("%s peak_rss_mb %.2f MB" % (args.workload, peak_rss_mb))
    print("%s fail_frac %.4f (%d failed of %d attempted)" % (
        args.workload, tally.failed / tally.attempted, tally.failed, tally.attempted))
    for task, s, calibrated, raw in zip(tasks, stamps, per_task, raw_per_task):
        print("# task %s: %d samples, median %.4f s (raw %.4f s)" % (
            task["name"], len(s), calibrated, raw))
    for error in tally.errors:
        print("# FAILED %s" % error)

    if args.trace:
        window = traced_stamps[0][0], traced_stamps[-1][1]
        scale = REFERENCE_PROBE_S / track.probe_median(*window)
        traced_wall = sum(track.calibrated(a, b) for a, b in traced_stamps)
        metrics = tracer.metrics(scale)
        metrics["trace.overhead_frac"] = (traced_wall / wall_s - 1.0, "ratio")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, "spans-%s-seed%d.tsv" % (args.workload, args.seed))
        tracer.write_spans(spans_path)
        print("# traced pass: %d spans written to %s" % (len(tracer.spans), os.path.relpath(spans_path, ROOT)))
        for name, (value, unit) in metrics.items():
            print("%s %s %s %s" % (args.workload, name, _fmt(value), unit))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "verdict_p50_ms": (verdict_p50_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def _fmt(value):
    return "%d" % value if isinstance(value, int) else "%.6g" % value


def run_all(args):
    """Each workload in a fresh process, one at a time."""
    info = machine()
    print("# machine: cpu=%s nproc=%s python=%s commit=%s seed=%d" % (
        info["cpu"], info["nproc"], info["python"], info["commit"], args.seed))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            if not line.startswith("# machine"):
                print(line)
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = value
        code = max(code, proc.returncode)
    print(json.dumps(combined))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
