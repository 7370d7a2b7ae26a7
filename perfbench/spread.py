"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 --first-seed 1 --out perfbench/out/spread.json

Runs each workload ``--runs`` times, one process at a time, each with its own
seed, for BENCHMARK.json's ``run_seconds``.  For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, (Q3 - Q1) / median, next to the metric's bound.  ``--out`` writes the
values with the machine description.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS, machine  # noqa: E402


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"machine": machine(), "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode or not result["correct"]:
                sys.stderr.write(proc.stdout + proc.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed=%d %s" % (workload, seed, " ".join(
                "%s=%.5g" % (name, values[name][-1]) for name in bounds)), flush=True)
        summary = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            summary[name] = {
                "values": series, "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": bounds[name],
            }
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print("  %-11s %-15s median %.5g  q1 %.5g  q3 %.5g  spread %.4f  bound %.2f%s" % (
                workload, name, median, q1, q3, spread, bounds[name],
                "" if spread < bounds[name] / 3 else "  (over a third of the bound)"), flush=True)
        report["workloads"][workload] = summary
    print("largest spread / bound, setup_s aside: %.3f" % worst)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
