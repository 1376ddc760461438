#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, over seeds or repeats.

    python3 perfbench/spread.py --workload crep_dense --seeds 1-10
    python3 perfbench/spread.py --workload crep_dense --seeds 1 --repeat 10

Runs perfbench/run.py (untraced, BENCHMARK.json's run_seconds) once per seed,
each seed --repeat times, and prints, per metric, the median, the quartiles
and the interquartile range as a share of the median, next to the metric's
bound in BENCHMARK.json. Over seeds 1-10 the runs see different inputs; with
one seed repeated they are the same code on the same inputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in args.seeds:
        for _ in range(args.repeat):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 args.workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"], cwd=ROOT,
                capture_output=True, text=True, check=False)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print("seed %d: incorrect result" % seed)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("seed %d: %s" % (seed, " ".join(
                "%s=%.5g" % (k, m["value"])
                for k, m in result["metrics"].items())), flush=True)

    print("%-16s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                            "iqr/med", "bound"))
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
        print("%-16s %12.6g %12.6g %12.6g %8.4f %6.2f" % (
            name, med, q1, q3, (q3 - q1) / med if med else 0.0,
            bounds.get(name, 0.0)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
