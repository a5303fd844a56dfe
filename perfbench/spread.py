#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs each workload (all of BENCHMARK.json's, or those named) once per
seed and prints, per metric, the median over the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound, then the values seed by
seed.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]
"""
import argparse
import json
import statistics
import subprocess


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    for name in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print("  seed %d: NOT CORRECT" % seed)
            for m in values:
                values[m].append(result["metrics"][m]["value"])
        print(name)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            flag = "" if spread < m["bound"] / 3 else (" > bound/3" if spread <= m["bound"] else " > BOUND")
            print("  %-14s median %-12.6g IQR/median %.4f  bound %.2f%s"
                  % (m["name"], statistics.median(v), spread, m["bound"], flag))
            print("    " + " ".join("%.4g" % x for x in v), flush=True)


if __name__ == "__main__":
    main()
