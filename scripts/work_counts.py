#!/usr/bin/env python3
"""Print the benchmark's machine-independent work counts.

Runs every BENCHMARK.json workload, plus vcoa-strong, through the
benchmark command at a fixed cut-down slice and seed (--seed 1
--seconds 1 --trace 1 --smoke), each in a fresh process, and prints
sorted JSON {workload: {metric: int}} holding every per-layer metric
whose unit is count or bytes.  Exits 1 when a run fails, is not
correct or reports failures.

Run from the repository root.  CI compares the output with the checked-in
copy:

    python3 scripts/work_counts.py > counts.json
    diff -u scripts/work_counts.json counts.json

A change that means to move a count regenerates the checked-in copy
with the same redirect, so the moved counts show in review.
"""
import json
import subprocess
import sys

EXTRA_WORKLOADS = ["vcoa-strong"]


def main():
    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS
    metrics = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
    counts = {}
    for name in names:
        cmd = spec["command"] + [
            "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "1", "--smoke",
        ]
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if run.returncode != 0:
            sys.exit("work_counts: %s: exit code %d: %s" % (name, run.returncode, run.stderr[-400:]))
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if result["correct"] is not True or result["failed"] != 0:
            sys.exit("work_counts: %s: not correct: %s" % (name, run.stdout[-800:]))
        got = result["metrics"]
        counts[name] = {}
        for metric in metrics:
            value = got[metric]["value"]
            if value != int(value):
                sys.exit("work_counts: %s: %s = %r is not a whole number" % (name, metric, value))
            counts[name][metric] = int(value)
    json.dump(counts, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
