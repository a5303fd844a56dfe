#!/usr/bin/env python3
"""Self-test of the benchmark: runs a cut-down (--smoke) version of
every workload in BENCHMARK.json, untraced and traced, each in a fresh
process, and checks that the result line has exactly the contract keys,
that the run is correct, and that every metric BENCHMARK.json names is
present with its unit (and no other).

    python3 perfbench/selftest.py
"""
import json
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    problems = []
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + [
                "--workload", workload["name"], "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke",
            ]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            where = "%s trace=%d" % (workload["name"], trace)
            if run.returncode != 0:
                problems.append("%s: exit code %d: %s" % (where, run.returncode, run.stderr[-400:]))
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(result)))
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: not correct: %s" % (where, run.stdout[-800:]))
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = result["metrics"]
            for name, unit in want.items():
                if name not in got:
                    problems.append("%s: metric %s missing" % (where, name))
                elif got[name].get("unit") != unit or not isinstance(got[name].get("value"), (int, float)):
                    problems.append("%s: metric %s is %s, want unit %s" % (where, name, got[name], unit))
            for name in set(got) - set(want):
                problems.append("%s: metric %s is not in BENCHMARK.json" % (where, name))
            print("ok" if not problems else "..", where, flush=True)
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
