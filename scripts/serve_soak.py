#!/usr/bin/env python3
"""Soak gate for `wampde_cli serve`: drive one daemon process through a
scripted batch of mixed envelope/quasiperiodic jobs (plus protocol
garbage, a cancel, and optionally a seeded fault storm) and assert the
service contract:

  * the daemon exits 0 — a failing job is a response, never a crash;
  * every submitted job ends in exactly one terminal record: a
    `result` whose embedded manifest validates under
    `wampde_cli report --check`, or a typed `job-error`;
  * protocol garbage produces `error` responses and nothing else;
  * in the clean pass, the quasiperiodic job without a "solver" (the
    `auto` default) and its "dense" twin agree on omega_end within
    1e-8 relative, and neither refines its envelope warm-up's step
    (the `quasiperiodic.refinements` counter stays 0);
  * the `stats` request is answered with the grouped operational
    snapshot (cache / pool / health / serve);
  * every typed job-error (other than a cancellation) carries a
    `flight` path to a per-job flight dump, and that dump exists on
    disk — it is copied into --out for the CI artifact.

With --crash (requires --spool pointing at the daemon's spool
directory) the script instead runs the crash-recovery gate: it starts
the daemon, submits a batch, SIGKILLs the process the moment the first
checkpoint lands in the spool (checked on every response line and every
20 ms; a batch that finishes first fails at once), restarts the same
command on the same spool, and asserts that the restarted daemon
replays its journal, emits a `recovered` record for every unfinished
job, and that every job of the batch ends in exactly one terminal
record across both lives — a `report --check`-valid manifest or a
typed `job-error`.  On any violation the spool's journal is copied
into --out for the CI artifact.

Outputs land in --out: the raw response stream (responses.ndjson), the
daemon's stderr log (server.log), and one manifest-<id>.json per
completed job — CI uploads the directory as the debugging artifact.

Exit codes: 0 ok, 1 contract violation, 2 usage error.
Only the Python standard library is used.
"""

import argparse
import glob
import json
import os
import shlex
import shutil
import subprocess
import sys
import threading
import time

REQUESTS = [
    # repeated-circuit krylov batch: exercises the orbit cache and the
    # round-robin preemption path
    {"type": "job", "id": "env-a1", "circuit": "vco-a", "analysis": "envelope",
     "t_end": 6, "rtol": 1e-3, "n1": 15, "solver": "krylov"},
    {"type": "job", "id": "env-a2", "circuit": "vco-a", "analysis": "envelope",
     "t_end": 6, "rtol": 1e-3, "n1": 15, "solver": "krylov"},
    {"type": "job", "id": "env-a3", "circuit": "vco-a", "analysis": "envelope",
     "t_end": 6, "rtol": 1e-3, "n1": 15, "solver": "krylov"},
    # a second circuit and the dense path
    {"type": "job", "id": "env-b1", "circuit": "vco-b", "analysis": "envelope",
     "t_end": 20, "rtol": 1e-3, "n1": 15},
    # an atomic quasiperiodic job in the same session (no "solver":
    # auto, matrix-free at 427 unknowns) and its dense twin
    {"type": "job", "id": "quasi-a1", "circuit": "vco-a",
     "analysis": "quasiperiodic", "n1": 15, "n2": 7},
    {"type": "job", "id": "quasi-a1-dense", "circuit": "vco-a",
     "analysis": "quasiperiodic", "n1": 15, "n2": 7, "solver": "dense"},
    # protocol garbage between valid jobs: the daemon must answer with
    # typed errors and keep serving
    "{this is not json",
    "[1,2,3]",
    {"type": "job", "id": "bad n1", "circuit": "vco-a",
     "analysis": "envelope", "t_end": 1},
    # a queued job cancelled before it runs (last in the round-robin)
    {"type": "job", "id": "env-cancel", "circuit": "vco-a",
     "analysis": "envelope", "t_end": 6, "rtol": 1e-3, "n1": 15},
    {"type": "cancel", "id": "env-cancel"},
    {"type": "metrics"},
    {"type": "stats"},
    {"type": "shutdown", "drain": True},
]

SUBMITTED = [r["id"] for r in REQUESTS
             if isinstance(r, dict) and r.get("type") == "job"
             and r["id"] != "bad n1"]
GARBAGE_LINES = 3  # two malformed lines + the rejected "bad n1" job
# (default, dense) quasiperiodic twins whose omega_end must agree
QUASI_TWINS = ("quasi-a1", "quasi-a1-dense")
QUASI_RTOL = 1e-8


def fail(msg):
    print(f"serve_soak: FAIL: {msg}", file=sys.stderr)
    return 1


CRASH_JOBS = [
    {"type": "job", "id": "cr-1", "circuit": "vco-a", "analysis": "envelope",
     "t_end": 6, "rtol": 1e-3, "n1": 15, "solver": "krylov"},
    {"type": "job", "id": "cr-2", "circuit": "vco-a", "analysis": "envelope",
     "t_end": 6, "rtol": 1e-3, "n1": 15, "solver": "krylov"},
    {"type": "job", "id": "cr-3", "circuit": "vco-b", "analysis": "envelope",
     "t_end": 20, "rtol": 1e-3, "n1": 15},
]


def run_crash(args):
    if not args.spool:
        print("serve_soak: usage error: --crash requires --spool", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    shutil.rmtree(args.spool, ignore_errors=True)

    def upload_journal():
        j = os.path.join(args.spool, "journal.wj")
        if os.path.exists(j):
            dst = os.path.join(args.out, "journal.wj")
            shutil.copy(j, dst)
            print(f"serve_soak: journal uploaded to {dst}", file=sys.stderr)

    def crash_fail(msg):
        upload_journal()
        return fail(msg)

    # ---- life one: submit the batch, SIGKILL at the first checkpoint
    stdin_text = "\n".join(json.dumps(j) for j in CRASH_JOBS) + "\n"
    log1_path = os.path.join(args.out, "crash-server-1.log")
    lines1 = []
    with open(log1_path, "w") as log1:
        proc = subprocess.Popen(
            shlex.split(args.serve_cmd), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=log1, text=True)

        # The batch takes a few milliseconds, so the spool is checked on
        # every response line as well as on a timer.  A job's checkpoint
        # is written when it is preempted, before the next job's first
        # line, and stays until that job finishes, so the line-driven
        # check kills mid-batch on every run.
        killed = threading.Event()
        finished = threading.Event()  # every job's terminal record arrived
        pending = {j["id"] for j in CRASH_JOBS}
        kill_lock = threading.Lock()

        def kill_at_checkpoint():
            with kill_lock:
                if not killed.is_set() and glob.glob(os.path.join(args.spool, "*.ckpt")):
                    proc.kill()  # SIGKILL: no chance to journal a clean stop
                    killed.set()

        # reader thread: the daemon must never block on a full pipe
        def pump():
            for line in proc.stdout:
                lines1.append(line)
                kill_at_checkpoint()
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if rec.get("type") in ("result", "job-error"):
                    pending.discard(rec.get("id"))
                    if not pending:
                        finished.set()

        pump_thread = threading.Thread(target=pump, daemon=True)
        pump_thread.start()
        try:
            proc.stdin.write(stdin_text)
            proc.stdin.flush()
        except BrokenPipeError:
            return crash_fail("daemon died while the batch was being submitted")
        deadline = time.time() + args.timeout
        while time.time() < deadline and not killed.is_set():
            kill_at_checkpoint()
            if killed.is_set() or finished.is_set() or proc.poll() is not None:
                break
            time.sleep(0.02)
        if not killed.is_set():
            proc.kill()
            proc.wait(timeout=30)
            if finished.is_set():
                return crash_fail("the batch finished before any checkpoint was "
                                  "seen in the spool, so there was nothing to crash on")
            return crash_fail("no checkpoint ever appeared in the spool to crash on")
        proc.wait(timeout=30)
        pump_thread.join(timeout=10)
    with open(os.path.join(args.out, "crash-responses-1.ndjson"), "w") as f:
        f.writelines(lines1)
    print(f"serve_soak: SIGKILL delivered mid-batch "
          f"({len(lines1)} response lines before the crash)")

    records1 = []
    for line in lines1:
        try:
            records1.append(json.loads(line))
        except json.JSONDecodeError:
            pass  # the kill can tear the final line mid-write

    # ---- life two: same command, same spool; recovery finishes the batch
    restart_input = json.dumps({"type": "shutdown", "drain": True}) + "\n"
    log2_path = os.path.join(args.out, "crash-server-2.log")
    with open(log2_path, "w") as log2:
        try:
            proc2 = subprocess.run(
                shlex.split(args.serve_cmd), input=restart_input,
                stdout=subprocess.PIPE, stderr=log2, text=True,
                timeout=args.timeout)
        except subprocess.TimeoutExpired:
            return crash_fail(
                f"restarted daemon wedged: no exit within {args.timeout}s")
    with open(os.path.join(args.out, "crash-responses-2.ndjson"), "w") as f:
        f.write(proc2.stdout)
    if proc2.returncode != 0:
        return crash_fail(
            f"restarted daemon exited {proc2.returncode} (see {log2_path})")
    records2 = []
    for lineno, line in enumerate(proc2.stdout.splitlines(), 1):
        try:
            records2.append(json.loads(line))
        except json.JSONDecodeError as exc:
            return crash_fail(
                f"restart response line {lineno} is not JSON ({exc}): {line!r}")

    recovered = {r.get("id") for r in records2 if r.get("type") == "recovered"}
    for job in CRASH_JOBS:
        jid = job["id"]
        t1 = [r for r in records1
              if r.get("type") in ("result", "job-error") and r.get("id") == jid]
        t2 = [r for r in records2
              if r.get("type") in ("result", "job-error") and r.get("id") == jid]
        if len(t1) + len(t2) != 1:
            return crash_fail(f"{jid}: {len(t1)}+{len(t2)} terminal records "
                              "across crash and restart")
        if not t1 and jid not in recovered:
            return crash_fail(f"{jid}: unfinished at the crash but never recovered")
        term = (t1 + t2)[0]
        if term["type"] == "job-error":
            if not term.get("kind"):
                return crash_fail(f"{jid}: job-error without a typed kind")
            print(f"serve_soak: {jid}: job-error kind={term['kind']}")
        else:
            manifest_path = os.path.join(args.out, f"manifest-{jid}.json")
            with open(manifest_path, "w") as f:
                json.dump(term["manifest"], f)
            check = subprocess.run(
                shlex.split(args.check_cmd) + [manifest_path],
                capture_output=True, text=True)
            if check.returncode != 0:
                return crash_fail(f"{jid}: manifest invalid: "
                                  f"{check.stdout}{check.stderr}")
            where = "before the crash" if t1 else "after recovery"
            print(f"serve_soak: {jid}: result ok ({where}), manifest validated")
    if not recovered:
        return crash_fail("restart recovered nothing: the batch finished before "
                          "the kill, so the gate never exercised recovery")
    if not any(r.get("type") == "bye" for r in records2):
        return crash_fail("restarted daemon produced no bye record")
    print(f"serve_soak: crash recovery ok — {sorted(recovered)} "
          "resumed after SIGKILL")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--serve-cmd", required=True,
                    help="daemon command line, e.g. "
                         "'dune exec bin/wampde_cli.exe -- serve --quantum 4'")
    ap.add_argument("--check-cmd", required=True,
                    help="manifest validator command line; the manifest "
                         "path is appended, e.g. "
                         "'dune exec bin/wampde_cli.exe -- report --check'")
    ap.add_argument("--out", default="soak-out",
                    help="output directory for logs and manifests")
    ap.add_argument("--faults", default=None,
                    help="WAMPDE_FAULTS spec for a seeded storm "
                         "(relaxes the all-jobs-succeed assertion to "
                         "typed-termination only)")
    ap.add_argument("--timeout", type=float, default=600,
                    help="wall-clock bound on the daemon, seconds")
    ap.add_argument("--crash", action="store_true",
                    help="run the crash-recovery gate: SIGKILL the daemon "
                         "at the first checkpoint, restart it on the same "
                         "spool, assert journal recovery finishes the batch")
    ap.add_argument("--spool", default=None,
                    help="the daemon's spool directory (required with "
                         "--crash; must match the --spool in --serve-cmd)")
    args = ap.parse_args()

    if args.crash:
        return run_crash(args)

    os.makedirs(args.out, exist_ok=True)
    env = dict(os.environ)
    if args.faults:
        env["WAMPDE_FAULTS"] = args.faults

    stdin_text = "\n".join(
        r if isinstance(r, str) else json.dumps(r) for r in REQUESTS) + "\n"

    log_path = os.path.join(args.out, "server.log")
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(
                shlex.split(args.serve_cmd), input=stdin_text, env=env,
                stdout=subprocess.PIPE, stderr=log, text=True,
                timeout=args.timeout)
        except subprocess.TimeoutExpired:
            return fail(f"daemon wedged: no exit within {args.timeout}s")

    with open(os.path.join(args.out, "responses.ndjson"), "w") as f:
        f.write(proc.stdout)

    if proc.returncode != 0:
        return fail(f"daemon exited {proc.returncode} (see {log_path})")

    records = []
    for lineno, line in enumerate(proc.stdout.splitlines(), 1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            return fail(f"response line {lineno} is not JSON ({exc}): {line!r}")

    def of_type(t):
        return [r for r in records if r.get("type") == t]

    # exactly one terminal record per submitted job
    failures = 0
    kinds = set()
    omega_end = {}
    for job_id in SUBMITTED:
        terminals = [r for r in records
                     if r.get("type") in ("result", "job-error")
                     and r.get("id") == job_id]
        if len(terminals) != 1:
            return fail(f"{job_id}: {len(terminals)} terminal records")
        term = terminals[0]
        if term["type"] == "job-error":
            if not term.get("kind"):
                return fail(f"{job_id}: job-error without a typed kind")
            print(f"serve_soak: {job_id}: job-error kind={term['kind']}")
            if term["kind"] != "cancelled":
                failures += 1
                kinds.add(term["kind"])
                # every solver failure must leave a postmortem flight
                # dump next to the job in the spool
                flight = term.get("flight")
                if not flight:
                    return fail(f"{job_id}: job-error without a flight dump path")
                if not os.path.exists(flight):
                    return fail(f"{job_id}: flight dump {flight} does not exist")
                shutil.copy(flight, os.path.join(
                    args.out, f"flight-{job_id}.json"))
                print(f"serve_soak: {job_id}: flight dump captured ({flight})")
        else:
            omega_end[job_id] = term.get("omega_end")
            manifest_path = os.path.join(args.out, f"manifest-{job_id}.json")
            with open(manifest_path, "w") as f:
                json.dump(term["manifest"], f)
            check = subprocess.run(
                shlex.split(args.check_cmd) + [manifest_path],
                capture_output=True, text=True)
            if check.returncode != 0:
                return fail(f"{job_id}: manifest invalid: "
                            f"{check.stdout}{check.stderr}")
            print(f"serve_soak: {job_id}: result ok "
                  f"({term['quanta']} quanta, {term['preemptions']} "
                  f"preemptions), manifest validated")

    errors = of_type("error")
    if len(errors) < GARBAGE_LINES:
        return fail(f"expected >= {GARBAGE_LINES} protocol errors, "
                    f"got {len(errors)}")
    if not of_type("bye"):
        return fail("no bye record: the daemon did not shut down cleanly")

    cancel_terms = [r for r in records if r.get("id") == "env-cancel"
                    and r.get("type") == "job-error"]
    if not (cancel_terms and cancel_terms[0].get("kind") == "cancelled"):
        return fail("env-cancel did not terminate with kind=cancelled")

    stats_records = of_type("stats")
    if len(stats_records) != 1:
        return fail(f"expected exactly one stats record, got {len(stats_records)}")
    stats = stats_records[0]
    for group in ("cache", "pool", "health", "serve"):
        if not isinstance(stats.get(group), dict):
            return fail(f"stats record lacks the {group!r} group: {stats}")
    print(f"serve_soak: stats: serve={stats['serve']} "
          f"health.warnings={stats['health'].get('warnings')}")

    metrics_records = of_type("metrics")
    if not metrics_records:
        return fail("no metrics records")
    counters = metrics_records[-1].get("metrics", {}).get("counters", {})
    print(f"serve_soak: cache.orbit hits={counters.get('cache.orbit.hits', 0)}; "
          f"preemptions={counters.get('serve.preemptions', 0)}")

    if args.faults:
        print(f"serve_soak: fault storm: {failures}/{len(SUBMITTED)} jobs "
              f"ended in typed errors (kinds {sorted(kinds)}), "
              "rest in validated manifests")
    else:
        if failures:
            return fail(f"{failures} jobs failed without a fault storm armed")
        if counters.get("serve.preemptions", 0) <= 0:
            return fail("concurrent envelope jobs were never preempted")
        if counters.get("quasiperiodic.refinements", 0) > 0:
            return fail(f"{counters['quasiperiodic.refinements']} refinements of a "
                        "quasiperiodic job's envelope warm-up step")
        auto_w, dense_w = (omega_end.get(j) for j in QUASI_TWINS)
        if not (isinstance(auto_w, (int, float)) and isinstance(dense_w, (int, float))):
            return fail(f"quasiperiodic twins lack omega_end: {auto_w!r}, {dense_w!r}")
        if abs(auto_w - dense_w) > QUASI_RTOL * abs(dense_w):
            return fail(f"default-solver quasiperiodic omega_end {auto_w!r} differs "
                        f"from dense {dense_w!r} by more than {QUASI_RTOL:g} relative")
        print(f"serve_soak: quasiperiodic default vs dense omega_end: "
              f"{auto_w!r} vs {dense_w!r}")

    print("serve_soak: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
