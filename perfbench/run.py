#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload vcob-speedup --seed 1 --seconds 8 --trace 0

Builds perfbench/perfbench.exe with dune (output goes to stderr), then
replaces this process with it, passing every argument through.  The
last line of standard output is the JSON result.  See
perfbench/README.md for the workloads and metrics.
"""
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project and lib/ are missing here")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/perfbench.exe"], stdout=sys.stderr
    )
    if build.returncode != 0:
        fail("build failed")
    no_aslr()
    os.execv(EXE, [EXE] + sys.argv[1:])


def no_aslr():
    """Turn address-space randomization off for the benchmark process
    (the setting survives exec): timings then do not move with where
    the heap and stacks happen to land.  Best effort."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        addr_no_randomize = 0x0040000
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | addr_no_randomize)
    except (OSError, AttributeError):
        pass


if __name__ == "__main__":
    main()
