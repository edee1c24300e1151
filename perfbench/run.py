#!/usr/bin/env python3
"""Build and run the end-to-end reactive-rule benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload market --seed 1 --seconds 10 --trace 0

The benchmark program is built from source with dune (build output goes
to stderr; dune's shared cache is off, so nothing is written outside the
checkout), then run with the given arguments plus the number of
processors available to this process, which it records.  Its standard
output -- notes, then one JSON result line -- is passed through.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of the source checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "-j", "2",
         "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    nproc = len(os.sched_getaffinity(0))
    sys.stdout.flush()
    run = subprocess.run([EXE] + sys.argv[1:] + ["--nproc", str(nproc)])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
