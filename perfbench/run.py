#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/perfbench.exe from source
with dune (inside the checkout only: the dune cache is off), then runs it
with the same arguments.  The benchmark's report goes to standard output;
its last line is one JSON object.  Build output goes to standard error.
Exits non-zero, printing no result, when the build fails or the run does
not finish within RUN_TIMEOUT seconds.  See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join(ROOT, "perfbench", "out")
RUN_TIMEOUT = 170


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix and os.path.exists(os.path.join(prefix, "bin", "dune")):
        return os.path.join(prefix, "bin", "dune")
    return None


def main():
    dune = find_dune()
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "-j", "2", "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([EXE, *sys.argv[1:], "--out", OUT], cwd=ROOT, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
