#!/usr/bin/env python3
"""Build the simulator benchmark from source, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload finepack-pr16 --seed 1 \
        --seconds 20 --trace 0

Every argument goes to the perfbench binary unchanged (see README.md in
this directory). The build lives in .bench_build/perfbench and is
incremental, so only the first run compiles the simulator. Build output
goes to .bench_build/perfbench.log; the binary's standard output is this
script's standard output, and its exit code is this script's exit code.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
LOG = ROOT / ".bench_build" / "perfbench.log"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    with open(LOG, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(f"build failed: {' '.join(step)} (see {LOG})")


def main():
    build()
    args = [str(BUILD / "perfbench")] + sys.argv[1:]
    sys.stdout.flush()
    sys.exit(subprocess.run(args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
