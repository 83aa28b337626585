#!/usr/bin/env python3
"""Build and run the Fig-1 benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace 0|1

Run from the root of a checkout. Builds perfbench/ (which compiles the
program's sources from src/) into .bench_build/perfbench, then runs the
fig1bench driver with the same arguments. Build output goes to stderr, so the
last line of stdout is the driver's result object. Exits non-zero, printing
no result, when the build or the run fails.
"""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "fig1bench"


def build():
    """Configure (once) and build the driver; True on success."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "fig1bench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return BINARY.exists()


def main(argv):
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    # Replace this process, so whoever stops run.py stops the driver. The
    # driver writes its spans and traces under .bench_build/ of the cwd.
    os.chdir(ROOT)
    os.execv(BINARY, [str(BINARY)] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
