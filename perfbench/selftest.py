#!/usr/bin/env python3
"""Self-test of the Fig-1 benchmark at smoke problem sizes.

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * an untraced run emits exactly the end_to_end metrics, with their units;
  * a traced run emits exactly the per_layer metrics, with their units;
  * both runs are correct, with zero failed operations.
Then checks that a deliberately wrong reference checksum counts as exactly
one failed operation (not a crash), and that a pinned OMSP_* variable in the
environment makes the driver refuse to run without printing a result.
Exits 0 when every check passes.
"""
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run(workload, trace, extra=(), env=None):
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def main():
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res = run(name, trace)
            expect(code == 0 and res is not None, f"{name} trace={trace} runs")
            if res is None:
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace} result keys")
            expect(res["correct"] and res["failed"] == 0 and
                   res["attempted"] >= 1,
                   f"{name} trace={trace} correct, "
                   f"{res['attempted']} attempted, {res['failed']} failed")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{name} trace={trace} emits every {key} "
                   f"metric with its unit")

    code, res = run("fig1-mpi", 0, ["--corrupt-check", "SOR"])
    expect(res is not None and res["failed"] == 1 and not res["correct"],
           "a wrong reference checksum is one failed operation")

    env = dict(os.environ, OMSP_OVERLAP="1")
    code, res = run("fig1-thread", 0, env=env)
    expect(code != 0 and res is None, "a set OMSP_* variable is refused")

    print("selftest:", "PASS" if not failures else
          f"{len(failures)} check(s) failed")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
