#!/usr/bin/env python3
"""Run-to-run spread of the Fig-1 benchmark's metrics.

    python3 perfbench/spread.py --workload fig1-orig --seeds 1-10 [--trace 1]

Runs perfbench/run.py once per seed, for BENCHMARK.json's run_seconds, and
prints, for every metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the quartile distance as a share of
the median. Also prints whether every run
was correct with zero failed operations. Raw results are appended to
.bench_build/perfbench/spread.jsonl.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LOG = ROOT / ".bench_build" / "perfbench" / "spread.jsonl"
SECONDS = str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        LOG.parent.mkdir(parents=True, exist_ok=True)
        with LOG.open("a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "seconds": SECONDS, "trace": args.trace,
                                "result": result}) + "\n")

    ok = all(r["correct"] and r["failed"] == 0 for r in runs)
    print(f"{args.workload} trace={args.trace} seeds={args.seeds} "
          f"seconds={SECONDS}: {len(runs)} runs, "
          f"{'all correct' if ok else 'FAILURES'}, "
          f"attempted={sum(r['attempted'] for r in runs)} "
          f"failed={sum(r['failed'] for r in runs)}")
    print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'iqr/med':>8s}")
    for name in sorted(runs[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{100 * share:7.2f}%")


if __name__ == "__main__":
    main()
