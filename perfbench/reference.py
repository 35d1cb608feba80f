#!/usr/bin/env python3
"""Reference figures for perfbench/README.md: untraced runs of each workload
on distinct seeds (median, quartiles and quartile spread per end-to-end
metric), one traced run per workload, and a LAGFLOW_THREADS=1 baseline of
solve-n64.  Runs one benchmark process at a time.  From the repository root:

    python3 perfbench/reference.py --runs 10 --seconds 10 > reference.md
    python3 perfbench/reference.py --runs 10 --seconds 10 --first-seed 11   # a second set
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

RUN_PY = str(Path(__file__).resolve().parent / "run.py")


def bench(workload: str, seed: int, seconds: int, trace: int, threads=None):
    cmd = [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread_row(name: str, values: list, unit: str) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"| {name} | {statistics.median(values):.4g} {unit} | {q1:.4g} | {q3:.4g} "
            f"| {(q3 - q1) / statistics.median(values):.2%} |")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for wl in run.WORKLOADS:
        results = [bench(wl, s, args.seconds, 0)[0] for s in seeds]
        print(f"\n### {wl}: {args.runs} untraced runs, seeds {seeds[0]}..{seeds[-1]}\n")
        print(f"operations per run: {sorted({r['attempted'] for r in results})}, "
              f"failed: {sum(r['failed'] for r in results)}, "
              f"all correct: {all(r['correct'] for r in results)}\n")
        print("| metric | median | q1 | q3 | (q3-q1)/median |\n|---|---|---|---|---|")
        for name, m in results[0]["metrics"].items():
            print(spread_row(name, [r["metrics"][name]["value"] for r in results], m["unit"]))
        _, report = bench(wl, seeds[0], args.seconds, 1)
        print(f"\ntraced run, seed {seeds[0]}:\n\n```")
        print("\n".join(report))
        print("```")
    one = [bench("solve-n64", s, args.seconds, 0, threads=1)[0] for s in seeds[:3]]
    print("\n### solve-n64 with LAGFLOW_THREADS=1, 3 runs\n")
    print("| metric | median | q1 | q3 | (q3-q1)/median |\n|---|---|---|---|---|")
    for name, m in one[0]["metrics"].items():
        print(spread_row(name, [r["metrics"][name]["value"] for r in one], m["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
