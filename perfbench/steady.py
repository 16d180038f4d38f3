#!/usr/bin/env python3
"""Steadiness self-check for the perfbench benchmark.

Runs one workload N times with seeds 1..N (or all with one seed under
--same-seed) through BENCHMARK.json's command, and prints every metric's
median, first and third quartile, and relative spread (q3 - q1) / median,
the quartiles taken as `statistics.quantiles(values, n=4)` gives them.
Every end-to-end spread, setup_s included, is compared against a third
of the metric's bound in BENCHMARK.json.

With --same-seed, also checks that the input digests and every count
metric repeat exactly from run to run.

Run from the repository root:

    python3 perfbench/steady.py --workload serve-mixed --runs 10
    python3 perfbench/steady.py --workload serve-cold --runs 3 --same-seed 7 --trace 1
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--same-seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    command = bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    run_digests = []
    failed_runs = 0
    for i in range(args.runs):
        seed = args.same_seed if args.same_seed is not None else i + 1
        cmd = command + ["--workload", args.workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"run {i} (seed {seed}) failed: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            failed_runs += 1
            continue
        result = json.loads(lines[-1])
        run_digests.append(tuple(re.findall(r"digest ([0-9a-f]{32})", out.stdout)))
        ok = result["correct"] and result["failed"] == 0
        failed_runs += not ok
        print(f"run {i} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    steady = True
    print(f"\n{args.workload}: {args.runs} runs, {seconds} s each, trace={args.trace}")
    print(f"{'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) >= 2 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and spread > bound / 3:
            mark = "  <-- above bound/3"
            steady = False
        print(f"{name:<24} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6}{mark}")

    if args.same_seed is not None:
        counts = {n: set(v) for n, v in values.items() if units[n] == "count"}
        moved = [n for n, s in counts.items() if len(s) > 1]
        digests_agree = len(set(run_digests)) == 1
        print(f"\nsame seed {args.same_seed}: {len(counts)} count metrics, "
              f"{len(moved)} moved {moved}; input and output digests "
              f"{'identical' if digests_agree else 'DIFFER'} across runs")
        steady &= not moved and digests_agree

    if failed_runs:
        print(f"{failed_runs} run(s) failed or reported incorrect output", file=sys.stderr)
    return 0 if steady and not failed_runs else 1


if __name__ == "__main__":
    sys.exit(main())
