#!/usr/bin/env python3
"""Steadiness check: run the benchmark over several seeds and report spreads.

    python3 perfbench/steady.py --seeds 1-10 --held-out 90017 [--workloads a,b]

For each workload and end-to-end metric this prints the median over the
seeds, the spread (distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, as a share of the median)
next to a third of the metric's bound from ``BENCHMARK.json``, and the
held-out seed's value in its own row as a share of that median.  The
held-out seed must be one not used while tuning the benchmark.  Runs go one
after another, never in parallel, so they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--held-out", type=int, default=None)
    p.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    steady = True
    for workload in args.workloads.split(","):
        started = time.monotonic()
        runs = [run_once(workload, seed, args.seconds) for seed in seeds]
        wall = (time.monotonic() - started) / len(seeds)
        held = run_once(workload, args.held_out, args.seconds) if args.held_out is not None else None
        print(f"\n{workload}: seeds {args.seeds}, {args.seconds} s measured per run, {wall:.1f} s wall per run")
        print(f"  {'metric':16} {'median':>12} {'spread':>8} {'bound/3':>8}  values")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            s = spread(values)
            gated = name != "setup_s"
            mark = "" if not gated or s <= bound / 3 else "  <-- above a third of the bound"
            steady &= not mark
            shown = " ".join(f"{v:.4g}" for v in values)
            print(f"  {name:16} {statistics.median(values):12.5g} {s:8.3f} {bound / 3:8.3f}  {shown}{mark}")
        if held is not None:
            print(f"  held-out seed {args.held_out}: " + ", ".join(
                f"{name} {held[name]:.5g} ({held[name] / statistics.median([r[name] for r in runs]):.3f}x median)"
                for name in bounds))
    print("\nall spreads within a third of their bounds" if steady else "\nsome spreads are too wide")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
