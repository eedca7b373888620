#!/usr/bin/env python3
"""Closed-loop benchmark of xhomotopy: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every measurement runs in a fresh child
process (``worker.py``) with ``PYTHONHASHSEED`` pinned, ``XHOMOTOPY_BUDGET``
unset and the library imported from ``src/``; one op runs at a time.

``--trace 0`` spawns four set-up-only children and one timed child, and
prints the end-to-end metrics: set-up time (median of the five set-ups),
verdict throughput and latency, peak RSS and the decided ratio.  Times are
rescaled to a reference host speed (``clock.py``).

``--trace 1`` runs a fixed number of rounds per workload three times: traced
with PYTHONHASHSEED=0 (per-layer metrics, spans written under
``.bench_out/``), traced again with PYTHONHASHSEED=1 (every work counter and
the verdict digest must repeat exactly) and untraced (for the tracing
overhead).  ``--seconds`` does not apply: a fixed round count keeps the
counters comparable between commits.

The last stdout line is the JSON result; a run whose children fail prints
no result and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0
SETUP_SAMPLES = 5  # four set-up-only children plus the timed child's own set-up
TIMED_HASHSEED = "0"
REPEAT_HASHSEED = "1"

# rounds per traced run: two to four seconds of untraced op time on a 2-core x86 box
TRACE_ROUNDS = {
    "strict-equivalence": 160,
    "stiff-folding": 16,
    "relaxed-membership": 250,
    "paper-suites": 1,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "decided_ratio": "ratio",
}


# metrics a traced run adds to tracer.PER_LAYER
TRACE_UNITS = {
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "src.lines": "count",
}


class ChildFailed(Exception):
    pass


def child_env(hashseed: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "XHOMOTOPY_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the same sources
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, started: float, mode: str, hashseed: str, *extra: str) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise ChildFailed("out of time before starting a child")
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode,
    ]
    t0 = time.monotonic()
    argv += ["--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(
            argv, env=child_env(hashseed), stdout=subprocess.PIPE, text=True, timeout=remaining, cwd=ROOT
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the child
        raise ChildFailed(f"{mode} child timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(args, started: float) -> dict:
    setups = [spawn(args, started, "setup", TIMED_HASHSEED)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    timed = spawn(args, started, "timed", TIMED_HASHSEED, "--seconds", str(args.seconds))
    setups.append(timed["setup_s"])
    ops, latencies = timed["ops"], timed["latencies"]
    values = {
        "setup_s": statistics.median(setups),
        "verdicts_per_s": ops / timed["timed_s"],
        "verdict_p50_ms": 1000 * statistics.median(latencies),
        "verdict_p90_ms": 1000 * p90(latencies),
        "peak_rss_mb": timed["peak_rss_mb"],
        "decided_ratio": (ops - timed["undecided"]) / ops,
    }
    record = dict(timed)
    record.update(setup_samples=setups, hashseed=TIMED_HASHSEED,
                  samples_beyond_p90=sum(x > values["verdict_p90_ms"] / 1000 for x in latencies))
    write_record(args, "timed", record)
    print(f"{args.workload} seed={args.seed}: {ops} ops in {timed['rounds']} rounds, "
          f"{timed['failed']} failed, verdict digest {timed['verdict_digest'][:16]}")
    for failure in timed["failures"]:
        print(f"  FAILED {failure}")
    return {
        "correct": timed["failed"] == 0,
        "attempted": ops,
        "failed": timed["failed"],
        "metrics": {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()},
    }


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "xhomotopy").glob("*.py")))


def run_traced(args, started: float) -> dict:
    import tracer

    rounds = ["--rounds", str(TRACE_ROUNDS[args.workload])]
    spans_dir = OUT / f"{args.workload}-seed{args.seed}-spans"
    first = spawn(args, started, "traced", TIMED_HASHSEED, *rounds, "--spans", str(spans_dir))
    repeat = spawn(args, started, "traced", REPEAT_HASHSEED, *rounds)
    plain = spawn(args, started, "timed", TIMED_HASHSEED, *rounds)
    mismatches = [
        f"{name}: {first['layers'][name]} vs {repeat['layers'][name]}"
        for name in tracer.DETERMINISTIC
        if first["layers"][name] != repeat["layers"][name]
    ]
    digests = {run["verdict_digest"] for run in (first, repeat, plain)}
    if len(digests) != 1:
        mismatches.append("verdict digests differ between runs")
    units = {name: spec[0] for name, spec in tracer.PER_LAYER.items()}
    units.update(TRACE_UNITS)
    # span times are raw; rescale them by the run's average host factor (see clock.py)
    host = first["timed_s"] / first["timed_raw_s"]
    values = {k: v * host if units[k] == "s" else v for k, v in first["layers"].items()}
    layer_total = sum(values[f"layer.{layer}.self_s"] for layer in tracer.LAYERS)
    values.update({
        "trace.wall_s": first["timed_s"],
        "trace.unattributed_s": first["timed_s"] - layer_total,
        "trace.overhead_ratio": first["timed_s"] / plain["timed_s"],
        "trace.spans": first["spans"],
        "src.lines": source_lines(),
    })
    record = {k: v for k, v in first.items() if k != "latencies"}
    record.update(hashseeds=[TIMED_HASHSEED, REPEAT_HASHSEED], bindings=first["bindings"], mismatches=mismatches,
                  untraced_timed_s=plain["timed_s"], spans_dir=str(spans_dir.relative_to(ROOT)))
    write_record(args, "traced", record)
    print(f"{args.workload} seed={args.seed}: traced {first['ops']} ops over {first['rounds']} rounds, "
          f"{first['bindings']} bindings rebound, {first['spans']} spans, verdict digest {first['verdict_digest'][:16]}")
    for problem in mismatches + first["failures"]:
        print(f"  FAILED {problem}")
    failed = max(run["failed"] for run in (first, repeat, plain))
    return {
        "correct": failed == 0 and not mismatches,
        "attempted": first["ops"],
        "failed": failed,
        "metrics": {k: metric(v, units[k]) for k, v in values.items()},
    }


def write_record(args, mode: str, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds)
    path = OUT / f"{args.workload}-seed{args.seed}-{mode}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if not (SRC / "xhomotopy" / "__init__.py").is_file():
        print(f"no library sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    started = time.monotonic()
    try:
        result = run_traced(args, started) if args.trace else run_untraced(args, started)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
