#!/usr/bin/env python3
"""One benchmark process: set up one workload, run its ops, check every answer.

Started by ``run.py`` with a pinned environment; prints one JSON summary as
its last stdout line.  Modes:

* ``setup``  - import, generate the first inputs, run one warm-up op, report
  the time since ``--t0`` (the parent's ``time.monotonic()`` just before the
  spawn, a system-wide clock) and exit;
* ``timed``  - after set-up, run whole rounds until the ops have taken
  ``--seconds`` in total (or exactly ``--rounds`` rounds), timing each op and
  checking each answer outside the timed region;
* ``traced`` - the same over exactly ``--rounds`` rounds with every layer
  traced; writes the spans under ``--spans``.

Reported times are rescaled to a reference host speed (see ``clock.py``);
the raw ones are reported next to them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import clock


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int, default=0)
    p.add_argument("--spans", default=None)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    kernel_at_start = clock.kernel_s()
    from xhomotopy.core import BudgetExceeded

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workloads.build_round(args.workload, args.seed, -1)[0].call()  # warm-up, on a round never timed
    first_round = workloads.build_round(args.workload, args.seed, 0)
    setup_raw_s = time.monotonic() - args.t0
    setup_s = clock.scale(setup_raw_s, kernel_at_start, clock.kernel_s())
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    recorder = None
    if args.mode == "traced":
        import tracer

        recorder = tracer.Tracer()
        tracer.install(recorder)

    times = clock.ScaledTimes()
    kinds: dict[str, list[int]] = {}
    failures: list[str] = []
    undecided = 0
    digest = hashlib.sha256()
    raw_s = 0.0
    index = 0
    ops = first_round
    gc.collect()
    while True:
        for op in ops:
            op_id = len(times.raw)
            times.before_op()
            if recorder is not None:
                recorder.begin_op(op_id)
            start = time.perf_counter()
            try:
                result, raised = op.call(), None
            except Exception as exc:  # recorded below: budget stops are undecided, the rest failed
                raised = exc
            elapsed = time.perf_counter() - start
            if recorder is not None:
                recorder.end_op()
            raw_s += elapsed
            times.add(elapsed)
            kinds.setdefault(op.kind, []).append(op_id)
            if isinstance(raised, BudgetExceeded):
                undecided += 1
                key = "budget"
            elif raised is not None:
                failures.append(f"round {index} {op.kind}: raised {raised!r}")
                traceback.print_exception(raised, file=sys.stderr)
                key = "raised"
            else:
                try:
                    decided, key = op.check(result)
                except workloads.OracleFailure as exc:
                    failures.append(f"round {index} {op.kind}: {exc}")
                    decided, key = True, "wrong"
                undecided += not decided
                del result
            digest.update(f"{op.kind}={key}\n".encode())
        index += 1
        if (args.rounds and index >= args.rounds) or (not args.rounds and raw_s >= args.seconds):
            break
        ops = workloads.build_round(args.workload, args.seed, index)

    times.finish()
    summary = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "rounds": index,
        "ops": len(times.raw),
        "failed": len(failures),
        "undecided": undecided,
        "timed_s": sum(times.scaled),
        "timed_raw_s": raw_s,
        "latencies": times.scaled,
        "kernel_ms": [1000 * k for k in times.kernels],
        "kind_mean_ms": {k: 1000 * sum(times.scaled[i] for i in v) / len(v) for k, v in sorted(kinds.items())},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdict_digest": digest.hexdigest(),
        "failures": failures[:20],
    }
    if recorder is not None:
        if args.spans:
            recorder.write_spans(Path(args.spans))
        summary["layers"] = tracer.layer_values(recorder)
        summary["spans"] = len(recorder.span_start)
        summary["bindings"] = recorder.bindings
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
