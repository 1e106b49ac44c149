"""One round of one workload in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR
        [--setup-only] [--trace]

The process imports kitaevsim, writes the workload's inputs and notes the
moment it is ready (set-up ends there).  Unless ``--setup-only`` is given
it then runs the workload's fixed list of operations (the timed section),
reads its own peak resident set size, runs the output checks, and writes
``result.json`` in DIR.  With ``--trace`` the operations run under the
span tracer and the per-layer metrics and span tree are written as well.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback
from pathlib import Path

import workloads


def run_round(ops, tracer=None) -> tuple[float, list]:
    """Run every operation; returns the wall time and, per operation,
    (op, result, error, seconds)."""
    outcomes = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = tracer.call(f"op.{op.name}", op.run) if tracer else op.run()
            outcomes.append((op, result, None, time.perf_counter() - t0))
        except Exception:  # a failed operation is counted, never fatal
            outcomes.append((op, None, traceback.format_exc(), time.perf_counter() - t0))
    return time.perf_counter() - start, outcomes


def judge(outcomes) -> list[dict]:
    records = []
    for op, result, error, seconds in outcomes:
        failed = error is not None or op.failed(result)
        problems = [] if failed else op.check(result)
        records.append({"op": op.name, "seconds": seconds, "failed": failed, "problems": problems,
                        "error": error or (f"exit code {result}" if failed else None)})
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    ops = workloads.prepare(args.workload, args.seed, args.workdir)
    ready = time.monotonic()
    out = {"ready": ready}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        wall, outcomes = run_round(ops, tracer)
        out["wall_s"] = wall
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.metrics()
            tracer.dump(args.workdir / "trace.json")
        out["ops"] = judge(outcomes)
    (args.workdir / "result.json").write_text(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
