"""Long-lived job process of the half-space workloads.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--max-jobs K] [--trace] [--setup-only]

Imports the package and builds the closed-form profiles (set-up), prints
``READY``, then runs the seeded job stream one job at a time, closed loop,
in whole cycles of the stream (see ``jobs.CYCLE_JOBS``) while the next
cycle would end within ``--seconds`` (at least one cycle runs), or until
``--max-jobs`` jobs ran. The last line
of output is one JSON object: per-job records, the stream wall time, the
process's peak RSS and, with ``--trace``, the per-layer span totals.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--max-jobs", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # jet-positivity warnings are advisory; the checks judge the numbers
    warnings.simplefilter("ignore")
    import jobs
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    session = jobs.Session(ROOT)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    stream = jobs.STREAMS[args.workload](args.seed)
    cycle_jobs = jobs.CYCLE_JOBS[args.workload]
    records = []
    start = cycle_start = time.perf_counter()
    while True:
        if args.max_jobs is not None:
            if len(records) >= args.max_jobs:
                break
        elif len(records) % cycle_jobs == 0 and records:
            # whole cycles only: the next starts if it would end in time
            now = time.perf_counter()
            if now - start + (now - cycle_start) > args.seconds:
                break
            cycle_start = now
        job = next(stream)
        t0 = time.perf_counter()
        try:
            out = session.run(job)
            error = None
        except Exception as exc:          # a raising job is a failed job
            out, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if error is None:
            error = session.check(job, out)
        records.append({"kind": job["kind"], "latency_s": latency, "error": error})
    wall = time.perf_counter() - start

    result = {"records": records, "wall_s": wall,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["layers"] = tracing.layer_totals(tracer.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
