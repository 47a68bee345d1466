"""Benchmark child process: set up one workload, run whole passes, report.

Run by ``perfbench/run.py``, one process per workload run, with finloc
importable from the checkout's ``src``.  Protocol lines go to the original
standard output as JSON objects, one per line and flushed at once, so the
parent still sees every finished op if this process is killed:

    {"kind": "ready", "t": <time.monotonic() at the first timed op>}
    {"kind": "op", "id": ..., "i": pass, "s": latency, "ok": bool,
     "error": ..., "answer": ...}
    {"kind": "pass", "i": i, "s": wall seconds, "failed": [op ids]}
    {"kind": "end", "rss_kb": ru_maxrss, "trace": {...} or null}

Library output is redirected to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True,
                    help="0 sets up, reports ready and exits")
    ap.add_argument("--trace-out", help="trace the run and write spans here")
    ns = ap.parse_args(argv)

    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    def emit(**obj):
        proto.write(json.dumps(obj, default=repr) + "\n")
        proto.flush()

    sys.path.insert(0, HERE)
    tracer = None
    if ns.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    wl = {**workloads.WORKLOADS, **workloads.CHECKS}[ns.workload](ns.seed)
    wl.setup()
    emit(kind="ready", t=time.monotonic())
    for i in range(ns.passes):
        answers = {}
        t_pass = time.perf_counter()
        for op in wl.passes[i % len(wl.passes)]:
            if tracer:
                tracer.begin_op(op.id)
            t0 = time.perf_counter()
            answer = err = None
            try:
                answer = op.run()
            except MemoryError:  # format nothing until the frames are freed
                err = "MemoryError"
            except Exception as exc:
                err = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(limit=3)
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op()
            ok = err is None and op.check(answer)
            answers[op.id] = answer
            emit(kind="op", id=op.id, i=i, s=dt, ok=ok, error=err,
                 answer=answer)
        wall = time.perf_counter() - t_pass
        emit(kind="pass", i=i, s=wall, failed=wl.pass_failures(answers))
    trace = None
    if tracer:
        trace = tracer.summary()
        tracer.dump(ns.trace_out, {"workload": ns.workload, "seed": ns.seed,
                                   "passes": ns.passes})
    emit(kind="end",
         rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
         trace=trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
