"""One measured pass of one workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON object as its last line.  A fresh process
per pass keeps extamen's process-global memo tables (``graph._ADDR_MEMO``,
``_INFO_MEMO``, ``harmonic._POW2``, the ``lru_cache``s) as cold as a CLI
user finds them.

    python3 perfbench/worker.py --workload orbit --seed 1 --scale full [--trace]
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

import refclock

# The reference clock (refclock.py) runs from before extamen is imported, so
# that set-up is scaled too.
SAMPLER = refclock.Sampler()
SAMPLER.start()
BORN = SAMPLER.mark()

import extamen  # noqa: E402
from extamen import graph  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="file to write the traced spans to")
    args = parser.parse_args()

    src = Path.cwd() / "src"
    if src.resolve() not in Path(extamen.__file__).resolve().parents:
        print(f"extamen imported from {extamen.__file__}, not from {src}", file=sys.stderr)
        return 2
    backend = "unused"
    if args.workload == "chain":
        # green_mc takes the numpy path exactly when numpy imports
        try:
            importlib.import_module("numpy")
            backend = "numpy"
        except ImportError:
            backend = "python"

    tracer = tracing.Tracer() if args.trace else None
    ops = workloads.build(args.workload, args.seed, args.scale,
                          workloads.traced_setfn(tracer) if tracer else lambda F: F)
    ready, ready_at = SAMPLER.mark(), time.monotonic()
    if tracer:
        tracing.instrument(tracer)

    marks = []
    failures = []
    for i, (kind, op) in enumerate(ops):
        if tracer:
            tracer.begin_op(i, kind)
        start = SAMPLER.mark()
        try:
            reason = op()
        except Exception as exc:  # a raising op is a failed op, never a skip
            reason = f"{type(exc).__name__}: {exc}"
        marks.append((start, SAMPLER.mark()))
        if tracer:
            tracer.end_op()
        if reason is not None:
            failures.append(f"{kind} #{i}: {reason}")
    SAMPLER.stop()
    latencies, op_samples = zip(*(SAMPLER.interval(a, b) for a, b in marks))
    ops_sampling = sum(b[1] - a[1] for a, b in marks)
    _, setup_sample = SAMPLER.interval(BORN, ready)

    result = {
        "ready": ready_at,  # the end of set-up, on the parent's clock
        "setup_sampling_s": ready[1],
        "setup_sample_s": setup_sample,
        "latencies": latencies,
        "op_samples_s": op_samples,
        "ops_sampling_s": ops_sampling,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "memo_entries": len(graph._ADDR_MEMO),
        "orientation": graph.get_orientation(),
        "backend": backend,
    }
    if tracer:
        result["trace"] = tracing.summary(tracer)
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
