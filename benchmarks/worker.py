"""One benchmark process: set up a workload, run and check its operations.

Started by ``run.py``, once per set-up sample and once for the measured
or traced phase, with ``--t0`` set to the wall-clock time just before
the process was launched.  Set-up is import, input generation and one
untimed warm-up operation; it ends when the first timed operation
starts.  Every operation, the warm-up included, is checked; a failed
check counts the operation as failed and it is never retried.  The
last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

# Operations in one traced pass: one full cycle of tree-simulate configs.
TRACE_PASS_OPS = 4


class Runner:
    """Runs operations through ``indiffmarket.cli.main`` and tallies them."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def run(self, op, main=None, after=None):
        """Time one operation, then check it; returns (latency_s, ok)."""
        main = main or self.cli.main
        captured = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                rc = main(op.argv)
            error = None
        except Exception:
            rc, error = None, traceback.format_exc()
        latency = perf_counter() - start
        stdout = captured.getvalue()
        reason = error or self.workload.check(op, rc, stdout)
        ok = reason is None
        if after is not None:
            after(op)
        self.attempted += 1
        self.failed += not ok
        label = f"{op.out.name}"
        print(f"{label:>9} {op.kind:<12} latency_s={latency:.4f} "
              f"ok={int(ok)} sha256={self.workload.digest(op, stdout)}")
        if not ok:
            print(f"{label} failed: {reason}", file=sys.stderr)
        shutil.rmtree(op.out, ignore_errors=True)
        return latency, ok


def measure(runner, seconds):
    """Timed phase: whole cycles of operations until their summed latency
    reaches ``seconds``.  Failed operations count as infinitely slow."""
    latencies, passed, busy = [], 0, 0.0
    index = 0
    while busy < seconds or index % runner.workload.cycle:
        latency, ok = runner.run(runner.workload.op(index))
        busy += latency
        passed += ok
        latencies.append(latency if ok else math.inf)
        index += 1
    return {
        "ops": len(latencies),
        "ops_per_s": passed / busy,
        "op_p50_s": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def trace(runner, seconds, out_dir):
    """Alternate untraced and traced passes over the same operations
    until ``seconds`` have gone by (at least one pair).  Per-layer
    metrics are per traced pass, as the median over passes."""
    import tracing

    tracer = tracing.Tracer()
    op_main = tracer.wrap(tracing.OP, runner.cli.main)
    ops = range(TRACE_PASS_OPS)

    def count_bytes(op):
        tracer.counts["bytes_written"] += runner.workload.bytes_written(op)

    passes, untraced_s, traced_s = [], 0.0, 0.0
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        for i in ops:
            untraced_s += runner.run(runner.workload.op(i))[0]
        restore = tracing.install(tracer)
        try:
            for i in ops:
                tracer.op_id = len(passes) * TRACE_PASS_OPS + i
                traced_s += runner.run(runner.workload.op(i), op_main,
                                       count_bytes)[0]
        finally:
            restore()
        passes.append(tracing.layer_metrics(tracer))
        tracer.reset()
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in passes[0]}
    n_ops = len(passes) * TRACE_PASS_OPS
    metrics["trace.pass_ops"] = TRACE_PASS_OPS
    metrics["trace.ops_per_s_untraced"] = n_ops / untraced_s
    metrics["trace.ops_per_s_traced"] = n_ops / traced_s
    metrics["trace.overhead_ops_per_s"] = (n_ops / untraced_s
                                           - n_ops / traced_s)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{runner.workload.name}.csv"
    tracer.write(path)
    print(f"trace: {len(tracer.spans)} spans over {len(passes)} traced "
          f"passes written to {path.name}")
    return {"passes": len(passes), "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"),
                   required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--root", type=Path, required=True)
    args = p.parse_args(argv)

    import workloads
    import indiffmarket.cli as cli

    workdir = args.root / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        runner = Runner(workloads.WORKLOADS[args.workload](args.seed, workdir),
                        cli)
        runner.run(runner.workload.op(0, warmup=True))
        result = {"setup_s": time.time() - args.t0}
        if args.mode == "measure":
            result.update(measure(runner, args.seconds))
        elif args.mode == "trace":
            result.update(trace(runner, args.seconds,
                                args.root / ".bench_out"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(attempted=runner.attempted, failed=runner.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
