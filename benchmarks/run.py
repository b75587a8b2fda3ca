"""Benchmark of the indiffmarket command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``tree-simulate`` (``simulate`` on deep
scenario trees), ``lattice-mc`` (``bachelier`` Monte Carlo on a 512-step
lattice) and ``verify-suites`` (``verify --suite all``).  Each runs in
fresh processes with single-threaded BLAS, from the sources in ``src/``.

With ``--trace 0`` it prints the end-to-end metrics: ``setup_s`` (median
over three fresh processes of the time from launch to the first timed
operation), ``ops_per_s`` (operations that passed their check per second
of summed operation time), ``op_p50_s`` (median operation latency, a
failed operation counting as infinite), ``peak_rss_mb`` (peak resident
memory of the measured process) and ``pass_share`` (passed over
attempted operations).  With ``--trace 1`` it alternates untraced and
traced passes over the workload's first operations and prints the
per-layer metrics of ``tracing.py``; spans go to
``.bench_out/trace-<workload>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  All workloads:

    for w in tree-simulate lattice-mc verify-suites; do
        python3 benchmarks/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done
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
ROOT = HERE.parent
WORKLOADS = ("tree-simulate", "lattice-mc", "verify-suites")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "share",
}


def run_worker(args, mode: str, started: float) -> dict:
    """Run one worker process to completion and return its JSON result.

    Its informational lines are passed on; a failing worker ends the
    benchmark with exit status 1 and no result.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--root", str(ROOT)]
    timeout = DEADLINE_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd + ["--t0", repr(time.time())], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        sys.exit(f"{mode} worker exceeded the {DEADLINE_S:.0f} s deadline")
    lines = proc.stdout.splitlines()
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        sys.exit(f"{mode} worker failed with exit status {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="indiffmarket benchmark (see module docstring)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "indiffmarket" / "cli.py").is_file():
        sys.exit(f"no indiffmarket sources under {ROOT / 'src'}")
    started = time.monotonic()

    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracing import LAYER_METRICS

        res = run_worker(args, "trace", started)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        values = res["metrics"]
        print(f"{args.workload} seed {args.seed}: per-layer metrics per "
              f"traced pass of {values['trace.pass_ops']} ops, median of "
              f"{res['passes']} passes")
        attempted, failed = res["attempted"], res["failed"]
    else:
        setups = [run_worker(args, "setup", started)
                  for _ in range(SETUP_SAMPLES - 1)]
        res = run_worker(args, "measure", started)
        runs = setups + [res]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        units = END_TO_END
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "ops_per_s": res["ops_per_s"],
            "op_p50_s": res["op_p50_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "pass_share": (attempted - failed) / attempted,
        }
        print(f"{args.workload} seed {args.seed}: {res['ops']} timed ops; "
              f"setup_s is the median of {len(runs)} set-ups; op_p50_s "
              f"has {res['ops']} samples; fail_share counts warm-ups too")
    for name, unit in units.items():
        print(f"  {name:<44} {values[name]:>16.6g} {unit}")
    if not args.trace:
        print(f"  {'fail_share':<44} {failed / attempted:>16.6g} share "
              f"({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
