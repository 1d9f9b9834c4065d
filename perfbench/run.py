"""tubegeom benchmark: one workload per call, checked results, one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gauge-roundtrip --seed 1 --seconds 10 --trace 0

Each workload runs in fresh interpreters (``perfbench/worker.py``), one
after another, with OpenBLAS, OpenMP and MKL held to one thread.  With
``--trace 0`` two workers each set up and run half of the timed phase;
the end-to-end metrics are medians over their pooled samples.  With
``--trace 1`` one worker runs the whole timed phase with spans, then the
per-layer calls, writes its spans under ``perfbench/out/`` and the run
prints the per-layer metrics.
The last stdout line is the result object.  The exit code is 0 when every
result checked out, 1 when a check failed or a worker did not finish, and 2
when the checkout holds no library to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("gauge-roundtrip", "jet-ma", "cli-suites")
WORKERS = 2  # untraced runs split the timed phase over this many interpreters
TIME_LIMIT_S = 170.0  # every worker must have finished by then
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class WorkerFailed(Exception):
    pass


def spawn(args, seconds, deadline):
    """Run one worker to its end and return its result object."""
    env = dict(os.environ, **WORKER_ENV)
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--spawned-at", repr(spawned_at)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerFailed("a worker passed the time limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"a worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(results):
    """Pool the workers' samples into the end-to-end metrics."""
    op_s = [s for r in results for s in r["op_s"]]
    round_s = [s for r in results for s in r["round_s"]]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "wall_s": (statistics.median(round_s), "s"),
        "op_p50_ms": (1e3 * statistics.median(op_s), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "tubegeom", "__init__.py")):
        print("error: run from the root of a tubegeom checkout "
              "(src/tubegeom is missing)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    workers = 1 if args.trace else WORKERS
    try:
        results = [spawn(args, args.seconds / workers, deadline)
                   for _ in range(workers)]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = results[0]["per_layer"] if args.trace else end_to_end(results)
    correct = all(r["correct"] for r in results)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:48s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
