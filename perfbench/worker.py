"""One benchmark workload in one interpreter.

``run.py`` starts this script from the root of a checkout, with BLAS held
to one thread.  The script builds the workload's contexts and seeded
inputs, takes one untimed warm-up operation (the end of set-up), then runs
its share of the timed closed loop and the final checks, and with
``--trace 1`` the per-layer calls.  Its last stdout line is one JSON object
for ``run.py``.

A workload runs in rounds: a fixed batch of whole operations.  The timed
phase runs rounds until ``--seconds`` have passed; results are checked after
each round, outside its timer.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from spans import NullTracer, Tracer

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import tubegeom  # noqa: E402

from workloads import OUT, WORKLOADS, run_dir  # noqa: E402


def run_op(call, check):
    """Time one operation and return (seconds, (result, check)); the check
    runs later, outside the timer.  An exception gives the outcome None."""
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, (result, check)


def timed_phase(workload, seconds, tracer):
    ops, rounds = [], []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        done = []
        with tracer.span("round"):
            t_round = time.perf_counter()
            for label, call, check in workload.round_ops(r):
                with tracer.span(f"op.{label}"):
                    done.append((label,) + run_op(call, check))
            rounds.append(time.perf_counter() - t_round)
        ops += [(label, seconds_op, passed(outcome)) for label, seconds_op, outcome in done]
        r += 1
    return ops, rounds


def passed(outcome):
    """Check an operation's result; a check that raises is a failed op."""
    if outcome is None:
        return False
    try:
        return bool(outcome[1](outcome[0]))
    except Exception:
        traceback.print_exc()
        return False


def warm_up(workload):
    label, call, check = workload.round_ops(0)[0]
    return passed(run_op(call, check)[1]) or label in workload.known_faults


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of this worker's share of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before the spawn")
    args = parser.parse_args()

    if os.path.dirname(os.path.abspath(tubegeom.__file__)) != os.path.join(SRC, "tubegeom"):
        raise SystemExit(f"tubegeom imported from outside {SRC}")
    tracer = Tracer() if args.trace else NullTracer()
    try:
        workload = WORKLOADS[args.workload](args.seed)
        warm_ok = warm_up(workload)
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
        workload.tracer = tracer  # spans cover the timed phase only
        result = measure(workload, args, tracer)
    finally:
        shutil.rmtree(run_dir(), ignore_errors=True)
    result["setup_s"] = setup_s
    result["correct"] = result["correct"] and warm_ok
    print(json.dumps(result))


def measure(workload, args, tracer):
    """Timed phase, final checks and, when traced, the per-layer calls."""
    ops, rounds = timed_phase(workload, args.seconds, tracer)
    finals = workload.final_checks()
    unexpected = sorted({label for label, _, ok in ops
                         if not ok and label not in workload.known_faults})
    failed_checks = sorted(k for k, ok in finals.items() if not ok)
    for name in [f"operation {label}" for label in unexpected] + failed_checks:
        print(f"check failed: {name}", file=sys.stderr)
    out = {"correct": not unexpected and not failed_checks,
           "attempted": len(ops),
           "failed": sum(not ok for _, _, ok in ops),
           "op_s": [s for _, s, _ in ops],
           "round_s": rounds,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        import layers
        layer_tracer = Tracer()
        per_layer, layers_ok = layers.measure(layer_tracer, args.seed)
        out["correct"] = out["correct"] and layers_ok
        out["per_layer"] = per_layer
        trace = {"workload": args.workload, "seed": args.seed,
                 "timed_phase_wall_s": statistics.median(rounds),
                 "timed_phase_op_p50_ms": 1e3 * statistics.median(out["op_s"]),
                 "per_layer": {k: v for k, (v, _) in per_layer.items()},
                 "timed_phase": tracer.export(),
                 "per_layer_calls": layer_tracer.export()}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(trace, fh, indent=1)
            fh.write("\n")
        print(f"trace written to {os.path.relpath(path)}", file=sys.stderr)
    return out


if __name__ == "__main__":
    main()
