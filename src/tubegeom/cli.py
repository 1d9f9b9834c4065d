"""Command-line verification driver.

Runs named suites of numerical identity checks and writes machine-readable
reports.  Reports are deterministic for a fixed configuration: cases are
ordered by id, floats are emitted verbatim, and wall-clock timings are
zeroed unless explicitly requested (they would otherwise break the
byte-identical-report contract).

The cases, their gates, their sizes and their preconditions come from
``registry.CHECKS``, which the acceptance tests share.  The settings of a
run (suite, context, seed and the outputs) choose what runs and where its
reports go; none of them moves a gate or resizes a case.  Each setting is
one argparse flag, checked where it is parsed, with the default of
``SuiteConfig``.  A case whose precondition the context does not meet is
written as a ``skip`` record with the reason in its note; skips do not
count as failures.  A metric that is not finite fails its case.

The suites share nothing, so ``--suite all`` runs them on the CPUs the
process may use: it forks a worker per further CPU (at most one per suite),
and the report bytes and stdout are those of a run in one process.  One
usable CPU, a single suite, another OS thread in the process (a BLAS pool:
OpenBLAS at more than one thread) or no ``/proc`` to count threads in (as
on every platform without fork) runs everything here.
``--timings`` times each case in the process that ran it, and
``RUSAGE_SELF`` does not count a suite run in a child.  Python >= 3.12
warns when a process with other OS threads forks, which a run never does.

Exit codes: 0 no case failed, 1 at least one failure, 2 usage errors (a
bad flag, or an ``--out`` that cannot be made a directory).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import pickle
import sys
import time
import traceback
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import liealg, registry
from .errors import ConfigParseError, TubeGeomError, UnknownSuite

SUITE_NAMES = registry.SUITE_NAMES


@dataclass
class SuiteConfig:
    suite: str = "all"
    context: str = "su2_u1"
    seed: int = 42
    out: str | None = None
    fmt: str = "json"
    timings: bool = False


@dataclass
class ReportRecord:
    suite: str
    case: str
    status: str
    metric: float
    tol: float
    ms: int
    note: str

    def as_dict(self):
        return asdict(self)


def _run_checks(checks, config, ctx):
    """Records and tables of ``checks``, run in order on one generator.

    An order check records its order's distance outside the window (0
    inside, NaN stays NaN) against tolerance 0; None (no order observed)
    passes.  A library error inside a case fails that case alone, with a NaN
    metric and the error in its note; the remaining cases still run.
    """
    rng = np.random.default_rng(config.seed)
    run = registry.SuiteRun(config.seed)
    records = []
    for check in checks:
        reason = check.unmet(ctx)
        if reason:
            records.append(ReportRecord(check.suite, check.case, "skip", 0.0, 0.0,
                                        0, reason))
            continue
        tol = 0.0 if check.order else check.tol
        t0 = time.perf_counter()
        try:
            value, note = check.compute(ctx, rng, run)
        except TubeGeomError as exc:
            value, note = float("nan"), f"error: {type(exc).__name__}: {exc}"
        ms = int((time.perf_counter() - t0) * 1000) if config.timings else 0
        if check.order and value is None:  # no order observed
            value = 0.0
        elif check.order:
            lo, hi = check.order
            needs = f">= {lo}" if hi == np.inf else f"{lo} to {hi}"
            note = f"{note} [observed {value:.3f}, needs {needs}]"
            value = 0.0 if lo <= value <= hi else max(lo - value, value - hi)
        value = float(value)
        status = "pass" if np.isfinite(value) and value <= tol else "fail"
        records.append(ReportRecord(check.suite, check.case, status, value, tol,
                                    ms, note))
    return records, run.tables


def run_suite(config):
    """Run one suite (or all) and return the ordered list of records."""
    if config.suite == "all":
        names = SUITE_NAMES
    elif config.suite in SUITE_NAMES:
        names = (config.suite,)
    else:
        raise UnknownSuite(f"unknown suite {config.suite!r}")
    ctx = liealg.builtin_context(config.context)
    if config.out:
        try:
            os.makedirs(config.out, exist_ok=True)
        except OSError as exc:
            raise ConfigParseError(f"cannot use --out {config.out}: {exc}") from exc
    records = []
    tables = {}
    for suite_records, suite_tables in _run_suites(names, config, ctx):
        records.extend(suite_records)
        tables.update(suite_tables)
    records.sort(key=lambda rec: (rec.suite, rec.case))
    if config.out:
        _write_outputs(config, records, tables)
    return records


def _run_named(name, config, ctx):
    return _run_checks([check for check in registry.CHECKS if check.suite == name],
                       config, ctx)


def _usable_cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without sched_getaffinity
        return os.cpu_count() or 1


def _only_thread():
    """Whether this process runs no OS thread but the calling one.

    A forked child keeps only the thread that forked it, so a lock another
    thread held stays held there.  And a BLAS thread pool (OpenBLAS starts
    one per library at import unless its thread count is 1) in each worker
    contends for the same CPUs: on 2 CPUs, a forked ``--suite all`` read
    1.3-3x slower than one process.  Where the count cannot be read (no
    ``/proc``, as on every platform without fork), the answer is no.
    """
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _run_suites(names, config, ctx):
    """``_run_named`` of each suite in ``names``, in that order.

    The suites share nothing, so they run on the usable CPUs at once.  With
    one usable CPU, one suite or another thread in this process, every suite
    runs here and no process starts.
    """
    workers = min(_usable_cpus(), len(names))
    if workers < 2 or not _only_thread():
        return [_run_named(name, config, ctx) for name in names]
    return _fork_suites(names, config, ctx, workers)


def _fork_suites(names, config, ctx, workers):
    """``_run_suites`` on ``workers`` processes: this one and forked children.

    A pipe loaded with the suite indices is the shared counter: each one-byte
    read takes the next suite.  It hands out nahm-gauge, about half of a
    pass, first, so that no worker starts it late, then the others in
    suite order.  A child sends each suite's records and tables, or the
    exception that stopped it, back over its own pipe.
    """
    import multiprocessing  # loaded only by a run that forks

    fork = multiprocessing.get_context("fork")
    counter, loader = os.pipe()
    os.write(loader, bytes(sorted(range(len(names)),
                                  key=lambda i: names[i] != "nahm-gauge")))
    os.close(loader)  # an empty counter now reads as the end of the suites

    def take():
        index = os.read(counter, 1)
        return index[0] if index else None

    def serve(conn):
        try:
            for index in iter(take, None):
                conn.send((index, _run_named(names[index], config, ctx), None))
        except BaseException as exc:
            conn.send((None, None, _portable(exc)))

    results = [None] * len(names)
    children = []
    try:
        for _ in range(workers - 1):
            receive, send = fork.Pipe(duplex=False)
            child = fork.Process(target=serve, args=(send,), daemon=True)
            child.start()
            send.close()  # so that the child's exit reads as EOF here
            children.append((child, receive))
        for index in iter(take, None):
            results[index] = _run_named(names[index], config, ctx)
        for _, receive in children:
            _receive(receive, results)
    except BaseException:
        for child, _ in children:
            child.kill()
        raise
    finally:
        os.close(counter)
        for child, receive in children:
            receive.close()
            child.join()
    lost = [name for name, result in zip(names, results) if result is None]
    if lost:
        codes = ", ".join(str(child.exitcode) for child, _ in children)
        raise RuntimeError(f"a worker process exited (exit codes {codes}) "
                           f"without the results of {', '.join(lost)}")
    return results


class _WorkerTraceback(Exception):
    """The traceback, as text, of an exception raised in a worker process."""

    def __str__(self):
        return self.args[0]


def _portable(exc):
    """``exc`` if it pickles back, else None, with its traceback text."""
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = None
    return exc, text


def _receive(conn, results):
    """Store the results a child sends until it exits; raise what it raised."""
    while True:
        try:
            index, result, error = conn.recv()
        except EOFError:
            return
        if error is not None:
            exc, text = error
            if exc is None:
                exc = RuntimeError("a suite raised in a worker process")
            raise exc from _WorkerTraceback(text)
        results[index] = result


def _replace_file(path, text):
    """Write ``text`` to a new file at ``path``, unlinking any old one first.

    Replacing a file by truncating it makes some filesystems (ext4 with
    ``auto_da_alloc``) flush it to disk on close, tens of ms per file; a file
    created afresh is not flushed.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "w") as fh:
        fh.write(text)


def _write_outputs(config, records, tables):
    payload = [rec.as_dict() for rec in records]
    _replace_file(os.path.join(config.out, "report.json"),
                  json.dumps(payload, indent=1, sort_keys=True) + "\n")
    if config.fmt == "csv":
        text = io.StringIO()
        writer = csv.DictWriter(text, [f.name for f in fields(ReportRecord)],
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(payload)
        _replace_file(os.path.join(config.out, "report.csv"), text.getvalue())
    for fname, text in tables.items():
        _replace_file(os.path.join(config.out, fname), text)


# -- command line ----------------------------------------------------------

def _seed(text):
    """argparse ``type``: an int of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def parse_args(argv):
    defaults = SuiteConfig()
    parser = argparse.ArgumentParser(
        prog="tubegeom", allow_abbrev=False,
        description="Run numerical verification suites for the tube geometry library.")
    parser.add_argument("--suite", default=defaults.suite,
                        choices=SUITE_NAMES + ("all",), help="suite to run")
    parser.add_argument("--context", default=defaults.context,
                        choices=sorted(liealg.BUILTIN_CONTEXTS),
                        help=f"Lie context (default {defaults.context})")
    parser.add_argument("--seed", type=_seed, default=defaults.seed,
                        help=f"RNG seed (default {defaults.seed}, at least 0)")
    parser.add_argument("--out", default=defaults.out, help="report output directory")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default=defaults.fmt, help="additional report format")
    parser.add_argument("--timings", action="store_true",
                        help="record wall-clock times (breaks byte determinism)")
    return SuiteConfig(**vars(parser.parse_args(argv)))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_args(argv)
        records = run_suite(config)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)
    except TubeGeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (UnknownSuite, ConfigParseError)) else 1

    counts = {"pass": 0, "fail": 0, "skip": 0}
    for rec in records:
        print(f"[{rec.status.upper():4s}] {rec.suite}/{rec.case}: "
              f"metric={rec.metric:.3e} tol={rec.tol:.3e} {rec.note}")
        counts[rec.status] += 1
    skipped = f", {counts['skip']} skipped" if counts["skip"] else ""
    print(f"{counts['pass']}/{len(records)} cases passed{skipped}")
    return 1 if counts["fail"] else 0


if __name__ == "__main__":
    sys.exit(main())
