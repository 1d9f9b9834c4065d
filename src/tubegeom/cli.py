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

Exit codes: 0 no case failed, 1 at least one failure, 2 usage errors (a
bad flag, or an ``--out`` that cannot be made a directory).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
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
    for name in names:
        checks = [check for check in registry.CHECKS if check.suite == name]
        suite_records, suite_tables = _run_checks(checks, config, ctx)
        records.extend(suite_records)
        tables.update(suite_tables)
    records.sort(key=lambda rec: (rec.suite, rec.case))
    if config.out:
        _write_outputs(config, records, tables)
    return records


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
