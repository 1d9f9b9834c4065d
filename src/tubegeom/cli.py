"""Command-line verification driver.

Runs named suites of numerical identity checks and writes machine-readable
reports.  Reports are deterministic for a fixed configuration: cases are
ordered by id, floats are emitted verbatim, and wall-clock timings are
zeroed unless explicitly requested (they would otherwise break the
byte-identical-report contract).

The cases, their gates and their preconditions come from
``registry.CHECKS``, which the acceptance tests share.  A case whose
precondition the context does not meet is written as a ``skip`` record
with the reason in its note; skips do not count as failures.  A metric
that is not finite fails its case.

Exit codes: 0 no case failed, 1 at least one failure, 2 usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import liealg, registry
from .errors import ConfigParseError, TubeGeomError, UnknownSuite

SUITE_NAMES = registry.SUITE_NAMES


@dataclass
class SuiteConfig:
    suite: str = "all"
    context: str = "su2_u1"
    grid: int = 400
    steps: int = 2000
    seed: int = 42
    tolerances: dict = field(default_factory=dict)
    sweeps: dict = field(default_factory=dict)
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
    run = registry.SuiteRun(config.grid, config.steps, config.seed, config.sweeps)
    records = []
    for check in checks:
        reason = check.unmet(ctx)
        if reason:
            records.append(ReportRecord(check.suite, check.case, "skip", 0.0, 0.0,
                                        0, reason))
            continue
        tol = 0.0 if check.order else config.tolerances.get(check.tol_key, check.tol)
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
    os.makedirs(config.out, exist_ok=True)
    payload = [rec.as_dict() for rec in records]
    _replace_file(os.path.join(config.out, "report.json"),
                  json.dumps(payload, indent=1, sort_keys=True) + "\n")
    if config.fmt == "csv":
        lines = ["suite,case,status,metric,tol,ms,note"]
        for rec in records:
            lines.append(f"{rec.suite},{rec.case},{rec.status},{rec.metric!r},"
                         f"{rec.tol!r},{rec.ms},{rec.note!r}")
        _replace_file(os.path.join(config.out, "report.csv"), "\n".join(lines) + "\n")
    for fname, text in tables.items():
        _replace_file(os.path.join(config.out, fname), text)


# -- configuration parsing -------------------------------------------------

def _load_config_file(path, suite):
    """Settings of ``[all]``, then ``[suite]``; every section is checked."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigParseError(str(exc)) from exc
    if not read:
        raise ConfigParseError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in SUITE_NAMES + ("all",):
            raise ConfigParseError(f"unknown config section [{section}]")
        if suite == "all" != section:
            raise ConfigParseError(f"section [{section}] is for --suite {section} only")
        for key, value in parser.items(section):
            _apply_setting(SuiteConfig(), key, value)
    return {key: value for section in ("all", suite) if parser.has_section(section)
            for key, value in parser.items(section)}


def _apply_setting(config, key, value):
    try:
        if key == "context":
            config.context = value
        elif key in ("grid", "steps", "seed"):
            setattr(config, key, int(value))
        elif key.startswith("tol.") and key[4:] in registry.TOLERANCES:
            config.tolerances[key[4:]] = float(value)
        elif key.startswith("sweep.") and key[6:] in registry.SWEEPS:
            config.sweeps[key[6:]] = int(value)
            least = 8 if key == "sweep.two_form_ref" else 1
            if config.sweeps[key[6:]] < least:
                raise ConfigParseError(f"{key} must be at least {least}")
        else:
            raise ConfigParseError(f"unknown configuration key {key!r}")
    except ValueError as exc:
        raise ConfigParseError(f"bad value for {key!r}: {value!r}") from exc


def parse_args(argv):
    # --tol.KEY=VAL and --sweep.KEY=VAL are collected before argparse runs
    overrides = []
    rest = []
    for token in argv:
        if token.startswith("--tol.") or token.startswith("--sweep."):
            if "=" not in token:
                raise ConfigParseError(f"override {token!r} needs =VALUE")
            key, value = token[2:].split("=", 1)
            overrides.append((key, value))
        else:
            rest.append(token)

    parser = argparse.ArgumentParser(
        prog="tubegeom",
        description="Run numerical verification suites for the tube geometry library.")
    parser.add_argument("--suite", default="all",
                        choices=SUITE_NAMES + ("all",), help="suite to run")
    parser.add_argument("--context", default=None,
                        help="Lie context name (default su2_u1)")
    parser.add_argument("--grid", type=int, default=None, help="path grid size")
    parser.add_argument("--steps", type=int, default=None, help="ODE step count")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", default=None, help="report output directory")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default=None, help="additional report format")
    parser.add_argument("--timings", action="store_true",
                        help="record wall-clock times (breaks byte determinism)")
    args = parser.parse_args(rest)

    settings = _load_config_file(args.config, args.suite) if args.config else {}
    config = SuiteConfig(suite=args.suite)
    for key, value in settings.items():
        _apply_setting(config, key, value)
    for attr in ("context", "grid", "steps", "seed", "out", "fmt"):
        value = getattr(args, attr)
        if value is not None:
            setattr(config, attr, value)
    config.timings = bool(args.timings)
    for key, value in overrides:
        _apply_setting(config, key, value)
    if config.grid < 8 or config.steps < 8:
        raise ConfigParseError("grid and steps must be at least 8")
    if config.context not in liealg.BUILTIN_CONTEXTS:
        raise ConfigParseError(f"unknown context {config.context!r}; "
                               f"choices: {sorted(liealg.BUILTIN_CONTEXTS)}")
    return config


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
