"""Command-line verification driver.

Runs named suites of numerical identity checks and writes machine-readable
reports.  Reports are deterministic for a fixed configuration: cases are
ordered by id, floats are emitted verbatim, and wall-clock timings are
zeroed unless explicitly requested (they would otherwise break the
byte-identical-report contract).

A case whose precondition the context does not meet (a subalgebra split,
a basis large enough for a Nahm triple) is written as a ``skip`` record
with the reason in its note; skips do not count as failures.  A metric
that is not finite fails its case, and the sweep reducers propagate NaN.

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
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import complexify as cx
from . import curvature as cv
from . import kahler, liealg, majet, nahm
from .errors import ConfigParseError, TubeGeomError, UnknownSuite

SUITE_NAMES = ("ma-expansion", "kahler-curvature", "complexify-holomorphy",
               "nahm-gauge", "nahm-roundtrip", "s1-isometry")


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

    def tol(self, key, default):
        return float(self.tolerances.get(key, default))

    def sweep(self, key, default):
        return int(self.sweeps.get(key, default))


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
        return {"suite": self.suite, "case": self.case, "status": self.status,
                "metric": self.metric, "tol": self.tol, "ms": self.ms,
                "note": self.note}


class _Runner:
    def __init__(self, config, suite):
        self.config = config
        self.suite = suite
        self.records = []
        self.tables = {}

    def case(self, case_id, metric, tol, note=""):
        """Record a case; returns its metric.

        ``metric`` is a number or a thunk that computes it, timed when
        timings are on.  A thunk may return ``(value, note)`` to supply a
        note that depends on the computation.
        """
        t0 = time.perf_counter()
        value = metric() if callable(metric) else metric
        ms = int((time.perf_counter() - t0) * 1000) if self.config.timings else 0
        if isinstance(value, tuple):
            value, note = value
        value = float(value)
        status = "pass" if np.isfinite(value) and value <= tol else "fail"
        self.records.append(ReportRecord(self.suite, case_id, status,
                                         value, float(tol), ms, note))
        return value

    def skip(self, case_id, reason):
        """Record a case that does not apply to the configured context."""
        self.records.append(ReportRecord(self.suite, case_id, "skip", 0.0, 0.0,
                                         0, reason))

    def order_case(self, case_id, order, minimum, note=""):
        """Pass when an observed convergence order reaches the minimum.

        The stored metric is the shortfall below the minimum (0 when met),
        keeping the fail-iff-metric-exceeds-tolerance report invariant.
        """
        value = float(order() if callable(order) else order)
        shortfall = 0.0 if value >= minimum else minimum - value  # NaN stays NaN
        self.case(case_id, shortfall, 0.0,
                  f"{note} [observed {value:.3f}, needs >= {minimum}]")


def _worst(values):
    """Largest of the samples and 0; NaN if any sample is NaN."""
    return float(np.max(values, initial=0.0))


def _context(config):
    return liealg.builtin_context(config.context)


def _no_split(ctx):
    return f"context {ctx.name} has no subalgebra split"


# -- suites ---------------------------------------------------------------


def _suite_ma_expansion(config):
    r = _Runner(config, "ma-expansion")
    rng = np.random.default_rng(config.seed)
    count = config.sweep("tensors", 10)
    tol_a = config.tol("quartic", 1e-9)

    sizes = []
    gaps = []
    for n in (2, 3):
        for _ in range(count):
            R = cv.random_admissible(n, rng)
            q = majet.solve_quartic_coefficients(R)
            sizes.append(q.max_abs())
            gaps.append(majet.matching_cross_check(R, q))
    r.case("quartic-vanishing", _worst(sizes), tol_a,
           f"max |A| over {count} tensors per dim, n=2,3")
    r.case("matching-cross-check", _worst(gaps), tol_a,
           "deviation of the degree-4 matching identity")

    sphere = cv.constant_curvature(2, 1.0)
    rho = majet.potential_expansion(sphere)
    res = majet.ma_residual(rho)
    r.case("low-order-residual", res.max_abs_coeff(degrees={0, 1, 2, 3, 4}),
           config.tol("low_order", 1e-12),
           "residual coefficients of degree <= 4 for the sphere jet")

    rows = majet.residual_scaling_table(rho, seed=config.seed)
    slope = majet.fitted_loglog_slope(rows)
    r.order_case("residual-scaling-slope", slope, 4.5,
                 "log-log slope of sup residual over scaled polydisks")
    r.tables["ma_residual_scaling.csv"] = majet.scaling_table_csv(rows)

    rng2 = np.random.default_rng(config.seed + 1)
    quartic = majet.QuarticCoefficients(
        3, {t: rng2.standard_normal() for t in majet.ordered_quadruples(3)})
    dev = _worst([abs(majet.permutation_identity_deviation(quartic, *t))
                  for t in majet.ordered_quadruples(3)])
    r.case("permutation-identity", dev, config.tol("permutation", 1e-12),
           "exhaustive ordered quadruples, n=3")
    return r


def _suite_kahler(config):
    r = _Runner(config, "kahler-curvature")
    rng = np.random.default_rng(config.seed)
    count = config.sweep("tensors", 10)
    tol = config.tol("components", 1e-10)

    gaps = []
    imags = []
    for n in (2, 3):
        for _ in range(count):
            R = cv.random_admissible(n, rng)
            Kc = kahler.kahler_curvature_at_zero(R)
            Kj = kahler.kahler_curvature_from_jet(majet.potential_expansion(R))
            gaps.append(np.max(np.abs(Kc.components - Kj.components)))
            imags.append(Kj.max_imag())
    r.case("oracle-vs-closed-form", _worst(gaps), tol,
           f"max component gap over {count} tensors per dim")
    r.case("oracle-reality", _worst(imags), config.tol("imag", 1e-12),
           "imaginary parts of jet-oracle components")

    sphere = cv.constant_curvature(2, 1.0)
    vals = {
        "sphere-K-1212": (kahler.kahler_curvature_at_zero(sphere)
                          .components[0, 1, 0, 1].real, 1.0 / 3.0),
        "sphere-K-1221": (kahler.kahler_curvature_at_zero(sphere)
                          .components[0, 1, 1, 0].real, -1.0 / 6.0),
        "sphere-xy-plane": (kahler.plane_sectional(sphere, "xy", 0, 1), -1.0 / 3.0),
        "sphere-xx-plane": (kahler.plane_sectional(sphere, "xx", 0, 1), 1.0),
        "sphere-holomorphic": (kahler.plane_sectional(sphere, "holomorphic", 0), 0.0),
    }
    for cid, (got, want) in vals.items():
        r.case(cid, abs(got - want), tol, f"expected {want}")

    witness = kahler.negative_plane_witness(sphere)
    r.case("negative-plane-witness",
           abs(witness.value + 1.0 / 3.0) if witness else 1.0, tol,
           "sphere witness value vs -1/3")
    r.tables["kahler_planes.csv"] = kahler.plane_report_csv(
        kahler.plane_report_rows(sphere))
    return r


def _suite_complexify(config):
    r = _Runner(config, "complexify-holomorphy")
    ctx = _context(config)
    rng = np.random.default_rng(config.seed)
    count = config.sweep("leaves", 10)

    shortfalls = []
    for _ in range(count):
        a = liealg.group_exp(ctx, ctx.random_element(rng, 1.2))
        X = ctx.random_element(rng, 1.0)
        shortfalls.append(2.0 - cx.cr_order_estimate(a, X))
    r.case("leaf-cr-order-group", _worst(shortfalls),
           config.tol("order_slack", 0.1),
           "shortfall of observed CR order below 2")

    if ctx.h_mask is None:
        r.skip("leaf-cr-order-coset", _no_split(ctx))
        r.skip("coset-equivariance", _no_split(ctx))
    else:
        shortfalls = []
        for _ in range(count):
            a = liealg.group_exp(ctx, ctx.random_element(rng, 1.2))
            Y = ctx.project_m(ctx.random_element(rng, 1.0))
            shortfalls.append(2.0 - cx.cr_order_estimate(a, Y))
        r.case("leaf-cr-order-coset", _worst(shortfalls),
               config.tol("order_slack", 0.1),
               "coset-model directions (complement vectors)")

        member = cx.diagonal_torus_membership()
        ok = 0
        trials = config.sweep("equivariance", 25)
        for _ in range(trials):
            a = liealg.group_exp(ctx, ctx.random_element(rng, 1.0))
            v = ctx.project_m(ctx.random_element(rng, 1.0))
            pt = cx.TangentPoint(a, v)
            g = liealg.group_exp(ctx, ctx.random_element(rng, 1.0))
            lhs = cx.coset_complexification(cx.left_translate(g, pt), member)
            rhs = cx.CosetPoint(
                liealg.GroupElement(
                    g.matrix @ cx.coset_complexification(pt, member)
                    .representative.matrix, ctx, complexified=True), member)
            ok += int(lhs.same_coset(rhs))
        r.case("coset-equivariance", trials - ok, 0.0,
               f"failed equivariance checks out of {trials}")

    gaps = []
    for _ in range(count):
        a = liealg.group_exp(ctx, ctx.random_element(rng, 1.2))
        v = ctx.random_element(rng, 1.0)
        img = cx.group_complexification(cx.TangentPoint(a, v))
        a2, v2 = cx.group_complexification_inverse(ctx, img)
        gaps.append(np.linalg.norm(a2.matrix - a.matrix) + np.linalg.norm(v2 - v))
    r.case("polar-inverse", _worst(gaps), config.tol("inverse", 1e-9),
           "recover (a, v) from the complexified image")
    return r


def _suite_nahm_gauge(config):
    r = _Runner(config, "nahm-gauge")
    ctx = _context(config)
    rng = np.random.default_rng(config.seed)
    N = config.steps
    # the Nahm data below is built from the first three basis elements
    no_triple = (f"context {ctx.name} has {len(ctx.basis)} basis elements, "
                 "the Nahm data needs 3")
    has_triple = len(ctx.basis) >= 3

    if has_triple:
        T0 = nahm.sampled_path(
            ctx, lambda t: 0.6 * np.sin(1.3 * t) * ctx.basis[0]
            + 0.4 * t * ctx.basis[2], N)
        init = [0.5 * ctx.basis[0], 0.8 * ctx.basis[1], 1.0 * ctx.basis[2]]
        sol = None

        def residual():
            nonlocal sol
            sol = nahm.integrate_nahm(ctx, init, T0)
            return nahm.nahm_residual_sup(sol)

        base = r.case("solution-residual", residual, config.tol("residual", 1e-8),
                      f"integrator self-consistency at grid {N}")

        gauges = config.sweep("gauges", 20)
        r.case("gauge-invariance-ratio", lambda: _worst([
            nahm.nahm_residual_sup(nahm.gauge_transform(
                nahm.smooth_gauge(ctx, rng, N, amplitude=0.5), sol)) / base
            for _ in range(gauges)]), config.tol("ratio", 10.0),
            f"worst gauged/ungauged residual ratio over {gauges} gauges")
    else:
        r.skip("solution-residual", no_triple)
        r.skip("gauge-invariance-ratio", no_triple)

    def constancy():
        a = liealg.group_exp(ctx, ctx.random_element(rng, 1.2))
        v = ctx.random_element(rng, 1.5)
        T0e, T1e = nahm.embed_tangent(a, v, N)
        xi = nahm.solve_gauge_ode(T0e)
        zero = nahm.constant_path(ctx, np.zeros_like(ctx.basis[0]), N)
        gauged = nahm.gauge_transform(xi, nahm.NahmConfiguration(T0e, T1e, zero, zero))
        return _worst(np.linalg.norm(gauged.T1.values - T1e.end[None], axis=(1, 2)))

    r.case("connection-gauged-constancy", constancy, config.tol("constancy", 1e-6),
           "gauged T1 stays at its endpoint value")

    if ctx.h_mask is None or not has_triple:
        reason = _no_split(ctx) if ctx.h_mask is None else no_triple
        r.skip("moment-map-zero", reason)
        r.skip("moment-map-loop-gauge", reason)
    else:
        m_parts = [ctx.project_m(ctx.random_element(rng)) for _ in range(3)]
        paths = [nahm.sampled_path(ctx, lambda t, M=M: np.cos(t) * M
                                   + t * (1 - t) * ctx.basis[-1], N)
                 for M in m_parts]
        cfg = nahm.NahmConfiguration(T0, *paths)
        mm = nahm.moment_map(cfg)
        r.case("moment-map-zero", lambda: _worst([np.linalg.norm(x) for x in mm]),
               config.tol("moment", 1e-12), "endpoints in the complement")

        def loop_gauge_gap():
            g0 = nahm.smooth_gauge(ctx, rng, N, endpoints="loop")
            mm2 = nahm.moment_map(nahm.gauge_transform(g0, cfg))
            return _worst([np.linalg.norm(x - y) for x, y in zip(mm, mm2)])

        r.case("moment-map-loop-gauge", loop_gauge_gap,
               config.tol("moment", 1e-12), "invariance under endpoint-fixing gauges")
    return r


# every error of an order sweep at or below this is round-off: the method is
# exact on the input (Magnus on an abelian algebra), so no order is observed
_EXACT_SWEEP = 1e-12


def _suite_nahm_roundtrip(config):
    r = _Runner(config, "nahm-roundtrip")
    ctx = _context(config)
    rng = np.random.default_rng(config.seed)
    pairs = config.sweep("pairs", 25)
    N = config.steps

    def roundtrip_error():
        errs = []
        for _ in range(pairs):
            a = liealg.group_exp(ctx, ctx.random_element(rng, 1.2))
            v = ctx.random_element(rng, 2.0)
            got = nahm.adapted_roundtrip(a, v, N)
            want = a.matrix @ scipy.linalg.expm(1j * v)
            errs.append(np.linalg.norm(got.matrix - want))
        return _worst(errs)

    r.case("roundtrip-error", roundtrip_error, config.tol("roundtrip", 1e-6),
           f"{pairs} seeded pairs at {N} steps")

    a = liealg.group_exp(ctx, ctx.random_element(rng, 1.2))
    r.case("roundtrip-zero-vector",
           lambda: np.linalg.norm(
               nahm.adapted_roundtrip(a, np.zeros_like(ctx.basis[0]), N).matrix
               - a.matrix),
           config.tol("zero_vector", 1e-12), "v = 0 returns the base point")

    def observed_order():
        v = ctx.random_element(rng, 1.8)
        want = a.matrix @ scipy.linalg.expm(1j * v)
        errs = np.array([np.linalg.norm(nahm.adapted_roundtrip(a, v, n).matrix - want)
                         for n in (32, 64, 128, 256)])
        if np.all(errs <= _EXACT_SWEEP):
            return 0.0, f"exact (errors <= {np.max(errs):.1e})"
        med = float(np.median(np.log2(errs[:-1] / errs[1:])))
        return abs(med - 4.0), f"median observed order {med:.3f} (target 4)"

    r.case("roundtrip-order", observed_order, config.tol("order_window", 0.2))
    return r


def _suite_s1(config):
    r = _Runner(config, "s1-isometry")
    ctx = _context(config)
    rng = np.random.default_rng(config.seed)
    N = config.grid
    tol = config.tol("exact", 1e-14)

    X = nahm.smooth_tangent(ctx, rng, N)
    Y = nahm.smooth_tangent(ctx, rng, N)
    T = nahm.NahmConfiguration(*(nahm.smooth_tangent(ctx, rng, N).paths()))

    r.case("omega-antisymmetry", abs(nahm.omega_I(X, X)), tol, "omega(X, X)")
    r.case("omega-complex-invariance",
           abs(nahm.omega_I(X.complex_rotated(), Y.complex_rotated())
               - nahm.omega_I(X, Y)), tol, "omega(IX, IY) = omega(X, Y)")

    theta = 2 * np.pi * rng.uniform()
    r.case("circle-l2", abs(nahm.l2_metric(X.rotated(theta), Y.rotated(theta))
                            - nahm.l2_metric(X, Y)), tol, f"theta = {theta:.3f}")
    r.case("circle-omega", abs(nahm.omega_I(X.rotated(theta), Y.rotated(theta))
                               - nahm.omega_I(X, Y)), tol, "")
    r.case("circle-potential", abs(nahm.kahler_potential(nahm.circle_action(theta, T))
                                   - nahm.kahler_potential(T)), tol, "")

    ref_N = config.sweep("two_form_ref", 25600)
    refX = nahm.smooth_tangent(ctx, np.random.default_rng(config.seed + 5), ref_N)
    refY = nahm.smooth_tangent(ctx, np.random.default_rng(config.seed + 6), ref_N)
    ref = nahm.omega_I(refX, refY)
    errs = []
    grids = (50, 100, 200)
    for n in grids:
        Tn = nahm.NahmConfiguration(
            *(nahm.smooth_tangent(ctx, np.random.default_rng(config.seed + 7), n)
              .paths()))
        Xn = nahm.smooth_tangent(ctx, np.random.default_rng(config.seed + 5), n)
        Yn = nahm.smooth_tangent(ctx, np.random.default_rng(config.seed + 6), n)
        errs.append(abs(nahm.potential_two_form(Tn, Xn, Yn) - ref))
    order = float(np.polyfit(np.log(grids), np.log(np.maximum(errs, 1e-300)), 1)[0])
    r.order_case("two-form-order", abs(order), 1.9, "trapezoid quadrature order")

    a = liealg.group_exp(ctx, ctx.random_element(rng, 1.0))
    v = ctx.random_element(rng, 1.5)
    T0e, T1e = nahm.embed_tangent(a, v, N)
    zero = nahm.constant_path(ctx, np.zeros_like(ctx.basis[0]), N)
    f = nahm.kahler_potential(nahm.NahmConfiguration(T0e, T1e, zero, zero))
    r.case("embedded-potential", abs(f - 0.5 * ctx.pair(v, v)),
           config.tol("potential", 1e-8), "potential equals half the squared norm")
    return r


_SUITES = {
    "ma-expansion": _suite_ma_expansion,
    "kahler-curvature": _suite_kahler,
    "complexify-holomorphy": _suite_complexify,
    "nahm-gauge": _suite_nahm_gauge,
    "nahm-roundtrip": _suite_nahm_roundtrip,
    "s1-isometry": _suite_s1,
}


def run_suite(config):
    """Run one suite (or all) and return the ordered list of records."""
    if config.suite == "all":
        names = SUITE_NAMES
    elif config.suite in _SUITES:
        names = (config.suite,)
    else:
        raise UnknownSuite(f"unknown suite {config.suite!r}")
    records = []
    tables = {}
    for name in names:
        runner = _SUITES[name](config)
        records.extend(runner.records)
        tables.update(runner.tables)
    records.sort(key=lambda rec: (rec.suite, rec.case))
    if config.out:
        _write_outputs(config, records, tables)
    return records


def _write_outputs(config, records, tables):
    os.makedirs(config.out, exist_ok=True)
    payload = [rec.as_dict() for rec in records]
    with open(os.path.join(config.out, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if config.fmt == "csv":
        lines = ["suite,case,status,metric,tol,ms,note"]
        for rec in records:
            lines.append(f"{rec.suite},{rec.case},{rec.status},{rec.metric!r},"
                         f"{rec.tol!r},{rec.ms},{rec.note!r}")
        with open(os.path.join(config.out, "report.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    for fname, text in tables.items():
        with open(os.path.join(config.out, fname), "w") as fh:
            fh.write(text)


# -- configuration parsing -------------------------------------------------

def _load_config_file(path, suite):
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigParseError(str(exc)) from exc
    if not read:
        raise ConfigParseError(f"cannot read config file {path}")
    merged = {}
    for section in ("all", suite):
        if parser.has_section(section):
            merged.update(dict(parser.items(section)))
    return merged


def _apply_setting(config, key, value):
    try:
        if key == "context":
            config.context = value
        elif key == "grid":
            config.grid = int(value)
        elif key == "steps":
            config.steps = int(value)
        elif key == "seed":
            config.seed = int(value)
        elif key.startswith("tol."):
            config.tolerances[key[4:]] = float(value)
        elif key.startswith("sweep."):
            config.sweeps[key[6:]] = int(value)
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

    config = SuiteConfig(suite=args.suite)
    if args.config:
        for key, value in _load_config_file(args.config, args.suite).items():
            _apply_setting(config, key, value)
    for attr in ("context", "grid", "steps", "seed"):
        value = getattr(args, attr)
        if value is not None:
            setattr(config, attr, value)
    if args.out:
        config.out = args.out
    if args.fmt:
        config.fmt = args.fmt
    config.timings = bool(args.timings)
    for key, value in overrides:
        _apply_setting(config, key, value)
    if config.grid < 8 or config.steps < 8:
        raise ConfigParseError("grid and steps must be at least 8")
    return config


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_args(argv)
        records = run_suite(config)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)
    except (UnknownSuite, ConfigParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TubeGeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

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
