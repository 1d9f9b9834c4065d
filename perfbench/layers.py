"""Per-layer metrics of the traced run.

Each metric is the median duration of repeated direct calls into one
module's public functions, at the sizes the workloads use.  Every call is a
span of the tracer passed in; the metrics are read back from those spans.
Inputs come from the run's seed, except the CLI calls, which use the CLI
defaults like the cli-suites workload.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import sys

import numpy as np

from tubegeom import cli, jets, kahler, liealg, majet, nahm
from tubegeom import complexify as cx
from tubegeom import curvature as cv

import checks
from workloads import (CLI_CONTEXTS, GAUGE_CONTEXTS, GAUGE_GRID, JET_DIMS,
                    JET_EPS, JET_POINTS, gauge_inputs, run_dir)

NAHM_CONTEXT = "su2_u1"  # the CLI default context
GROUP_CONTEXT = "su3_u2"
OMEGA_GRID = 25600  # the s1-isometry reference grid

UNIT_SCALE = {"ms": 1e3, "us": 1e6, "s": 1.0}


class _Probe:
    """Times repeated calls as spans named ``name``; keeps the last result."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.metrics = {}
        self.ok = True

    def __call__(self, name, unit, reps, func, *args, **kwargs):
        for _ in range(reps):
            with self.tracer.span(name):
                result = func(*args, **kwargs)
        value = statistics.median(self.tracer.durations(name)) * UNIT_SCALE[unit]
        self.metrics[f"{name}.p50_{unit}" if unit != "s" else f"{name}.s"] = (value, unit)
        return result

    def require(self, name, ok):
        if not ok:
            print(f"check failed: per-layer {name}", file=sys.stderr)
            self.ok = False


def _nahm(probe, seed):
    pairs = gauge_inputs(seed)
    for name in GAUGE_CONTEXTS:
        a, v, want = pairs[name][0]
        got = probe(f"nahm.adapted_roundtrip.{name}", "ms", 3,
                    nahm.adapted_roundtrip, a, v, GAUGE_GRID)
        if name != "torus2":
            probe.require(f"roundtrip.{name}", checks.roundtrip_ok(got.matrix, want))

    a, v, _ = pairs["su2"][0]
    T0, T1 = probe("nahm.embed_tangent", "ms", 5, nahm.embed_tangent, a, v, GAUGE_GRID)
    alpha = nahm.GaugePath(T0.values + 1j * T1.values, "complex-algebra", a.context)
    g = probe("nahm.solve_gauge_ode", "ms", 5, nahm.solve_gauge_ode, alpha)
    probe.metrics["nahm.solve_gauge_ode.steps"] = (float(g.grid_size), "count")

    # the nahm-gauge suite's data at its default size
    ctx = liealg.builtin_context(NAHM_CONTEXT)
    rng = np.random.default_rng([seed, 1])
    T0 = nahm.sampled_path(ctx, lambda t: 0.6 * np.sin(1.3 * t) * ctx.basis[0]
                           + 0.4 * t * ctx.basis[2], GAUGE_GRID)
    init = [0.5 * ctx.basis[0], 0.8 * ctx.basis[1], 1.0 * ctx.basis[2]]
    sol = probe("nahm.integrate_nahm", "ms", 3, nahm.integrate_nahm, ctx, init, T0)
    gauge = probe("nahm.smooth_gauge", "ms", 5, nahm.smooth_gauge, ctx, rng,
                  GAUGE_GRID, amplitude=0.5)
    gauged = probe("nahm.gauge_transform", "ms", 5, nahm.gauge_transform, gauge, sol)
    probe("nahm.nahm_residual_sup", "ms", 5, nahm.nahm_residual_sup, gauged)

    X = nahm.smooth_tangent(ctx, rng, OMEGA_GRID)
    Y = nahm.smooth_tangent(ctx, rng, OMEGA_GRID)
    w = probe(f"nahm.omega_I.n{OMEGA_GRID}", "ms", 5, nahm.omega_I, X, Y)
    probe.require("omega-antisymmetry",
                  checks.within([w + nahm.omega_I(Y, X)], 1e-12 * max(1.0, abs(w))))


def _untimed(name, unit, reps, func, *args):
    return func(*args)


def _jets(probe, seed):
    rng = np.random.default_rng([seed, 2])
    for n in JET_DIMS:
        R = cv.random_admissible(n, rng)
        rho = majet.potential_expansion(R)
        reps = 3 if n == 4 else 5
        at_n4 = probe if n == 4 else _untimed
        inverse = at_n4(f"jets.matrix_inverse.n{n}", "ms", reps, jets.matrix_inverse,
                        majet.complex_hessian(rho))
        dzbar = jets.wirtinger_zbar(rho, 0, n)
        # the product ma_residual forms: raised Hessian entry times a derivative
        probe(f"jets.mul.n{n}", "ms", 5, lambda: inverse[0][0] * dzbar)
        at_n4(f"jets.wirtinger_z.n{n}", "ms", 5, jets.wirtinger_z, rho, 0, n)
        res = probe(f"majet.ma_residual.n{n}", "ms", reps, majet.ma_residual, rho)
        probe.require(f"residual.n{n}",
                      checks.within(checks.low_degree_coeffs(res, 5), 1e-12))
        points = rng.uniform(-1.0, 1.0, size=(JET_POINTS, 2 * n)) * JET_EPS[-1]
        at_n4(f"jets.evaluate.n{n}", "ms", 5, res.evaluate, points)
        K = probe(f"kahler.kahler_curvature_from_jet.n{n}", "ms", reps,
                  kahler.kahler_curvature_from_jet, rho)
        probe.require(f"kahler.n{n}", checks.kahler_ok(K.components, R.components))
        q = probe(f"majet.solve_quartic_coefficients.n{n}", "ms", reps,
                  majet.solve_quartic_coefficients, R)
        probe.require(f"quartic.n{n}", checks.quartic_ok(q.values.values()))


def _groups(probe, seed):
    ctx = liealg.builtin_context(GROUP_CONTEXT)
    rng = np.random.default_rng([seed, 3])
    X = ctx.random_element(rng, 1.2)
    a = probe(f"liealg.group_exp.{GROUP_CONTEXT}", "us", 200, liealg.group_exp, ctx, X)
    probe(f"liealg.group_log.{GROUP_CONTEXT}", "us", 200, liealg.group_log, a)
    probe(f"liealg.coefficients.{GROUP_CONTEXT}", "us", 200, ctx.coefficients, X)

    Y = ctx.random_element(rng, 1.0)
    order = probe("complexify.cr_order_estimate", "ms", 20, cx.cr_order_estimate, a, Y)
    probe.require("cr-order", bool(order >= 1.9))
    v = ctx.random_element(rng, 1.0)
    image = cx.group_complexification(cx.TangentPoint(a, v))
    a2, v2 = probe("complexify.group_complexification_inverse", "ms", 20,
                   cx.group_complexification_inverse, ctx, image)
    probe.require("polar-inverse",
                  checks.roundtrip_ok(a2.matrix, a.matrix, 1e-9)
                  and checks.roundtrip_ok(v2, v, 1e-9))


def _cli(probe):
    base = os.path.join(run_dir(), "layers-cli")
    try:
        for context in CLI_CONTEXTS:
            for suite in cli.SUITE_NAMES:
                argv = ["--suite", suite, "--context", context, "--out", base]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = probe(f"cli.{suite}.{context}", "s", 1, cli.main, argv)
                probe.require(f"cli.{suite}.{context}", code == 0)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def measure(tracer, seed):
    """Return ({metric: (value, unit)}, all per-layer sanity checks passed)."""
    probe = _Probe(tracer)
    _nahm(probe, seed)
    _jets(probe, seed)
    _groups(probe, seed)
    _cli(probe)
    return probe.metrics, probe.ok
