"""One registry of the verification checks, and the sweeps behind them.

Each ``Check`` names its suite and case, a compute function of
``(ctx, rng, run)`` that returns ``(value, note)``, its gate (a fixed
tolerance, or the window of the observed order the compute returns) and
the preconditions the context must meet.  The command line
runs the checks of a suite in declaration order on one generator; the
acceptance tests call the sweep functions below with their contract seeds,
sample counts and grids.  Each sweep therefore exists once.

Every sweep reducer propagates NaN: one NaN sample makes the sweep's result
NaN, so any gate that reads it fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from . import complexify as cx
from . import curvature as cv
from . import kahler, liealg, majet, nahm
from .jets import JetPolynomial

# default sample counts, overridable per run with --sweep.KEY=VALUE
SWEEPS = {"tensors": 10, "leaves": 10, "well_defined": 25, "gauges": 20,
          "pairs": 25, "two_form_ref": 25600}

# every error of an order sweep at or below this is round-off: the method is
# exact on the input (Magnus on an abelian algebra), so no order is observed
EXACT_SWEEP = 1e-12

# grids of the gauged-residual order sweep: coarse enough that truncation,
# not round-off, sets both the gauged and the ungauged residual
GAUGE_GRIDS = (100, 200, 400)

def _worst(values):
    """Largest of the samples and 0; NaN if any sample is NaN."""
    return float(np.max(values, initial=0.0))


def quartic_sweep(rng, count):
    """Worst |A| of the solved quartic coefficients over ``count`` random
    admissible curvature tensors per dimension n = 2, 3."""
    sizes = []
    for n in (2, 3):
        for _ in range(count):
            R = cv.random_admissible(n, rng)
            sizes.append(majet.solve_quartic_coefficients(R).max_abs())
    return _worst(sizes)


def planted_quartic_gap(rng):
    """Worst |read + P| over n = 2, 3, where a seeded pure-y quartic P is
    added to the degree-4 expansion of a seeded admissible tensor and read
    is the solve's pure-y quartic read of its residual: the matching must
    cancel the plant, with the gain and at the positions of the solve."""
    gaps = []
    for n in (2, 3):
        R = cv.random_admissible(n, rng)
        powers = majet._pure_y_quartic_powers(n)
        P = rng.standard_normal(len(powers))
        planted = JetPolynomial(2 * n, 4, dict(zip(map(tuple, powers.tolist()), P)))
        residual = majet.ma_residual(majet.potential_expansion(R, 4) + planted)
        gaps.append(np.max(np.abs(majet._pure_y_quartic_read(residual, n) + P)))
    return _worst(gaps)


def holomorphic_change_pairs(rng):
    """Pairs (rho, rho') for n = 2, 3: the degree-4 expansion rho of a seeded
    admissible tensor, and rho' = rho o Phi through degree 4 for the
    holomorphic change Phi(z) = z + Q(z, z) with a seeded complex Q.  As
    rho's quadratic part is |y|^2 and dPhi(0) = I, rho' = rho
    + 2 sum_i y_i Im Q_i(z) + sum_i (Im Q_i(z))^2; it has cubic terms, and
    it must keep K at the origin and a vanishing residual through degree 4."""
    pairs = []
    for n in (2, 3):
        rho = majet.potential_expansion(cv.random_admissible(n, rng), 4)
        Q = 0.3 * (rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n)))
        y = [JetPolynomial.variable(n + k, 2 * n, 4) for k in range(n)]
        z = [JetPolynomial.variable(k, 2 * n, 4) + 1j * y[k] for k in range(n)]
        changed = rho
        for i in range(n):
            Qz = sum(z[j] * sum(Q[i, j, k] * z[k] for k in range(n)) for j in range(n))
            imQ = JetPolynomial(2 * n, 4, {p: np.imag(c) for p, c in Qz.coeffs.items()})
            changed = changed + 2.0 * y[i] * imQ + imQ * imQ
        pairs.append((rho, changed))
    return pairs


def sphere_potential():
    """Potential jet of the unit-curvature 2-sphere."""
    return majet.potential_expansion(cv.constant_curvature(2, 1.0))


def residual_scaling(rho, seed, eps_values=None):
    """Log-log slope of the sup MA residual over scaled polydisks, and the
    (eps, sup) rows it is fitted to."""
    rows = majet.residual_scaling_table(rho, eps_values=eps_values, seed=seed)
    return majet.fitted_loglog_slope(rows), rows


def kahler_oracle_sweep(rng, count):
    """Worst gap between the jet-derived and the closed-form K components,
    and worst imaginary part of the jet-derived ones, over ``count`` random
    admissible tensors per dimension n = 2, 3."""
    gaps, imags = [], []
    for n in (2, 3):
        for _ in range(count):
            R = cv.random_admissible(n, rng)
            Kc = kahler.kahler_curvature_at_zero(R)
            Kj = kahler.kahler_curvature_from_jet(majet.potential_expansion(R))
            gaps.append(np.max(np.abs(Kc.components - Kj.components)))
            imags.append(Kj.max_imag())
    return _worst(gaps), _worst(imags)


def sphere_special_gaps():
    """Case -> (gap, expected value) for the unit 2-sphere's special K
    components and plane values; the holomorphic case covers both axes."""
    sphere = cv.constant_curvature(2, 1.0)
    K = kahler.kahler_curvature_at_zero(sphere).components.real
    plane = lambda kind, *idx: kahler.plane_sectional(sphere, kind, *idx)
    specials = {
        "sphere-K-1212": ([K[0, 1, 0, 1]], 1.0 / 3.0),
        "sphere-K-1221": ([K[0, 1, 1, 0]], -1.0 / 6.0),
        "sphere-xy-plane": ([plane("xy", 0, 1)], -1.0 / 3.0),
        "sphere-xx-plane": ([plane("xx", 0, 1)], 1.0),
        "sphere-holomorphic": ([plane("holomorphic", 0), plane("holomorphic", 1)],
                               0.0),
    }
    return {case: (_worst(np.abs(np.subtract(got, want))), want)
            for case, (got, want) in specials.items()}


def leaf_cr_order(ctx, rng, count, coset=False):
    """Lowest observed Cauchy-Riemann order of complexified geodesic leaves
    over ``count`` seeded (a, X); NaN when ``count`` is 0.

    With ``coset`` the directions are projected onto the complement m; a
    projection shorter than 0.05 is replaced by 0.7 times the first
    complement basis element.
    """
    orders = []
    for _ in range(count):
        a = liealg.group_exp(ctx, ctx.random_element(rng, 1.2))
        X = ctx.random_element(rng, 1.0)
        if coset:
            X = ctx.project_m(X)
            if ctx.norm(X) < 0.05:
                X = 0.7 * ctx.m_basis()[0]
        orders.append(cx.cr_order_estimate(a, X))
    return float(np.min(orders)) if orders else float("nan")


def coset_shift_failures(ctx, rng, count):
    """How many of ``count`` seeded shifts (a, v) -> (a h, Ad_{h^-1} v), with
    h = exp(project_h(.)) in H, leave the coset of a exp(iv)."""
    member = cx.subgroup_membership(ctx)
    failures = 0
    for _ in range(count):
        a = liealg.group_exp(ctx, ctx.random_element(rng, 1.0))
        point = cx.TangentPoint(a, ctx.project_m(ctx.random_element(rng, 1.0)))
        h = liealg.group_exp(ctx, ctx.project_h(ctx.random_element(rng, 1.0)))
        image = cx.coset_complexification(point, member)
        shifted = cx.coset_complexification(cx.bundle_shift(point, h), member)
        failures += not image.same_coset(shifted)
    return failures


def polar_inverse_gap(ctx, rng, count):
    """Worst error recovering (a, v) from a exp(iv) by the polar split."""
    gaps = []
    for _ in range(count):
        a = liealg.group_exp(ctx, ctx.random_element(rng, 1.2))
        v = ctx.random_element(rng, 1.0)
        image = cx.group_complexification(cx.TangentPoint(a, v))
        a2, v2 = cx.group_complexification_inverse(ctx, image)
        gaps.append(np.linalg.norm(a2.matrix - a.matrix) + np.linalg.norm(v2 - v))
    return _worst(gaps)


def _grid_times(N):
    """Grid times 0, 1/N, ..., 1 shaped (N+1, 1, 1) to broadcast over a
    (m, m) matrix."""
    return np.linspace(0.0, 1.0, N + 1)[:, None, None]


def nahm_solution(ctx, N):
    """Nahm flow from fixed data on the first three basis elements: the
    connection path T0, the solution and its residual sup.  The data is
    small enough that the so(n) flows stay bounded, so the residuals of the
    ``GAUGE_GRIDS`` are already in the scheme's asymptotic range."""
    ts = _grid_times(N)
    T0 = nahm.GaugePath(0.3 * np.sin(1.3 * ts) * ctx.basis[0]
                        + 0.2 * ts * ctx.basis[2], "algebra", ctx)
    init = [0.25 * ctx.basis[0], 0.4 * ctx.basis[1], 0.5 * ctx.basis[2]]
    sol = nahm.integrate_nahm(ctx, init, T0)
    return T0, sol, nahm.nahm_residual_sup(sol)


def gauge_residual_order(ctx, rng, count, grids=GAUGE_GRIDS):
    """Observed order of the worst gauged Nahm residual over ``count``
    seeded smooth gauges, each sampled on every grid of ``grids`` (doubling
    sizes), as ``halving_order`` reads it.

    Returns (order, worst gauge, worst gauged residual, ungauged residual):
    the 0-based index of the gauge with the largest residual on the finest
    grid (the first NaN one if any; None when ``count`` is 0) and the two
    residuals there.  Each gauge draws from ``rng`` once, as one
    ``smooth_gauge`` call, and is replayed from that state on every grid.
    With no gauges the order is NaN.
    """
    solutions = [nahm_solution(ctx, N)[1] for N in grids]
    gauged = np.empty((count, len(grids)))
    for k in range(count):
        start = rng.bit_generator.state
        for j, (N, sol) in enumerate(zip(grids, solutions)):
            rng.bit_generator.state = start
            gauge = nahm.smooth_gauge(ctx, rng, N, amplitude=0.5)
            gauged[k, j] = nahm.nahm_residual_sup(nahm.gauge_transform(gauge, sol))
    worst = np.max(gauged, axis=0, initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        order = halving_order(worst)
    index = int(np.argmax(gauged[:, -1])) if count else None
    return order, index, worst[-1], nahm.nahm_residual_sup(solutions[-1])


def gauged_constancy(ctx, rng, N):
    """Worst drift of T1 from its endpoint value after solving the gauge ODE
    on an embedded seeded tangent point."""
    a = liealg.group_exp(ctx, ctx.random_element(rng, 1.2))
    v = ctx.random_element(rng, 1.5)
    T0e, T1e = nahm.embed_tangent(a, v, N)
    xi = nahm.solve_gauge_ode(T0e)
    zero = nahm.constant_path(ctx, np.zeros_like(ctx.basis[0]), N)
    gauged = nahm.gauge_transform(xi, nahm.NahmConfiguration(T0e, T1e, zero, zero))
    return _worst(np.linalg.norm(gauged.T1.values - T1e.end[None], axis=(1, 2)))


def moment_map_gaps(ctx, rng, T0):
    """Largest endpoint moment map of a configuration whose T1, T2, T3 end
    in the complement, and its largest change under a seeded loop gauge."""
    N = T0.grid_size
    ts = _grid_times(N)
    m_parts = [ctx.project_m(ctx.random_element(rng)) for _ in range(3)]
    paths = [nahm.GaugePath(np.cos(ts) * M + ts * (1 - ts) * ctx.basis[-1],
                            "algebra", ctx)
             for M in m_parts]
    cfg = nahm.NahmConfiguration(T0, *paths)
    mm = nahm.moment_map(cfg)
    g0 = nahm.smooth_gauge(ctx, rng, N, endpoints="loop")
    mm2 = nahm.moment_map(nahm.gauge_transform(g0, cfg))
    return (_worst([np.linalg.norm(x) for x in mm]),
            _worst([np.linalg.norm(x - y) for x, y in zip(mm, mm2)]))


def roundtrip_error(ctx, rng, count, N):
    """Worst error of ``adapted_roundtrip`` against a exp(iv) over ``count``
    seeded pairs with |v| <= 2, and the largest |v| drawn."""
    errs, norms = [], []
    for _ in range(count):
        a = liealg.group_exp(ctx, ctx.random_element(rng, 1.2))
        v = ctx.random_element(rng, 2.0)
        norms.append(ctx.norm(v))
        got = nahm.adapted_roundtrip(a, v, N)
        errs.append(np.linalg.norm(got.matrix - a.matrix @ scipy.linalg.expm(1j * v)))
    return _worst(errs), _worst(norms)


def roundtrip_zero_vector(ctx, rng, count, N):
    """Worst distance from the base point of the roundtrip of v = 0."""
    errs = []
    for _ in range(count):
        a = liealg.group_exp(ctx, ctx.random_element(rng, 1.2))
        got = nahm.adapted_roundtrip(a, np.zeros_like(ctx.basis[0]), N)
        errs.append(np.linalg.norm(got.matrix - a.matrix))
    return _worst(errs)


def roundtrip_order_errors(ctx, rng, grids=(32, 64, 128, 256)):
    """Roundtrip errors of one seeded pair (|v| <= 1.8) at each grid."""
    a = liealg.group_exp(ctx, ctx.random_element(rng, 1.2))
    v = ctx.random_element(rng, 1.8)
    want = a.matrix @ scipy.linalg.expm(1j * v)
    return np.array([np.linalg.norm(nahm.adapted_roundtrip(a, v, n).matrix - want)
                     for n in grids])


def halving_order(errs):
    """Median observed order of errors at successively doubled grids."""
    return float(np.median(np.log2(errs[:-1] / errs[1:])))


def hyperkahler_identities(ctx, rng, N):
    """Case -> defect of the exact identities on seeded smooth tangents X, Y
    and configuration T at grid N, and the seeded circle angle theta."""
    X = nahm.smooth_tangent(ctx, rng, N)
    Y = nahm.smooth_tangent(ctx, rng, N)
    T = nahm.smooth_tangent(ctx, rng, N)
    theta = 2 * np.pi * rng.uniform()
    omega = nahm.omega_I
    Xr, Yr = nahm.circle_action(theta, X), nahm.circle_action(theta, Y)
    return {
        "omega-antisymmetry": _worst([abs(omega(X, X)),
                                      abs(omega(X, Y) + omega(Y, X))]),
        "omega-complex-invariance": abs(
            omega(X.complex_rotated(), Y.complex_rotated()) - omega(X, Y)),
        "circle-l2": abs(nahm.l2_metric(Xr, Yr) - nahm.l2_metric(X, Y)),
        "circle-omega": abs(omega(Xr, Yr) - omega(X, Y)),
        "circle-potential": abs(nahm.kahler_potential(nahm.circle_action(theta, T))
                                - nahm.kahler_potential(T)),
    }, theta


def two_form_order(ctx, seeds, ref_grid, grids=(50, 100, 200)):
    """Observed order of ``potential_two_form`` against omega_I at
    ``ref_grid``; ``seeds`` seed T, X and Y alike at every grid."""
    seed_T, seed_X, seed_Y = seeds
    tangent = lambda seed, n: nahm.smooth_tangent(ctx, np.random.default_rng(seed), n)
    ref = nahm.omega_I(tangent(seed_X, ref_grid), tangent(seed_Y, ref_grid))
    errs = [abs(nahm.potential_two_form(
        tangent(seed_T, n), tangent(seed_X, n), tangent(seed_Y, n)) - ref)
        for n in grids]
    return float(-np.polyfit(np.log(grids), np.log(np.maximum(errs, 1e-300)), 1)[0])


def embedded_potential(ctx, rng, N, count):
    """Worst gap between the Kahler potential of an embedded tangent point
    and |v|^2 / 2 over ``count`` seeded (a, v), each embedded along the
    default path and along h(t) = exp((1 - t) log a) exp(sin(pi t) w)."""
    zero = nahm.constant_path(ctx, np.zeros_like(ctx.basis[0]), N)
    potential = lambda T0, T1: nahm.kahler_potential(
        nahm.NahmConfiguration(T0, T1, zero, zero))
    gaps = []
    for _ in range(count):
        a = liealg.group_exp(ctx, ctx.random_element(rng, 1.2))
        v = ctx.random_element(rng, 1.5)
        f1 = potential(*nahm.embed_tangent(a, v, N))
        w = ctx.random_element(rng, 0.6)
        ts = _grid_times(N)
        hv = nahm._matmul_paths(nahm._expm_stack((1 - ts) * liealg.group_log(a)),
                                nahm._expm_stack(np.sin(np.pi * ts) * w))
        f2 = potential(*nahm.embed_tangent(
            a, v, N, h_path=nahm.GaugePath(hv, "group", ctx)))
        half = 0.5 * ctx.pair(v, v)
        gaps += [abs(f1 - half), abs(f2 - half)]
    return _worst(gaps)


# -- the registry ---------------------------------------------------------------


def needs_split(ctx):
    if ctx.h_mask is None:
        return f"context {ctx.name} has no subalgebra split"


def needs_triple(ctx):
    # the Nahm data is built from the first three basis elements
    if len(ctx.basis) < 3:
        return (f"context {ctx.name} has {len(ctx.basis)} basis elements, "
                "the Nahm data needs 3")


@dataclass
class SuiteRun:
    """Sizes of one suite run, and what its cases share.

    ``counts`` overrides the sample counts of ``SWEEPS``.  ``once(sweep,
    *args)`` runs a sweep that several cases of the run read: the first
    case to ask pays for it, later ones get its result whatever their args.
    ``tables`` collects the CSV tables the run writes.
    """

    grid: int
    steps: int
    seed: int
    counts: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    shared: dict = field(default_factory=dict)

    def count(self, key):
        return int(self.counts.get(key, SWEEPS[key]))

    def once(self, sweep, *args):
        if sweep not in self.shared:
            self.shared[sweep] = sweep(*args)
        return self.shared[sweep]


@dataclass(frozen=True)
class Check:
    """A case gated by ``metric <= tol`` or, with ``order = (lo, hi)``, by
    lo <= observed order <= hi; no setting moves either gate."""

    suite: str
    case: str
    compute: Callable
    tol: float = 0.0
    order: tuple | None = None
    needs: tuple = ()

    def unmet(self, ctx):
        """Reason of the first precondition the context does not meet."""
        return next((r for r in (need(ctx) for need in self.needs) if r), None)


def _scaling_slope(ctx, rng, run):
    slope, rows = residual_scaling(run.once(sphere_potential), run.seed)
    run.tables["ma_residual_scaling.csv"] = majet.scaling_table_csv(rows)
    return slope, "log-log slope of sup residual over scaled polydisks"


def _planted_quartic(ctx, rng, run):
    return (planted_quartic_gap(np.random.default_rng(run.seed + 2)),
            "|read + P| of a planted pure-y quartic P, n=2,3")


def _holomorphic_change(metric, note):
    def compute(ctx, rng, run):
        pairs = holomorphic_change_pairs(np.random.default_rng(run.seed + 3))
        return _worst([metric(*pair) for pair in pairs]), note
    return compute


def _sphere_special(case):
    def compute(ctx, rng, run):
        gap, want = run.once(sphere_special_gaps)[case]
        return gap, f"expected {want}"
    return compute


def _witness(ctx, rng, run):
    sphere = cv.constant_curvature(2, 1.0)
    witness = kahler.negative_plane_witness(sphere)
    run.tables["kahler_planes.csv"] = kahler.plane_report_csv(
        kahler.plane_report_rows(sphere))
    return (abs(witness.value + 1.0 / 3.0) if witness else 1.0,
            "sphere witness value vs -1/3")


def _roundtrip_order(ctx, rng, run):
    errs = roundtrip_order_errors(ctx, rng)
    if np.all(errs <= EXACT_SWEEP):  # no order observed
        return None, f"exact (errors <= {np.max(errs):.1e})"
    return halving_order(errs), "median halving order of the roundtrip error"


def _gauge_invariance_order(ctx, rng, run):
    count = run.count("gauges")
    order, worst, gauged, base = gauge_residual_order(ctx, rng, count)
    return order, (
        f"median halving order of the worst gauged residual over {count} gauges "
        f"at N = {', '.join(map(str, GAUGE_GRIDS))} (at N = {GAUGE_GRIDS[-1]}: "
        f"gauged {gauged:.3e}, ungauged residual {base:.3e}, worst gauge {worst})")


def _identity(case, note):
    def compute(ctx, rng, run):
        defects, theta = run.once(hyperkahler_identities, ctx, rng, run.grid)
        return defects[case], note.format(theta=theta)
    return compute


# Cases of a suite run in this order on one generator, so the order fixes
# which samples each case draws.
CHECKS = (
    Check("ma-expansion", "quartic-vanishing", tol=1e-9,
          compute=lambda ctx, rng, run: (
              run.once(quartic_sweep, rng, run.count("tensors")),
              f"max |A| over {run.count('tensors')} tensors per dim, n=2,3")),
    Check("ma-expansion", "low-order-residual", tol=1e-12,
          compute=lambda ctx, rng, run: (
              majet.ma_residual(run.once(sphere_potential))
              .max_abs_coeff(degrees=range(5)),
              "residual coefficients of degree <= 4 for the sphere jet")),
    Check("ma-expansion", "residual-scaling-slope", order=(5.5, np.inf),
          compute=_scaling_slope),
    Check("ma-expansion", "planted-quartic-read", tol=1e-9,
          compute=_planted_quartic),
    Check("ma-expansion", "holomorphic-change-residual", tol=1e-12,
          compute=_holomorphic_change(
              lambda rho, changed: majet.ma_residual(changed).max_abs_coeff(),
              "degree <= 4 residual of rho o (z + Q(z, z)), n=2,3")),

    Check("kahler-curvature", "oracle-vs-closed-form", tol=1e-10,
          compute=lambda ctx, rng, run: (
              run.once(kahler_oracle_sweep, rng, run.count("tensors"))[0],
              f"max component gap over {run.count('tensors')} tensors per dim")),
    Check("kahler-curvature", "oracle-reality", tol=1e-12,
          compute=lambda ctx, rng, run: (
              run.once(kahler_oracle_sweep, rng, run.count("tensors"))[1],
              "imaginary parts of jet-oracle components")),
    *(Check("kahler-curvature", case, tol=1e-10,
            compute=_sphere_special(case))
      for case in ("sphere-K-1212", "sphere-K-1221", "sphere-xy-plane",
                   "sphere-xx-plane", "sphere-holomorphic")),
    Check("kahler-curvature", "negative-plane-witness", tol=1e-10,
          compute=_witness),
    Check("kahler-curvature", "holomorphic-change-invariance",
          tol=1e-10, compute=_holomorphic_change(
              lambda rho, changed: np.max(np.abs(
                  kahler.kahler_curvature_from_jet(changed).components
                  - kahler.kahler_curvature_from_jet(rho).components)),
              "max |K(rho o (z + Q(z, z))) - K(rho)|, n=2,3")),

    Check("complexify-holomorphy", "leaf-cr-order-group", order=(1.9, np.inf),
          compute=lambda ctx, rng, run: (
              leaf_cr_order(ctx, rng, run.count("leaves")),
              f"lowest CR order over {run.count('leaves')} leaves")),
    Check("complexify-holomorphy", "leaf-cr-order-coset", order=(1.9, np.inf),
          needs=(needs_split,), compute=lambda ctx, rng, run: (
              leaf_cr_order(ctx, rng, run.count("leaves"), coset=True),
              f"lowest CR order over {run.count('leaves')} leaves, directions in m")),
    Check("complexify-holomorphy", "coset-well-defined", needs=(needs_split,),
          compute=lambda ctx, rng, run: (
              coset_shift_failures(ctx, rng, run.count("well_defined")),
              f"failed well-definedness checks out of {run.count('well_defined')}")),
    Check("complexify-holomorphy", "polar-inverse", tol=1e-9,
          compute=lambda ctx, rng, run: (
              polar_inverse_gap(ctx, rng, run.count("leaves")),
              "recover (a, v) from the complexified image")),

    Check("nahm-gauge", "solution-residual", tol=1e-8,
          needs=(needs_triple,), compute=lambda ctx, rng, run: (
              run.once(nahm_solution, ctx, run.steps)[2],
              f"integrator self-consistency at grid {run.steps}")),
    Check("nahm-gauge", "gauge-invariance-order", order=(3.8, 4.2),
          needs=(needs_triple,), compute=_gauge_invariance_order),
    Check("nahm-gauge", "connection-gauged-constancy", tol=1e-6,
          compute=lambda ctx, rng, run: (
              gauged_constancy(ctx, rng, run.steps),
              "gauged T1 stays at its endpoint value")),
    Check("nahm-gauge", "moment-map-zero", tol=1e-12,
          needs=(needs_split, needs_triple), compute=lambda ctx, rng, run: (
              run.once(moment_map_gaps, ctx, rng,
                       run.once(nahm_solution, ctx, run.steps)[0])[0],
              "endpoints in the complement")),
    Check("nahm-gauge", "moment-map-loop-gauge", tol=1e-12,
          needs=(needs_split, needs_triple), compute=lambda ctx, rng, run: (
              run.once(moment_map_gaps, ctx, rng,
                       run.once(nahm_solution, ctx, run.steps)[0])[1],
              "invariance under endpoint-fixing gauges")),

    Check("nahm-roundtrip", "roundtrip-error", tol=1e-6,
          compute=lambda ctx, rng, run: (
              roundtrip_error(ctx, rng, run.count("pairs"), run.steps)[0],
              f"{run.count('pairs')} seeded pairs at {run.steps} steps")),
    Check("nahm-roundtrip", "roundtrip-zero-vector", tol=1e-12,
          compute=lambda ctx, rng, run: (
              roundtrip_zero_vector(ctx, rng, 1, run.steps),
              "v = 0 returns the base point")),
    Check("nahm-roundtrip", "roundtrip-order", order=(3.8, 4.2),
          compute=_roundtrip_order),

    *(Check("s1-isometry", case, tol=1e-14,
            compute=_identity(case, note))
      for case, note in (("omega-antisymmetry", "omega(X, X), omega(X, Y) + omega(Y, X)"),
                         ("omega-complex-invariance", "omega(IX, IY) = omega(X, Y)"),
                         ("circle-l2", "theta = {theta:.3f}"),
                         ("circle-omega", ""),
                         ("circle-potential", ""))),
    Check("s1-isometry", "two-form-order", order=(1.9, np.inf),
          compute=lambda ctx, rng, run: (
              two_form_order(ctx, (run.seed + 7, run.seed + 5, run.seed + 6),
                             run.count("two_form_ref")),
              "trapezoid quadrature order")),
    Check("s1-isometry", "embedded-potential", tol=1e-8,
          compute=lambda ctx, rng, run: (
              embedded_potential(ctx, rng, run.grid, 1),
              "potential equals half the squared norm")),
)

SUITE_NAMES = tuple(dict.fromkeys(c.suite for c in CHECKS))
