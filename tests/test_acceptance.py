"""Acceptance criteria, one test per criterion.

Each test pins the seeds, sample counts and tolerances stated in the
project contract, prints one pass/fail line (visible with ``pytest -s`` or
``-rA``), and enforces its runtime budget.  The sweeps are the ones the
command line runs, from ``tubegeom.registry``.
"""

import time

import numpy as np
import pytest

from tubegeom import curvature as cv
from tubegeom import kahler, liealg, registry


def _report(number, name, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} "
          f"[{detail}; {elapsed:.1f}s/{budget:.0f}s]")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed <= budget, f"criterion {number} exceeded {budget}s budget"


def test_criterion_1_quartic_vanishing_oracle():
    t0 = time.perf_counter()
    worst_a = registry.quartic_sweep(np.random.default_rng(1001), 25)
    # the degree-4 matching equates 3 A with a curvature sum that vanishes
    _report(1, "quartic vanishing", 3.0 * worst_a <= 1e-9,
            f"3 max |A| {3.0 * worst_a:.2e} (tol 1e-9)", t0, 30.0)


def test_criterion_2_residual_scaling():
    t0 = time.perf_counter()
    rho = registry.sphere_potential()
    # frozen coefficients of the sphere jet
    assert rho.coefficient((0, 0, 2, 0)) == 1.0
    assert rho.coefficient((2, 0, 0, 2)) == pytest.approx(-1.0 / 3.0)
    slope, _ = registry.residual_scaling(rho, seed=2024)
    _report(2, "residual scaling", slope >= 5.5,
            f"log-log slope {slope:.3f} (needs >= 5.5)", t0, 5.0)


def test_criterion_3_kahler_closed_forms():
    t0 = time.perf_counter()
    worst, _ = registry.kahler_oracle_sweep(np.random.default_rng(1003), 10)
    worst_special = max(gap for gap, _ in registry.sphere_special_gaps().values())
    ok = worst <= 1e-10 and worst_special <= 1e-10
    _report(3, "kahler closed forms", ok,
            f"oracle gap {worst:.2e}, special values gap {worst_special:.2e} "
            "(tol 1e-10)", t0, 5.0)


def test_criterion_4_normal_coordinate_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst = 0.0
    for n in (2, 3):
        R = cv.random_admissible(n, rng)
        chart = cv.chart_from_metric_jet(cv.normal_metric_jet(R))
        got = cv.curvature_from_chart(chart, step=1e-3)
        worst = max(worst, float(np.max(np.abs(got.components - R.components))))

    R2 = cv.random_admissible(2, rng)
    chart2 = cv.chart_from_metric_jet(cv.normal_metric_jet(R2))
    errs = []
    for h in (0.02, 0.01, 0.005):
        got = cv.curvature_from_chart(chart2, step=h, stencil_order=2)
        errs.append(float(np.max(np.abs(got.components - R2.components))))
    orders = [float(np.log2(errs[k] / errs[k + 1])) for k in range(2)]
    ok = worst <= 1e-6 and all(1.8 <= o <= 2.2 for o in orders)
    _report(4, "normal-coordinate consistency", ok,
            f"recovery {worst:.2e} (tol 1e-6), halving orders "
            f"{orders[0]:.2f}/{orders[1]:.2f}", t0, 10.0)


def test_criterion_5_roundtrip():
    t0 = time.perf_counter()
    ctx = liealg.su2()
    rng = np.random.default_rng(1005)
    worst, largest_v = registry.roundtrip_error(ctx, rng, 100, 2000)
    assert largest_v <= 2.0 + 1e-12
    worst_zero = registry.roundtrip_zero_vector(ctx, rng, 5, 2000)
    med = registry.halving_order(registry.roundtrip_order_errors(ctx, rng))
    ok = worst <= 1e-6 and worst_zero <= 1e-12 and 3.8 <= med <= 4.2
    _report(5, "adapted-map roundtrip", ok,
            f"error {worst:.2e} (tol 1e-6), v=0 {worst_zero:.2e} (tol 1e-12), "
            f"median order {med:.2f} (3.8..4.2)", t0, 20.0)


def test_criterion_6_gauge_and_moment_map():
    t0 = time.perf_counter()
    ctx = liealg.builtin_context("su2_u1")
    rng = np.random.default_rng(1006)
    T0, _, _ = registry.nahm_solution(ctx, 2000)
    order, _, _, _ = registry.gauge_residual_order(ctx, rng, 20)
    constancy = registry.gauged_constancy(ctx, rng, 2000)
    phi_norm, phi_gap = registry.moment_map_gaps(ctx, rng, T0)
    ok = (abs(order - 4.0) <= 0.2 and constancy <= 1e-6
          and phi_norm <= 1e-12 and phi_gap <= 1e-12)
    _report(6, "gauge and moment map", ok,
            f"gauged residual order {order:.2f} (3.8..4.2), constancy {constancy:.2e} "
            f"(tol 1e-6), moment {phi_norm:.2e}/{phi_gap:.2e} (tol 1e-12)",
            t0, 30.0)


def test_criterion_7_hyperkahler_identities():
    t0 = time.perf_counter()
    ctx = liealg.builtin_context("su2_u1")
    rng = np.random.default_rng(1007)
    defects, _ = registry.hyperkahler_identities(ctx, rng, 300)
    worst_exact = max(defects.values())
    order = registry.two_form_order(ctx, (41, 43, 47), 25600)
    worst_pot = registry.embedded_potential(ctx, rng, 500, 5)
    ok = worst_exact <= 1e-14 and order >= 1.9 and worst_pot <= 1e-8
    _report(7, "hyperkahler identities", ok,
            f"exact identities {worst_exact:.2e} (tol 1e-14), two-form order "
            f"{order:.2f} (>=1.9), embedded potential {worst_pot:.2e} (tol 1e-8)",
            t0, 20.0)


def test_criterion_8_leaf_holomorphy():
    t0 = time.perf_counter()
    ctx = liealg.builtin_context("su2_u1")
    rng = np.random.default_rng(1008)
    worst = registry.leaf_cr_order(ctx, rng, 20)
    worst_coset = registry.leaf_cr_order(ctx, rng, 20, coset=True)
    ok = worst >= 1.9 and worst_coset >= 1.9
    _report(8, "leaf holomorphy", ok,
            f"min CR order group {worst:.2f}, coset {worst_coset:.2f} "
            "(needs >= 1.9)", t0, 5.0)


def test_criterion_9_negative_plane_witness():
    t0 = time.perf_counter()
    tensors = [
        cv.constant_curvature(2, 1.0),
        cv.constant_curvature(3, 0.5),
        cv.constant_curvature(2, 3.0),
        cv.sphere_product(3, {(0, 1): 1.0}),
        cv.sphere_product(4, {(0, 1): 1.0, (2, 3): 2.0}),
        cv.sphere_product(5, {(0, 1): 0.3}),
    ]
    ok = True
    details = []
    for R in tensors:
        w = kahler.negative_plane_witness(R)
        if w is None:
            ok = False
            details.append("missing witness")
            continue
        expected = -max(R.components[i, j, i, j]
                        for i in range(R.dimension)
                        for j in range(R.dimension) if i != j) / 3.0
        plane_value = kahler.plane_sectional(R, "xy", w.i, w.j)
        if not (w.value < 0.0 and w.value == expected
                and plane_value == pytest.approx(w.value, abs=1e-15)):
            ok = False
            details.append(f"bad witness {w}")
    flat = cv.CurvatureTensor(np.zeros((3, 3, 3, 3)))
    ok = ok and kahler.negative_plane_witness(flat) is None
    ok = ok and kahler.negative_plane_witness(cv.constant_curvature(2, -1.0)) is None
    _report(9, "negative plane witness", ok,
            "; ".join(details) if details else
            f"{len(tensors)} non-flat non-negatively curved tensors witnessed",
            t0, 1.0)
