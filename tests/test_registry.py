import re
from pathlib import Path

import numpy as np
import pytest

from tubegeom import cli, kahler, liealg, majet, nahm, registry
from tubegeom import complexify as cx
from tubegeom import curvature as cv
from tubegeom.jets import JetPolynomial


def test_one_nan_sample_makes_the_sweep_nan(monkeypatch):
    real = nahm.adapted_roundtrip
    calls = []

    def second_is_nan(a, v, grid_size=2000):
        calls.append(grid_size)
        got = real(a, v, grid_size)
        if len(calls) == 2:
            return liealg.GroupElement(np.full_like(got.matrix, np.nan), a.context,
                                       complexified=True)
        return got

    monkeypatch.setattr(nahm, "adapted_roundtrip", second_is_nan)
    worst, _ = registry.roundtrip_error(liealg.su2(), np.random.default_rng(1005),
                                        3, 64)
    assert np.isnan(worst)
    assert not worst <= 1e-6  # the acceptance gate of criterion 5 fails


def test_case_ids_are_unique_and_keys_declared():
    ids = [(c.suite, c.case) for c in registry.CHECKS]
    assert len(ids) == len(set(ids))
    assert set(registry.SUITE_NAMES) == {c.suite for c in registry.CHECKS}
    # a tolerance is finite and not negative; an order case has none
    assert all(0.0 <= c.tol < np.inf and not (c.order and c.tol)
               for c in registry.CHECKS)


def test_readme_size_table_lists_the_registry_constants(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([A-Z_]+)` \| (\d+) \|", readme, re.M)
    table = {name: int(value) for name, value in rows}
    assert len(table) == len(rows)  # no constant listed twice
    assert set(table) == {"TENSORS", "LEAVES", "WELL_DEFINED", "GAUGES", "PAIRS",
                          "TWO_FORM_REF", "GRID", "STEPS"}
    assert table == {name: getattr(registry, name) for name in table}
    with pytest.raises(SystemExit):
        cli.parse_args(["--help"])
    usage = capsys.readouterr().out.lower()
    # no flag sizes a case
    assert not any(name.lower() in usage for name in table)
    assert "sweep" not in usage
    assert "--config" not in usage
    text = " ".join(readme.split())
    listed = re.search(r"fixed tolerances: (.*?\))\.", text)
    groups = re.findall(r"([\de.-]+) \(([^)]*)\)", listed.group(1))
    assert len(groups) == len(listed.group(1).split(";"))
    tols = [(case, float(tol)) for tol, cases in groups
            for case in re.findall(r"`([\w-]+)`", cases)]
    assert len(dict(tols)) == len(tols)  # no case listed twice
    assert dict(tols) == {c.case: c.tol for c in registry.CHECKS if not c.order}
    sentence = re.search(r"The order cases \(([^)]*)\)", text)
    windows = re.findall(r"`([\w-]+)` (?:>= ([\d.]+)|([\d.]+) to ([\d.]+))",
                         sentence.group(1))
    assert len(windows) == len(sentence.group(1).split(","))
    assert {case: (float(lo or low), float(hi or "inf"))
            for case, lo, low, hi in windows} == {
        c.case: c.order for c in registry.CHECKS if c.order}


def test_planted_quartic_read_fails_where_the_vanishing_read_cannot(monkeypatch):
    # a gain of b (b - 1) in place of (b - 1)(b - 2) leaves the vanishing
    # block at round-off, but the plant reads back as P / 2
    assert registry.planted_quartic_gap(np.random.default_rng(44)) <= 1e-12
    monkeypatch.setattr(majet, "_block_gain", lambda b: b * (b - 1))
    assert registry.quartic_sweep(np.random.default_rng(43), 2) <= 1e-9
    assert registry.planted_quartic_gap(np.random.default_rng(44)) > 0.1


def test_one_nan_in_the_solved_pure_y_block_makes_both_quartic_sweeps_nan(monkeypatch):
    real = majet.solve_potential
    calls = []

    def second_has_a_nan(seed):
        calls.append(seed)
        solved = real(seed)
        if len(calls) == 2:  # NaN on y_(n-1)^4, one coefficient of one sample
            y_last = (0,) * (seed.num_vars - 1) + (4,)
            return solved + JetPolynomial(seed.num_vars, seed.max_degree, {y_last: np.nan})
        return solved

    monkeypatch.setattr(majet, "solve_potential", second_has_a_nan)
    assert np.isnan(registry.quartic_sweep(np.random.default_rng(43), 2))
    calls.clear()
    assert np.isnan(registry.planted_quartic_gap(np.random.default_rng(44)))
    assert len(calls) == 2


def _plus_monomial(build, powers):
    """``build`` with 0.3 times the monomial of exponents ``powers`` of
    (x0, x1, y0, y1) added to the jet it returns."""
    def planted(*args):
        rho = build(*args)
        return rho + JetPolynomial(rho.num_vars, rho.max_degree,
                                   {(*powers, *[0] * (rho.num_vars - 4)): 0.3})
    return planted


@pytest.mark.parametrize("module, name, powers, red", [
    (None, None, None, None),
    (majet, "potential_expansion", (2, 0, 2, 0), "quartic-vanishing"),
    (registry, "sphere_potential", (0, 0, 4, 0), "low-order-residual"),
    (registry, "sphere_potential", (2, 0, 3, 0), "residual-scaling-slope"),
], ids=["clean", "x0^2y0^2-in-expansion", "y0^4-in-sphere", "x0^2y0^3-in-sphere"])
def test_ma_expansion_plants_turn_their_case_red(monkeypatch, module, name,
                                                 powers, red):
    # x0^2 y0^2 in the expansion breaks the curvature symmetry that keeps
    # the solved pure-y quartic zero (the solve absorbs a planted y0^4
    # instead); y0^4 in the sphere jet leaves a degree-4 residual; x0^2 y0^3
    # leaves a degree-5 residual, which only the slope of the scaled sup sees
    # (about 5.0)
    if module is not None:
        monkeypatch.setattr(module, name,
                            _plus_monomial(getattr(module, name), powers))
    checks = [c for c in registry.CHECKS if c.suite == "ma-expansion"]
    records, _ = cli._run_checks(checks, cli.SuiteConfig(),
                                 liealg.builtin_context("su2_u1"))
    status = {rec.case: rec.status for rec in records}
    assert list(status) == [
        "quartic-vanishing", "low-order-residual", "residual-scaling-slope",
        "planted-quartic-read", "holomorphic-change-residual"]
    if red is None:
        assert set(status.values()) == {"pass"}
    else:
        assert status[red] == "fail"


def test_holomorphic_change_is_the_quartic_jet_of_the_pulled_back_potential():
    # rho' matches rho at Phi(z) = z + Q(z, z) up to O(|p|^5); the tensor and
    # Q are replayed from a generator in the same state
    replay = np.random.default_rng(45)
    for rho, changed in registry.holomorphic_change_pairs(np.random.default_rng(45)):
        n = rho.num_vars // 2
        cv.random_admissible(n, replay)
        Q = 0.3 * (replay.standard_normal((n, n, n))
                   + 1j * replay.standard_normal((n, n, n)))
        p = np.random.default_rng(n).uniform(-1.0, 1.0, size=(20, 2 * n))
        gaps = []
        for eps in (0.02, 0.01):
            z = eps * (p[:, :n] + 1j * p[:, n:])
            w = z + np.einsum("ijk,pj,pk->pi", Q, z, z)
            gaps.append(np.max(np.abs(rho.evaluate(np.hstack([w.real, w.imag]))
                                      - changed.evaluate(eps * p))))
        assert np.log2(gaps[0] / gaps[1]) >= 4.5


def test_holomorphic_change_sees_a_transposed_solve_and_the_correction(monkeypatch):
    pairs = registry.holomorphic_change_pairs(np.random.default_rng(45))
    K = lambda rho: kahler.kahler_curvature_from_jet(rho).components
    for rho, changed in pairs:
        n = rho.num_vars // 2
        assert changed.max_abs_coeff(degrees={3}) > 0.5
        assert majet.ma_residual(changed).max_abs_coeff() <= 1e-13
        assert np.max(np.abs(K(changed) - K(rho))) <= 1e-14
        # without the third-derivative correction K(rho') is far from K(rho)
        Wz = 0.5 * np.hstack([np.eye(n), -1j * np.eye(n)])
        plain = kahler._wirtinger_contract(changed.derivatives_at_origin(4),
                                           Wz, Wz.conj(), Wz, Wz.conj())
        assert np.max(np.abs(plain - K(rho))) > 0.1
    solve = majet._graded_solve
    monkeypatch.setattr(majet, "_graded_solve",
                        lambda A, B, *rest: solve(A.transpose(1, 0, 2), B, *rest))
    assert max(majet.ma_residual(changed).max_abs_coeff() for _, changed in pairs) > 1.0


def test_gauge_residual_order_names_its_worst_gauge():
    ctx = liealg.builtin_context("su2_u1")
    grids = registry.GAUGE_GRIDS
    order, index, gauged, base = registry.gauge_residual_order(
        ctx, np.random.default_rng(5), 4)
    # each gauge is replayed on every grid from one state of the generator
    rng = np.random.default_rng(5)
    states = []
    for _ in range(4):
        states.append(rng.bit_generator.state)
        nahm.smooth_gauge(ctx, rng, 8)
    solutions = [registry.nahm_solution(ctx, N)[1] for N in grids]
    residuals = np.empty((4, len(grids)))
    for k, state in enumerate(states):
        for j, (N, sol) in enumerate(zip(grids, solutions)):
            gen = np.random.default_rng()
            gen.bit_generator.state = state
            residuals[k, j] = nahm.nahm_residual_sup(nahm.gauge_transform(
                nahm.smooth_gauge(ctx, gen, N, amplitude=0.5), sol))
    worst = residuals.max(axis=0)
    assert order == np.median(np.log2(worst[:-1] / worst[1:]))
    assert index == int(np.argmax(residuals[:, -1]))
    assert gauged == worst[-1]
    assert base == registry.nahm_solution(ctx, grids[-1])[2]


def test_gauge_residual_order_draws_one_gauge_per_sample():
    ctx = liealg.builtin_context("su2_u1")
    rng = np.random.default_rng(9)
    registry.gauge_residual_order(ctx, rng, 3)
    ref = np.random.default_rng(9)
    for _ in range(3):
        nahm.smooth_gauge(ctx, ref, 8)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_gauge_residual_order_without_gauges_is_nan():
    ctx = liealg.builtin_context("su2_u1")
    order, index, _, _ = registry.gauge_residual_order(
        ctx, np.random.default_rng(0), 0)
    assert np.isnan(order)
    assert index is None


def test_leaf_cr_order_is_uncapped_and_nan_without_leaves():
    ctx = liealg.builtin_context("su2_u1")
    assert np.isnan(registry.leaf_cr_order(ctx, np.random.default_rng(0), 0))
    # seed 13's leaf reads an order above 2, which is reported as it is
    replay = np.random.default_rng(13)
    a = liealg.group_exp(ctx, ctx.random_element(replay, 1.2))
    order = cx.cr_order_estimate(a, ctx.random_element(replay, 1.0))
    assert order > 2.0
    assert registry.leaf_cr_order(ctx, np.random.default_rng(13), 1) == order


def test_broadcast_nahm_data_matches_a_per_node_loop():
    ctx = liealg.builtin_context("su3_u2")
    T0 = registry.nahm_solution(ctx, 64)[0]
    loop = nahm.sampled_path(ctx, lambda t: 0.3 * np.sin(1.3 * t) * ctx.basis[0]
                             + 0.2 * t * ctx.basis[2], 64)
    assert np.array_equal(T0.values, loop.values)
