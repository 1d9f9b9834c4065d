import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from tubegeom import liealg as la
from tubegeom import nahm, registry
from tubegeom.errors import (BlowupDetected, ClosureViolation, ContextMismatch,
                             GridMismatch, MalformedInput)


@pytest.fixture(scope="module")
def ctx():
    return la.su2(h_split=True)


def _zero(ctx, N):
    return nahm.constant_path(ctx, np.zeros((2, 2)), N)


def _rng():
    return np.random.default_rng(17)


# -- derivatives and residuals ------------------------------------------


def test_path_derivative_fourth_order(ctx):
    freq = 2.1
    errs = []
    for N in (40, 80, 160):
        path = nahm.sampled_path(ctx, lambda t: np.sin(freq * t) * ctx.basis[0], N)
        exact = nahm.sampled_path(
            ctx, lambda t: freq * np.cos(freq * t) * ctx.basis[0], N)
        errs.append(np.max(np.abs(path.derivative() - exact.values)))
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) > 3.7


def test_residual_constant_commuting_is_zero(ctx):
    N = 50
    cfg = nahm.NahmConfiguration(
        nahm.constant_path(ctx, 0.3 * ctx.basis[2], N),
        nahm.constant_path(ctx, 0.7 * ctx.basis[2], N),
        _zero(ctx, N), _zero(ctx, N))
    assert nahm.nahm_residual_sup(cfg) < 1e-13


def test_configuration_rejects_group_valued_slots(ctx):
    N = 50
    g = nahm.smooth_gauge(ctx, _rng(), N)
    with pytest.raises(MalformedInput):
        nahm.NahmConfiguration(g, g, g, g)
    with pytest.raises(MalformedInput):
        nahm.NahmConfiguration(_zero(ctx, N), _zero(ctx, N), g, _zero(ctx, N))


def test_residual_conjugation_closed_form(ctx):
    rng = _rng()
    A = ctx.random_element(rng, 1.0)
    v = ctx.random_element(rng, 1.0)
    for N in (100, 200):
        T1 = nahm.sampled_path(
            ctx, lambda t: scipy.linalg.expm(-t * A) @ v @ scipy.linalg.expm(t * A), N)
        cfg = nahm.NahmConfiguration(nahm.constant_path(ctx, A, N), T1,
                                     _zero(ctx, N), _zero(ctx, N))
        # analytic solution of the reduced flow: residual is pure stencil error
        assert nahm.nahm_residual_sup(cfg) < 200.0 / N ** 4


def test_baby_residual_abelian_is_exact_derivative():
    ctx2 = la.torus(2)
    N = 60
    T0 = nahm.sampled_path(ctx2, lambda t: np.sin(t) * ctx2.basis[0], N)
    T1 = nahm.sampled_path(ctx2, lambda t: np.cos(2 * t) * ctx2.basis[1], N)
    resid = nahm.baby_nahm_residual(T0, T1)
    np.testing.assert_allclose(resid.values, T1.derivative(), atol=0.0)


def test_baby_residual_constant_path_no_connection(ctx):
    N = 40
    T1 = nahm.constant_path(ctx, 0.9 * ctx.basis[1], N)
    resid = nahm.baby_nahm_residual(_zero(ctx, N), T1)
    assert resid.sup_norm() < 1e-13


def test_grid_mismatch_raises(ctx):
    with pytest.raises(GridMismatch):
        nahm.baby_nahm_residual(_zero(ctx, 50), _zero(ctx, 60))


# -- gauge action --------------------------------------------------------


def test_gauge_identity_fixes_configuration(ctx):
    N = 80
    rng = _rng()
    cfg = nahm.smooth_tangent(ctx, rng, N)
    e = nahm.GaugePath(np.repeat(np.eye(2)[None], N + 1, 0), "group", ctx)
    gauged = nahm.gauge_transform(e, cfg)
    assert np.max(np.abs(cfg.values - gauged.values)) < 1e-14


def test_constant_gauge_is_pointwise_adjoint(ctx):
    N = 80
    rng = _rng()
    cfg = nahm.smooth_tangent(ctx, rng, N)
    g0 = scipy.linalg.expm(ctx.random_element(rng, 1.0))
    g = nahm.GaugePath(np.repeat(g0[None], N + 1, 0), "group", ctx)
    gauged = nahm.gauge_transform(g, cfg)
    want = np.einsum("ij,njk,kl->nil", g0, cfg.T0.values,
                     np.linalg.inv(g0))
    assert np.max(np.abs(gauged.T0.values - want)) < 1e-10
    want1 = np.einsum("ij,njk,kl->nil", g0, cfg.T1.values, np.linalg.inv(g0))
    assert np.max(np.abs(gauged.T1.values - want1)) < 1e-12


def test_gauge_invariance_of_nahm_residual(ctx):
    # the CLI's gate: the worst gauged residual keeps the scheme's fourth
    # order; a ratio to the ungauged residual at a fine grid divides
    # round-off by round-off and fails for some seeds (3 and 13 among them)
    lo, hi = next(c.order for c in registry.CHECKS
                  if c.case == "gauge-invariance-order")
    for seed in (17, 3, 13):
        order, _, _, _ = registry.gauge_residual_order(
            ctx, np.random.default_rng(seed), registry.GAUGES)
        assert lo <= order <= hi


# m = 3 and m = 4, over more nodes than one block of the product kernel
LOOP_CONTEXTS, LOOP_GRID = ("su3_u2", "so4"), 250


def _complex_gauge_and_config(name, rng, N):
    """A complex-group gauge path and a configuration on a built-in context."""
    c = la.builtin_context(name)
    ts = np.linspace(0.0, 1.0, N + 1)[:, None, None]
    X, Y = c.random_element(rng, 0.8), c.random_element(rng, 0.6)
    g = nahm.GaugePath(nahm._expm_stack(np.sin(2 * ts) * X + 1j * ts * Y),
                       "complex-group", c)
    return g, nahm.smooth_tangent(c, rng, N)


def _relative_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_batched_gauge_transform_matches_a_per_node_loop():
    N = LOOP_GRID
    for name in LOOP_CONTEXTS:
        g, cfg = _complex_gauge_and_config(name, _rng(), N)
        dg = nahm.path_derivative(g.values, 1.0 / N)
        gauged = nahm.gauge_transform(g, cfg)
        for slot, (P, Q) in enumerate(zip(cfg.values, gauged.values)):
            want = np.empty_like(P)
            for n in range(N + 1):
                ginv = np.linalg.inv(g.values[n])
                want[n] = g.values[n] @ P[n] @ ginv
                if slot == 0:
                    want[n] -= dg[n] @ ginv
            assert _relative_gap(Q, want) < 1e-12, (name, slot)


def test_batched_nahm_residual_matches_a_per_node_loop():
    N = LOOP_GRID
    for name in LOOP_CONTEXTS:
        g, cfg = _complex_gauge_and_config(name, _rng(), N)
        cfg = nahm.gauge_transform(g, cfg)  # complex values in every slot
        T0, T1, T2, T3 = cfg.values
        derivs = [nahm.path_derivative(T, 1.0 / N) for T in (T1, T2, T3)]
        got = nahm.nahm_residual(cfg)
        for k, (A, B, C) in enumerate(((T1, T2, T3), (T2, T3, T1), (T3, T1, T2))):
            want = np.empty_like(A)
            for n in range(N + 1):
                want[n] = (derivs[k][n] + T0[n] @ A[n] - A[n] @ T0[n]
                           + B[n] @ C[n] - C[n] @ B[n])
            assert _relative_gap(got[k].values, want) < 1e-12, (name, k)


def test_gauge_composition_law(ctx):
    rng = _rng()
    N = 300
    cfg = nahm.smooth_tangent(ctx, rng, N)
    g = nahm.smooth_gauge(ctx, rng, N, amplitude=0.6)
    h = nahm.smooth_gauge(ctx, rng, N, amplitude=0.6)
    gh = nahm.GaugePath(g.values @ h.values, "group", ctx)
    lhs = nahm.gauge_transform(gh, cfg)
    rhs = nahm.gauge_transform(g, nahm.gauge_transform(h, cfg))
    # the connection slot differs by finite-difference product-rule error
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-7


# -- gauge-fixing ODE ------------------------------------------------------


def test_gauge_ode_zero_input(ctx):
    g = nahm.solve_gauge_ode(_zero(ctx, 64))
    assert np.max(np.abs(g.values - np.eye(2))) == 0.0


def test_gauge_ode_constant_coefficient(ctx):
    rng = _rng()
    C = ctx.random_element(rng, 1.0)
    N = 200
    g = nahm.solve_gauge_ode(nahm.constant_path(ctx, C, N))
    ts = np.linspace(0.0, 1.0, N + 1)
    exact = np.array([scipy.linalg.expm((t - 1.0) * C) for t in ts])
    assert np.max(np.abs(g.values - exact)) < 1e-11
    assert g.kind == "group"


def test_gauge_ode_defining_property(ctx):
    rng = _rng()
    N = 400
    A = nahm.sampled_path(
        ctx, lambda t: np.sin(2 * t) * ctx.basis[0] + 0.4 * t * ctx.basis[1], N)
    g = nahm.solve_gauge_ode(A)
    cfg = nahm.NahmConfiguration(A, _zero(ctx, N), _zero(ctx, N), _zero(ctx, N))
    gauged = nahm.gauge_transform(g, cfg)
    assert gauged.T0.sup_norm() < 1e-8


def test_gauge_ode_unitary_reprojection(ctx):
    rng = _rng()
    N = 150
    A = nahm.sampled_path(ctx, lambda t: np.cos(t) * ctx.basis[1], N)
    g = nahm.solve_gauge_ode(A)
    defect = max(np.linalg.norm(m @ m.conj().T - np.eye(2)) for m in g.values)
    assert defect < 1e-13


def test_gauge_ode_order_four(ctx):
    rng = _rng()
    C1 = ctx.random_element(rng, 1.0)
    C2 = ctx.random_element(rng, 1.0)
    func = lambda t: np.sin(1.7 * t) * C1 + t * t * C2
    ref = None
    errs = []
    grids = (32, 64, 128)
    fine = nahm.solve_gauge_ode(nahm.sampled_path(ctx, func, 4096))
    for N in grids:
        g = nahm.solve_gauge_ode(nahm.sampled_path(ctx, func, N))
        errs.append(np.linalg.norm(g.values[0] - fine.values[0]))
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) > 3.6


# -- embedding and roundtrip ----------------------------------------------


def test_embed_tangent_identity_base(ctx):
    rng = _rng()
    v = ctx.random_element(rng, 1.0)
    T0, T1 = nahm.embed_tangent(la.GroupElement(np.eye(ctx.matrix_size), ctx), v, 64)
    assert T0.sup_norm() == 0.0
    assert np.max(np.abs(T1.values - v)) < 1e-14


def test_embed_tangent_abelian_constant_paths():
    ctx2 = la.torus(2)
    rng = _rng()
    a = la.group_exp(ctx2, ctx2.random_element(rng, 0.8))
    v = ctx2.random_element(rng, 1.0)
    T0, T1 = nahm.embed_tangent(a, v, 64)
    L = la.group_log(a)
    assert np.max(np.abs(T0.values - L)) < 1e-14
    assert np.max(np.abs(T1.values - v)) < 1e-14


def test_embed_tangent_solves_reduced_flow(ctx):
    rng = _rng()
    a = la.group_exp(ctx, ctx.random_element(rng, 1.2))
    v = ctx.random_element(rng, 1.5)
    N = 200
    T0, T1 = nahm.embed_tangent(a, v, N)
    assert np.linalg.norm(T1.end - v) < 1e-14
    resid = nahm.baby_nahm_residual(T0, T1)
    assert resid.sup_norm() < 100.0 / N ** 4
    _assert_T1_is_a_per_node_product(a, v, T1)


def _assert_T1_is_a_per_node_product(a, v, T1):
    """T1(t) = Z (P(t) * Z* v Z) Z* with P_ij(t) = exp((1-t)(lam_i - lam_j)),
    formed with one plain matrix product per node."""
    _, Z, lam = la._normal_log(a)
    Zh = Z.conj().T
    Vp = Zh @ v @ Z
    want = np.array([Z @ (np.exp((1 - t) * (lam[:, None] - lam[None, :])) * Vp) @ Zh
                     for t in np.linspace(0.0, 1.0, T1.grid_size + 1)])
    assert np.max(np.abs(T1.values - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["su3_u2", "so4", "torus2"])
def test_embed_tangent_matches_a_per_node_product(name):
    ctx_n = la.builtin_context(name)
    rng = _rng()
    a = la.group_exp(ctx_n, ctx_n.random_element(rng, 1.2))
    v = ctx_n.random_element(rng, 1.5)
    _assert_T1_is_a_per_node_product(a, v, nahm.embed_tangent(a, v, 200)[1])


@pytest.mark.parametrize("name", ["su2", "su3_u2", "so4", "torus2"])
@pytest.mark.parametrize("N", [7, 64, 2000])
def test_adapted_roundtrip_is_the_inverse_of_the_scanned_g0(name, N):
    # the roundtrip reads g(0) by a tree product; the whole-path scan of
    # solve_gauge_ode is the reference, and the two agree bit for bit
    ctx_n = la.builtin_context(name)
    rng = _rng()
    a = la.group_exp(ctx_n, ctx_n.random_element(rng, 1.2))
    v = ctx_n.random_element(rng, 1.5)
    T0, T1 = nahm.embed_tangent(a, v, N)
    alpha = nahm.GaugePath(T0.values + 1j * T1.values, "complex-algebra", ctx_n)
    want = np.linalg.inv(nahm.solve_gauge_ode(alpha).values[0])
    assert np.array_equal(nahm.adapted_roundtrip(a, v, N).matrix, want)


def _so4_pair():
    so4 = la.builtin_context("so4")
    rng = _rng()
    return la.group_exp(so4, so4.random_element(rng, 1.2)), so4.random_element(rng, 1.5)


def test_adapted_roundtrip_peak_memory():
    # after the first call every whole-path stack of the roundtrip is a view
    # of the thread's scratch arena (one stack at so4, N = 2000 is 512 KB)
    a, v = _so4_pair()
    nahm.adapted_roundtrip(a, v, 2000)  # warm the arena and the context tables
    tracemalloc.start()
    try:
        nahm.adapted_roundtrip(a, v, 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 2 ** 10


def _arena_regions():
    return list(nahm._arena.regions.values())


def test_gauge_ode_results_do_not_alias_the_arena():
    ctx3 = la.builtin_context("su3_u2")
    rng = _rng()
    a = la.group_exp(ctx3, ctx3.random_element(rng, 1.2))
    v = ctx3.random_element(rng, 1.5)
    T0, T1 = nahm.embed_tangent(a, v, 400)
    alpha = nahm.GaugePath(T0.values + 1j * T1.values, "complex-algebra", ctx3)
    X = rng.standard_normal((401, 3, 3)) + 1j * rng.standard_normal((401, 3, 3))
    calls = {
        "adapted_roundtrip": lambda: nahm.adapted_roundtrip(a, v, 400).matrix,
        "solve_gauge_ode": lambda: nahm.solve_gauge_ode(alpha).values,
        "_expm_stack": lambda: nahm._expm_stack(X),
        "smooth_gauge": lambda: nahm.smooth_gauge(ctx3, np.random.default_rng(3), 400).values,
    }
    for name, call in calls.items():
        first = call()
        kept = first.copy()
        assert not any(np.shares_memory(first, r) for r in _arena_regions()), name
        for other in calls.values():  # every region is written again
            other()
        assert np.array_equal(first, kept), name
        assert np.array_equal(call(), kept), name


def test_concurrent_roundtrips_equal_the_serial_ones():
    # each thread has its own arena: a region shared between threads would
    # mix the stacks of two roundtrips and change their results
    pairs = []
    for name in ("su3_u2", "so4"):
        c = la.builtin_context(name)
        rng = _rng()
        pairs.append((la.group_exp(c, c.random_element(rng, 1.2)), c.random_element(rng, 1.5)))
    serial = [nahm.adapted_roundtrip(a, v, 2000).matrix for a, v in pairs]
    jobs = [k % len(pairs) for k in range(4)]  # more threads than cores
    start = threading.Barrier(len(jobs))
    got = [[] for _ in jobs]

    def run(slot):
        a, v = pairs[jobs[slot]]
        start.wait()
        for _ in range(5):
            got[slot].append(nahm.adapted_roundtrip(a, v, 2000).matrix)

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, results in zip(jobs, got):
        assert len(results) == 5
        assert all(np.array_equal(r, serial[k]) for r in results)


def test_arena_keeps_at_most_its_cap():
    # five so4 stacks at N = 8000 are about 10 MB, past the cap: the
    # requests that do not fit get per-call arrays
    a, v = _so4_pair()
    small = nahm.adapted_roundtrip(a, v, 2000).matrix
    big = nahm.adapted_roundtrip(a, v, 8000).matrix
    assert sum(r.nbytes for r in _arena_regions()) <= nahm._ARENA_CAP_BYTES
    assert np.linalg.norm(big - small) < 1e-9 * np.linalg.norm(small)
    assert np.array_equal(nahm.adapted_roundtrip(a, v, 2000).matrix, small)


def test_embed_tangent_custom_path_well_definedness(ctx):
    rng = _rng()
    a = la.group_exp(ctx, ctx.random_element(rng, 1.2))
    v = ctx.random_element(rng, 1.5)
    w = ctx.random_element(rng, 0.6)
    N = 600
    L = la.group_log(a)
    hv = np.array([scipy.linalg.expm((1 - t) * L)
                   @ scipy.linalg.expm(np.sin(np.pi * t) * w)
                   for t in np.linspace(0, 1, N + 1)])
    # the roundtrip's route by hand, along the bent path
    T0, T1 = nahm.embed_tangent(a, v, N, nahm.GaugePath(hv, "group", ctx))
    alpha = nahm.GaugePath(T0.values + 1j * T1.values, "complex-algebra", ctx)
    alternate = np.linalg.inv(nahm.solve_gauge_ode(alpha).values[0])
    default = nahm.adapted_roundtrip(a, v, N)
    assert np.linalg.norm(default.matrix - alternate) < 1e-9


def test_embed_tangent_rejects_a_path_that_misses_its_end(ctx):
    rng = _rng()
    a = la.group_exp(ctx, ctx.random_element(rng, 1.2))
    v = ctx.random_element(rng, 1.5)
    N = 64
    ts = np.linspace(0, 1, N + 1)[:, None, None]
    L = la.group_log(a)
    # a path that stays at a ends neither at the identity (0.60 away) nor
    # in H: its T1(1) = a v a^-1 misses v by 0.62
    at_a = nahm.GaugePath(np.repeat(a.matrix[None], N + 1, axis=0), "group", ctx)
    with pytest.raises(MalformedInput, match="end at the identity or in the subgroup"):
        nahm.embed_tangent(a, v, N, at_a)
    # a complexified base, on a path from it to the identity
    b = la.GroupElement(a.matrix @ scipy.linalg.expm(1j * v), ctx, complexified=True)
    to_one = nahm._matmul_paths(nahm._expm_stack((1 - ts) * L),
                                nahm._expm_stack((1 - ts) * 1j * v))
    with pytest.raises(MalformedInput, match="not 'complex-group'"):
        nahm.embed_tangent(b, v, N, nahm.GaugePath(to_one, "complex-group", ctx))
    with pytest.raises(MalformedInput, match="real group element"):
        nahm.embed_tangent(b, v, N, nahm.GaugePath(to_one, "group", ctx))
    # a path into H is accepted where the context has a split, and only there
    into_h = nahm._matmul_paths(nahm._expm_stack((1 - ts) * L),
                                nahm._expm_stack(ts * 0.5 * ctx.h_basis()[0]))
    nahm.embed_tangent(a, v, N, nahm.GaugePath(into_h, "group", ctx))
    su2 = la.su2()
    a2 = la.GroupElement(a.matrix, su2)
    with pytest.raises(MalformedInput, match="end at the identity or in the subgroup"):
        nahm.embed_tangent(a2, v, N, nahm.GaugePath(into_h, "group", su2))


def _grid_entry_points(ctx):
    """Every public function that takes a grid_size, as name -> f(grid_size),
    each returning an array of its result."""
    rng = _rng()
    a = la.group_exp(ctx, ctx.random_element(rng, 1.2))
    v = ctx.random_element(rng, 1.5)
    return {
        "constant_path": lambda N: nahm.constant_path(ctx, v, N).values,
        "sampled_path": lambda N: nahm.sampled_path(ctx, lambda t: t * v, N).values,
        "embed_tangent": lambda N: nahm.embed_tangent(a, v, N)[1].values,
        "adapted_roundtrip": lambda N: nahm.adapted_roundtrip(a, v, N).matrix,
        "smooth_gauge": lambda N: nahm.smooth_gauge(ctx, _rng(), N).values,
        "smooth_tangent": lambda N: nahm.smooth_tangent(ctx, _rng(), N).values,
        "smooth_tangent_omega_I": lambda N: np.array(nahm.smooth_tangent_omega_I(
            ctx, _rng(), np.random.default_rng(18), N)),
    }


@pytest.mark.parametrize("name", sorted(_grid_entry_points(la.su2(h_split=True))))
def test_every_grid_size_passes_one_rule(ctx, name):
    # -5 used to raise numpy's ValueError, 2.5 a TypeError or, from
    # constant_path, a path on a truncated grid; 64.0 a TypeError
    call = _grid_entry_points(ctx)[name]
    for bad in (-5, -1, 2.5, float("nan"), float("inf")):
        with pytest.raises(MalformedInput, match="grid_size must be a non-negative integer"):
            call(bad)
    np.testing.assert_array_equal(call(64.0), call(64))


@pytest.mark.parametrize("N", [0, 1, 2])
def test_grids_too_short_for_the_midpoint_rule_are_rejected(ctx, N):
    # N = 1, 2 used to raise IndexError from the midpoints, and N = 0 a
    # ZeroDivisionError from the roundtrip's step
    rng = _rng()
    a = la.group_exp(ctx, ctx.random_element(rng, 1.2))
    v = ctx.random_element(rng, 1.5)
    with pytest.raises(MalformedInput, match="at least 4 nodes"):
        nahm.adapted_roundtrip(a, v, N)
    if N:
        T0, _ = nahm.embed_tangent(a, v, N)
        with pytest.raises(MalformedInput, match="at least 4 nodes"):
            nahm.solve_gauge_ode(T0)
        with pytest.raises(MalformedInput, match="at least 4 nodes"):
            nahm.integrate_nahm(ctx, ctx.basis, T0)
    T0, _ = nahm.embed_tangent(a, v, 3)  # four nodes are enough
    nahm.solve_gauge_ode(T0)
    nahm.integrate_nahm(ctx, ctx.basis, T0)


@pytest.mark.parametrize("name", ["smooth_tangent", "smooth_tangent_omega_I"])
def test_smooth_tangents_need_one_grid_interval(ctx, name):
    # N = 0 used to give smooth_tangent a one-node configuration and
    # smooth_tangent_omega_I a ZeroDivisionError, where smooth_gauge's
    # GaugePath raised MalformedInput
    call = _grid_entry_points(ctx)[name]
    with pytest.raises(MalformedInput, match="grid_size >= 1"):
        call(0)
    assert np.all(np.isfinite(call(1)))


def test_a_tangent_vector_must_be_one_matrix_of_the_real_span(ctx):
    # i v used to return a matrix, and a (3, 3) v to fail inside numpy
    rng = _rng()
    a = la.group_exp(ctx, ctx.random_element(rng, 1.2))
    v = ctx.random_element(rng, 1.5)
    N = 64
    ts = np.linspace(0, 1, N + 1)[:, None, None]
    to_one = nahm.GaugePath(nahm._expm_stack((1 - ts) * la.group_log(a)), "group", ctx)
    calls = (lambda w: nahm.adapted_roundtrip(a, w, N),
             lambda w: nahm.embed_tangent(a, w, N),
             lambda w: nahm.embed_tangent(a, w, N, to_one))
    for call in calls:
        with pytest.raises(ClosureViolation):
            call(1j * v)
        with pytest.raises(ContextMismatch):
            call(np.eye(3))
        with pytest.raises(MalformedInput, match="one matrix"):
            call(np.stack([v, v]))
        call(v)


def test_adapted_roundtrip_small_sweep(ctx):
    rng = _rng()
    for _ in range(10):
        a = la.group_exp(ctx, ctx.random_element(rng, 1.2))
        v = ctx.random_element(rng, 2.0)
        got = nahm.adapted_roundtrip(a, v, 400)
        want = a.matrix @ scipy.linalg.expm(1j * v)
        assert np.linalg.norm(got.matrix - want) < 1e-9


def test_adapted_roundtrip_zero_vector(ctx):
    rng = _rng()
    a = la.group_exp(ctx, ctx.random_element(rng, 1.2))
    got = nahm.adapted_roundtrip(a, np.zeros((2, 2)), 400)
    assert np.linalg.norm(got.matrix - a.matrix) < 1e-12


def test_adapted_roundtrip_identity_base(ctx):
    rng = _rng()
    v = ctx.random_element(rng, 1.5)
    got = nahm.adapted_roundtrip(la.GroupElement(np.eye(ctx.matrix_size), ctx), v, 400)
    assert np.linalg.norm(got.matrix - scipy.linalg.expm(1j * v)) < 1e-11


def test_gauged_connection_path_transports_to_endpoint(ctx):
    rng = _rng()
    a = la.group_exp(ctx, ctx.random_element(rng, 1.2))
    v = ctx.random_element(rng, 1.4)
    N = 500
    T0, T1 = nahm.embed_tangent(a, v, N)
    xi = nahm.solve_gauge_ode(T0)
    zero = _zero(ctx, N)
    gauged = nahm.gauge_transform(xi, nahm.NahmConfiguration(T0, T1, zero, zero))
    dev = np.max(np.linalg.norm(gauged.T1.values - T1.end[None], axis=(1, 2)))
    assert dev < 1e-9
    assert np.linalg.norm(np.linalg.inv(xi.values[0]) - a.matrix) < 1e-10


# -- metric, symplectic pairing, potential ---------------------------------


def test_l2_metric_basics(ctx):
    N = 120
    zero = _zero(ctx, N)
    ue = nahm.constant_path(ctx, ctx.basis[0], N)
    X = nahm.NahmConfiguration(zero, ue, zero, zero)
    assert nahm.l2_metric(X, X) == pytest.approx(1.0, abs=1e-14)
    rng = _rng()
    Y = nahm.smooth_tangent(ctx, rng, N)
    Z = nahm.smooth_tangent(ctx, rng, N)
    assert nahm.l2_metric(Y, Z) == nahm.l2_metric(Z, Y)
    assert nahm.l2_metric(Y, Y) > 0.0
    null = nahm.NahmConfiguration(zero, zero, zero, zero)
    assert nahm.l2_metric(null, null) == 0.0


def test_omega_unit_pairing_and_antisymmetry(ctx):
    N = 120
    zero = _zero(ctx, N)
    ue = nahm.constant_path(ctx, ctx.basis[0], N)
    X = nahm.NahmConfiguration(ue, zero, zero, zero)
    Y = nahm.NahmConfiguration(zero, ue, zero, zero)
    assert nahm.omega_I(X, Y) == pytest.approx(1.0, abs=1e-14)
    assert nahm.omega_I(Y, X) == pytest.approx(-1.0, abs=1e-14)
    rng = _rng()
    A = nahm.smooth_tangent(ctx, rng, N)
    B = nahm.smooth_tangent(ctx, rng, N)
    assert abs(nahm.omega_I(A, A)) <= 1e-14
    assert abs(nahm.omega_I(A, B) + nahm.omega_I(B, A)) <= 1e-14
    # compatibility: omega(X, Y) = l2(IX, Y)
    assert nahm.omega_I(A, B) == pytest.approx(
        nahm.l2_metric(A.complex_rotated(), B), abs=1e-13)


def test_omega_and_l2_invariant_under_complex_rotation(ctx):
    rng = _rng()
    N = 200
    X = nahm.smooth_tangent(ctx, rng, N)
    Y = nahm.smooth_tangent(ctx, rng, N)
    assert nahm.omega_I(X.complex_rotated(), Y.complex_rotated()) == \
        pytest.approx(nahm.omega_I(X, Y), abs=1e-14)
    assert nahm.l2_metric(X.complex_rotated(), Y.complex_rotated()) == \
        pytest.approx(nahm.l2_metric(X, Y), abs=1e-14)


def test_omega_expands_one_slot_at_a_time():
    # each slot's coefficient expansion is the real view of a complex
    # (N+1, dim) product; holding all eight of them at once took 27 MiB here
    su3 = la.builtin_context("su3_u2")
    rng = np.random.default_rng(5)
    X = nahm.smooth_tangent(su3, rng, 25600)
    Y = nahm.smooth_tangent(su3, rng, 25600)
    nahm.omega_I(X, Y)  # warm any lazily built context tables
    tracemalloc.start()
    try:
        nahm.omega_I(X, Y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20


def _traced_peak(fn, *args):
    fn(*args)  # warm any lazily built context tables
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_two_form_order_peak_memory():
    # the reference comes from the tangents' draws: the case's 25 600 nodes
    # cost a few profile vectors, not two (4, N+1, 3, 3) complex stacks
    su3 = la.builtin_context("su3_u2")
    peak = _traced_peak(registry.two_form_order, su3, (7, 5, 6),
                        registry.TWO_FORM_REF)
    assert peak <= 4 * 2 ** 20


def test_tangent_omega_reference_peak_memory():
    su3 = la.builtin_context("su3_u2")
    peak = _traced_peak(lambda: nahm.smooth_tangent_omega_I(
        su3, np.random.default_rng(5), np.random.default_rng(6), 200000))
    assert peak <= 16 * 2 ** 20


def _scaled_su2():
    # su(2) with its basis doubled, on which the same trace form reads 4 I
    su2 = la.builtin_context("su2")
    return la.LieAlgebraContext("su2x2", 2 * su2.basis, inner_product=4 * np.eye(3))


@pytest.mark.parametrize("name", ["su2", "su2_u1", "su3", "su3_u2", "so3", "so4",
                                  "torus2", "su2x2"])
def test_tangent_omega_reference_equals_omega_on_the_tangents(name):
    context = _scaled_su2() if name == "su2x2" else la.builtin_context(name)
    N = 2000
    for seed in (3, 17):
        rng = np.random.default_rng(seed)
        X = nahm.smooth_tangent(context, rng, N)
        Y = nahm.smooth_tangent(context, rng, N)
        want = nahm.omega_I(X, Y)
        rng = np.random.default_rng(seed)  # X's draws, then Y's, from one rng
        got = nahm.smooth_tangent_omega_I(context, rng, rng, N)
        assert abs(got - want) <= 1e-13 * abs(want)


def test_an_explicit_inner_product_pairs_as_the_orthonormal_basis_does():
    # su2x2 expands every matrix with half su2's coefficients and pairs them
    # with 4 I: the same numbers through the general inner-product path
    su2, su2x2 = la.builtin_context("su2"), _scaled_su2()
    rng = np.random.default_rng(21)
    X = np.array([su2.random_element(rng, 2.0) for _ in range(8)])
    Y = np.array([su2.random_element(rng, 2.0) for _ in range(8)])
    for A, B in zip(X, Y):
        assert abs(su2x2.pair(A, B) - su2.pair(A, B)) <= 1e-15
        assert abs(su2x2.norm(A) - su2.norm(A)) <= 1e-15
    got = su2x2.pair_coeff_paths(su2x2.coefficients(X), su2x2.coefficients(Y))
    want = su2.pair_coeff_paths(su2.coefficients(X), su2.coefficients(Y))
    assert np.max(np.abs(got - want)) <= 1e-15


def test_potential_values(ctx):
    N = 100
    zero = _zero(ctx, N)
    cfg0 = nahm.NahmConfiguration(zero, zero, zero, zero)
    assert nahm.kahler_potential(cfg0) == 0.0
    ue = nahm.constant_path(ctx, ctx.basis[0], N)
    cfg1 = nahm.NahmConfiguration(zero, ue, zero, zero)
    assert nahm.kahler_potential(cfg1) == pytest.approx(0.5, abs=1e-14)
    cfg2 = nahm.NahmConfiguration(zero, zero, ue, zero)
    assert nahm.kahler_potential(cfg2) == pytest.approx(0.25, abs=1e-14)


def test_potential_on_embedded_tangents(ctx):
    rng = _rng()
    N = 400
    zero = _zero(ctx, N)
    for _ in range(5):
        a = la.group_exp(ctx, ctx.random_element(rng, 1.2))
        v = ctx.random_element(rng, 1.5)
        T0, T1 = nahm.embed_tangent(a, v, N)
        f = nahm.kahler_potential(nahm.NahmConfiguration(T0, T1, zero, zero))
        assert f == pytest.approx(0.5 * ctx.pair(v, v), abs=1e-8)


def test_two_form_matches_omega_on_grid(ctx):
    rng = _rng()
    N = 150
    T = nahm.smooth_tangent(ctx, rng, N)
    X = nahm.smooth_tangent(ctx, rng, N)
    Y = nahm.smooth_tangent(ctx, rng, N)
    assert nahm.potential_two_form(T, X, Y) == pytest.approx(
        nahm.omega_I(X, Y), abs=1e-9)


def test_two_form_quadrature_order(ctx):
    seeds = (101, 102, 103)
    ref_grid = 12800
    refs = [nahm.smooth_tangent(ctx, np.random.default_rng(s), ref_grid)
            for s in seeds]
    ref_val = nahm.omega_I(refs[1], refs[2])
    errs = []
    grids = (50, 100, 200)
    for N in grids:
        T = nahm.smooth_tangent(ctx, np.random.default_rng(seeds[0]), N)
        X = nahm.smooth_tangent(ctx, np.random.default_rng(seeds[1]), N)
        Y = nahm.smooth_tangent(ctx, np.random.default_rng(seeds[2]), N)
        errs.append(abs(nahm.potential_two_form(T, X, Y) - ref_val))
    order = np.polyfit(np.log(grids), np.log(errs), 1)[0]
    assert abs(order) >= 1.9


# -- moment map and circle action -------------------------------------------


def test_moment_map_zero_locus(ctx):
    rng = _rng()
    N = 100
    m_parts = [ctx.project_m(ctx.random_element(rng)) for _ in range(3)]
    paths = [nahm.sampled_path(ctx, lambda t, M=M: np.cos(t) * M
                               + t * (1 - t) * ctx.basis[2], N)
             for M in m_parts]
    cfg = nahm.NahmConfiguration(_zero(ctx, N), *paths)
    assert max(np.linalg.norm(x) for x in nahm.moment_map(cfg)) < 1e-12


def test_moment_map_projects_endpoints(ctx):
    N = 60
    paths = [nahm.sampled_path(ctx, lambda t: t * ctx.basis[2], N),
             _zero(ctx, N), _zero(ctx, N)]
    cfg = nahm.NahmConfiguration(_zero(ctx, N), *paths)
    mm = nahm.moment_map(cfg)
    assert np.linalg.norm(mm[0] - ctx.basis[2]) < 1e-14
    assert np.linalg.norm(mm[1]) == 0.0


def test_moment_map_invariant_under_loop_gauges(ctx):
    rng = _rng()
    N = 200
    cfg = nahm.smooth_tangent(ctx, rng, N)
    mm = nahm.moment_map(cfg)
    g = nahm.smooth_gauge(ctx, rng, N, endpoints="loop")
    mm2 = nahm.moment_map(nahm.gauge_transform(g, cfg))
    assert max(np.linalg.norm(a - b) for a, b in zip(mm, mm2)) < 1e-13


def test_moment_map_equivariance_under_subgroup_gauges(ctx):
    rng = _rng()
    N = 200
    cfg = nahm.smooth_tangent(ctx, rng, N)
    g = nahm.smooth_gauge(ctx, rng, N, endpoints="subgroup")
    end = la.GroupElement(g.values[-1], ctx)
    got = nahm.moment_map(nahm.gauge_transform(g, cfg))
    want = [ctx.project_h(end.matrix @ x @ np.linalg.inv(end.matrix))
            for x in (cfg.T1.end, cfg.T2.end, cfg.T3.end)]
    assert max(np.linalg.norm(a - b) for a, b in zip(got, want)) < 1e-12


def test_circle_action_values(ctx):
    rng = _rng()
    N = 80
    cfg = nahm.smooth_tangent(ctx, rng, N)
    same = nahm.circle_action(0.0, cfg)
    assert np.max(np.abs(cfg.values - same.values)) == 0.0
    quarter = nahm.circle_action(np.pi / 2.0, cfg)
    assert np.max(np.abs(quarter.T2.values + cfg.T3.values)) < 1e-15
    assert np.max(np.abs(quarter.T3.values - cfg.T2.values)) < 1e-15
    assert np.max(np.abs(quarter.T0.values - cfg.T0.values)) == 0.0


def test_circle_action_preserves_structure(ctx):
    rng = _rng()
    N = 150
    cfg = nahm.smooth_tangent(ctx, rng, N)
    X = nahm.smooth_tangent(ctx, rng, N)
    Y = nahm.smooth_tangent(ctx, rng, N)
    theta = 0.77
    assert nahm.kahler_potential(nahm.circle_action(theta, cfg)) == \
        pytest.approx(nahm.kahler_potential(cfg), abs=1e-14)
    Xr, Yr = nahm.circle_action(theta, X), nahm.circle_action(theta, Y)
    assert nahm.l2_metric(Xr, Yr) == pytest.approx(nahm.l2_metric(X, Y), abs=1e-14)
    assert nahm.omega_I(Xr, Yr) == pytest.approx(nahm.omega_I(X, Y), abs=1e-14)


def test_circle_action_commutes_with_gauge(ctx):
    rng = _rng()
    N = 150
    cfg = nahm.smooth_tangent(ctx, rng, N)
    g = nahm.smooth_gauge(ctx, rng, N)
    theta = 1.3
    lhs = nahm.circle_action(theta, nahm.gauge_transform(g, cfg))
    rhs = nahm.gauge_transform(g, nahm.circle_action(theta, cfg))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-13


def test_circle_action_preserves_nahm_solutions(ctx):
    N = 1000
    T0 = nahm.sampled_path(ctx, lambda t: 0.3 * np.sin(t) * ctx.basis[0], N)
    init = [0.5 * ctx.basis[0], 0.6 * ctx.basis[1], 0.7 * ctx.basis[2]]
    sol = nahm.integrate_nahm(ctx, init, T0)
    base = nahm.nahm_residual_sup(sol)
    # rotations by multiples of pi/2 map solutions to solutions; generic
    # angles do not (the bracket term mixes slots nonlinearly)
    rot = nahm.circle_action(np.pi / 2.0, sol)
    assert nahm.nahm_residual_sup(rot) < 10.0 * base + 1e-12


# -- integrator -------------------------------------------------------------


def test_integrator_zero_data(ctx):
    sol = nahm.integrate_nahm(ctx, [np.zeros((2, 2))] * 3, _zero(ctx, 64))
    for P in (sol.T1, sol.T2, sol.T3):
        assert P.sup_norm() == 0.0


def test_integrator_commuting_constants(ctx):
    c = 0.8 * ctx.basis[2]
    sol = nahm.integrate_nahm(ctx, [c, c, c], _zero(ctx, 64))
    for P in (sol.T1, sol.T2, sol.T3):
        assert np.max(np.abs(P.values - c)) < 1e-14


def test_integrator_euler_top_residual(ctx):
    init = [0.4 * ctx.basis[0], 0.7 * ctx.basis[1], 1.1 * ctx.basis[2]]
    sol = nahm.integrate_nahm(ctx, init, _zero(ctx, 4000))
    assert nahm.nahm_residual_sup(sol) < 1e-8


def test_integrator_norm_conservation_euler_top(ctx):
    # pairwise differences of squared component norms are conserved
    init = [0.4 * ctx.basis[0], 0.7 * ctx.basis[1], 1.1 * ctx.basis[2]]
    sol = nahm.integrate_nahm(ctx, init, _zero(ctx, 2000))
    u = np.stack([ctx.path_coefficients(P.values)[:, k]
                  for k, P in enumerate((sol.T1, sol.T2, sol.T3))])
    d12 = u[0] ** 2 - u[1] ** 2
    assert np.max(np.abs(d12 - d12[0])) < 1e-10


def test_integrator_convergence_order(ctx):
    init = [0.5 * ctx.basis[0], 0.8 * ctx.basis[1], 1.0 * ctx.basis[2]]
    errs = []
    fine = nahm.integrate_nahm(ctx, init, _zero(ctx, 4096))
    for N in (64, 128, 256):
        sol = nahm.integrate_nahm(ctx, init, _zero(ctx, N))
        errs.append(np.max(np.abs(sol.T1.end - fine.T1.end)))
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) > 3.6


def test_integrator_blowup_detection(ctx):
    init = [-2.0 * ctx.basis[0], -2.0 * ctx.basis[1], -2.0 * ctx.basis[2]]
    with pytest.raises(BlowupDetected):
        nahm.integrate_nahm(ctx, init, _zero(ctx, 2000))


def _rk4_per_commutator(T0, initial):
    """RK4 with the right-hand side built from twelve separate commutators,
    one matrix at a time: the reference for the stacked stage."""
    N = T0.grid_size
    h = 1.0 / N
    mids = np.moveaxis(nahm._midpoints(np.moveaxis(T0.values, 0, -1)), -1, 0)
    c = lambda A, B: A @ B - B @ A

    def rhs(y, a):
        return np.array([-c(a, y[0]) - c(y[1], y[2]),
                         -c(a, y[1]) - c(y[2], y[0]),
                         -c(a, y[2]) - c(y[0], y[1])])

    Y = np.array(initial, dtype=complex)
    out = [Y]
    for k in range(N):
        k1 = rhs(Y, T0.values[k])
        k2 = rhs(Y + 0.5 * h * k1, mids[k])
        k3 = rhs(Y + 0.5 * h * k2, mids[k])
        k4 = rhs(Y + h * k3, T0.values[k + 1])
        Y = Y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(Y)
    return np.array(out)


@pytest.mark.parametrize("name", ["su2", "su3_u2", "so4", "torus2"])
def test_stacked_rk4_stage_matches_per_commutator_rk4(name):
    c = la.builtin_context(name)
    e = lambda k: c.basis[k % c.dim]  # torus2 has two basis elements
    N = 300
    T0 = nahm.sampled_path(c, lambda t: 0.6 * np.sin(1.3 * t) * e(0) + 0.4 * t * e(2), N)
    # unequal weights on distinct elements, so every cyclic slot differs
    init = [0.5 * e(0) + 0.3 * e(1), 0.8 * e(1), 1.0 * e(2) - 0.2 * e(0)]
    sol = nahm.integrate_nahm(c, init, T0)
    want = _rk4_per_commutator(T0, init)
    got = np.stack([sol.T1.values, sol.T2.values, sol.T3.values], axis=1)
    assert np.max(np.abs(got - want)) < 1e-13
    if name == "torus2":  # abelian: every bracket vanishes, the flow is constant
        assert np.max(np.abs(got - np.array(init))) < 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blowup_guard_names_the_first_node_past_the_bound(ctx):
    N, bound = 400, 1e6
    init = [-2.0 * ctx.basis[0], -2.0 * ctx.basis[1], -2.0 * ctx.basis[2]]
    with np.errstate(over="ignore", invalid="ignore"):
        want = _rk4_per_commutator(_zero(ctx, N), init)
        norms_sq = (np.abs(want) ** 2).sum(axis=(2, 3)).max(axis=1)
    first = int(np.flatnonzero(~(norms_sq[1:] <= bound * bound))[0]) + 1
    assert 1 < first < N
    with pytest.raises(BlowupDetected, match=rf"at step {first}$"):
        nahm.integrate_nahm(ctx, init, _zero(ctx, N))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_integrator_rejects_nan_initial_data(ctx):
    init = [np.full((2, 2), np.nan), 0.7 * ctx.basis[1], ctx.basis[2]]
    with pytest.raises(BlowupDetected, match="at step 1$"):
        nahm.integrate_nahm(ctx, init, _zero(ctx, 64))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_integrator_rejects_an_infinite_connection(ctx):
    values = np.zeros((65, 2, 2), dtype=complex)
    values[10, 0, 1] = np.inf
    T0 = nahm.GaugePath(values, "algebra", ctx)
    init = [0.4 * ctx.basis[0], 0.7 * ctx.basis[1], 1.1 * ctx.basis[2]]
    with pytest.raises(BlowupDetected):
        nahm.integrate_nahm(ctx, init, T0)


@pytest.mark.parametrize("outside", [1j * la.su2().basis[0], np.eye(2)],
                         ids=["imaginary", "identity"])
def test_integrator_rejects_data_outside_the_real_span(ctx, outside):
    init = [0.4 * ctx.basis[0], 0.7 * ctx.basis[1], 1.1 * ctx.basis[2]]
    with pytest.raises(MalformedInput, match="initial data"):
        nahm.integrate_nahm(ctx, [init[0], outside, init[2]], _zero(ctx, 64))
    values = np.zeros((65, 2, 2), dtype=complex)
    values[10] = outside
    with pytest.raises(MalformedInput, match="T0"):
        nahm.integrate_nahm(ctx, init, nahm.GaugePath(values, "algebra", ctx))


def test_integrator_requires_algebra_connection(ctx):
    g = nahm.GaugePath(np.repeat(np.eye(2)[None], 65, 0), "group", ctx)
    with pytest.raises(MalformedInput):
        nahm.integrate_nahm(ctx, [np.zeros((2, 2))] * 3, g)


# -- exact flows -------------------------------------------------------------

# Euler's top f' = (f2 f3, f3 f1, f1 f2) is solved by f = -D (cn/sn, dn/sn,
# 1/sn)(D (t + t0)) with parameter k^2; the poles of sn at D (t + t0) = 0
# and 2 K(k^2) = 3.9 stay outside D (t + t0) in [0.77, 1.87]
EULER_D, EULER_K2, EULER_T0 = 1.1, 0.6, 0.7
ORACLE_GRIDS = (25, 50, 100, 200, 400)


def _euler_top(ctx, triple, c, N):
    """Exact Nahm flow T0 = 0, T_i = -(f_i / c) e_i on a triple with
    [e_i, e_j] = c e_k (cyclic), from Jacobi elliptic functions (Hitchin,
    Comm. Math. Phys. 1983): dT1/dt = -(f2 f3 / c) e1 = -[T2, T3]."""
    ts = np.linspace(0.0, 1.0, N + 1)
    sn, cn, dn, _ = scipy.special.ellipj(EULER_D * (ts + EULER_T0), EULER_K2)
    f = -EULER_D * np.array([cn / sn, dn / sn, 1.0 / sn])
    slots = [np.zeros((N + 1,) + ctx.basis.shape[1:], dtype=complex)]
    slots += [-(f_i / c)[:, None, None] * ctx.basis[e] for f_i, e in zip(f, triple)]
    return nahm.NahmConfiguration(*(nahm.GaugePath(v, "algebra", ctx) for v in slots))


@pytest.mark.parametrize("gauged, bound", [(False, 1e-11), (True, 5e-11)],
                         ids=["ungauged", "gauged"])
@pytest.mark.parametrize("name, triple, c", [
    ("su2", (0, 1, 2), 1.0), ("su3_u2", (0, 1, 2), 1.0),
    ("so3", (0, 1, 2), -1.0), ("so4", (0, 1, 3), -1.0)])
def test_integrator_reproduces_the_exact_euler_top_flow(name, triple, c, gauged, bound):
    ctx = la.builtin_context(name)
    E = ctx.basis[list(triple)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        assert np.max(np.abs(E[i] @ E[j] - E[j] @ E[i] - c * E[k])) < 1e-15
    errs = []
    for N in ORACLE_GRIDS:
        exact = _euler_top(ctx, triple, c, N)
        T0 = exact.T0
        if gauged:
            g = nahm.smooth_gauge(ctx, np.random.default_rng(7), N)
            exact = nahm.gauge_transform(g, exact)
            T0 = exact.T0
        sol = nahm.integrate_nahm(ctx, exact.values[1:, 0], T0)
        errs.append(np.max(np.abs(sol.values[1:] - exact.values[1:])))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.min(orders) >= 3.5, orders
    assert errs[-1] < bound, errs


def test_a_real_gauge_keeps_the_connection_in_the_real_span():
    # the stencil's -dg g^-1 leaves the span by O(h^4), 1.9e-6 at N = 25 on
    # su2, and the integrator rejected the gauged T0; projected, a gauged
    # solution feeds back into it and is reproduced to the scheme's order
    ctx = la.builtin_context("su2")
    errs = []
    for N in (25, 100):
        _, sol, _ = registry.nahm_solution(ctx, N)
        gauged = nahm.gauge_transform(nahm.smooth_gauge(ctx, np.random.default_rng(7), N), sol)
        T0 = gauged.T0.values
        assert np.max(np.abs(T0 - ctx.reconstruct(ctx.path_coefficients(T0)))) < 1e-13
        again = nahm.integrate_nahm(ctx, gauged.values[1:, 0], gauged.T0)
        errs.append(np.max(np.abs(again.values[1:] - gauged.values[1:])))
    assert errs[0] < 1e-6 and errs[1] < errs[0] / 100, errs


def test_smooth_gauge_rejects_unknown_endpoints(ctx):
    with pytest.raises(MalformedInput, match="lopo"):
        nahm.smooth_gauge(ctx, _rng(), 8, endpoints="lopo")


# -- membership, higher rank ------------------------------


def test_group_membership_defects(ctx):
    rng = _rng()
    g = nahm.smooth_gauge(ctx, rng, 100)
    assert g.group_defect() < 1e-12
    A = nahm.sampled_path(ctx, lambda t: np.sin(t) * ctx.basis[0], 100)
    xi = nahm.solve_gauge_ode(A)
    assert xi.group_defect() < 1e-13
    alpha = nahm.GaugePath(A.values + 1j * A.values, "complex-algebra", ctx)
    gc = nahm.solve_gauge_ode(alpha)
    assert gc.group_defect() < 1e-12
    with pytest.raises(MalformedInput):
        A.group_defect()


def test_higher_rank_smoke():
    ctx3 = la.su3(h_split=True)
    rng = _rng()
    a = la.group_exp(ctx3, ctx3.random_element(rng, 1.0))
    v = ctx3.random_element(rng, 1.2)
    got = nahm.adapted_roundtrip(a, v, 800)
    want = a.matrix @ scipy.linalg.expm(1j * v)
    assert np.linalg.norm(got.matrix - want) < 1e-9
    m = ctx3.project_m(ctx3.random_element(rng))
    N = 50
    paths = [nahm.sampled_path(ctx3, lambda t, M=m: np.cos(t) * M, N)
             for _ in range(3)]
    zero3 = nahm.constant_path(ctx3, np.zeros((3, 3)), N)
    cfg = nahm.NahmConfiguration(zero3, *paths)
    assert max(np.linalg.norm(x) for x in nahm.moment_map(cfg)) < 1e-13


# -- batched kernels -----------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4])
def test_expm_stack_matches_scipy(m):
    rng = np.random.default_rng(40 + m)
    for norm in np.geomspace(1e-3, 3.0, 9):
        X = rng.standard_normal((50, m, m)) + 1j * rng.standard_normal((50, m, m))
        X *= norm / np.max(np.abs(X).sum(axis=1))
        got = nahm._expm_stack(X)
        want = scipy.linalg.expm(X)
        gap = np.linalg.norm(got - want, axis=(1, 2))
        assert np.max(gap / np.linalg.norm(want, axis=(1, 2))) <= 1e-14, norm


def test_expm_stack_zero_and_non_finite():
    assert np.array_equal(nahm._expm_stack(np.zeros((5, 3, 3))),
                          np.broadcast_to(np.eye(3), (5, 3, 3)))
    X = np.zeros((4, 2, 2), dtype=complex)
    X[2, 0, 1] = np.nan
    assert np.all(np.isnan(nahm._expm_stack(X)))


def _random_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _product_gap(got, A, B):
    """Worst per-node gap to np.matmul, relative to |A_k| |B_k|."""
    want = np.matmul(A, B)
    scale = np.linalg.norm(A, axis=(-2, -1)) * np.linalg.norm(B, axis=(-2, -1))
    return np.max(np.linalg.norm(got - want, axis=(-2, -1)) / scale)


# 2001 nodes at m = 4 span several blocks of the kernel; (4, 2001) more
@pytest.mark.parametrize("nodes", [(1,), (7,), (2001,), (4, 7), (4, 2001)])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_matmul_paths_matches_matmul(m, nodes):
    rng = np.random.default_rng(m)
    A, B = _random_stack(rng, nodes + (m, m)), _random_stack(rng, nodes + (m, m))
    M = _random_stack(rng, (m, m))
    assert _product_gap(nahm._matmul_paths(A, B), A, B) <= 1e-14
    assert _product_gap(nahm._matmul_paths(M, B), M, B) <= 1e-14  # matrix on the left
    assert _product_gap(nahm._matmul_paths(A, M), A, M) <= 1e-14  # and on the right
    if len(nodes) == 2:  # one path against every slot of a stack, on either side
        assert _product_gap(nahm._matmul_paths(A[0], B), A[0], B) <= 1e-14
        assert _product_gap(nahm._matmul_paths(A, B[1]), A, B[1]) <= 1e-14
    got = nahm._commutator_paths(A, B)
    assert np.max(np.abs(got - (A @ B - B @ A))) <= 1e-14 * np.max(np.abs(A @ B))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_matmul_paths_strided_inputs_and_out(m):
    rng = np.random.default_rng(10 + m)
    E = _random_stack(rng, (2001, m, m))
    got = nahm._matmul_paths(E[1::2], E[0:2000:2])
    assert _product_gap(got, E[1::2], E[0:2000:2]) <= 1e-14
    # the output is a new array: the strided views it was read from stay
    buf = _random_stack(rng, (2001, m, m))
    before = buf.copy()
    got = nahm._matmul_paths(buf[2::2], buf[1:2000:2])
    assert not np.shares_memory(got, buf)
    assert _product_gap(got, buf[2::2], buf[1:2000:2]) <= 1e-14
    assert np.array_equal(buf, before)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_matmul_paths_propagates_non_finite_entries_like_matmul(m):
    rng = np.random.default_rng(20 + m)
    A, B = _random_stack(rng, (9, m, m)), _random_stack(rng, (9, m, m))
    A[1, 0, m - 1] = np.nan
    A[3, m - 1, 0] = np.inf
    B[5, 0, 0] = -np.inf
    B[7, m - 1, m - 1] = complex(np.nan, 1.0)
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = nahm._matmul_paths(A, B), np.matmul(A, B)
    # the same entries are not finite; which of inf and NaN a complex
    # infinity turns into differs between BLAS and a sum of products
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    finite = np.isfinite(want)
    assert np.max(np.abs(got[finite] - want[finite])) <= 1e-14 * np.max(np.abs(want[finite]))
    for node in (0, 2, 4, 6, 8):  # the untouched nodes are all finite
        assert np.all(np.isfinite(got[node]))


def _sequential_suffix_products(E):
    """out[k] = E[K-1] ... E[k], one product per factor, last factor first."""
    out = np.empty_like(E)
    acc = np.eye(E.shape[-1], dtype=E.dtype)
    for k in range(len(E) - 1, -1, -1):
        acc = acc @ E[k]
        out[k] = acc
    return out


def _max_relative_gap(got, want):
    gap = np.linalg.norm(got - want, axis=(1, 2))
    return np.max(gap / np.linalg.norm(want, axis=(1, 2)))


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 7, 8, 2000, 2001])
def test_suffix_products_match_a_sequential_loop(K):
    rng = np.random.default_rng(K)
    X = rng.standard_normal((K, 3, 3)) + 1j * rng.standard_normal((K, 3, 3))
    E = scipy.linalg.expm(X * (2.0 / max(K, 8)))  # complex, not unitary
    out = np.full_like(E, np.nan)
    nahm._suffix_products(nahm._entry_major(E, 1), out)
    want = _sequential_suffix_products(E)
    assert _max_relative_gap(out, want) < 1e-13
    # the tree product is the scan's out[0], associated the same way
    root = nahm._tree_product(nahm._entry_major(E, 1))
    assert np.array_equal(root, out[0])
    assert _max_relative_gap(root[None], want[:1]) < 1e-13


def test_gauge_ode_matches_a_sequential_product_of_its_factors():
    ctx3 = la.builtin_context("su3_u2")
    rng = _rng()
    C1, C2 = ctx3.random_element(rng, 1.0), ctx3.random_element(rng, 1.0)
    N = 2000
    ts = np.linspace(0.0, 1.0, N + 1)[:, None, None]
    A = nahm.GaugePath(np.sin(1.7 * ts) * C1 + 1j * ts * ts * C2,
                       "complex-algebra", ctx3)
    g = nahm.solve_gauge_ode(A)
    vals, h = A.values, 1.0 / N
    mids = np.moveaxis(nahm._midpoints(np.moveaxis(vals, 0, -1)), -1, 0)
    omega = (h / 6.0 * (vals[:-1] + 4.0 * mids + vals[1:])
             + h * h / 12.0 * (vals[:-1] @ vals[1:] - vals[1:] @ vals[:-1]))
    want = _sequential_suffix_products(scipy.linalg.expm(-omega))
    assert g.kind == "complex-group"
    assert _max_relative_gap(g.values[:N], want) < 1e-13
    assert np.array_equal(g.values[N], np.eye(3))


@pytest.mark.parametrize("name", ["su3_u2", "so4"])
def test_gauge_ode_order_four_higher_rank(name):
    ctx_n = la.builtin_context(name)
    rng = _rng()
    C1 = ctx_n.random_element(rng, 1.0)
    C2 = ctx_n.random_element(rng, 1.0)
    func = lambda t: np.sin(1.7 * t) * C1 + t * t * C2
    fine = nahm.solve_gauge_ode(nahm.sampled_path(ctx_n, func, 4096))
    errs = [np.linalg.norm(nahm.solve_gauge_ode(nahm.sampled_path(ctx_n, func, N))
                           .values[0] - fine.values[0]) for N in (32, 64, 128)]
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) > 3.6


def test_gauge_ode_exact_on_abelian_complex_constant():
    ctx2 = la.torus(2)
    rng = _rng()
    C = ctx2.random_element(rng, 1.0) + 1j * ctx2.random_element(rng, 1.5)
    N = 200
    g = nahm.solve_gauge_ode(nahm.GaugePath(np.repeat(C[None], N + 1, 0),
                                            "complex-algebra", ctx2))
    ts = np.linspace(0.0, 1.0, N + 1)
    exact = np.array([scipy.linalg.expm((t - 1.0) * C) for t in ts])
    assert g.kind == "complex-group"
    assert np.max(np.abs(g.values - exact)) <= 1e-12


def test_adapted_roundtrip_abelian_context():
    ctx2 = la.torus(2)
    rng = _rng()
    for _ in range(3):
        a = la.group_exp(ctx2, ctx2.random_element(rng, 1.2))
        v = ctx2.random_element(rng, 2.0)
        got = nahm.adapted_roundtrip(a, v, 2000)
        assert np.linalg.norm(got.matrix - a.matrix @ scipy.linalg.expm(1j * v)) < 1e-11


def test_embed_tangent_rejects_non_normal_log():
    # a non-compact algebra: strictly upper triangular 2x2 matrices
    nil = la.LieAlgebraContext("nil", [[[0, 1], [0, 0]]], inner_product=[[1.0]])
    a = la.GroupElement(scipy.linalg.expm(0.7 * nil.basis[0]), nil)
    with pytest.raises(MalformedInput):
        nahm.embed_tangent(a, 0.3 * nil.basis[0], 64)


def test_a_complexified_base_point_is_rejected(ctx):
    # a = exp(i X) is normal but not unitary, and log a leaves the real algebra
    rng = _rng()
    a = la.group_exp(ctx, 1j * ctx.random_element(rng, 0.5))
    assert a.complexified
    v = ctx.random_element(rng, 1.0)
    for call in (lambda: la.group_log(a), lambda: nahm.embed_tangent(a, v, 64),
                 lambda: nahm.adapted_roundtrip(a, v, 64),
                 lambda: la.group_log(np.eye(2))):  # nor is a raw array taken
        with pytest.raises(MalformedInput, match="real GroupElement"):
            call()


def test_complex_group_defect_on_torus():
    ctx2 = la.torus(2)
    rng = _rng()
    A = nahm.sampled_path(ctx2, lambda t: np.cos(t) * ctx2.basis[0]
                          + 1j * np.sin(2 * t) * ctx2.basis[1], 300)
    gc = nahm.solve_gauge_ode(nahm.GaugePath(A.values, "complex-algebra", ctx2))
    assert gc.group_defect() < 1e-12
    m = scipy.linalg.expm(ctx2.random_element(rng) + 1j * ctx2.random_element(rng))
    inside = nahm.GaugePath(np.repeat(m[None], 11, 0), "complex-group", ctx2)
    assert inside.group_defect() < 1e-12


@pytest.mark.parametrize("matrix", [[[1.0, 0.5], [0.0, 1.0]],    # shear
                                    [[0.0, -1.0], [1.0, 0.0]]])  # rotation
def test_complex_group_defect_rejects_det_one_outside_torus(matrix):
    ctx2 = la.torus(2)
    assert abs(np.linalg.det(matrix) - 1.0) < 1e-15
    path = nahm.GaugePath(np.repeat(np.asarray(matrix)[None], 11, 0), "complex-group",
                          ctx2)
    assert path.group_defect() > 0.1


@pytest.mark.parametrize("name, matrix", [
    ("su2", scipy.linalg.expm(0.7j * np.eye(2))),  # unitary, but not in SU(2)
    ("torus2", [[0.0, -1.0], [1.0, 0.0]])])        # unitary, but not diagonal
def test_group_defect_rejects_unitary_matrices_outside_the_group(name, matrix):
    path = nahm.GaugePath(np.repeat(np.asarray(matrix)[None], 11, 0), "group",
                          la.builtin_context(name))
    assert path.group_defect() > 0.1
