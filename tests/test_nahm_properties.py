"""Property tests of the path-space identities on the configuration stack.

Configurations are drawn with ``smooth_tangent`` over every built-in
context, random seeds, grid sizes and angles.  The references are the
identities themselves: the circle action and the complex structure I are
isometries of the flat structure, I squares to -1 and pairs with the
metric to give omega_I, and the stacked gauge action equals the action
written out slot by slot.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tubegeom import liealg as la
from tubegeom import nahm

CONTEXTS = {name: la.builtin_context(name) for name in la.BUILTIN_CONTEXTS}

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def configurations(draw, count):
    """``count`` configurations on one random context and grid."""
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    N = draw(st.sampled_from([4, 9, 32]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return ctx, rng, [nahm.smooth_tangent(ctx, rng, N) for _ in range(count)]


angle = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


def _close(got, want):
    return abs(got - want) <= 1e-12 * (1.0 + abs(want))


@SETTINGS
@given(configurations(2), angle)
def test_circle_action_preserves_the_flat_structure(data, theta):
    _, _, (X, Y) = data
    Xr, Yr = nahm.circle_action(theta, X), nahm.circle_action(theta, Y)
    assert _close(nahm.l2_metric(Xr, Yr), nahm.l2_metric(X, Y))
    assert _close(nahm.omega_I(Xr, Yr), nahm.omega_I(X, Y))
    assert _close(nahm.kahler_potential(Xr), nahm.kahler_potential(X))
    # (T0, T1) are fixed exactly
    np.testing.assert_array_equal(Xr.values[:2], X.values[:2])


@SETTINGS
@given(configurations(2))
def test_complex_structure_is_an_isometry_squaring_to_minus_one(data):
    _, _, (X, Y) = data
    IX, IY = X.complex_rotated(), Y.complex_rotated()
    assert _close(nahm.l2_metric(IX, IY), nahm.l2_metric(X, Y))
    np.testing.assert_array_equal(IX.complex_rotated().values, -X.values)
    # omega_I(X, Y) = g(I X, Y)
    assert _close(nahm.l2_metric(IX, Y), nahm.omega_I(X, Y))


@SETTINGS
@given(configurations(1))
def test_stacked_gauge_action_matches_a_per_slot_loop(data):
    ctx, rng, (X,) = data
    g = nahm.smooth_gauge(ctx, rng, X.grid_size, amplitude=0.6)
    ginv = np.linalg.inv(g.values)
    # the shift of a real gauge is projected onto the real span: the
    # stencil leaves it by O(h^4), 0.051 on so3 at the smallest grids
    shift = nahm.path_derivative(g.values, 1.0 / X.grid_size) @ ginv
    shift = ctx.reconstruct(ctx.path_coefficients(shift))
    got = nahm.gauge_transform(g, X)
    for k, (P, Q) in enumerate(zip((X.T0, X.T1, X.T2, X.T3),
                                   (got.T0, got.T1, got.T2, got.T3))):
        want = g.values @ P.values @ ginv - (shift if k == 0 else 0.0)
        scale = 1.0 + np.max(np.abs(want))
        assert np.max(np.abs(Q.values - want)) <= 1e-13 * scale
        assert Q.kind == "algebra" and Q.context is ctx


ROUNDTRIP_CONTEXTS = ("su2", "su3_u2", "so4", "torus2")
ROUNDTRIP_GRID = 64
# Over 300 draws per context, corners of the coefficient box included, the
# worst error at this grid was 1.1e-7 (so4; 8.8e-9 on su2, 3e-14 on the
# abelian torus2).  A Magnus step of order 2 (the commutator sign flipped)
# errs by 2e-4 to 1.2e-3 on the same draws.
ROUNDTRIP_BOUND = 1e-6


@st.composite
def roundtrip_pairs(draw):
    """(a, v) with a = exp(X), |X| <= 1.2 and |v| <= 2.0 in coefficients."""
    ctx = CONTEXTS[draw(st.sampled_from(ROUNDTRIP_CONTEXTS))]
    unit = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=ctx.dim,
                    max_size=ctx.dim).map(lambda c: np.array(c) / np.sqrt(ctx.dim))
    a = la.group_exp(ctx, ctx.reconstruct(1.2 * draw(unit)))
    return a, ctx.reconstruct(2.0 * draw(unit))


@settings(max_examples=30, deadline=None)
@given(roundtrip_pairs())
def test_adapted_roundtrip_reproduces_the_complexified_point(pair):
    a, v = pair
    got = nahm.adapted_roundtrip(a, v, ROUNDTRIP_GRID)
    want = a.matrix @ scipy.linalg.expm(1j * v)
    assert got.complexified and got.context is a.context
    assert np.linalg.norm(got.matrix - want) <= ROUNDTRIP_BOUND
