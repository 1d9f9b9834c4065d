"""Property tests of the coset complexification map.

Points (a, v), with v in the complement m, and subgroup elements h are
drawn on every built-in context with a reductive split.  The reference is
the identity behind well-definedness: the shifted presentation
(a h, Ad_{h^-1} v) has the representative a h exp(i Ad_{h^-1} v) =
a exp(iv) h, which lies in the same coset.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tubegeom import complexify as cx
from tubegeom import liealg as la

SPLIT_CONTEXTS = {name: la.builtin_context(name) for name in ("su2_u1", "su3_u2")}


@st.composite
def shifted_points(draw):
    """A context, a tangent point (a, v) with v in m and h in H, each drawn
    from coefficients in [-1, 1]."""
    ctx = SPLIT_CONTEXTS[draw(st.sampled_from(sorted(SPLIT_CONTEXTS)))]

    def element():
        c = draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=ctx.dim,
                          max_size=ctx.dim))
        return ctx.reconstruct(np.array(c))

    a = la.group_exp(ctx, element())
    v = ctx.project_m(element())
    h = la.group_exp(ctx, ctx.project_h(element()))
    return ctx, cx.TangentPoint(a, v), h


@settings(max_examples=40, deadline=None)
@given(shifted_points())
def test_bundle_shift_is_well_defined(case):
    ctx, point, h = case
    member = cx.subgroup_membership(ctx)
    image = cx.coset_complexification(point, member)
    shifted = cx.coset_complexification(cx.bundle_shift(point, h), member)
    want = image.representative.matrix @ h.matrix
    assert np.linalg.norm(shifted.representative.matrix - want) <= 1e-12 * (
        1.0 + np.linalg.norm(want))
    assert image.same_coset(shifted)
