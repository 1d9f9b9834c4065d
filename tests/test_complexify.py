import numpy as np
import pytest
import scipy.linalg

from tubegeom import complexify as cx
from tubegeom import liealg as la
from tubegeom.errors import LogBranchFailure, NoSplitConfigured, VectorNotInM


@pytest.fixture(scope="module")
def ctx():
    return la.su2(h_split=True)


def test_group_complexification_values(ctx):
    rng = np.random.default_rng(2)
    a = la.group_exp(ctx, ctx.random_element(rng))
    # zero vector returns the base point
    img = cx.group_complexification(cx.TangentPoint(a, np.zeros((2, 2))))
    assert np.linalg.norm(img.matrix - a.matrix) < 1e-15

    theta = 1.1
    v = -0.5j * theta * np.array([[1, 0], [0, -1]], dtype=complex)
    img = cx.group_complexification(
        cx.TangentPoint(la.GroupElement(np.eye(ctx.matrix_size), ctx), v))
    want = np.diag([np.exp(theta / 2.0), np.exp(-theta / 2.0)])
    assert np.linalg.norm(img.matrix - want) < 1e-13
    assert abs(np.linalg.det(img.matrix) - 1.0) < 1e-12


def test_group_complexification_injectivity_spot_check(ctx):
    rng = np.random.default_rng(3)
    points = []
    images = []
    for _ in range(25):
        a = la.group_exp(ctx, ctx.random_element(rng, 1.2))
        v = ctx.random_element(rng, 1.0)
        points.append((a, v))
        images.append(cx.group_complexification(cx.TangentPoint(a, v)).matrix)
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            assert np.linalg.norm(images[i] - images[j]) > 1e-6


def test_polar_inverse_recovers_point(ctx):
    rng = np.random.default_rng(4)
    for _ in range(30):
        a = la.group_exp(ctx, ctx.random_element(rng, 1.2))
        v = ctx.random_element(rng, 1.0)
        img = cx.group_complexification(cx.TangentPoint(a, v))
        a2, v2 = cx.group_complexification_inverse(ctx, img)
        assert np.linalg.norm(a2.matrix - a.matrix) < 1e-12
        assert np.linalg.norm(v2 - v) < 1e-12


def test_coset_map_identity_point(ctx):
    member = cx.subgroup_membership(ctx)
    pt = cx.TangentPoint(la.GroupElement(np.eye(2), ctx), np.zeros((2, 2)))
    got = cx.coset_complexification(pt, member)
    identity = cx.CosetPoint(la.GroupElement(np.eye(2), ctx, complexified=True), member)
    assert got.same_coset(identity)


def test_coset_map_well_defined(ctx):
    rng = np.random.default_rng(5)
    member = cx.subgroup_membership(ctx)
    a = la.group_exp(ctx, ctx.random_element(rng, 1.0))
    v = ctx.project_m(ctx.random_element(rng, 1.0))
    pt = cx.TangentPoint(a, v)
    base = cx.coset_complexification(pt, member)
    # shifting along the fiber subgroup lands in the same coset
    for s in (0.4, -1.3):
        h = la.group_exp(ctx, s * ctx.basis[2])
        shifted = cx.coset_complexification(cx.bundle_shift(pt, h), member)
        assert base.same_coset(shifted)
    # a genuinely different point does not
    other = cx.coset_complexification(cx.TangentPoint(a, 0.5 * v), member)
    assert not base.same_coset(other)


def test_coset_map_equivariance(ctx):
    rng = np.random.default_rng(6)
    member = cx.subgroup_membership(ctx)
    for _ in range(50):
        a = la.group_exp(ctx, ctx.random_element(rng, 1.0))
        v = ctx.project_m(ctx.random_element(rng, 1.0))
        g = la.group_exp(ctx, ctx.random_element(rng, 1.0))
        pt = cx.TangentPoint(a, v)
        ga = la.GroupElement(g.matrix @ a.matrix, ctx)
        lhs = cx.coset_complexification(cx.TangentPoint(ga, v), member)
        rep = cx.coset_complexification(pt, member).representative
        rhs = cx.CosetPoint(
            la.GroupElement(g.matrix @ rep.matrix, ctx, complexified=True),
            member)
        assert lhs.same_coset(rhs)


@pytest.mark.parametrize("split", [la.su2, la.su3])
def test_coset_map_tells_subgroup_shifts_from_complement_shifts(split):
    # (a h, Ad_{h^-1} v) lands in the coset of (a, v); a shift by exp(m) does not
    c = split(h_split=True)
    member = cx.subgroup_membership(c)
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = la.group_exp(c, c.random_element(rng, 1.0))
        pt = cx.TangentPoint(a, c.project_m(c.random_element(rng, 1.0)))
        h = la.group_exp(c, c.project_h(c.random_element(rng, 1.0)))
        base = cx.coset_complexification(pt, member)
        assert base.same_coset(cx.coset_complexification(cx.bundle_shift(pt, h), member))
        off = la.group_exp(c, c.project_m(c.random_element(rng, 1.0)))
        moved = cx.CosetPoint(la.GroupElement(base.representative.matrix @ off.matrix,
                                              c, complexified=True), member)
        assert not base.same_coset(moved)


def test_subgroup_membership_needs_a_split():
    with pytest.raises(NoSplitConfigured):
        cx.subgroup_membership(la.su2())


def test_coset_map_requires_complement_vector(ctx):
    a = la.GroupElement(np.eye(ctx.matrix_size), ctx)
    member = cx.subgroup_membership(ctx)
    with pytest.raises(VectorNotInM):
        cx.coset_complexification(cx.TangentPoint(a, ctx.basis[2]), member)


def test_leaf_restricts_to_geodesic(ctx):
    rng = np.random.default_rng(7)
    a = la.group_exp(ctx, ctx.random_element(rng))
    X = ctx.random_element(rng, 1.0)
    for t in (0.0, 0.7, -1.2):
        leaf = cx.geodesic_leaf(a, X, t, 0.0)
        want = a.matrix @ scipy.linalg.expm(t * X)
        assert np.linalg.norm(leaf.matrix - want) < 1e-13


def test_leaf_factorization_same_generator(ctx):
    rng = np.random.default_rng(8)
    a = la.group_exp(ctx, ctx.random_element(rng))
    X = ctx.random_element(rng, 1.0)
    t, s = 0.4, 0.9
    lhs = cx.geodesic_leaf(a, X, t, s).matrix
    rhs = a.matrix @ scipy.linalg.expm(t * X) @ scipy.linalg.expm(1j * s * X)
    assert np.linalg.norm(lhs - rhs) < 1e-13


def test_leaf_cr_residual_second_order(ctx):
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = la.group_exp(ctx, ctx.random_element(rng, 1.2))
        X = ctx.random_element(rng, 1.0)
        order = cx.cr_order_estimate(a, X)
        assert order >= 1.9


def test_leaf_cr_residual_second_order_coset_model(ctx):
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = la.group_exp(ctx, ctx.random_element(rng, 1.2))
        Y = ctx.project_m(ctx.random_element(rng, 1.0))
        if ctx.norm(Y) < 0.1:
            Y = ctx.basis[0]
        order = cx.cr_order_estimate(a, Y)
        assert order >= 1.9


def test_polar_inverse_branch_failure(ctx):
    bad = la.GroupElement(np.array([[0.0, 1.0], [0.0, 0.0]]), ctx,
                          complexified=True)
    with pytest.raises(LogBranchFailure):
        cx.group_complexification_inverse(ctx, bad)
