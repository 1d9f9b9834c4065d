import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tubegeom import liealg as la
from tubegeom.errors import (ClosureViolation, LogBranchFailure,
                             MalformedInput, NoSplitConfigured)


def check_ad_invariance(context, tol=1e-12):
    """Max defect of <[Z,X],Y> + <X,[Z,Y]> over all basis triples."""
    worst = 0.0
    for Z in context.basis:
        for X in context.basis:
            for Y in context.basis:
                zx = Z @ X - X @ Z
                zy = Z @ Y - Y @ Z
                worst = max(worst, abs(context.pair(zx, Y) + context.pair(X, zy)))
    if worst > tol:
        raise MalformedInput(f"inner product is not Ad-invariant ({worst:.3e})")
    return worst


def check_reductive(context, tol=1e-12):
    """Max subalgebra component of [h, m] over split basis pairs."""
    context._require_split()
    worst = 0.0
    for H in context.h_basis():
        for M in context.m_basis():
            proj = context.project_h(H @ M - M @ H)
            worst = max(worst, np.linalg.norm(proj))
    if worst > tol:
        raise MalformedInput(f"split is not reductive ([h,m] leaves m, {worst:.3e})")
    return worst


@pytest.fixture(scope="module")
def su2_split():
    return la.su2(h_split=True)


def test_su2_structure_constants(su2_split):
    e1, e2, e3 = su2_split.basis
    assert np.linalg.norm(e1 @ e2 - e2 @ e1 - e3) < 1e-15
    assert np.linalg.norm(e2 @ e3 - e3 @ e2 - e1) < 1e-15
    assert np.linalg.norm(e3 @ e1 - e1 @ e3 - e2) < 1e-15


def test_abelian_brackets_vanish():
    ctx = la.torus(3)
    rng = np.random.default_rng(1)
    X = ctx.random_element(rng)
    Y = ctx.random_element(rng)
    assert np.linalg.norm(X @ Y - Y @ X) == 0.0


@pytest.mark.parametrize("name", sorted(la.BUILTIN_CONTEXTS))
def test_structure_constants_expand_every_basis_bracket(name):
    ctx = la.builtin_context(name)
    f = ctx.structure_constants()
    assert f.shape == (ctx.dim,) * 3 and f.dtype == float
    for j, X in enumerate(ctx.basis):
        for k, Y in enumerate(ctx.basis):
            want = ctx.coefficients(X @ Y - Y @ X)
            assert np.max(np.abs(f[j, k] - want)) < 1e-15
    assert np.max(np.abs(f + f.transpose(1, 0, 2))) == 0.0


def test_structure_constants_of_the_su2_and_so3_triples():
    assert la.su2().structure_constants()[0, 1, 2] == pytest.approx(1.0, abs=1e-15)
    assert la.so(3).structure_constants()[0, 1, 2] == pytest.approx(-1.0, abs=1e-15)


def test_structure_constants_reject_a_basis_that_does_not_close():
    partial = la.LieAlgebraContext("partial", la.su2().basis[:2], trace_scale=2.0)
    with pytest.raises(ClosureViolation):
        partial.structure_constants()


@pytest.mark.parametrize("name", sorted(la.BUILTIN_CONTEXTS))
def test_a_stack_expands_and_reconstructs_as_its_matrices_do(name):
    ctx = la.builtin_context(name)
    rng = np.random.default_rng(8)
    K = 6
    stack = np.array([ctx.random_element(rng, 2.0) for _ in range(K)])
    coeffs = ctx.coefficients(stack)
    assert coeffs.shape == (K, ctx.dim)
    for X, c in zip(stack, coeffs):
        assert np.array_equal(c, ctx.coefficients(X))
    # a stack rebuilds by one matrix product, whose rows may round in the
    # last bit unlike a vector-matrix product
    rebuilt = ctx.reconstruct(coeffs)
    assert rebuilt.shape == stack.shape
    for row, M in zip(coeffs, rebuilt):
        assert np.max(np.abs(M - ctx.reconstruct(row))) <= 1e-15
    assert ctx.coefficients(stack.reshape(2, 3, *stack.shape[1:])).shape == (2, 3, ctx.dim)
    # one node nudged off the real span: i X leaves it for every context
    stack[2] += 1e-6 * 1j * ctx.basis[0]
    with pytest.raises(ClosureViolation, match=f"1 of {K} matrices"):
        ctx.coefficients(stack)


def test_inner_products_are_orthonormal_and_ad_invariant():
    for ctx in (la.su2(), la.su2(True), la.su3(), la.su3(True), la.so(3),
                la.so(4), la.torus(2)):
        assert np.allclose(ctx.inner_product, np.eye(ctx.dim), atol=1e-13)
        assert check_ad_invariance(ctx, tol=1e-12) <= 1e-12


def test_reductive_splits():
    for ctx in (la.su2(True), la.su3(True)):
        assert check_reductive(ctx, tol=1e-12) <= 1e-12
        for H in ctx.h_basis():
            for M in ctx.m_basis():
                assert abs(ctx.pair(H, M)) < 1e-13


def test_group_exp_identities(su2_split):
    rng = np.random.default_rng(2)
    assert np.allclose(la.group_exp(su2_split, np.zeros((2, 2))).matrix, np.eye(2))
    X = su2_split.random_element(rng)
    g = la.group_exp(su2_split, X)
    g.validate()
    assert np.linalg.norm(g.matrix @ la.group_exp(su2_split, -X).matrix - np.eye(2)) < 1e-14
    # commuting exponentials multiply
    prod = la.group_exp(su2_split, X).matrix @ la.group_exp(su2_split, 2.0 * X).matrix
    assert np.linalg.norm(prod - la.group_exp(su2_split, 3.0 * X).matrix) < 1e-13


def test_commuting_exponentials_multiply():
    ctx = la.torus(2)
    rng = np.random.default_rng(7)
    X = ctx.random_element(rng)
    Y = ctx.random_element(rng)
    assert np.linalg.norm(X @ Y - Y @ X) == 0.0
    prod = la.group_exp(ctx, X).matrix @ la.group_exp(ctx, Y).matrix
    assert np.linalg.norm(prod - la.group_exp(ctx, X + Y).matrix) < 1e-14


def test_group_exp_diagonal_frozen(su2_split):
    theta = 0.8
    X = -0.5j * theta * np.array([[1, 0], [0, -1]], dtype=complex)
    g = la.group_exp(su2_split, X)
    want = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    assert np.linalg.norm(g.matrix - want) < 1e-14


def test_group_log_inverts_exp(su2_split):
    assert np.linalg.norm(
        la.group_log(la.GroupElement(np.eye(su2_split.matrix_size), su2_split))) == 0.0
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        X = su2_split.random_element(rng, radius=1.0)
        worst = max(worst, np.linalg.norm(
            la.group_log(la.group_exp(su2_split, X)) - X))
    assert worst <= 1e-10


def test_group_log_diagonal_frozen(su2_split):
    theta = 0.3
    a = la.GroupElement(np.diag([np.exp(1j * theta), np.exp(-1j * theta)]),
                        su2_split)
    L = la.group_log(a)
    assert np.linalg.norm(L - np.diag([1j * theta, -1j * theta])) < 1e-14


def test_group_log_branch_failure(su2_split):
    with pytest.raises(LogBranchFailure):
        la.group_log(la.GroupElement(-np.eye(2), su2_split))


@pytest.mark.parametrize("name", sorted(la.BUILTIN_CONTEXTS))
def test_group_log_of_real_elements_agrees_with_logm(name):
    ctx = la.builtin_context(name)
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = la.group_exp(ctx, ctx.random_element(rng, 2.0))
        assert not a.complexified
        want = scipy.linalg.logm(a.matrix)
        assert np.linalg.norm(la.group_log(a) - want) <= 1e-12


def test_group_log_rejects_real_elements_that_are_not_normal(su2_split):
    shear = la.GroupElement(np.array([[1.0, 0.5], [0.0, 1.0]]), su2_split)
    with pytest.raises(MalformedInput):
        la.group_log(shear)
    # normal but not unitary: the logarithm leaves the algebra span
    with pytest.raises(ClosureViolation):
        la.group_log(la.GroupElement(np.diag([2.0, 0.5]), su2_split))


def test_adjoint_properties(su2_split):
    rng = np.random.default_rng(4)
    X = su2_split.random_element(rng)
    Y = su2_split.random_element(rng)
    e = la.GroupElement(np.eye(su2_split.matrix_size), su2_split)
    Ad = lambda g, Z: g.matrix @ Z @ np.linalg.inv(g.matrix)
    assert np.linalg.norm(Ad(e, X) - X) == 0.0
    for _ in range(10):
        g = la.group_exp(su2_split, su2_split.random_element(rng, 1.5))
        gap = abs(su2_split.pair(Ad(g, X), Ad(g, Y)) - su2_split.pair(X, Y))
        assert gap < 1e-13


def test_adjoint_abelian_is_identity():
    ctx = la.torus(2)
    rng = np.random.default_rng(5)
    X = ctx.random_element(rng)
    g = la.group_exp(ctx, ctx.random_element(rng))
    assert np.linalg.norm(g.matrix @ X @ np.linalg.inv(g.matrix) - X) < 1e-15


def test_projections(su2_split):
    rng = np.random.default_rng(6)
    e1, e2, e3 = su2_split.basis
    assert np.linalg.norm(su2_split.project_h(e1)) == 0.0
    assert np.linalg.norm(su2_split.project_h(e3) - e3) == 0.0
    X = su2_split.random_element(rng)
    Y = su2_split.random_element(rng)
    assert np.linalg.norm(
        su2_split.project_h(X) + su2_split.project_m(X) - X) < 1e-15
    assert abs(su2_split.pair(su2_split.project_h(X),
                              su2_split.project_m(Y))) < 1e-14


def test_projection_requires_split():
    ctx = la.su2(h_split=False)
    with pytest.raises(NoSplitConfigured):
        ctx.project_h(ctx.basis[0])


def test_reductivity_numerically(su2_split):
    for H in su2_split.h_basis():
        for M in su2_split.m_basis():
            comm = H @ M - M @ H
            assert np.linalg.norm(su2_split.project_h(comm)) <= 1e-12


def test_group_element_validation(su2_split):
    with pytest.raises(MalformedInput):
        la.GroupElement(np.array([[2.0, 0.0], [0.0, 1.0]]), su2_split).validate()
    la.GroupElement(np.diag([2.0, 0.5]), su2_split, complexified=True).validate()


def test_structure_file_rejects_a_non_invariant_inner_product():
    base = la.su2()
    bad = la.LieAlgebraContext("skewed", base.basis,
                               inner_product=np.diag([1.0, 2.0, 1.0]))
    with pytest.raises(MalformedInput, match="Ad-invariant"):
        check_ad_invariance(bad)


def test_structure_file_rejects_a_non_reductive_split():
    # h = span(basis 0, basis 2) of su(3): [basis 0, basis 1] has a part in h
    base = la.su3()
    mask = np.zeros(base.dim, dtype=bool)
    mask[[0, 2]] = True
    bad = la.LieAlgebraContext("su3-bad-split", base.basis,
                               inner_product=base.inner_product, h_mask=mask)
    with pytest.raises(MalformedInput, match="not reductive"):
        check_reductive(bad)


def test_builtin_context_lookup():
    assert la.builtin_context("su2_u1").name == "su2>u1"
    with pytest.raises(MalformedInput):
        la.builtin_context("e8")


# -- the polar split, over every built-in context ---------------------------

CONTEXTS = {name: la.builtin_context(name) for name in sorted(la.BUILTIN_CONTEXTS)}

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def members(draw, count):
    """A built-in context and ``count`` triples (a, v, a exp(iv)) of it,
    with |log a| <= 1.2 and |v| <= 1."""
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]

    def element(radius):
        c = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=ctx.dim,
                                   max_size=ctx.dim)))
        return ctx.reconstruct(c * radius / max(1.0, np.linalg.norm(c)))

    points = []
    for _ in range(count):
        a = scipy.linalg.expm(element(1.2))
        v = element(1.0)
        points.append((a, v, a @ scipy.linalg.expm(1j * v)))
    return ctx, points


@SETTINGS
@given(members(1))
def test_polar_split_recovers_base_and_vector(drawn):
    _, [(a, v, m)] = drawn
    u, w = la.polar_split(m[None])
    assert np.linalg.norm(u[0] - a) <= 1e-10
    assert np.linalg.norm(w[0] - v) <= 1e-10


@SETTINGS
@given(members(2))
def test_membership_defect_vanishes_on_products_of_members(drawn):
    ctx, [(*_, m1), (*_, m2)] = drawn
    stack = np.array([m1, m2, m1 @ m2, m2 @ m1])
    assert la.membership_defect(ctx, stack) <= 1e-10


@SETTINGS
@given(members(1))
def test_membership_defect_detects_matrices_off_the_group(drawn):
    ctx, [(*_, m)] = drawn
    # det 2 leaves SL(n, C) and SO(n, C); the 0.5 leaves the diagonal torus
    off = np.eye(ctx.matrix_size)
    off[0, 0], off[0, 1] = 2.0, 0.5
    assert la.membership_defect(ctx, (m @ off)[None]) > 1e-3


def test_polar_split_rejects_singular_and_non_finite_matrices():
    with pytest.raises(LogBranchFailure):
        la.polar_split(np.array([[[0.0, 1.0], [0.0, 0.0]]]))
    ctx = CONTEXTS["su2"]
    assert la.membership_defect(ctx, np.zeros((1, 2, 2))) == float("inf")
    assert np.isnan(la.membership_defect(ctx, np.full((1, 2, 2), np.nan)))
