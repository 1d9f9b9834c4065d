import numpy as np
import pytest

from tubegeom import curvature as cv
from tubegeom import jets, majet
from tubegeom.errors import MalformedInput, SingularSystem
from tubegeom.jets import (JetPolynomial, matrix_inverse, wirtinger_z,
                           wirtinger_zbar)

from jet_reference import einsum_inverse, identity_gap


def _random_jet(rng, num_vars=4, max_degree=4, terms=12):
    coeffs = {}
    for _ in range(terms):
        powers = tuple(rng.integers(0, 3, num_vars))
        if sum(powers) <= max_degree:
            coeffs[powers] = float(rng.standard_normal())
    return JetPolynomial(num_vars, max_degree, coeffs)


def test_constructor_truncates_and_drops_zeros():
    jet = JetPolynomial(2, 2, {(0, 0): 1.0, (3, 0): 5.0, (1, 0): 0.0})
    assert jet.coefficient((0, 0)) == 1.0
    assert jet.coefficient((3, 0)) == 0.0
    assert (1, 0) not in jet.coeffs


def test_arithmetic_matches_pointwise_evaluation():
    rng = np.random.default_rng(0)
    a = _random_jet(rng)
    b = _random_jet(rng)
    pts = rng.uniform(-0.3, 0.3, size=(5, 4))
    np.testing.assert_allclose((a + b).evaluate(pts),
                               a.evaluate(pts) + b.evaluate(pts), atol=1e-14)
    np.testing.assert_allclose((a - b).evaluate(pts),
                               a.evaluate(pts) - b.evaluate(pts), atol=1e-14)
    np.testing.assert_allclose((2.5 * a).evaluate(pts), 2.5 * a.evaluate(pts),
                               atol=1e-14)


def test_product_truncates_consistently():
    # (1 + x)^2 at max_degree 1 keeps only 1 + 2x
    x = JetPolynomial.variable(0, 1, 1)
    one = JetPolynomial.constant(1.0, 1, 1)
    sq = (one + x) * (one + x)
    assert sq.coefficient((0,)) == 1.0
    assert sq.coefficient((1,)) == 2.0
    assert sq.degree() == 1


def test_partial_derivative():
    # d/dx (x^2 y) = 2 x y
    jet = JetPolynomial(2, 3, {(2, 1): 1.0})
    dx = jet.partial(0)
    assert dx.coefficient((1, 1)) == 2.0
    assert jet.partial(1).coefficient((2, 0)) == 1.0


def test_wirtinger_combinations_recover_real_partials():
    # dz + dzbar = d/dx and i (dz - dzbar) = d/dy, exactly on coefficients
    rng = np.random.default_rng(1)
    jet = _random_jet(rng, num_vars=4, max_degree=4)
    n = 2
    for alpha in range(n):
        dz = wirtinger_z(jet, alpha, n)
        dzb = wirtinger_zbar(jet, alpha, n)
        dx = dz + dzb
        dy = 1j * (dz - dzb)
        for powers, c in jet.partial(alpha).coeffs.items():
            assert dx.coefficient(powers) == pytest.approx(c, abs=1e-15)
        for powers, c in jet.partial(n + alpha).coeffs.items():
            assert dy.coefficient(powers) == pytest.approx(c, abs=1e-15)


def test_mixed_wirtinger_derivatives_commute():
    rng = np.random.default_rng(2)
    jet = _random_jet(rng, num_vars=4, max_degree=4)
    ab = wirtinger_zbar(wirtinger_z(jet, 0, 2), 1, 2)
    ba = wirtinger_z(wirtinger_zbar(jet, 1, 2), 0, 2)
    assert ab.coeffs.keys() == ba.coeffs.keys()
    for powers, c in ab.coeffs.items():
        assert ba.coefficient(powers) == pytest.approx(c, abs=1e-15)


def test_matrix_inverse_is_exact_at_jet_level():
    rng = np.random.default_rng(3)
    size, num_vars, deg = 3, 2, 4
    A = [[JetPolynomial.constant(float(i == j), num_vars, deg)
          + _random_jet(rng, num_vars, deg, terms=4) * 0.3
          for j in range(size)] for i in range(size)]
    # make the constant part well-conditioned
    A[0][0] = A[0][0] + JetPolynomial.constant(1.0, num_vars, deg)
    assert identity_gap(A, matrix_inverse(A)) < 1e-12


def test_matrix_inverse_rejects_singular_constant_part():
    A = [[JetPolynomial.constant(1.0, 2, 2), JetPolynomial.zero(2, 2)],
         [JetPolynomial.zero(2, 2), JetPolynomial.variable(0, 2, 2)]]  # zero constant part
    with pytest.raises(SingularSystem):
        matrix_inverse(A)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_inverse_equals_the_einsum_formula(n):
    rng = np.random.default_rng(n)
    R = cv.random_admissible(n, rng)
    hessian, _ = majet._hessian_and_gradient(majet.potential_expansion(R))
    num_vars, bound, S = jets._stack(hessian)
    # a constant part I/2 (the MA Hessian's), then one that is not a multiple
    # of the identity, which shows A0^-1 on the wrong side; the solve and
    # the Neumann series sum in different orders, so only at round-off
    A0 = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    identity = np.zeros(S.shape)
    identity[:, :, 0] = np.eye(n)
    for stack in (S, np.einsum("ik,kjm->ijm", A0, S)):
        got = jets._graded_solve(stack, identity, num_vars, bound)
        assert got.flags.c_contiguous
        assert got.dtype == stack.dtype and got.shape == stack.shape
        want = einsum_inverse(stack, num_vars, bound)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        inverse = matrix_inverse(jets._unstack(num_vars, bound, stack))
        np.testing.assert_array_equal(jets._stack(inverse)[2], got)


@pytest.mark.parametrize("cols", [1, 3])
def test_graded_solve_with_general_right_hand_sides(cols):
    rng = np.random.default_rng(cols)
    size, num_vars, bound = 3, 3, 6
    layout = jets._layout(num_vars, bound)
    A = np.zeros((size, size, layout.size), dtype=complex)
    A[:, :, 0] = np.eye(size) + 0.3 * rng.standard_normal((size, size))
    for d in (1, 3, 4):  # odd degrees, and degree 2 all zero
        block = layout.block(d)
        shape = (size, size, block.stop - block.start)
        A[:, :, block] = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert layout.live_degrees(A) == [0, 1, 3, 4]
    B = rng.standard_normal((size, cols, layout.size))
    X = jets._graded_solve(A, B, num_vars, bound)
    assert X.shape == B.shape
    gap = jets._graded_matmul(A, X, num_vars, bound) - B
    assert np.max(np.abs(gap)) <= 1e-13
    for bad in (np.diag([1.0, 1.0, 0.0]), np.full((size, size), np.nan)):
        A[:, :, 0] = bad
        with pytest.raises(SingularSystem):
            jets._graded_solve(A, B, num_vars, bound)


def test_evaluate_shape_checks():
    jet = JetPolynomial(3, 2, {(1, 0, 0): 1.0})
    with pytest.raises(MalformedInput):
        jet.evaluate(np.zeros(2))


def test_json_roundtrip():
    rng = np.random.default_rng(4)
    jet = _random_jet(rng) + 1j * _random_jet(rng)
    back = JetPolynomial.from_json(jet.to_json())
    assert back.num_vars == jet.num_vars
    assert back.max_degree == jet.max_degree
    assert back.coeffs.keys() == jet.coeffs.keys()
    for powers, c in jet.coeffs.items():
        assert back.coefficient(powers) == pytest.approx(c, abs=1e-16)


def test_max_abs_coeff_propagates_nan():
    jet = JetPolynomial(2, 3, {(0, 0): 1.0, (1, 0): 2.0, (1, 1): np.nan,
                               (3, 0): 0.5})
    assert np.isnan(jet.max_abs_coeff())
    assert np.isnan(jet.max_abs_coeff(degrees={2}))
    assert jet.max_abs_coeff(degrees={0, 1, 3}) == 2.0
    assert JetPolynomial.zero(2, 3).max_abs_coeff() == 0.0
