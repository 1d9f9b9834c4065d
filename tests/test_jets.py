import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tubegeom import curvature as cv
from tubegeom import jets, majet
from tubegeom.errors import MalformedInput, SingularSystem
from tubegeom.jets import (JetPolynomial, matrix_inverse, wirtinger_z,
                           wirtinger_zbar)

from jet_reference import einsum_inverse, identity_gap, lex_rows, stack_jets


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


def test_coefficient_rejects_negative_exponents_as_the_constructor_does():
    jet = JetPolynomial(2, 3, {(0, 2): 1.0})
    for powers in [(-1, 3), (1, -1)]:
        with pytest.raises(MalformedInput, match="non-negative"):
            jet.coefficient(powers)
        with pytest.raises(MalformedInput, match="non-negative"):
            JetPolynomial(2, 3, {powers: 1.0})
    assert jet.coefficient((0, 4)) == 0.0  # above the bound: no stored term


@pytest.mark.parametrize("bad", [1.7, 1.5, 0.5, np.nan, np.inf])
def test_exponents_that_are_not_integral_values_are_rejected(bad):
    # 1.7 used to be truncated to 1; NaN must not reach the int cast's warning
    jet = JetPolynomial(2, 3, {(1, 0): 5.0})
    with pytest.raises(MalformedInput, match="integers"):
        JetPolynomial(2, 3, {(bad, 0): 5.0})
    with pytest.raises(MalformedInput, match="integers"):
        jet.coefficient((bad, 0))


def test_integral_float_exponents_read_as_integers():
    jet = JetPolynomial(2, 3, {(2.0, 1.0): 3.0, (np.float64(1), 0): 5.0})
    assert jet.coeffs == {(2, 1): 3.0, (1, 0): 5.0}
    assert jet.coefficient((2.0, 1)) == 3.0
    assert jet.coefficient((1.0, 0.0)) == 5.0


@pytest.mark.parametrize("bad", [2.5, 0.5, np.nan, np.inf])
def test_jet_sizes_that_are_not_integral_values_are_rejected(bad):
    # 2.5 used to be truncated to 2, as exponents once were
    with pytest.raises(MalformedInput, match="integers"):
        JetPolynomial(bad, 3)
    with pytest.raises(MalformedInput, match="integers"):
        JetPolynomial(2, bad + 1)
    with pytest.raises(MalformedInput, match="integer"):
        JetPolynomial(2, 3).truncated(bad)
    jet = JetPolynomial(2.0, np.float64(3), {(1, 0): 5.0}).truncated(2.0)
    assert (jet.num_vars, jet.max_degree) == (2, 2)
    assert type(jet.num_vars) is type(jet.max_degree) is int


@pytest.mark.parametrize("var", [-1, 2, [0, 2], np.array([-1, 1]), 0.0])
def test_partial_rejects_a_variable_outside_the_jet(var):
    # -1 used to differentiate by the last variable, 2 to raise IndexError
    jet = JetPolynomial(2, 3, {(0, 2): 1.0})
    with pytest.raises(MalformedInput):
        jet.partial(var)


def test_wirtinger_index_must_name_a_complex_coordinate():
    n = 2
    rho = JetPolynomial(2 * n, 3, {(1, 0, 0, 2): 1.0})
    with pytest.raises(MalformedInput):
        wirtinger_z(rho, n, n)  # reads d/dy_n, the (2n)-th variable
    with pytest.raises(MalformedInput):
        wirtinger_zbar(rho, np.arange(n + 1), n)
    assert wirtinger_z(rho, n - 1, n).shape == ()


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
    rows = [[JetPolynomial.constant(float(i == j), num_vars, deg)
             + _random_jet(rng, num_vars, deg, terms=4) * 0.3
             for j in range(size)] for i in range(size)]
    # make the constant part well-conditioned
    rows[0][0] = rows[0][0] + JetPolynomial.constant(1.0, num_vars, deg)
    A = stack_jets(rows)
    assert identity_gap(A, matrix_inverse(A)) < 1e-12


def test_matrix_inverse_rejects_singular_constant_part():
    A = stack_jets([[JetPolynomial.constant(1.0, 2, 2), JetPolynomial.zero(2, 2)],
                    [JetPolynomial.zero(2, 2), JetPolynomial.variable(0, 2, 2)]])
    with pytest.raises(SingularSystem):  # zero constant part
        matrix_inverse(A)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_inverse_equals_the_einsum_formula(n):
    rng = np.random.default_rng(n)
    R = cv.random_admissible(n, rng)
    hessian = majet.complex_hessian(majet.potential_expansion(R))
    num_vars, bound, S = hessian.num_vars, hessian.max_degree, hessian._c
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
        inverse = matrix_inverse(JetPolynomial._from_array(num_vars, bound, stack))
        np.testing.assert_array_equal(inverse._c, got)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_jet_ma_layer_chain_on_the_complex_hessian(n):
    # the calls that perfbench's jet-ma layer probe times: the inverse of the
    # complex Hessian, one entry of it times a Wirtinger derivative, and one
    # more Wirtinger derivative
    R = cv.random_admissible(n, np.random.default_rng(60 + n))
    rho = majet.potential_expansion(R)
    hessian = majet.complex_hessian(rho)
    inverse = jets.matrix_inverse(hessian)
    assert inverse.shape == (n, n) and inverse.max_degree == rho.max_degree
    np.testing.assert_allclose(inverse._c[:, :, 0], 2.0 * np.eye(n), rtol=0, atol=1e-15)
    assert identity_gap(hessian, inverse) < 1e-13
    dzbar = jets.wirtinger_zbar(rho, 0, n)
    product = inverse[0][0] * dzbar
    assert product.shape == () and product.max_degree == rho.max_degree
    points = np.random.default_rng(n).uniform(-0.01, 0.01, size=(20, 2 * n))
    np.testing.assert_allclose(product.evaluate(points),
                               inverse[0][0].evaluate(points) * dzbar.evaluate(points),
                               rtol=0, atol=1e-13)
    dz = jets.wirtinger_z(rho, 0, n)
    np.testing.assert_array_equal(dz._c, jets.wirtinger_z(rho, np.arange(n), n)[0]._c)


def _random_jet_matrix(rng, n=3, num_vars=4, max_degree=4, complex_=False):
    rows = [[_random_jet(rng, num_vars, max_degree) for _ in range(n)] for _ in range(n)]
    if complex_:
        rows = [[e + 1j * _random_jet(rng, num_vars, max_degree) for e in row]
                for row in rows]
    return rows, stack_jets(rows)


@pytest.mark.parametrize("complex_", [False, True])
def test_evaluate_of_a_jet_matrix_is_entry_wise(complex_):
    rng = np.random.default_rng(70 + complex_)
    rows, A = _random_jet_matrix(rng, complex_=complex_)
    points = rng.uniform(-0.5, 0.5, size=(7, 4))
    want = np.array([[e.evaluate(points) for e in row] for row in rows])
    assert A.evaluate(points).shape == (3, 3, 7)
    np.testing.assert_allclose(A.evaluate(points), want, rtol=1e-14, atol=1e-14)
    single = A.evaluate(points[2])
    assert single.shape == (3, 3)
    np.testing.assert_allclose(single, want[:, :, 2], rtol=1e-14, atol=1e-14)


def test_partial_over_an_array_of_variables_stacks_the_single_partials():
    rng = np.random.default_rng(72)
    rows, A = _random_jet_matrix(rng, complex_=True)
    variables = np.array([3, 0, 2])
    got = A.partial(variables)
    assert got.shape == (3, 3, 3)
    for k, var in enumerate(variables):
        np.testing.assert_array_equal(got[k]._c, A.partial(var)._c)
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                np.testing.assert_array_equal(got[k, i, j]._c, e.partial(var)._c)
    # the transposed complex Hessian in one pass equals the per-entry one
    n = 2
    rho = _random_jet(rng, num_vars=2 * n, max_degree=5, terms=20)
    HT = wirtinger_zbar(wirtinger_z(rho, np.arange(n), n), np.arange(n), n)
    for a in range(n):
        for b in range(n):
            np.testing.assert_array_equal(
                HT[b, a]._c, wirtinger_zbar(wirtinger_z(rho, a, n), b, n)._c)


def test_chained_and_tuple_indexing_give_the_same_entry():
    rows, A = _random_jet_matrix(np.random.default_rng(73))
    assert len(A) == 3 and len(A[1]) == 3 and A[1].shape == (3,)
    for i in range(3):
        for j in range(3):
            np.testing.assert_array_equal(A[i][j]._c, A[i, j]._c)
            np.testing.assert_array_equal(A[i, j]._c, rows[i][j]._c)
            assert A[i, j].coeffs == rows[i][j].coeffs
    assert [row.shape for row in A] == [(3,)] * 3
    with pytest.raises(IndexError):
        A[0, 0, 0]  # the monomial axis is not an index
    np.testing.assert_array_equal(A[..., 1]._c, A[:, 1]._c)  # leading axes only
    with pytest.raises(TypeError):
        len(A[0, 0])


def test_scalar_only_operations_reject_jets_with_leading_axes():
    _, A = _random_jet_matrix(np.random.default_rng(74))
    with pytest.raises(MalformedInput):
        JetPolynomial(4, 4, {(0, 0, 0, 0): np.ones(3)})
    with pytest.raises(MalformedInput):
        A.coeffs
    with pytest.raises(MalformedInput):
        A.coefficient((0, 0, 0, 0))
    with pytest.raises(MalformedInput):
        A * A[0, 0]
    with pytest.raises(MalformedInput):
        A[0, 0] * A[0]
    with pytest.raises(MalformedInput):
        jets.matrix_inverse(A[0])
    # sums and scalar products stay entry-wise
    np.testing.assert_array_equal((2.0 * A - A[0, 0])[1, 2]._c,
                                  (2.0 * A[1, 2] - A[0, 0])._c)


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


def test_max_abs_coeff_propagates_nan():
    jet = JetPolynomial(2, 3, {(0, 0): 1.0, (1, 0): 2.0, (1, 1): np.nan,
                               (3, 0): 0.5})
    assert np.isnan(jet.max_abs_coeff())
    assert np.isnan(jet.max_abs_coeff(degrees={2}))
    assert jet.max_abs_coeff(degrees={0, 1, 3}) == 2.0
    assert JetPolynomial.zero(2, 3).max_abs_coeff() == 0.0


# -- cached tables against brute force ---------------------------------

@pytest.mark.parametrize("num_vars", range(7))
@pytest.mark.parametrize("max_degree", range(7))
def test_layout_tables_match_brute_force(num_vars, max_degree):
    layout = jets._layout(num_vars, max_degree)
    rows = lex_rows(num_vars, max_degree)
    expected = np.array(rows, dtype=np.int64).reshape(len(rows), num_vars)
    assert layout.exponents.dtype == np.int64
    np.testing.assert_array_equal(layout.exponents, expected)
    # runs: maximal stretches of one degree sharing the first nonzero variable
    def first(t):
        return next(v for v, e in enumerate(rows[t]) if e)

    runs = [()]
    for d in range(1, max_degree + 1):
        block = [t for t, row in enumerate(rows) if sum(row) == d]
        src = int(layout.offsets[d - 1])
        degree_runs = []
        for var, group in itertools.groupby(block, key=first):
            group = list(group)
            a, b = group[0], group[-1] + 1
            degree_runs.append((a, b, src, src + b - a, var))
        runs.append(tuple(degree_runs))
    assert layout.runs == tuple(runs)


def test_layout_size_is_bounded_by_the_code_range():
    # codes reach (max_degree + 1) ** num_vars, which must stay below 2 ** 62
    assert jets._layout(61, 1).size == 62
    with pytest.raises(MalformedInput):
        jets._layout(62, 1)


@pytest.mark.parametrize("num_vars, max_degree", [(1, 4), (3, 3), (4, 5)])
def test_index_of_a_stack_equals_its_row_by_row_lookups(num_vars, max_degree):
    # rows of mixed degrees take one search per degree, rows of one degree
    # (one row, say) a single search; every row lands where it does alone
    layout = jets._layout(num_vars, max_degree)
    rng = np.random.default_rng(num_vars)
    mixed = layout.exponents[rng.integers(0, layout.size, 12)].reshape(3, 4, num_vars)
    one_degree = layout.exponents[layout.block(max_degree)][::-1]
    assert len(np.unique(mixed.sum(axis=-1))) > 1
    for rows in (mixed, one_degree, one_degree[:1], one_degree[0], mixed[:0]):
        got = layout.index(rows)
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert got.shape == rows.shape[:-1]
        flat = rows.reshape(-1, num_vars)
        want = [layout.index(tuple(row)).item() for row in flat.tolist()]
        np.testing.assert_array_equal(got.ravel(), want)
        np.testing.assert_array_equal(layout.exponents[got.ravel()], flat)


@pytest.mark.parametrize("num_vars", range(7))
@pytest.mark.parametrize("order", range(5))
def test_derivative_table_matches_its_definition(num_vars, order):
    rows = lex_rows(num_vars, order)
    shape = (num_vars,) * order
    position = np.zeros(shape, dtype=np.int64)
    weight = np.zeros(shape)
    for index in itertools.product(range(num_vars), repeat=order):
        powers = np.bincount(np.array(index, dtype=int), minlength=num_vars)
        position[index] = rows.index(tuple(powers))
        weight[index] = math.prod(math.factorial(a) for a in powers)
    table = jets._derivative_table(num_vars, order)
    for got, want in zip(table, (position, weight)):
        assert got.dtype == want.dtype and got.shape == shape
        np.testing.assert_array_equal(got, want)


def test_cached_tables_hold_only_their_own_entries():
    for table in (jets._product_block, jets._layout,
                  jets._split, jets._partial_table, jets._derivative_table):
        table.cache_clear()
    tracemalloc.start()
    try:
        jets._layout(12, 6)
        # every partial and Wirtinger derivative reads the one stacked table
        jet = JetPolynomial.variable(0, 12, 6)
        for var in range(12):
            jet.partial(var)
        wirtinger_z(jet, np.arange(6), 6)
        del jet
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # exponents 1.8 MB and their codes, 1.2 MB of maps
    assert kept <= 4 * 2 ** 20
    assert jets._partial_table.cache_info().currsize == 1
    maps = jets._partial_table(12, 6)
    derivatives = [jets._derivative_table(12, order) for order in range(5)]
    for array in itertools.chain(maps, *derivatives):
        assert array.base is None
