import itertools
import tracemalloc

import numpy as np
import pytest

from tubegeom import curvature as cv
from tubegeom import jets, majet
from tubegeom.errors import DegenerateHessian, MalformedInput, SingularSystem
from tubegeom.jets import (JetPolynomial, matrix_inverse, wirtinger_z,
                           wirtinger_zbar)

from jet_reference import (einsum_inverse, gauss_seidel_potential, identity_gap,
                           loop_potential_expansion, stack_jets)


def _pure_y_powers(n, d):
    """Exponent tuples (x-part zero) of the degree-d pure-y monomials."""
    return [(0,) * n + tuple(np.bincount(m, minlength=n).tolist())
            for m in itertools.combinations_with_replacement(range(n), d)]


def _pure_y_block(jet, n, d):
    """Real parts of the degree-d pure-y coefficients, read one at a time."""
    return np.array([np.real(jet.coefficient(p)) for p in _pure_y_powers(n, d)])


def _largest(quartic):
    """Largest |coefficient| of a ``QuarticCoefficients``."""
    return np.max(np.abs(list(quartic.values.values())))


def _fiber_quadratic(n, max_degree):
    return JetPolynomial(2 * n, max_degree, {p: 1.0 for p in _pure_y_powers(n, 2)
                                             if max(p) == 2})


def test_flat_expansion_is_fiber_quadratic():
    R = cv.CurvatureTensor(np.zeros((3, 3, 3, 3)))
    rho = majet.potential_expansion(R)
    assert len(rho.coeffs) == 3
    for i in range(3):
        powers = [0] * 6
        powers[3 + i] = 2
        assert rho.coefficient(tuple(powers)) == 1.0


def test_sphere_expansion_collects_to_perfect_square():
    # rho = y1^2 + y2^2 - (1/3)(x1 y2 - x2 y1)^2
    R = cv.constant_curvature(2, 1.0)
    rho = majet.potential_expansion(R)
    assert rho.coefficient((0, 0, 2, 0)) == 1.0
    assert rho.coefficient((0, 0, 0, 2)) == 1.0
    assert rho.coefficient((2, 0, 0, 2)) == pytest.approx(-1.0 / 3.0)
    assert rho.coefficient((0, 2, 2, 0)) == pytest.approx(-1.0 / 3.0)
    assert rho.coefficient((1, 1, 1, 1)) == pytest.approx(2.0 / 3.0)
    assert len(rho.coeffs) == 5


def test_mixed_quartic_coefficient_symmetrization():
    rng = np.random.default_rng(0)
    R = cv.random_admissible(3, rng)
    rho = majet.potential_expansion(R)
    C = R.components
    n = 3
    for (p, q, i, j) in [(0, 1, 0, 2), (0, 2, 1, 2), (1, 2, 0, 1)]:
        powers = [0] * 6
        powers[p] += 1
        powers[q] += 1
        powers[n + i] += 1
        powers[n + j] += 1
        # collect the four (i,j)/(p,q) orderings of the double sum
        want = -(C[i, p, j, q] + C[i, q, j, p]
                 + C[j, p, i, q] + C[j, q, i, p]) / 3.0
        assert rho.coefficient(tuple(powers)) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_potential_expansion_matches_the_loop_reference(n):
    rng = np.random.default_rng(40 + n)
    for degree in (4, 6, 8):
        R = cv.random_admissible(n, rng)
        got = majet.potential_expansion(R, degree)
        want = loop_potential_expansion(R, degree, majet.FIBER_SCALE)
        assert got.max_degree == degree
        assert (got - want).max_abs_coeff() <= 2e-16


def test_the_whole_potential_scales_with_the_fiber_scale(monkeypatch):
    R = cv.random_admissible(3, np.random.default_rng(7))
    base = majet.potential_expansion(R, 6)
    monkeypatch.setattr(majet, "FIBER_SCALE", 0.5)
    half = majet.potential_expansion(R, 6)
    assert (half - 0.5 * base).max_abs_coeff() == 0.0
    # the identity is homogeneous of degree one in rho
    gap = majet.ma_residual(half) - 0.5 * majet.ma_residual(base)
    assert gap.max_abs_coeff() <= 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_fd_curvature_of_the_potentials_fiber_metric_recovers_the_tensor(n):
    # the chart x -> (1/2) d^2 rho / dy_i dy_j at (x, 0) is read from the
    # potential alone; the finite-difference oracle recovers R from it
    R = cv.random_admissible(n, np.random.default_rng(50 + n))
    rho = majet.potential_expansion(R, 4)
    hessian = [[rho.partial(n + i).partial(n + j) for j in range(n)]
               for i in range(n)]
    scale = 0.5 / majet.FIBER_SCALE

    def metric(x):
        point = np.concatenate([x, np.zeros(n)])
        return scale * np.array([[np.real(h.evaluate(point)) for h in row]
                                 for row in hessian])

    got = cv.curvature_from_chart(cv.MetricChart(n, metric))
    assert np.max(np.abs(got.components - R.components)) <= 1e-6


def test_flat_residual_vanishes_identically():
    R = cv.CurvatureTensor(np.zeros((2, 2, 2, 2)))
    residual = majet.ma_residual(majet.potential_expansion(R))
    assert residual.coeffs == {}


def test_expansion_residual_has_no_low_order_terms():
    for n, kappa in ((2, 1.0), (3, -0.8)):
        R = cv.constant_curvature(n, kappa)
        residual = majet.ma_residual(majet.potential_expansion(R))
        assert residual.max_abs_coeff(degrees={0, 1, 2, 3, 4, 5}) < 1e-12
        assert residual.max_abs_coeff(degrees={6}) > 1e-3


def test_quartic_perturbation_residual_against_exact_rational():
    # rho = y^2 + y^4 in one complex variable: the identity residual is
    # exactly -2 y^4 (3 + 2 y^2) / (1 + 6 y^2) = -6 y^4 + 32 y^6 - ...
    rho = JetPolynomial(2, 6, {(0, 2): 1.0, (0, 4): 1.0})
    residual = majet.ma_residual(rho)
    assert residual.coefficient((0, 4)) == pytest.approx(-6.0, abs=1e-12)
    assert residual.coefficient((0, 6)) == pytest.approx(32.0, abs=1e-12)
    ys = np.linspace(-0.15, 0.15, 9)
    jet_vals = np.array([np.real(residual.evaluate(np.array([0.1, y]))) for y in ys])
    series = -6.0 * ys ** 4 + 32.0 * ys ** 6
    np.testing.assert_allclose(jet_vals, series, atol=1e-14)
    # the exact rational differs from the degree-6 jet by its y^8 tail
    exact = -2.0 * ys ** 4 * (3.0 + 2.0 * ys ** 2) / (1.0 + 6.0 * ys ** 2)
    np.testing.assert_allclose(jet_vals, exact, atol=1e-4)


def test_multivariable_quartic_perturbation():
    # same perturbation inside a two-variable potential
    rho = JetPolynomial(4, 6, {(0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0,
                               (0, 0, 4, 0): 1.0})
    residual = majet.ma_residual(rho)
    assert residual.coefficient((0, 0, 4, 0)) == pytest.approx(-6.0, abs=1e-12)


def test_ma_residual_pointwise_against_direct_numerics():
    # Independent oracle: evaluate the identity at sample points with plain
    # numpy derivatives of the explicit polynomial and an exact Hessian solve.
    R = cv.constant_curvature(2, 1.0)
    rho = majet.potential_expansion(R, max_degree=4)
    residual = majet.ma_residual(majet.potential_expansion(R, max_degree=8))

    def rho_func(x1, x2, y1, y2):
        return y1 ** 2 + y2 ** 2 - (x1 * y2 - x2 * y1) ** 2 / 3.0

    def numeric_residual(pt, h=1e-3):
        # Wirtinger derivatives by central differences of rho_func
        def d(fun, var, p):
            q1 = np.array(p, dtype=float)
            q2 = np.array(p, dtype=float)
            q1[var] += h
            q2[var] -= h
            return (fun(*q1) - fun(*q2)) / (2 * h)

        dz = np.array([0.5 * (d(rho_func, a, pt) - 1j * d(rho_func, 2 + a, pt))
                       for a in range(2)])
        dzb = dz.conj()
        H = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            for b in range(2):
                def second(p, aa=a, bb=b):
                    q = np.array(p, dtype=float)

                    def inner(*r):
                        return 0.5 * (d(rho_func, aa, r) - 1j * d(rho_func, 2 + aa, r))
                    return 0.5 * (
                        (inner(*_shift(q, bb, h)) - inner(*_shift(q, bb, -h)))
                        / (2 * h)
                        + 1j * (inner(*_shift(q, 2 + bb, h))
                                - inner(*_shift(q, 2 + bb, -h))) / (2 * h))
                H[a, b] = second(pt)
        raised = np.linalg.solve(H.T, dzb)
        return float(np.real(raised @ dz - 2.0 * rho_func(*pt)))

    def _shift(q, var, h):
        out = np.array(q, dtype=float)
        out[var] += h
        return out

    rng = np.random.default_rng(5)
    for _ in range(3):
        pt = rng.uniform(-0.15, 0.15, 4)
        jet_val = float(np.real(residual.evaluate(pt)))
        num_val = numeric_residual(pt)
        assert jet_val == pytest.approx(num_val, abs=5e-6)


def _per_entry_residual(rho, n):
    """The residual from the Neumann-series inverse, independent of the
    library's solve, summed one Hessian entry at a time."""
    H = majet.complex_hessian(rho)
    N = JetPolynomial._from_array(H.num_vars, H.max_degree,
                                  einsum_inverse(H._c, H.num_vars, H.max_degree))
    want = (-2.0) * rho
    for a in range(n):
        for b in range(n):
            want = want + N[b][a] * wirtinger_zbar(rho, b, n) * wirtinger_z(rho, a, n)
    return want


def test_ma_residual_matches_a_per_entry_contraction():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        rho = majet.potential_expansion(cv.random_admissible(n, rng))
        terms = {}
        for d in (3, 4, 5):
            for _ in range(10):
                powers = np.bincount(rng.integers(0, 2 * n, d), minlength=2 * n)
                terms[tuple(powers.tolist())] = rng.uniform(-0.3, 0.3)
        rho = rho + JetPolynomial(2 * n, rho.max_degree, terms)
        # the real form's identity is polynomial, so a complex rho (the
        # same positive-definite quadratic part) takes the same route
        imaginary = {powers: 1j * rng.uniform(-0.3, 0.3) for powers in terms}
        for jet in (rho, rho + JetPolynomial(2 * n, rho.max_degree, imaginary)):
            got = majet.ma_residual(jet)
            assert got.max_degree == jet.max_degree
            assert (got - _per_entry_residual(jet, n)).max_abs_coeff() < 1e-13


def _with_terms_above(rho, degree, rng):
    """rho on the layout of ``degree``, with random terms of that degree."""
    wider = rho.truncated(degree)
    block = wider._layout.block(degree)
    wider._c[block] = rng.uniform(-0.3, 0.3, block.stop - block.start)
    return wider


@pytest.mark.parametrize("n", [2, 3])
def test_residual_with_a_linear_part_stops_at_the_last_determined_degree(n):
    # with a linear part, the residual's degree-d block needs rho through
    # degree d + 2, so a degree-bound jet determines it through bound - 2
    rng = np.random.default_rng(23)
    rho = majet.potential_expansion(cv.constant_curvature(n, 1.0))
    bound = rho.max_degree
    linear = {tuple(row): rng.uniform(-0.5, 0.5)
              for row in np.eye(2 * n, dtype=int).tolist()}
    tilted = rho + JetPolynomial(2 * n, bound, linear)
    got = majet.ma_residual(tilted)
    assert got.max_degree == bound - 2
    want = _per_entry_residual(tilted, n).truncated(bound - 2)
    assert (got - want).max_abs_coeff() < 1e-13
    # terms above the bound leave every kept block as it is, and move the
    # first block cut off
    wider = majet.ma_residual(_with_terms_above(tilted, bound + 1, rng))
    assert np.array_equal(wider.truncated(bound - 2)._c, got._c)
    top = wider._layout.block(bound - 1)
    assert np.max(np.abs(wider._c[top] - want.truncated(bound - 1)._c[top])) > 1e-3
    # a potential keeps its bound, and every block is determined
    plain = majet.ma_residual(rho)
    assert plain.max_degree == bound
    wider = majet.ma_residual(_with_terms_above(rho, bound + 1, rng))
    assert np.array_equal(wider.truncated(bound)._c, plain._c)


def test_residual_of_a_real_potential_is_real(monkeypatch):
    # a real rho's solve L u = g builds no complex array; a complex-typed
    # copy takes the same real form, and its imaginary parts stay zero
    solve, seen = majet._graded_solve, []

    def recording(A, B, *rest):
        seen.append((A.dtype, B.dtype))
        return solve(A, B, *rest)

    monkeypatch.setattr(majet, "_graded_solve", recording)
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        rho = majet.potential_expansion(cv.random_admissible(n, rng))
        got = majet.ma_residual(rho)
        complex_route = majet.ma_residual(rho * (1 + 0j))
        assert seen[-2:] == [(np.float64, np.float64), (np.complex128, np.complex128)]
        assert got._c.dtype == np.float64
        assert complex_route._c.dtype == np.complex128
        assert np.array_equal(got._c, complex_route._c.real)


def test_degenerate_hessian_raises():
    # second fiber direction carries no quadratic: Hessian diag(1/2, 0)
    rho = JetPolynomial(4, 4, {(0, 0, 2, 0): 1.0})
    with pytest.raises(DegenerateHessian):
        majet.ma_residual(rho)


def test_ill_conditioned_hessian_raises_through_the_graded_solve():
    # Hessian diag(5e4, 1.1e-8) + O(|x|^2): its smallest eigenvalue passes
    # the 1e-8 check, but its condition number 4.5e12 fails the solve's
    rho = JetPolynomial(4, 4, {(0, 0, 2, 0): 1e5, (0, 0, 0, 2): 2.2e-8,
                               (0, 2, 0, 2): 1.0})
    with pytest.raises(DegenerateHessian) as info:
        majet.ma_residual(rho)
    assert isinstance(info.value.__cause__, SingularSystem)


def test_a_real_potential_is_conditioned_from_its_hessian_eigenvalues(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.cond called")

    monkeypatch.setattr(np.linalg, "cond", no_svd)
    rho = majet.potential_expansion(cv.random_admissible(3, np.random.default_rng(8)))
    assert majet.ma_residual(rho).max_abs_coeff(degrees={4}) <= 1e-12
    # Hessian diag(1e6, 1e-7): its smallest eigenvalue passes the 1e-8
    # check, but its condition number 1e13 fails the solve's
    rho = JetPolynomial(4, 4, {(0, 0, 2, 0): 2e6, (0, 0, 0, 2): 2e-7})
    with pytest.raises(DegenerateHessian) as info:
        majet.ma_residual(rho)
    assert isinstance(info.value.__cause__, SingularSystem)


@pytest.mark.parametrize("n, d", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3),
                                  (3, 4), (3, 5), (3, 6), (4, 4)])
def test_pure_y_block_gain_is_minus_d_minus_one_times_d_minus_two(n, d):
    # the identity linearized at |y|^2 multiplies a pure-y degree-d block by
    # -(d-1)(d-2); through degree d the block is exactly linear for d >= 3
    gain = -(d - 1) * (d - 2)
    assert gain == -majet._block_gain(d)
    rng = np.random.default_rng(100 * n + d)
    powers = _pure_y_powers(n, d)
    P = dict(zip(powers, rng.uniform(-1.0, 1.0, len(powers))))
    residual = majet.ma_residual(_fiber_quadratic(n, d) + JetPolynomial(2 * n, d, P))
    want = gain * np.array(list(P.values()))
    got = _pure_y_block(residual, n, d)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, 3])
def test_pure_y_quartic_probe_matrix_is_minus_six_times_identity(n):
    # the probe of the matching system: column q is the change of the pure-y
    # quartic residual when the flat ansatz gains a unit coefficient at q
    powers = _pure_y_powers(n, 4)
    base = _pure_y_block(majet.ma_residual(_fiber_quadratic(n, 4)), n, 4)
    columns = [_pure_y_block(majet.ma_residual(
        _fiber_quadratic(n, 4) + JetPolynomial(2 * n, 4, {p: 1.0})), n, 4) - base
        for p in powers]
    L = np.column_stack(columns)
    np.testing.assert_allclose(L, -6.0 * np.eye(len(powers)), rtol=0.0, atol=1e-12)


def test_invert_near_identity_closed_form():
    # one variable: (1 + y^2)^-1 = 1 - y^2 + O(y^4)
    y2 = JetPolynomial(1, 3, {(2,): 1.0})
    one = JetPolynomial.constant(1.0, 1, 3)
    inv = matrix_inverse(stack_jets([[one + y2]]))
    assert inv[0][0].coefficient((0,)) == pytest.approx(1.0)
    assert inv[0][0].coefficient((2,)) == pytest.approx(-1.0)


def test_invert_near_identity_matches_closed_form_exactly():
    rng = np.random.default_rng(1)
    size, num_vars = 3, 3
    A = [[JetPolynomial.constant(float(i == j), num_vars, 3) for j in range(size)]
         for i in range(size)]
    quad = {}
    for i in range(size):
        for j in range(size):
            powers = tuple(sorted(rng.integers(0, num_vars, 2)))
            key = [0] * num_vars
            for p in powers:
                key[p] += 1
            quad[(i, j)] = JetPolynomial(num_vars, 3,
                                         {tuple(key): float(rng.standard_normal())})
            A[i][j] = A[i][j] + quad[(i, j)]
    inv = matrix_inverse(stack_jets(A))
    for i in range(size):
        for j in range(size):
            expected = -quad[(i, j)]
            if i == j:
                expected = expected + 1.0
            gap = inv[i][j] - expected
            # coefficient equality through degree 2 (and 3, by parity)
            assert gap.max_abs_coeff(degrees={0, 1, 2, 3}) < 1e-14
    assert identity_gap(stack_jets(A), inv) < 1e-14


def test_solve_quartic_zero_for_flat():
    R = cv.CurvatureTensor(np.zeros((2, 2, 2, 2)))
    q = majet.solve_quartic_coefficients(R)
    assert _largest(q) == pytest.approx(0.0, abs=1e-15)


def test_solve_quartic_vanishes_on_random_tensors():
    rng = np.random.default_rng(2)
    for n in (2, 3):
        for _ in range(5):
            R = cv.random_admissible(n, rng)
            q = majet.solve_quartic_coefficients(R)
            assert _largest(q) < 1e-12
            # the solved ansatz: its pure-y quartic residual vanishes
            quartic = {(0,) * n + tuple(np.bincount(quad, minlength=n).tolist()): v
                       for quad, v in q.values.items()}
            ansatz = majet.potential_expansion(R, 4) + JetPolynomial(2 * n, 4, quartic)
            residual = majet.ma_residual(ansatz)
            assert np.max(np.abs(_pure_y_block(residual, n, 4))) <= 1e-12


def test_solve_quartic_reads_the_residual_block_divided_by_six():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        R = cv.random_admissible(n, rng)
        q = majet.solve_quartic_coefficients(R)
        residual = majet.ma_residual(majet.potential_expansion(R, 4))
        want = _pure_y_block(residual, n, 4) / 6.0
        assert list(q.values) == list(itertools.combinations_with_replacement(range(n), 4))
        assert list(q.values.values()) == want.tolist()
        assert np.any(want != 0.0)  # round-off, but it tells positions apart


def _planted_solve(n, rng):
    """A seeded pure-y quartic P, and the solve of the degree-4 expansion
    of a seeded tensor with P planted into the seed."""
    powers = _pure_y_powers(n, 4)
    P = dict(zip(powers, rng.uniform(-1.0, 1.0, len(powers))))
    seed = majet.potential_expansion(cv.random_admissible(n, rng), 4)
    return P, majet.solve_potential(seed + JetPolynomial(2 * n, 4, P))


def test_solve_quartic_recovers_a_planted_pure_y_quartic():
    # a seed carrying a pure-y quartic P solves to the correction -P, so the
    # solved block, P plus the correction, vanishes: the solve cancels
    # the plant with the gain and sign of the linearized identity
    P, solved = _planted_solve(3, np.random.default_rng(22))
    for powers in P:
        assert solved.coefficient(powers) == pytest.approx(0.0, abs=1e-12)


def test_a_wrong_gain_leaves_the_plant_but_not_the_flat_quartic(monkeypatch):
    # b (b - 1) in place of (b - 1)(b - 2) halves the quartic correction:
    # the plant reads back as P / 2, while the unplanted solve stays zero
    monkeypatch.setattr(majet, "_block_gain", lambda b: b * (b - 1))
    P, solved = _planted_solve(3, np.random.default_rng(22))
    for powers, v in P.items():
        assert solved.coefficient(powers) == pytest.approx(v / 2.0, abs=1e-12)
    R = cv.random_admissible(3, np.random.default_rng(2))
    assert _largest(majet.solve_quartic_coefficients(R)) < 1e-12


def test_solve_quartic_makes_one_residual_call(monkeypatch):
    R = cv.random_admissible(2, np.random.default_rng(11))
    first = majet.solve_quartic_coefficients(R)
    calls = []
    real_residual = majet.ma_residual
    monkeypatch.setattr(majet, "ma_residual",
                        lambda rho: calls.append(1) or real_residual(rho))
    second = majet.solve_quartic_coefficients(R)
    assert second.values == first.values
    assert len(calls) == 1


def test_solve_potential_rejects_a_seed_with_a_linear_part():
    # its residual stops at bound - 2, which would leave the top blocks
    # unsolved
    seed = majet.potential_expansion(cv.constant_curvature(2, 1.0), 4)
    with pytest.raises(MalformedInput, match="linear part"):
        majet.solve_potential(seed + JetPolynomial(4, 4, {(0, 0, 1, 0): 0.1}))


@pytest.mark.parametrize("powers, value", [((2, 0, 0, 0), 0.3), ((1, 0, 1, 0), 0.3),
                                           ((2, 0, 1, 0), 0.2), ((4, 0, 0, 0), 0.1)])
def test_solve_potential_rejects_seed_terms_of_y_degree_zero_or_one(powers, value):
    # the solve fills only blocks of y-degree >= 3, so these would leave a
    # residual of 0.1 to 1.2 behind, and the coupling assumes their absence
    seed = _space_form_seed(1.0, 6) + JetPolynomial(4, 6, {powers: value})
    with pytest.raises(MalformedInput, match="y-degree 0 or 1"):
        majet.solve_potential(seed)


def test_a_seed_with_a_cubic_y_term_still_solves():
    seed = _space_form_seed(1.0, 6) + JetPolynomial(4, 6, {(0, 0, 3, 0): 0.2})
    assert majet.ma_residual(majet.solve_potential(seed)).max_abs_coeff() <= 1e-15


def _planted_quartic_seed():
    rng = np.random.default_rng(22)
    seed = majet.potential_expansion(cv.random_admissible(3, rng), 4)
    return seed + JetPolynomial(2 * 3, 4, dict(zip(_pure_y_powers(3, 4),
                                                  rng.uniform(-1.0, 1.0, 15))))


def _reference_seeds():
    A = np.array([[1.0, 0.3], [0.3, 2.0]])
    y = [JetPolynomial.variable(2 + i, 4, 6) for i in range(2)]
    yAy = sum(A[i, j] * y[i] * y[j] for i in range(2) for j in range(2))
    return {"S^2": _space_form_seed(1.0, 8), "H^2": _space_form_seed(-1.0, 8),
            "random n=3": majet.potential_expansion(
                cv.random_admissible(3, np.random.default_rng(31)), 8),
            "yAy": yAy,
            # g(0) = A with curvature terms: a linear change of z takes A to I
            # and keeps the gains and the coupling
            "yAy + S^2": yAy + _space_form_seed(1.0, 6) - y[0] * y[0] - y[1] * y[1],
            "planted quartic": _planted_quartic_seed()}


@pytest.mark.parametrize("name", ["S^2", "H^2", "random n=3", "yAy", "yAy + S^2",
                                  "planted quartic"])
def test_solve_potential_matches_gauss_seidel(name):
    # one residual per degree and the coupling between the blocks of a
    # degree give the potential that a residual after every step gives
    seed = _reference_seeds()[name]
    got = majet.solve_potential(seed)
    want = gauss_seidel_potential(seed)
    assert np.max(np.abs(got._c - want._c)) <= 1e-13
    assert np.max(np.abs(want._c)) > 0.1


@pytest.mark.parametrize("max_degree", [4, 6, 8, 10])
def test_an_even_seed_costs_at_most_one_residual_per_even_degree(monkeypatch, max_degree):
    seed = majet.potential_expansion(cv.random_admissible(2, np.random.default_rng(8)),
                                     max_degree)
    calls = []
    real_residual = majet.ma_residual
    monkeypatch.setattr(majet, "ma_residual",
                        lambda rho: calls.append(1) or real_residual(rho))
    solved = majet.solve_potential(seed)
    assert len(calls) <= max_degree // 2 - 1
    assert real_residual(solved).max_abs_coeff() <= 1e-14


def test_a_warm_residual_at_six_dimensions_stays_within_its_memory():
    rho = majet.potential_expansion(cv.random_admissible(6, np.random.default_rng(0)), 6)
    majet.ma_residual(rho)  # builds the cached tables
    tracemalloc.start()
    try:
        majet.ma_residual(rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 13.5 * 2 ** 20


def test_a_cold_solve_builds_no_evaluation_tables():
    # the solve reads y-degrees off the tube layout's exponent rows, so it
    # leaves the split tables to ``evaluate`` (at 16 variables and degree 8
    # they build in 0.17 s and keep 18.6 MiB, tracemalloc, 2-core host)
    R = cv.random_admissible(3, np.random.default_rng(9))
    jets._split.cache_clear()
    majet.solve_potential(majet.potential_expansion(R, 6))
    majet.solve_quartic_coefficients(R)
    assert jets._split.cache_info().currsize == 0


@pytest.mark.parametrize("max_degree", [2, 3])
def test_a_potential_below_the_quartic_is_the_fiber_quadratic(max_degree):
    R = cv.random_admissible(2, np.random.default_rng(10))
    rho = majet.potential_expansion(R, max_degree)
    assert rho.coeffs == {(0, 0, 2, 0): majet.FIBER_SCALE, (0, 0, 0, 2): majet.FIBER_SCALE}
    with pytest.raises(MalformedInput):
        majet.potential_expansion(R, max_degree - 2)


def _space_form_seed(kappa, max_degree):
    """|y|^2 - (1/3) y^T R_x y + (2/45) y^T R_x^2 y for the space form of
    curvature kappa in dimension 2, R_x[i, j] = R[i, p, j, q] x_p x_q: its
    metric through degree 4 in x."""
    R = cv.constant_curvature(2, kappa).components
    var = [JetPolynomial.variable(k, 4, max_degree) for k in range(4)]
    x, y = var[:2], var[2:]
    Rx = [[sum(R[i, p, j, q] * x[p] * x[q] for p in range(2) for q in range(2))
           for j in range(2)] for i in range(2)]
    Rx2 = [[Rx[i][0] * Rx[0][j] + Rx[i][1] * Rx[1][j] for j in range(2)]
           for i in range(2)]
    return sum(y[i] * y[j] * (float(i == j) - Rx[i][j] * (1.0 / 3.0)
                              + Rx2[i][j] * (2.0 / 45.0))
               for i in range(2) for j in range(2))


def _odd_y(jet, n):
    """Mask of the monomials of odd y-degree."""
    return jet._layout.exponents[:, n:].sum(axis=1) % 2 == 1


@pytest.mark.parametrize("kappa", [1.0, -1.0])
def test_sextic_solve_on_space_forms(monkeypatch, kappa):
    # Monge-Ampere forces (2/15) (R_pikj x_p y_i y_j)^2, so x0^2 y1^4 = 2/15
    # on S^2 and on H^2, and no y^6 term.  The steps before degree 6 change
    # nothing, so one residual serves every degree, and within degree 6 the
    # coupling carries the x^2 y^4 step on to the y-degree 6 block
    calls = []
    real_residual = majet.ma_residual
    monkeypatch.setattr(majet, "ma_residual",
                        lambda rho: calls.append(1) or real_residual(rho))
    solved = majet.solve_potential(_space_form_seed(kappa, 6))
    assert len(calls) == 1
    assert solved.coefficient((2, 0, 0, 4)) == pytest.approx(2.0 / 15.0, abs=1e-15)
    assert np.max(np.abs(_pure_y_block(solved, 2, 6))) <= 1e-15
    assert not solved._c[_odd_y(solved, 2)].any()
    assert real_residual(solved).max_abs_coeff() <= 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_solve_potential_completes_a_random_metric_seed(n):
    # a random admissible tensor is in general no symmetric space's
    # curvature, but I - R_x / 3 is still an analytic metric, so the solve
    # exists: it keeps the seed's blocks of y-degree <= 2, leaves the seed
    # itself as it is, and its residual is round-off through the bound
    seed = majet.potential_expansion(cv.random_admissible(n, np.random.default_rng(5)), 6)
    kept = seed._c.copy()
    solved = majet.solve_potential(seed)
    assert np.array_equal(seed._c, kept)
    low = seed._layout.exponents[:, n:].sum(axis=1) <= 2
    assert np.array_equal(solved._c[low], kept[low])
    assert np.max(np.abs(solved._c[~low])) > 1e-3
    assert not solved._c[_odd_y(solved, n)].any()
    assert majet.ma_residual(solved).max_abs_coeff() <= 1e-14


def test_residual_scaling_slope_for_sphere():
    R = cv.constant_curvature(2, 1.0)
    rho = majet.potential_expansion(R)
    rows = majet.residual_scaling_table(rho)
    slope = majet.fitted_loglog_slope(rows)
    assert slope >= 4.5
    assert slope == pytest.approx(6.0, abs=0.05)


def test_scaling_csv_shape():
    R = cv.constant_curvature(2, 1.0)
    rows = majet.residual_scaling_table(majet.potential_expansion(R))
    text = majet.scaling_table_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "eps,sup_residual"
    assert len(lines) == len(rows) + 1
