import numpy as np
import pytest

from tubegeom import curvature as cv
from tubegeom import kahler, majet
from tubegeom.errors import (DegenerateHessian, EqualIndices, IndexOutOfRange,
                             MalformedInput)
from tubegeom.jets import JetPolynomial, wirtinger_z, wirtinger_zbar


def test_flat_tensor_gives_zero_curvature():
    R = cv.CurvatureTensor(np.zeros((2, 2, 2, 2)))
    K = kahler.kahler_curvature_at_zero(R)
    assert np.max(np.abs(K.components)) == 0.0


def test_sphere_special_values():
    R = cv.constant_curvature(2, 1.0)
    K = kahler.kahler_curvature_at_zero(R)
    assert K.components[0, 1, 0, 1].real == pytest.approx(1.0 / 3.0)
    assert K.components[0, 1, 1, 0].real == pytest.approx(-1.0 / 6.0)
    assert K.max_imag() == 0.0
    C = K.components
    assert np.max(np.abs(C - C.transpose(1, 0, 3, 2).conj())) == 0.0


def test_closed_form_matches_direct_substitution():
    rng = np.random.default_rng(0)
    R = cv.random_admissible(3, rng)
    K = kahler.kahler_curvature_at_zero(R)
    C = R.components
    for idx in np.ndindex(3, 3, 3, 3):
        i, j, k, l = idx
        want = (C[i, j, k, l] + C[i, l, k, j]) / 6.0
        assert K.components[idx].real == pytest.approx(want, abs=1e-14)
        assert K.components[idx].imag == 0.0


def test_kahler_symmetry_in_unbarred_slots():
    rng = np.random.default_rng(1)
    R = cv.random_admissible(3, rng)
    K = kahler.kahler_curvature_at_zero(R).components
    np.testing.assert_allclose(K, K.transpose(2, 1, 0, 3), atol=1e-14)
    np.testing.assert_allclose(K, K.transpose(0, 3, 2, 1), atol=1e-14)


def test_jet_oracle_agrees_with_closed_form():
    rng = np.random.default_rng(2)
    for n in (2, 3):
        for _ in range(10):
            R = cv.random_admissible(n, rng)
            Kc = kahler.kahler_curvature_at_zero(R)
            Kj = kahler.kahler_curvature_from_jet(majet.potential_expansion(R))
            assert np.max(np.abs(Kc.components - Kj.components)) < 1e-10
            assert Kj.max_imag() < 1e-12
            C = Kj.components
            assert np.max(np.abs(C - C.transpose(1, 0, 3, 2).conj())) < 1e-12


def test_jet_oracle_flat_potential():
    rho = JetPolynomial(4, 4, {(0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0})
    K = kahler.kahler_curvature_from_jet(rho)
    assert np.max(np.abs(K.components)) == 0.0


def test_jet_oracle_third_derivative_correction_frozen_value():
    # rho = |z|^2 + c (z^2 zbar + zbar^2 z) has vanishing fourth mixed
    # derivative and constant third derivatives, so the curvature reduces
    # to the correction term alone: K = -|2c|^2 at the origin.  In real
    # coordinates the potential reads x^2 + y^2 + 2c x^3 + 2c x y^2.
    c = 0.3
    rho = JetPolynomial(2, 4, {(2, 0): 1.0, (0, 2): 1.0,
                               (3, 0): 2 * c, (1, 2): 2 * c})
    K = kahler.kahler_curvature_from_jet(rho)
    assert K.components[0, 0, 0, 0].real == pytest.approx(-4 * c * c, abs=1e-13)
    assert K.components[0, 0, 0, 0].imag == pytest.approx(0.0, abs=1e-13)


def wirtinger_chain_curvature(rho):
    """Reference K: differentiate the jet with the Wirtinger operators one
    slot at a time and read each derivative jet at the origin."""
    n = rho.num_vars // 2
    at0 = lambda jet: complex(jet.coefficient((0,) * rho.num_vars))
    dz = [wirtinger_z(rho, a, n) for a in range(n)]
    dzbar = [wirtinger_zbar(rho, a, n) for a in range(n)]
    H0 = np.array([[at0(wirtinger_zbar(dz[a], b, n)) for b in range(n)]
                   for a in range(n)])
    raised = np.linalg.inv(H0).T
    dz2zbar = [[[wirtinger_zbar(wirtinger_z(dz[i], k, n), m, n) for m in range(n)]
                for k in range(n)] for i in range(n)]
    d3a = np.array([[[at0(e) for e in row] for row in plane] for plane in dz2zbar])
    d3b = np.array([[[at0(wirtinger_z(wirtinger_zbar(dzbar[j], l, n), m, n))
                      for m in range(n)] for l in range(n)] for j in range(n)])
    K = np.zeros((n, n, n, n), dtype=complex)
    for i, j, k, l in np.ndindex(K.shape):
        K[i, j, k, l] = at0(wirtinger_zbar(dz2zbar[i][k][j], l, n))
    return K - np.einsum("nm,ikm,jln->ijkl", raised, d3a, d3b)


def test_jet_oracle_matches_the_wirtinger_chain_with_cubic_terms():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        for _ in range(3):
            rho = majet.potential_expansion(cv.random_admissible(n, rng))
            extra = {}
            for d in (3, 4):
                terms = extra[d] = {}
                for _ in range(12):
                    powers = np.bincount(rng.integers(0, 2 * n, d), minlength=2 * n)
                    terms[tuple(powers.tolist())] = rng.uniform(-0.5, 0.5)
            cubic, quartic = (JetPolynomial(2 * n, rho.max_degree, extra[d])
                              for d in (3, 4))
            full = rho + cubic + quartic
            want = wirtinger_chain_curvature(full)
            got = kahler.kahler_curvature_from_jet(full).components
            assert np.max(np.abs(got - want)) < 1e-14
            # the cubic terms make the correction term matter
            no_cubic = wirtinger_chain_curvature(rho + quartic)
            assert np.max(np.abs(no_cubic - want)) > 1e-3


def test_plane_sectionals_sphere():
    R = cv.constant_curvature(2, 1.0)
    assert kahler.plane_sectional(R, "xy", 0, 1) == pytest.approx(-1.0 / 3.0)
    assert kahler.plane_sectional(R, "xx", 0, 1) == pytest.approx(1.0)
    assert kahler.plane_sectional(R, "yy", 0, 1) == pytest.approx(1.0)
    assert kahler.plane_sectional(R, "holomorphic", 0) == pytest.approx(0.0)


def test_plane_identities_random():
    rng = np.random.default_rng(3)
    R = cv.random_admissible(3, rng)
    for i in range(3):
        assert kahler.plane_sectional(R, "holomorphic", i) == pytest.approx(
            0.0, abs=1e-13)
        for j in range(3):
            if i == j:
                continue
            xy = kahler.plane_sectional(R, "xy", i, j)
            xx = kahler.plane_sectional(R, "xx", i, j)
            yy = kahler.plane_sectional(R, "yy", i, j)
            assert xy == pytest.approx(-cv.sectional(R, i, j) / 3.0, abs=1e-13)
            assert xx == pytest.approx(cv.sectional(R, i, j), abs=1e-13)
            assert yy == xx  # realized through the same component formula


def test_plane_errors():
    R = cv.constant_curvature(2, 1.0)
    with pytest.raises(EqualIndices):
        kahler.plane_sectional(R, "xy", 1, 1)
    with pytest.raises(IndexOutOfRange):
        kahler.plane_sectional(R, "xx", 0, 4)
    with pytest.raises(MalformedInput):
        kahler.plane_sectional(R, "diagonal", 0, 1)
    for kind in ("xy", "xx", "yy"):  # no j
        with pytest.raises(MalformedInput, match="needs two indices"):
            kahler.plane_sectional(R, kind, 0)


def test_negative_plane_witness_cases():
    flat = cv.CurvatureTensor(np.zeros((3, 3, 3, 3)))
    assert kahler.negative_plane_witness(flat) is None

    sphere = cv.constant_curvature(2, 1.0)
    w = kahler.negative_plane_witness(sphere)
    assert w is not None
    assert w.value == pytest.approx(-1.0 / 3.0)

    product = cv.sphere_product(3, {(0, 1): 2.0})
    w = kahler.negative_plane_witness(product)
    assert (w.i, w.j) in ((0, 1), (1, 0))
    assert w.value == pytest.approx(-2.0 / 3.0)
    assert kahler.plane_sectional(product, "xy", w.i, w.j) == pytest.approx(w.value)

    negative = cv.constant_curvature(2, -1.0)
    assert kahler.negative_plane_witness(negative) is None


def test_oracle_degenerate_input():
    rho = JetPolynomial(4, 4, {(0, 0, 2, 0): 1.0})
    with pytest.raises(DegenerateHessian):
        kahler.kahler_curvature_from_jet(rho)


def test_plane_report_table():
    R = cv.constant_curvature(2, 1.0)
    rows = kahler.plane_report_rows(R)
    kinds = {(i, j, kind) for i, j, kind, *_ in rows}
    assert (0, 0, "holomorphic") in kinds
    assert (0, 1, "xx") in kinds
    assert (1, 0, "xy") in kinds
    assert all(err < 1e-12 for *_, err in rows)
    text = kahler.plane_report_csv(rows)
    assert text.splitlines()[0] == "i,j,plane,closed_form,oracle,abs_error"
