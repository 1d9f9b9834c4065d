import warnings

import numpy as np
import pytest

from tubegeom import curvature as cv
from tubegeom import kahler
from tubegeom.errors import (IndexOutOfRange, MalformedInput, SingularMetric,
                             SymmetryViolation)

from jet_reference import loop_normal_metric_jet


def _sphere_chart(n, kappa=1.0):
    """Round space form metric of curvature ``kappa`` in normal coordinates."""

    def radial_factor(r2):
        # sin(sqrt(k) r)^2 / (k r^2), continued through r = 0 and kappa <= 0
        u = kappa * r2
        if abs(u) < 1e-10:
            return 1.0 - u / 3.0 + 2.0 * u * u / 45.0
        if u > 0:
            s = np.sqrt(u)
            return np.sin(s) ** 2 / u
        s = np.sqrt(-u)
        return np.sinh(s) ** 2 / (-u)

    def evaluator(x):
        r2 = float(np.dot(x, x))
        if r2 == 0.0:
            return np.eye(n)
        f = radial_factor(r2)
        proj = np.outer(x, x) / r2
        return f * np.eye(n) + (1.0 - f) * proj

    return cv.MetricChart(n, evaluator)


def _euclidean_chart(n):
    return cv.MetricChart(n, lambda x: np.eye(n))


def test_constant_curvature_components():
    R = cv.constant_curvature(2, 1.0)
    assert R.components[0, 1, 0, 1] == 1.0
    assert R.components[1, 0, 1, 0] == 1.0
    assert R.components[0, 1, 1, 0] == -1.0
    assert R.components[1, 0, 0, 1] == -1.0
    assert np.count_nonzero(R.components) == 4


def test_sectional_values():
    flat = cv.CurvatureTensor(np.zeros((3, 3, 3, 3)))
    assert flat.components[0, 1, 0, 1] == 0.0
    sphere = cv.constant_curvature(3, 2.5)
    K = lambda i, j: sphere.components[i, j, i, j]
    for i in range(3):
        for j in range(3):
            if i != j:
                assert K(i, j) == pytest.approx(2.5)
                assert K(i, j) == K(j, i)


def test_random_admissible_passes_all_symmetries():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        for _ in range(10):
            R = cv.random_admissible(n, rng)
            R.validate(1e-12)
            for i in range(n):
                assert R.components[i, i, i, i] == 0.0


def test_validate_rejects_broken_symmetry():
    bad = np.zeros((2, 2, 2, 2))
    bad[0, 1, 0, 1] = 1.0  # orbit not completed
    with pytest.raises(SymmetryViolation):
        cv.CurvatureTensor(bad).validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_components_are_rejected(bad):
    # every comparison with NaN is false: the symmetry checks alone pass an
    # all-NaN tensor, and the witness would read it as flat (None)
    one = cv.constant_curvature(2, 1.0).components.copy()
    one[0, 1, 0, 1] = bad
    for components in (np.full((2, 2, 2, 2), bad), one):
        tensor = cv.CurvatureTensor(components)
        for use in (cv.CurvatureTensor.validate, kahler.negative_plane_witness,
                    kahler.kahler_curvature_at_zero, cv.normal_metric_jet):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # rejected before any arithmetic
                with pytest.raises(SymmetryViolation, match="must be finite"):
                    use(tensor)


def test_normal_metric_jet_sphere_coefficients():
    R = cv.constant_curvature(2, 1.0)
    g = cv.normal_metric_jet(R)
    assert g[0][0].coefficient((0, 0, 0, 0)) == 1.0
    assert g[0][0].coefficient((0, 2, 0, 0)) == pytest.approx(-1.0 / 3.0)
    assert g[0][0].coefficient((2, 0, 0, 0)) == 0.0
    assert g[1][1].coefficient((2, 0, 0, 0)) == pytest.approx(-1.0 / 3.0)
    assert g[0][1].coefficient((1, 1, 0, 0)) == pytest.approx(1.0 / 3.0)


def test_normal_metric_jet_is_linear_in_curvature():
    rng = np.random.default_rng(1)
    R = cv.random_admissible(3, rng)
    lam = 2.75
    scaled = cv.CurvatureTensor(lam * R.components)
    g1 = cv.normal_metric_jet(R)
    g2 = cv.normal_metric_jet(scaled)
    for i in range(3):
        for j in range(3):
            quad1 = g1[i][j] - g1[i][j].coefficient((0,) * 6)
            quad2 = g2[i][j] - g2[i][j].coefficient((0,) * 6)
            for powers, c in quad1.coeffs.items():
                assert quad2.coefficient(powers) == pytest.approx(lam * c)


def test_flat_jet_gives_identity_metric():
    R = cv.CurvatureTensor(np.zeros((2, 2, 2, 2)))
    g = cv.normal_metric_jet(R)
    assert len(g[0][0].coeffs) == 1
    assert len(g[0][1].coeffs) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_normal_metric_jet_matches_the_loop_reference(n):
    rng = np.random.default_rng(30 + n)
    for degree in (4, 6, 8):
        R = cv.random_admissible(n, rng)
        got = cv.normal_metric_jet(R, degree)
        want = loop_normal_metric_jet(R, degree)
        for i in range(n):
            for j in range(n):
                assert got[i][j].max_degree == degree
                assert (got[i][j] - want[i][j]).max_abs_coeff() <= 2e-16


def test_normal_metric_jet_needs_its_quadratic_term():
    with pytest.raises(MalformedInput):
        cv.normal_metric_jet(cv.constant_curvature(2, 1.0), 1)


def test_curvature_from_chart_euclidean():
    R = cv.curvature_from_chart(_euclidean_chart(3))
    assert np.max(np.abs(R.components)) < 1e-12


def test_curvature_from_chart_recovers_random_tensors():
    rng = np.random.default_rng(2)
    for n in (2, 3):
        R = cv.random_admissible(n, rng)
        chart = cv.chart_from_metric_jet(cv.normal_metric_jet(R))
        got = cv.curvature_from_chart(chart)
        assert np.max(np.abs(got.components - R.components)) < 1e-6


def test_curvature_from_chart_sphere_closed_form():
    got = cv.curvature_from_chart(_sphere_chart(2, 1.0))
    assert got.components[0, 1, 0, 1] == pytest.approx(1.0, abs=1e-6)
    hyp = cv.curvature_from_chart(_sphere_chart(2, -0.7))
    assert hyp.components[0, 1, 0, 1] == pytest.approx(-0.7, abs=1e-6)


def test_second_order_error_decay_on_jet_chart():
    rng = np.random.default_rng(3)
    R = cv.random_admissible(2, rng)
    chart = cv.chart_from_metric_jet(cv.normal_metric_jet(R))
    errs = []
    steps = (0.02, 0.01, 0.005)
    for h in steps:
        got = cv.curvature_from_chart(chart, step=h, stencil_order=2)
        errs.append(np.max(np.abs(got.components - R.components)))
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    for order in orders:
        assert 1.8 <= order <= 2.3


def test_singular_metric_detected():
    chart = cv.MetricChart(2, lambda x: np.eye(2) - 600.0 * np.outer(x, x))
    with pytest.raises(SingularMetric):
        cv.curvature_from_chart(chart, step=0.05)


def test_non_normal_chart_rejected():
    chart = cv.MetricChart(2, lambda x: 2.0 * np.eye(2))
    with pytest.raises(MalformedInput):
        cv.curvature_from_chart(chart)


def test_sphere_product_is_admissible_and_nonnegative():
    R = cv.sphere_product(3, {(0, 1): 2.0})
    R.validate(1e-12)
    assert R.components[0, 1, 0, 1] == 2.0
    assert R.components[0, 2, 0, 2] == 0.0
    for plane in ((0, 5), (-1, 1)):
        with pytest.raises(IndexOutOfRange, match="outside"):
            cv.sphere_product(3, {plane: 1.0})
