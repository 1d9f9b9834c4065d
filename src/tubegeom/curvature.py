"""Riemannian curvature tensors, the normal-coordinate metric jet, and a
finite-difference curvature oracle.

Convention lock
---------------
Components are stored as ``R[i, j, k, l] = g(R(e_i, e_j) e_l, e_k)`` in an
orthonormal frame at the base point, where ``R(X, Y) = [grad_X, grad_Y] -
grad_[X,Y]``.  With this slot order the sectional curvature of the plane
``(e_i, e_j)`` is simply ``R[i, j, i, j]`` (so the unit round sphere has
``R[0, 1, 0, 1] = +1``), and the symmetries read

* antisymmetry: ``R[i,j,k,l] = -R[j,i,k,l] = -R[i,j,l,k]``
* pair exchange: ``R[i,j,k,l] = R[k,l,i,j]``
* cyclic identity: ``R[i,j,k,l] + R[j,k,i,l] + R[k,i,j,l] = 0``

Every translation from another reference's ordering happens here and
nowhere else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (IndexOutOfRange, MalformedInput, SingularMetric,
                     SymmetryViolation)
from .jets import JetPolynomial, _derivative_table, _layout, _scatter


@dataclass(frozen=True)
class CurvatureTensor:
    """Rank-4 curvature array at a point, in the convention above."""

    components: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.components, dtype=float)
        if arr.ndim != 4 or len(set(arr.shape)) != 1:
            raise MalformedInput("curvature components must form an (n,n,n,n) array")
        object.__setattr__(self, "components", arr)

    @property
    def dimension(self):
        return self.components.shape[0]

    def validate(self, tol=1e-10):
        """Check all algebraic symmetries; raises SymmetryViolation.

        A NaN or infinite component is rejected first: every comparison with
        NaN is false, so the symmetry checks alone would let it through.
        """
        R = self.components
        if not np.all(np.isfinite(R)):
            raise SymmetryViolation("curvature components must be finite")
        scale = max(np.max(np.abs(R)), 1.0)
        checks = {
            "antisymmetry (first pair)": R + R.transpose(1, 0, 2, 3),
            "antisymmetry (second pair)": R + R.transpose(0, 1, 3, 2),
            "pair exchange": R - R.transpose(2, 3, 0, 1),
            "cyclic identity": R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3),
        }
        for name, resid in checks.items():
            err = np.max(np.abs(resid))
            if err > tol * scale:
                raise SymmetryViolation(f"{name} violated: residual {err:.3e}")
        diag = max(abs(R[i, i, i, i]) for i in range(self.dimension))
        if diag > tol * scale:
            raise SymmetryViolation(f"R[i,i,i,i] nonzero: {diag:.3e}")
        return self


def _assign_orbit(R, i, j, k, l, v):
    """Set one component and everything related to it by the linear symmetries."""
    for (a, b, c, d), s in (((i, j, k, l), 1.0), ((k, l, i, j), 1.0)):
        R[a, b, c, d] = s * v
        R[b, a, c, d] = -s * v
        R[a, b, d, c] = -s * v
        R[b, a, d, c] = s * v


def constant_curvature(n, kappa):
    """Space form of sectional curvature ``kappa`` in dimension ``n``."""
    delta = np.eye(n)
    R = kappa * (np.einsum("ik,jl->ijkl", delta, delta)
                 - np.einsum("il,jk->ijkl", delta, delta))
    return CurvatureTensor(R).validate()


def _check_indices(n, *indices):
    for idx in indices:
        if not 0 <= idx < n:
            raise IndexOutOfRange(f"index {idx} outside [0, {n})")


def sphere_product(n, plane_curvatures):
    """Block tensor with prescribed curvature on disjoint coordinate 2-planes.

    ``plane_curvatures`` maps (i, j) with i < j to a sectional value; planes
    must not share indices (models products of surfaces and flat factors,
    all of which have non-negative sectional curvature when values are >= 0).
    """
    used = set()
    R = np.zeros((n, n, n, n))
    for (i, j), kappa in plane_curvatures.items():
        _check_indices(n, i, j)
        if {i, j} & used:
            raise MalformedInput("product planes must use disjoint indices")
        used |= {i, j}
        _assign_orbit(R, i, j, i, j, kappa)
    return CurvatureTensor(R).validate()


def random_admissible(n, rng):
    """Random tensor obtained by symmetrizing noise over the full symmetry group.

    Noise is projected onto the pair symmetries, then the cyclic-identity
    defect (its totally antisymmetric part) is removed.  The result is
    validated, which raises SymmetryViolation if the projection failed.
    """
    N = rng.standard_normal((n, n, n, n))
    S = 0.125 * (N - N.transpose(1, 0, 2, 3) - N.transpose(0, 1, 3, 2)
                 + N.transpose(1, 0, 3, 2) + N.transpose(2, 3, 0, 1)
                 - N.transpose(3, 2, 0, 1) - N.transpose(2, 3, 1, 0)
                 + N.transpose(3, 2, 1, 0))
    bianchi = S + S.transpose(1, 2, 0, 3) + S.transpose(2, 0, 1, 3)
    R = S - bianchi / 3.0
    return CurvatureTensor(R).validate()


def normal_metric_jet(tensor, max_degree=2):
    """(n, n) jet ``g_ij(x) = delta_ij - (1/3) sum_pq R[i,p,j,q] x_p x_q``,
    the metric in geodesic normal coordinates (Gray 1973), in the n
    variables x.  The one place where curvature enters a jet: one scatter of
    the weights -R[i,p,j,q] / 3 onto the cached positions of x_p x_q.
    """
    tensor.validate()
    if max_degree < 2:
        raise MalformedInput("the normal metric jet needs max_degree >= 2")
    n = tensor.dimension
    position, _ = _derivative_table(n, 2)  # x_p x_q, in every layout of degree >= 2
    weights = -tensor.components.transpose(0, 2, 1, 3).reshape(n * n, n * n) / 3.0
    stack = _scatter(position.reshape(-1), weights, _layout(n, max_degree).size)
    stack[::n + 1, 0] += 1.0
    return JetPolynomial._from_array(n, max_degree, stack.reshape(n, n, -1))


@dataclass
class MetricChart:
    """A coordinate metric: callable x -> symmetric positive matrix g(x)."""

    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        g = np.asarray(self.evaluator(np.asarray(x, dtype=float)), dtype=float)
        if g.shape != (self.dimension, self.dimension):
            raise MalformedInput("chart returned a matrix of the wrong shape")
        return g


def chart_from_metric_jet(metric):
    """Wrap an (n, n) metric jet in the n variables x as a chart."""
    return MetricChart(len(metric), metric.evaluate)


# -- finite-difference curvature oracle --------------------------------

_STENCILS = {
    2: ([-1.0, 1.0], [-1, 1], 2.0),
    4: ([1.0, -8.0, 8.0, -1.0], [-2, -1, 1, 2], 12.0),
}


def _metric_gradient(chart, x, step, order):
    weights, offsets, denom = _STENCILS[order]
    n = chart.dimension
    dg = np.zeros((n, n, n))
    for p in range(n):
        acc = np.zeros((n, n))
        for w, o in zip(weights, offsets):
            xp = x.copy()
            xp[p] += o * step
            acc += w * chart(xp)
        dg[p] = acc / (denom * step)
    return dg


def _christoffel(chart, x, step, order):
    g = chart(x)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise SingularMetric(f"metric not positive-definite at {x}")
    ginv = np.linalg.inv(g)
    dg = _metric_gradient(chart, x, step, order)
    # Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij),
    # with dg[p, i, j] = d_p g_ij:
    sym = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("kl,ijl->kij", ginv, sym)


def curvature_from_chart(chart, step=1e-3, stencil_order=4):
    """Curvature tensor at the origin of a (near-)normal chart.

    Central differences of the Christoffel symbols plus the quadratic
    Christoffel terms; the output is returned in the library convention and
    validated against the tensor symmetries at a tolerance that scales with
    the discretization error.
    """
    if stencil_order not in _STENCILS:
        raise MalformedInput("stencil_order must be 2 or 4")
    n = chart.dimension
    g0 = chart(np.zeros(n))
    if np.max(np.abs(g0 - np.eye(n))) > 1e-8:
        raise MalformedInput("chart is not normal at the origin (g(0) != I)")
    weights, offsets, denom = _STENCILS[stencil_order]

    gamma0 = _christoffel(chart, np.zeros(n), step, stencil_order)
    dgamma = np.zeros((n, n, n, n))  # dgamma[a, k, i, j] = d_a Gamma^k_ij
    for a in range(n):
        acc = np.zeros((n, n, n))
        for w, o in zip(weights, offsets):
            x = np.zeros(n)
            x[a] = o * step
            acc += w * _christoffel(chart, x, step, stencil_order)
        dgamma[a] = acc / (denom * step)

    # R^c_{d a b} = d_a Gamma^c_bd - d_b Gamma^c_ad
    #              + Gamma^c_am Gamma^m_bd - Gamma^c_bm Gamma^m_ad,
    # and with g(0) = I the library components are R[a,b,c,d] = R^c_{d a b}.
    R = np.zeros((n, n, n, n))
    quad = np.einsum("cam,mbd->abcd", gamma0, gamma0)
    for a, b, c, d in itertools.product(range(n), repeat=4):
        R[a, b, c, d] = (dgamma[a, c, b, d] - dgamma[b, c, a, d]
                         + quad[a, b, c, d] - quad[b, a, c, d])

    sym_tol = max(1e-8, 100.0 * step ** stencil_order)
    return CurvatureTensor(R).validate(sym_tol)
