"""Curvature of the tube Kahler metric at the zero section.

Two independent routes are provided and cross-checked:

* the closed form ``K[i,jbar,k,lbar](0) = (R[i,j,k,l] + R[i,l,k,j]) / 6``
  straight from the base curvature tensor, and
* exact Wirtinger differentiation of a potential jet,
  ``K = rho_{i jbar k lbar} - sum rho^{nu mubar} rho_{i k mubar}
  rho_{jbar lbar nu}`` evaluated at the origin.

Plane sectional curvatures are assembled from the K components, never from
a separate real curvature computation.  Frames: the potential is normalized
so that the coordinate frame at the base point is orthonormal for the tube
metric (second mixed derivatives equal delta/2), hence all plane
denominators are 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EqualIndices, IndexOutOfRange, MalformedInput
from .jets import matrix_constant_part, wirtinger_z, wirtinger_zbar
from .majet import complex_hessian, require_positive_hessian

PLANE_KINDS = ("xy", "xx", "yy", "holomorphic")


@dataclass(frozen=True)
class KahlerCurvatureAtZero:
    """K[i, j, k, l] stands for the component with j and l conjugated."""

    components: np.ndarray
    source: object = None  # CurvatureTensor when built from the closed form

    def __post_init__(self):
        arr = np.asarray(self.components, dtype=complex)
        if arr.ndim != 4 or len(set(arr.shape)) != 1:
            raise MalformedInput("K components must form an (n,n,n,n) array")
        object.__setattr__(self, "components", arr)

    @property
    def dimension(self):
        return self.components.shape[0]

    def max_imag(self):
        return float(np.max(np.abs(self.components.imag)))

    def hermitian_defect(self):
        """Max |K[i,j,k,l] - conj K[j,i,l,k]| over all components."""
        K = self.components
        return float(np.max(np.abs(K - K.transpose(1, 0, 3, 2).conj())))


def kahler_curvature_at_zero(tensor):
    """Closed-form K components from the base curvature tensor."""
    tensor.validate()
    R = tensor.components
    K = (R + R.transpose(0, 3, 2, 1)) / 6.0
    return KahlerCurvatureAtZero(K.astype(complex), source=tensor)


def kahler_curvature_from_jet(rho, hessian_tol=1e-8):
    """K components at the origin by exact jet differentiation.

    Requires a degree >= 4 jet with nondegenerate quadratic part.  The
    correction term uses the third derivatives, which vanish for potentials
    with no cubic terms but are computed regardless.
    """
    if rho.max_degree < 4:
        raise MalformedInput("potential jet must carry degree >= 4")
    n = rho.num_vars // 2
    if rho.num_vars != 2 * n:
        raise MalformedInput("potential jets use 2n variables")
    rho = rho.truncated(4)  # derivatives of order <= 4 at 0 see nothing higher

    H0 = matrix_constant_part(complex_hessian(rho))
    require_positive_hessian(H0, hessian_tol)
    H0inv = np.linalg.inv(H0)
    # raised convention: rho^{nu mubar} = (H^-1)[mu, nu]
    raised = H0inv.T

    origin = (0,) * rho.num_vars
    dz = [wirtinger_z(rho, a, n) for a in range(n)]
    dzbar = [wirtinger_zbar(rho, a, n) for a in range(n)]
    dz2 = [[wirtinger_z(dz[a], b, n) for b in range(n)] for a in range(n)]
    dzbar2 = [[wirtinger_zbar(dzbar[a], b, n) for b in range(n)] for a in range(n)]
    # rho_{i k mubar}, whose values at 0 also enter the correction term
    dz2zbar = [[[wirtinger_zbar(dz2[i][k], mu, n) for mu in range(n)]
                for k in range(n)] for i in range(n)]
    # third derivatives at 0, both slot patterns of the correction term
    d3a = np.array([[[complex(dz2zbar[i][k][mu].coefficient(origin))
                      for mu in range(n)] for k in range(n)] for i in range(n)])
    d3b = np.array([[[complex(wirtinger_z(dzbar2[j][l], nu, n).coefficient(origin))
                      for nu in range(n)] for l in range(n)] for j in range(n)])

    K = np.zeros((n, n, n, n), dtype=complex)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        K[i, j, k, l] = complex(
            wirtinger_zbar(dz2zbar[i][k][j], l, n).coefficient(origin))
    K -= np.einsum("nm,ikm,jln->ijkl", raised, d3a, d3b)
    return KahlerCurvatureAtZero(K)


def _check_plane_indices(n, i, j, kind):
    for idx in (i, j):
        if not 0 <= idx < n:
            raise IndexOutOfRange(f"index {idx} outside [0, {n})")
    if kind != "holomorphic" and i == j:
        raise EqualIndices(f"{kind} plane needs two distinct indices")


def plane_sectional_from_components(K, kind, i, j=None):
    """Sectional curvature of a coordinate plane from K components.

    Kinds: ``xy`` (span dx_i, dy_j), ``xx`` (dx_i, dx_j), ``yy`` (dy_i,
    dy_j, equal to ``xx`` by invariance of K under the complex structure),
    and ``holomorphic`` (dx_i, dy_i).  Coordinate frames are orthonormal at
    the base point, so no denominators appear.
    """
    if kind not in PLANE_KINDS:
        raise MalformedInput(f"unknown plane kind {kind!r}")
    if kind == "holomorphic":
        j = i
    _check_plane_indices(K.dimension, i, j, kind)
    comps = K.components
    a = comps[i, j, i, j]
    b = comps[i, j, j, i]
    if kind in ("xy", "holomorphic"):
        value = -(a + 2.0 * b + np.conj(a))
    else:  # xx and, by invariance under the complex structure, yy
        value = a - 2.0 * b + np.conj(a)
    return float(np.real(value))


def plane_sectional(tensor, kind, i, j=None):
    """Closed-form plane curvature for the tube metric built over ``tensor``."""
    K = kahler_curvature_at_zero(tensor)
    return plane_sectional_from_components(K, kind, i, j)


@dataclass(frozen=True)
class NegativePlaneWitness:
    i: int
    j: int
    value: float  # sectional curvature of the (dx_i, dy_j) plane


def negative_plane_witness(tensor):
    """Witness that a non-flat, somewhere-positively-curved base forces a
    negatively curved plane in the tube metric.

    Returns the (dx_i, dy_j) plane achieving -max R[i,j,i,j]/3 < 0, or None
    when the tensor is flat or has no positive plane curvature.
    """
    tensor.validate()
    R = tensor.components
    if np.max(np.abs(R)) == 0.0:
        return None
    n = tensor.dimension
    best = None
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            s = R[i, j, i, j]
            if s > 0.0 and (best is None or s > best[2]):
                best = (i, j, s)
    if best is None:
        return None
    i, j, s = best
    return NegativePlaneWitness(i, j, -s / 3.0)


def plane_report_rows(tensor, rho=None):
    """Comparison table rows: closed form vs jet oracle for every plane.

    Returns (i, j, kind, closed_form, oracle, abs_error) tuples; ``rho``
    defaults to the degree-4 expansion built from the tensor.
    """
    from .majet import potential_expansion

    if rho is None:
        rho = potential_expansion(tensor)
    K_closed = kahler_curvature_at_zero(tensor)
    K_jet = kahler_curvature_from_jet(rho)
    n = tensor.dimension
    rows = []
    for i in range(n):
        rows.append((i, i, "holomorphic",
                     plane_sectional_from_components(K_closed, "holomorphic", i),
                     plane_sectional_from_components(K_jet, "holomorphic", i)))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for kind in ("xy", "xx", "yy"):
                if kind != "xy" and j < i:
                    continue  # xx/yy planes are unordered
                rows.append((i, j, kind,
                             plane_sectional_from_components(K_closed, kind, i, j),
                             plane_sectional_from_components(K_jet, kind, i, j)))
    return [(i, j, kind, c, o, abs(c - o)) for (i, j, kind, c, o) in rows]


def plane_report_csv(rows):
    lines = ["i,j,plane,closed_form,oracle,abs_error"]
    for i, j, kind, c, o, err in rows:
        lines.append(f"{i},{j},{kind},{c:.12e},{o:.12e},{err:.3e}")
    return "\n".join(lines) + "\n"
