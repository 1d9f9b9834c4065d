"""Curvature of the tube Kahler metric at the zero section.

Two independent routes are provided and cross-checked:

* the closed form ``K[i,jbar,k,lbar](0) = (R[i,j,k,l] + R[i,l,k,j]) / 6``
  straight from the base curvature tensor, and
* exact Wirtinger differentiation of a potential jet,
  ``K = rho_{i jbar k lbar} - sum rho^{nu mubar} rho_{i k mubar}
  rho_{jbar lbar nu}`` evaluated at the origin.  The derivatives at 0 are
  read from the jet's degree-2, -3 and -4 coefficient blocks through cached
  position/weight tables and contracted with the Wirtinger weights; no
  intermediate derivative jets are formed.

Plane sectional curvatures are assembled from the K components, never from
a separate real curvature computation.  Frames: the potential is normalized
so that the coordinate frame at the base point is orthonormal for the tube
metric (second mixed derivatives equal delta/2), hence all plane
denominators are 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EqualIndices, IndexOutOfRange, MalformedInput
from .majet import _fiber_dimension, potential_expansion, require_positive_hessian

PLANE_KINDS = ("xy", "xx", "yy", "holomorphic")


@dataclass(frozen=True)
class KahlerCurvatureAtZero:
    """K[i, j, k, l] stands for the component with j and l conjugated."""

    components: np.ndarray

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


def kahler_curvature_at_zero(tensor):
    """Closed-form K components from the base curvature tensor."""
    tensor.validate()
    R = tensor.components
    K = (R + R.transpose(0, 3, 2, 1)) / 6.0
    return KahlerCurvatureAtZero(K.astype(complex))


def _wirtinger_contract(D, *weights):
    """Contract slot k of the real derivative tensor ``D`` with weights[k]."""
    for w in weights:  # the new slot goes last
        D = (D.reshape(len(w[0]), -1).T @ w.T).reshape(D.shape[1:] + (len(w),))
    return D


def kahler_curvature_from_jet(rho):
    """K components at the origin, read from the jet's coefficient blocks.

    The real derivative tensors D2, D3 and D4 of rho at 0 come straight
    from its degree-2, -3 and -4 blocks.  With the Wirtinger weights
    Wz = [I, -iI] / 2 (rows d/dz_a) and Wzbar = conj(Wz), the Hessian is
    H0 = Wz D2 Wzbar^T and K is the (Wz, Wzbar, Wz, Wzbar) contraction of
    D4 minus the third-derivative correction, which is nonzero once rho has
    cubic terms.  Requires a degree >= 4 jet with nondegenerate quadratic
    part.
    """
    if rho.max_degree < 4:
        raise MalformedInput("potential jet must carry degree >= 4")
    n = _fiber_dimension(rho)
    Wz = 0.5 * np.hstack([np.eye(n), -1j * np.eye(n)])
    Wzbar = Wz.conj()

    H0 = _wirtinger_contract(rho.derivatives_at_origin(2), Wz, Wzbar)
    require_positive_hessian(H0)
    # raised convention: rho^{nu mubar} = (H^-1)[mu, nu]
    raised = np.linalg.inv(H0).T

    # rho_{i k mubar} and rho_{jbar lbar nu}, the correction term's factors
    D3 = rho.derivatives_at_origin(3)
    d3a = _wirtinger_contract(D3, Wz, Wz, Wzbar)
    d3b = _wirtinger_contract(D3, Wzbar, Wzbar, Wz)

    K = _wirtinger_contract(rho.derivatives_at_origin(4), Wz, Wzbar, Wz, Wzbar)
    K -= np.einsum("nm,ikm,jln->ijkl", raised, d3a, d3b)
    return KahlerCurvatureAtZero(K)


def _check_plane_indices(n, i, j, kind):
    if j is None:
        raise MalformedInput(f"{kind} plane needs two indices i and j")
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


def plane_report_rows(tensor):
    """Comparison table rows: closed form vs the jet oracle on the tensor's
    potential expansion, for every plane, as (i, j, kind, closed_form,
    oracle, abs_error) tuples.  The oracle reads the expansion through
    degree 4, all that ``kahler_curvature_from_jet`` reads."""
    K_closed = kahler_curvature_at_zero(tensor)
    K_jet = kahler_curvature_from_jet(potential_expansion(tensor, 4))
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
