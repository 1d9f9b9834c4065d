"""Complexification maps for tangent bundles of compact groups and cosets.

The tangent bundle of a compact group is identified with (group) x
(algebra) by left trivialization; the complexification map sends a
left-trivialized point (a, v) to ``a exp(iv)`` in the complexified group.
For a homogeneous quotient the same formula lands in the complexified coset
space, where points are compared through an explicit membership predicate
for the complexified subgroup.

Geodesics through ``a`` with initial direction X are ``a exp(tX)``; the
complexified leaf is ``a exp((t + i s) X)``, a holomorphic curve in w =
t + i s.  That holomorphy is the defining property being machine-checked
here, via central-difference Cauchy-Riemann residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContextMismatch, VectorNotInM
from .liealg import (GroupElement, LieAlgebraContext, group_exp,
                     membership_defect, polar_split, tangent_at)


@dataclass(frozen=True)
class TangentPoint:
    """Left-trivialized tangent point: base in the group, vector in the algebra."""

    base: GroupElement
    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex)
        ctx = self.base.context
        if v.shape != (ctx.matrix_size, ctx.matrix_size):
            raise ContextMismatch("vector does not fit the base context")
        object.__setattr__(self, "vector", v)

    @property
    def context(self):
        return self.base.context

    def require_in_complement(self, tol=1e-10):
        """For coset points the vector must have no subalgebra part."""
        h_part = self.context.project_h(self.vector)
        if np.linalg.norm(h_part) > tol:
            raise VectorNotInM(
                f"vector has a subalgebra component of norm {np.linalg.norm(h_part):.3e}")
        return self


@dataclass(frozen=True)
class CosetPoint:
    """Point of a complexified coset space, held by a representative."""

    representative: GroupElement
    subgroup_membership: Callable[[np.ndarray], bool]

    def same_coset(self, other):
        rel = self.representative.inverse().matrix @ other.representative.matrix
        return bool(self.subgroup_membership(rel))


def subgroup_membership(context, tol=1e-8):
    """Membership test for the complexified subgroup H_C of the context's split.

    H is modeled by a sub-context over the subalgebra basis (with its block
    of the inner product); a matrix belongs to H_C = H exp(i h) when its
    polar-split defect (``liealg.membership_defect``) is below ``tol``.
    Raises NoSplitConfigured when the context has no split.
    """
    mask = context.h_mask
    sub = LieAlgebraContext(f"{context.name}:h", context.h_basis(),
                            inner_product=context.inner_product[np.ix_(mask, mask)])

    def member(m):
        return membership_defect(sub, np.asarray(m)[None]) < tol

    return member


def trivialize(a, w):
    """Left-trivialize a tangent matrix ``w`` at base ``a``.

    Raises NotTangent when ``a^-1 w`` is not in the algebra span.
    """
    return TangentPoint(a, tangent_at(a, w))


def group_complexification(point):
    """Map (a, v) to a exp(i v) in the complexified group."""
    step = group_exp(point.context, 1j * point.vector, complexified=True)
    return GroupElement(point.base.matrix @ step.matrix, point.context,
                        complexified=True)


def coset_complexification(point, membership):
    """Map (a, v) with v in the complement to the coset of a exp(i v)."""
    point.require_in_complement()
    rep = group_complexification(point)
    return CosetPoint(rep, membership)


def group_complexification_inverse(context, image, tol=1e-10):
    """Recover (a, v) from m = a exp(i v) by polar splitting.

    For anti-Hermitian algebras exp(i v) is the positive-definite polar
    factor of m, so v = -i/2 log(m^* m) and a is the unitary factor
    (``liealg.polar_split``).  Raises LogBranchFailure when the polar factor
    is singular, ClosureViolation when v leaves the algebra beyond ``tol``,
    and MalformedInput when a is not unitary.
    """
    m = image.matrix if isinstance(image, GroupElement) else np.asarray(image)
    u, v = polar_split(m[None])
    v = context.reconstruct(context.coefficients(v[0], tol))
    return GroupElement(u[0], context).validate(), v


def geodesic_leaf(a, X, t, s):
    """Point a exp((t + i s) X) of the complexified geodesic leaf.

    The complex parameter is w = t + i s throughout: real w traces the
    geodesic, and the map is holomorphic in w.
    """
    w = complex(t, s)
    step = group_exp(a.context, w * np.asarray(X, dtype=complex),
                     complexified=True)
    return GroupElement(a.matrix @ step.matrix, a.context, complexified=True)


def leaf_cr_residual(a, X, t, s, step=1e-3):
    """Frobenius norm of the Cauchy-Riemann defect of the leaf at (t, s).

    Central differences: || D_s c - i D_t c ||_F, which decays at second
    order in the step for a holomorphic leaf.
    """
    c = lambda tt, ss: geodesic_leaf(a, X, tt, ss).matrix
    dt = (c(t + step, s) - c(t - step, s)) / (2.0 * step)
    ds = (c(t, s + step) - c(t, s - step)) / (2.0 * step)
    return float(np.linalg.norm(ds - 1j * dt))


def cr_order_estimate(a, X, t=0.2, s=0.3, steps=(0.02, 0.01, 0.005)):
    """Observed order of the CR residual under step refinement."""
    resid = [leaf_cr_residual(a, X, t, s, h) for h in steps]
    logs = np.log(np.maximum(resid, 1e-300))
    return float(np.polyfit(np.log(steps), logs, 1)[0])


def left_translate(g, point):
    """Action of the group on left-trivialized tangent points: (a, v) -> (ga, v)."""
    if g.context is not point.context:
        raise ContextMismatch("group element and point from different contexts")
    return TangentPoint(GroupElement(g.matrix @ point.base.matrix, point.context,
                                     g.complexified or point.base.complexified),
                        point.vector)


def bundle_shift(point, h):
    """Equivalent presentation of a coset tangent point: (a h, Ad_{h^-1} v).

    Both presentations map to the same coset under the complexification,
    which is the well-definedness of the coset map.
    """
    ctx = point.context
    hm = h.matrix
    return TangentPoint(
        GroupElement(point.base.matrix @ hm, ctx),
        h.inverse().matrix @ point.vector @ hm)
