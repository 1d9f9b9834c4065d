"""Matrix Lie algebra/group contexts and the numerics built on them.

A context packages a basis of a compact matrix Lie algebra, an
Ad-invariant inner product given on that basis, and optionally an
orthogonal reductive split into a subalgebra and its complement.  Algebra
elements are plain complex ndarrays; group elements carry their context so
membership can be checked.

Built-in contexts cover su(2), su(3), so(3), so(4), abelian tori, and the
split pairs su(2) > u(1) and su(3) > u(2).  Bases are scaled so the default
trace-form inner product <X, Y> = -c tr(XY) makes them orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (ClosureViolation, ContextMismatch, LogBranchFailure,
                     MalformedInput, NoSplitConfigured, NotTangent)

DEFAULT_EXPAND_TOL = 1e-10


class LieAlgebraContext:
    """Matrix model of a compact Lie algebra with optional reductive split."""

    def __init__(self, name, basis, inner_product=None, h_mask=None,
                 trace_scale=None):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise MalformedInput("basis must be a (dim, m, m) array")
        self.name = name
        self.basis = basis
        self.dim = basis.shape[0]
        self.matrix_size = basis.shape[1]
        self.trace_scale = trace_scale
        if inner_product is None:
            if trace_scale is None:
                raise MalformedInput("need inner_product or trace_scale")
            inner_product = np.array(
                [[-trace_scale * np.trace(a @ b).real for b in basis] for a in basis])
        self.inner_product = np.asarray(inner_product, dtype=float)
        if self.inner_product.shape != (self.dim, self.dim):
            raise MalformedInput("inner product must be (dim, dim)")
        self.h_mask = None if h_mask is None else np.asarray(h_mask, dtype=bool)
        if self.h_mask is not None and self.h_mask.shape != (self.dim,):
            raise MalformedInput("h_mask must have one flag per basis element")

        # least-squares expansion operator for real coefficients
        flat = basis.reshape(self.dim, -1)
        gram = np.real(flat.conj() @ flat.T)
        if np.linalg.cond(gram) > 1e8:
            raise MalformedInput("basis matrices are not linearly independent")
        self._expand_op = np.linalg.solve(gram, flat.conj())
        self._ip_is_identity = np.allclose(
            self.inner_product, np.eye(self.dim), atol=1e-13)

    # -- expansion and membership --------------------------------------

    def coefficients(self, X, tol=None):
        """Real coefficients of X in the basis; ClosureViolation if X is
        outside the real span beyond tolerance."""
        X = np.asarray(X, dtype=complex)
        if X.shape != (self.matrix_size, self.matrix_size):
            raise ContextMismatch(
                f"matrix shape {X.shape} does not fit context {self.name}")
        coeffs = np.real(self._expand_op @ X.reshape(-1))
        resid = np.linalg.norm(self.reconstruct(coeffs) - X)
        limit = (DEFAULT_EXPAND_TOL if tol is None else tol)
        if resid > limit * max(1.0, np.linalg.norm(X)):
            raise ClosureViolation(
                f"matrix is not in the span of {self.name} (residual {resid:.3e})")
        return coeffs

    def reconstruct(self, coeffs):
        return np.tensordot(np.asarray(coeffs), self.basis, axes=(0, 0))

    def contains(self, X, tol=None):
        try:
            self.coefficients(X, tol)
            return True
        except (ClosureViolation, ContextMismatch):
            return False

    def random_element(self, rng, radius=1.0):
        """Element with coefficient vector drawn uniformly in the ball."""
        c = rng.standard_normal(self.dim)
        c *= radius * rng.uniform(0, 1) ** (1.0 / self.dim) / np.linalg.norm(c)
        return self.reconstruct(c)

    # -- metric --------------------------------------------------------

    def pair(self, X, Y):
        """Ad-invariant inner product of two algebra elements."""
        cx = self.coefficients(X)
        cy = self.coefficients(Y)
        if self._ip_is_identity:
            return float(np.dot(cx, cy))
        return float(cx @ self.inner_product @ cy)

    def norm(self, X):
        return float(np.sqrt(max(self.pair(X, X), 0.0)))

    def pair_coeff_paths(self, ca, cb):
        """Pointwise inner products for (nodes, dim) coefficient arrays."""
        if not self._ip_is_identity:
            ca = ca @ self.inner_product
        return (ca * cb) @ np.ones(self.dim)  # row sums as one mat-vec

    def path_coefficients(self, values):
        """Vectorized expansion of a (nodes, m, m) stack of algebra values."""
        flat = np.asarray(values, dtype=complex).reshape(len(values), -1)
        return np.real(flat @ self._expand_op.T)

    def path_reconstruct(self, coeffs):
        """Vectorized inverse of ``path_coefficients``: (nodes, dim) -> stack."""
        flat = np.asarray(coeffs) @ self.basis.reshape(self.dim, -1)
        return flat.reshape(-1, self.matrix_size, self.matrix_size)

    def _span_path_coefficients(self, values):
        """``path_coefficients`` with the check of ``coefficients``: raises
        ClosureViolation when some node lies outside the real span beyond
        DEFAULT_EXPAND_TOL relative to max(1, |X|).  Non-finite nodes are not
        flagged."""
        values = np.asarray(values, dtype=complex)
        coeffs = self.path_coefficients(values)
        resid = np.linalg.norm(values - self.path_reconstruct(coeffs), axis=(1, 2))
        scale = np.maximum(1.0, np.linalg.norm(values, axis=(1, 2)))
        outside = resid > DEFAULT_EXPAND_TOL * scale
        if np.any(outside):
            raise ClosureViolation(
                f"{np.count_nonzero(outside)} of {len(values)} matrices are not in "
                f"the span of {self.name} (residual {np.max(resid[outside]):.3e})")
        return coeffs

    def structure_constants(self):
        """Real (dim, dim, dim) array f with [e_j, e_k] = sum_l f[j, k, l] e_l;
        ClosureViolation when some bracket of basis elements leaves the span."""
        B, d, m = self.basis, self.dim, self.matrix_size
        comm = (B[:, None] @ B[None] - B[None] @ B[:, None]).reshape(d * d, m, m)
        return self._span_path_coefficients(comm).reshape(d, d, d)

    # -- split ---------------------------------------------------------

    def _require_split(self):
        if self.h_mask is None:
            raise NoSplitConfigured(f"context {self.name} has no subalgebra split")

    def project_h(self, X):
        """Orthogonal projection onto the subalgebra component."""
        self._require_split()
        coeffs = self.coefficients(X)
        return self.reconstruct(np.where(self.h_mask, coeffs, 0.0))

    def project_m(self, X):
        """Orthogonal projection onto the complement component."""
        self._require_split()
        coeffs = self.coefficients(X)
        return self.reconstruct(np.where(self.h_mask, 0.0, coeffs))

    def h_basis(self):
        self._require_split()
        return self.basis[self.h_mask]

    def m_basis(self):
        self._require_split()
        return self.basis[~self.h_mask]

    def __repr__(self):
        return (f"LieAlgebraContext({self.name!r}, dim={self.dim}, "
                f"matrix_size={self.matrix_size})")


@dataclass(frozen=True)
class GroupElement:
    """Group matrix together with the context that models its group."""

    matrix: np.ndarray
    context: LieAlgebraContext
    complexified: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        size = self.context.matrix_size
        if m.shape != (size, size):
            raise ContextMismatch("group matrix has the wrong size")
        object.__setattr__(self, "matrix", m)

    def validate(self, tol=1e-8):
        m = self.matrix
        if self.complexified:
            if abs(np.linalg.det(m)) < 1e-12:
                raise MalformedInput("complexified group element is singular")
        else:
            defect = np.linalg.norm(m @ m.conj().T - np.eye(m.shape[0]))
            if defect > tol:
                raise MalformedInput(
                    f"matrix is not unitary within tolerance ({defect:.3e})")
        return self

    def inverse(self):
        if self.complexified:
            inv = np.linalg.inv(self.matrix)
        else:
            inv = self.matrix.conj().T
        return GroupElement(inv, self.context, self.complexified)

    def __matmul__(self, other):
        if isinstance(other, GroupElement):
            if other.context is not self.context:
                raise ContextMismatch("group elements from different contexts")
            return GroupElement(self.matrix @ other.matrix, self.context,
                                self.complexified or other.complexified)
        return self.matrix @ other


# -- core operations ----------------------------------------------------

def bracket(context, X, Y, tol=None):
    """Matrix commutator, checked to re-expand in the basis (closure)."""
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    size = context.matrix_size
    if X.shape != (size, size) or Y.shape != (size, size):
        raise ContextMismatch("bracket operands do not fit the context")
    comm = X @ Y - Y @ X
    coeffs = context.coefficients(comm, tol)  # ClosureViolation on failure
    return context.reconstruct(coeffs)


def group_exp(context, X, complexified=None):
    """Matrix exponential into the modeled group.

    Scaling-and-squaring with a Pade core (scipy.linalg.expm).  When
    ``complexified`` is not forced, the element is marked complex whenever X
    leaves the real algebra span (e.g. X = i * v).
    """
    X = np.asarray(X, dtype=complex)
    if not np.all(np.isfinite(X)):
        raise MalformedInput("exponent must be finite")
    if complexified is None:
        complexified = not context.contains(X, 1e-8)
    return GroupElement(scipy.linalg.expm(X), context, complexified)


def _check_branch(eigs):
    if np.any((eigs.real <= 0.0) & (np.abs(eigs.imag) < 1e-12)):
        raise LogBranchFailure("eigenvalue on the negative real axis")


def _normal_log(a, tol=1e-8):
    """Principal logarithm of a normal group element from one Schur form.

    The complex Schur form a = Z T Z* has T diagonal when a is normal, so
    with lam = log diag(T) the logarithm is L = Z diag(lam) Z*.  Returns
    (L, Z, lam); for a real element L is projected onto the basis span
    (ClosureViolation beyond ``tol``).  Raises LogBranchFailure when an
    eigenvalue sits on the closed negative real axis and MalformedInput
    when T is not diagonal to 1e-10.
    """
    m = a.matrix
    tri, Z = scipy.linalg.schur(m, output="complex")
    eigs = np.diag(tri)
    _check_branch(eigs)
    if np.linalg.norm(tri - np.diag(eigs)) > 1e-10 * max(1.0, np.linalg.norm(m)):
        raise MalformedInput("group element is not a normal matrix")
    lam = np.log(eigs)
    L = (Z * lam) @ Z.conj().T
    if not a.complexified:
        L = a.context.reconstruct(a.context.coefficients(L, tol))
    return L, Z, lam


def group_log(a, tol=1e-8):
    """Principal matrix logarithm of a group element, back into the algebra.

    A real group element is unitary, hence normal, and its logarithm comes
    from one complex Schur form (``_normal_log``), projected onto the basis
    span (ClosureViolation beyond ``tol``); MalformedInput when the element
    is not normal.  Complexified elements and raw arrays go through
    scipy.linalg.logm.  Raises LogBranchFailure when an eigenvalue sits on
    the closed negative real axis, where the principal branch is undefined.
    """
    if isinstance(a, GroupElement) and not a.complexified:
        return _normal_log(a, tol)[0]
    m = a.matrix if isinstance(a, GroupElement) else np.asarray(a, dtype=complex)
    _check_branch(np.linalg.eigvals(m))
    return scipy.linalg.logm(m)


def adjoint(g, X):
    """Conjugation g X g^-1 of an algebra element by a group element."""
    if not isinstance(g, GroupElement):
        raise ContextMismatch("adjoint needs a GroupElement")
    X = np.asarray(X, dtype=complex)
    if X.shape != g.matrix.shape:
        raise ContextMismatch("algebra element does not fit the group context")
    return g.matrix @ X @ g.inverse().matrix


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


def polar_split(matrices):
    """Split each matrix of a (K, m, m) stack as m = u exp(i v).

    m* m = exp(2iv) is positive definite: one batched Hermitian eigensolve
    gives v = -i/2 log(m* m) and the inverse square root exp(-iv) that
    leaves the unitary factor u.  Returns (u, v), both (K, m, m).  Raises
    LogBranchFailure when some m* m has an eigenvalue at or below 1e-14
    (m singular) or a non-finite one.
    """
    m = np.asarray(matrices, dtype=complex)
    mu, Q = np.linalg.eigh(m.conj().transpose(0, 2, 1) @ m)
    if not np.all(mu > 1e-14):
        raise LogBranchFailure("polar factor is singular")
    Qh = Q.conj().transpose(0, 2, 1)
    v = -0.5j * ((Q * np.log(mu)[:, None, :]) @ Qh)
    u = m @ ((Q / np.sqrt(mu)[:, None, :]) @ Qh)
    return u, v


def membership_defect(context, matrices, complexified=True):
    """Worst distance of a (K, m, m) matrix stack from the modeled group.

    Each matrix is split as m = u exp(i v) (``polar_split``).  The defect is
    the distance of the principal logarithm of u from the real span of the
    basis plus, for the complexified group G exp(i g), the distance of v
    from that span, or for G itself the norm of v.  Like ``group_log``, this
    needs u to have no eigenvalue at -1.  Infinite when some m is singular,
    NaN for non-finite input.
    """
    m = np.asarray(matrices, dtype=complex)
    if not np.all(np.isfinite(m)):
        return float("nan")
    try:
        u, v = polar_split(m)
    except LogBranchFailure:
        return float("inf")
    w, V = np.linalg.eig(u)
    log_u = (V * np.log(w)[:, None, :]) @ np.linalg.inv(V)
    gap = lambda X: np.linalg.norm(
        X - context.path_reconstruct(context.path_coefficients(X)), axis=(1, 2))
    v_defect = gap(v) if complexified else np.linalg.norm(v, axis=(1, 2))
    return float(np.max(v_defect + gap(log_u)))


def tangent_at(a, w, tol=1e-8):
    """Left-trivialize a tangent matrix at ``a``: returns a^-1 w in the algebra."""
    if not isinstance(a, GroupElement):
        raise ContextMismatch("base point must be a GroupElement")
    v = a.inverse().matrix @ np.asarray(w, dtype=complex)
    if not a.context.contains(v, tol):
        raise NotTangent("a^-1 w is not in the algebra span")
    return a.context.reconstruct(a.context.coefficients(v, tol))


# -- built-in contexts ---------------------------------------------------

def _su2_basis():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return np.array([-0.5j * s1, -0.5j * s2, -0.5j * s3])


def _gell_mann():
    L = np.zeros((8, 3, 3), dtype=complex)
    L[0, 0, 1] = L[0, 1, 0] = 1
    L[1, 0, 1] = -1j; L[1, 1, 0] = 1j
    L[2, 0, 0] = 1; L[2, 1, 1] = -1
    L[3, 0, 2] = L[3, 2, 0] = 1
    L[4, 0, 2] = -1j; L[4, 2, 0] = 1j
    L[5, 1, 2] = L[5, 2, 1] = 1
    L[6, 1, 2] = -1j; L[6, 2, 1] = 1j
    L[7] = np.diag([1, 1, -2]) / np.sqrt(3)
    return L


def _so_basis(n):
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1.0
            m[j, i] = -1.0
            mats.append(m)
    return np.array(mats)


def su2(h_split=False):
    """su(2) with orthonormal trace form; optionally split over diagonal u(1)."""
    mask = np.array([False, False, True]) if h_split else None
    name = "su2>u1" if h_split else "su2"
    return LieAlgebraContext(name, _su2_basis(), h_mask=mask, trace_scale=2.0)


def su3(h_split=False):
    """su(3); optionally split over the upper-block u(2)."""
    basis = np.array([-0.5j * L for L in _gell_mann()])
    mask = None
    if h_split:
        mask = np.array([True, True, True, False, False, False, False, True])
    name = "su3>u2" if h_split else "su3"
    return LieAlgebraContext(name, basis, h_mask=mask, trace_scale=2.0)


def so(n):
    if n < 3:
        raise MalformedInput("so(n) contexts start at n = 3")
    return LieAlgebraContext(f"so{n}", _so_basis(n), trace_scale=0.5)


def torus(k):
    """Abelian u(1)^k as diagonal imaginary matrices."""
    basis = np.array([1j * np.diag(np.eye(k)[i]) for i in range(k)])
    return LieAlgebraContext(f"torus{k}", basis, trace_scale=1.0)


BUILTIN_CONTEXTS = {
    "su2": lambda: su2(False),
    "su2_u1": lambda: su2(True),
    "su3": lambda: su3(False),
    "su3_u2": lambda: su3(True),
    "so3": lambda: so(3),
    "so4": lambda: so(4),
    "torus2": lambda: torus(2),
}


def builtin_context(name):
    try:
        return BUILTIN_CONTEXTS[name]()
    except KeyError:
        raise MalformedInput(
            f"unknown context {name!r}; choices: {sorted(BUILTIN_CONTEXTS)}")
