"""Matrix Lie algebra/group contexts and the numerics built on them.

A context packages a basis of a compact matrix Lie algebra, an
Ad-invariant inner product given on that basis, and optionally an
orthogonal reductive split into a subalgebra and its complement.  Algebra
elements are plain complex ndarrays; group elements carry their context so
membership can be checked.

One rule says what lies in the real span: ``coefficients`` expands one
matrix or a (..., m, m) stack and raises ClosureViolation when some matrix
is off the span by more than tol * max(1, |X|), and ``reconstruct`` is its
inverse on (..., dim) coefficient arrays.  ``path_coefficients`` is the one
unchecked projection, for values that may leave the span, and
``membership_defect`` measures its gap with the residual that
``coefficients`` checks.  Pairings always go through ``inner_product``.

Built-in contexts cover su(2), su(3), so(3), so(4), abelian tori, and the
split pairs su(2) > u(1) and su(3) > u(2).  Bases are scaled so the default
trace-form inner product <X, Y> = -c tr(XY) makes them orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (ClosureViolation, ContextMismatch, LogBranchFailure,
                     MalformedInput, NoSplitConfigured)

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

    # -- expansion and membership --------------------------------------

    def coefficients(self, X, tol=DEFAULT_EXPAND_TOL):
        """Real coefficients, (..., dim), of one matrix or a (..., m, m)
        stack; ClosureViolation when some matrix lies outside the real span
        by more than tol * max(1, |X|).  Non-finite matrices are not
        flagged."""
        X = np.asarray(X, dtype=complex)
        if X.shape[-2:] != (self.matrix_size, self.matrix_size):
            raise ContextMismatch(
                f"matrix shape {X.shape} does not fit context {self.name}")
        # one matrix-vector product per matrix, so that a stack's rows are
        # bit for bit the single-matrix expansions
        coeffs = np.real(self._expand_op @ X.reshape(X.shape[:-2] + (-1, 1)))[..., 0]
        resid = self._span_residual(X, coeffs)
        outside = resid > tol * np.maximum(1.0, np.linalg.norm(X, axis=(-2, -1)))
        if outside.any():
            raise ClosureViolation(
                f"{np.count_nonzero(outside)} of {outside.size} matrices are not in "
                f"the span of {self.name} (residual {np.max(resid[outside]):.3e})")
        return coeffs

    def reconstruct(self, coeffs):
        """Inverse of ``coefficients``: (..., dim) -> (..., m, m), the
        contraction np.tensordot(coeffs, basis, axes=(-1, 0)) as one
        product with the flattened basis."""
        coeffs = np.asarray(coeffs)
        flat = coeffs @ self.basis.reshape(self.dim, -1)
        return flat.reshape(coeffs.shape[:-1] + self.basis.shape[1:])

    def path_coefficients(self, values):
        """Unchecked expansion of a (..., m, m) stack: the real coefficients
        of its least-squares projection onto the real span, by one matrix
        product (rows may differ from ``coefficients`` in the last bit)."""
        values = np.asarray(values, dtype=complex)
        return np.real(values.reshape(values.shape[:-2] + (-1,)) @ self._expand_op.T)

    def _span_residual(self, X, coeffs):
        """Distance of each matrix of X from the reconstruction of its
        expansion ``coeffs``, the one gap that ``coefficients`` checks."""
        return np.linalg.norm(X - self.reconstruct(coeffs), axis=(-2, -1))

    def random_coefficients(self, rng, radius=1.0):
        """Coefficient vector drawn uniformly in the ball of ``radius``."""
        c = rng.standard_normal(self.dim)
        c *= radius * rng.uniform(0, 1) ** (1.0 / self.dim) / np.linalg.norm(c)
        return c

    def random_element(self, rng, radius=1.0):
        """Element with coefficient vector drawn uniformly in the ball."""
        return self.reconstruct(self.random_coefficients(rng, radius))

    # -- metric --------------------------------------------------------

    def pair(self, X, Y):
        """Ad-invariant inner product of two algebra elements."""
        return float(self.coefficients(X) @ self.inner_product @ self.coefficients(Y))

    def norm(self, X):
        return float(np.sqrt(max(self.pair(X, X), 0.0)))

    def pair_coeff_paths(self, ca, cb):
        """Pointwise inner products for (nodes, dim) coefficient arrays."""
        # row sums as one mat-vec
        return ((ca @ self.inner_product) * cb) @ np.ones(self.dim)

    def structure_constants(self):
        """Real (dim, dim, dim) array f with [e_j, e_k] = sum_l f[j, k, l] e_l;
        ClosureViolation when some bracket of basis elements leaves the span."""
        B = self.basis
        return self.coefficients(B[:, None] @ B[None] - B[None] @ B[:, None])

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

    def validate(self):
        m = self.matrix
        if self.complexified:
            if abs(np.linalg.det(m)) < 1e-12:
                raise MalformedInput("complexified group element is singular")
        else:
            defect = np.linalg.norm(m @ m.conj().T - np.eye(m.shape[0]))
            if defect > 1e-8:
                raise MalformedInput(
                    f"matrix is not unitary within tolerance ({defect:.3e})")
        return self

    def inverse(self):
        if self.complexified:
            inv = np.linalg.inv(self.matrix)
        else:
            inv = self.matrix.conj().T
        return GroupElement(inv, self.context, self.complexified)


# -- core operations ----------------------------------------------------

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
        try:
            context.coefficients(X, 1e-8)
            complexified = False
        except ClosureViolation:
            complexified = True
    return GroupElement(scipy.linalg.expm(X), context, complexified)


def _normal_log(a):
    """Principal logarithm of a real group element from one Schur form.

    The complex Schur form a = Z T Z* has T diagonal when a is normal, so
    with lam = log diag(T) the logarithm is L = Z diag(lam) Z*.  Returns
    (L, Z, lam), L projected onto the basis span (ClosureViolation beyond
    1e-8).  Raises MalformedInput when a is not a real GroupElement or T
    is not diagonal to 1e-10, and LogBranchFailure when an eigenvalue sits
    on the closed negative real axis.
    """
    if not isinstance(a, GroupElement) or a.complexified:
        raise MalformedInput("the logarithm takes a real GroupElement")
    m = a.matrix
    tri, Z = scipy.linalg.schur(m, output="complex")
    eigs = np.diag(tri)
    if np.any((eigs.real <= 0.0) & (np.abs(eigs.imag) < 1e-12)):
        raise LogBranchFailure("eigenvalue on the negative real axis")
    if np.linalg.norm(tri - np.diag(eigs)) > 1e-10 * max(1.0, np.linalg.norm(m)):
        raise MalformedInput("group element is not a normal matrix")
    lam = np.log(eigs)
    L = (Z * lam) @ Z.conj().T
    L = a.context.reconstruct(a.context.coefficients(L, 1e-8))
    return L, Z, lam


def group_log(a):
    """Principal matrix logarithm of a real group element, back into the
    algebra.

    A real group element is unitary, hence normal, and its logarithm comes
    from one complex Schur form (``_normal_log``), projected onto the basis
    span (ClosureViolation beyond 1e-8).  Raises MalformedInput for
    anything but a real GroupElement or when the element is not normal, and
    LogBranchFailure when an eigenvalue sits on the closed negative real
    axis, where the principal branch is undefined.
    """
    return _normal_log(a)[0]


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
    gap = lambda X: context._span_residual(X, context.path_coefficients(X))
    v_defect = gap(v) if complexified else np.linalg.norm(v, axis=(1, 2))
    return float(np.max(v_defect + gap(log_u)))


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
