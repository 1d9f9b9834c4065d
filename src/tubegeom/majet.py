"""Tube-potential jets and Monge-Ampere residuals.

The strictly plurisubharmonic potential of the tube complexification over a
Riemannian manifold restricts, in geodesic normal coordinates, to

    rho(x + iy) = sum_ij g_ij(x) y_i y_j + higher
                = sum_i y_i^2
                  - (1/3) sum_{ipjq} R[i,p,j,q] x_p x_q y_i y_j  + higher,

with g the metric in normal coordinates, and no cubic, pure-x, or
pure-quartic-y terms, in the tube layout (x then y) decided here.
``potential_expansion`` shifts each entry g_ij of the (n, n) jet in x of
``curvature.normal_metric_jet``, where the curvature contraction is written,
by y_i y_j, all in one ``bincount``.  ``ma_residual`` measures how well any
potential jet satisfies the degenerate Monge-Ampere identity

    sum_a rho^a rho_a - 2 rho = 0,   rho^a = sum_b rho^{a bbar} rho_bbar,

computed with exact Wirtinger calculus on jets: d rho / dz and the transposed
complex Hessian are one gather each of first and second partials, the raised
index is one graded solve against the Hessian, with no inverse formed, and
one real product pairs it with d rho / dz.  ``solve_potential`` solves the
identity through any degree by bi-degree back-substitution: the seed gives
the blocks of y-degree 2, and the identity linearized at the fiber quadratic
multiplies a block of y-degree b by -(b-1)(b-2), so each block with b >= 3
is a residual block, less the coupling from the block two y-degrees lower,
divided by (b-1)(b-2), with one residual per total degree.
``_block_positions`` finds the blocks, for the solve's steps and for the
pure-y quartic read, by the y-degrees of the tube layout's exponent rows.

Normalization: the whole potential carries the factor ``FIBER_SCALE = 1``
(so ``rho = |y|^2`` on the fiber over the base point); the identity is
homogeneous of degree one in rho.  The alternative convention
``rho = |v|^2 / 2`` seen elsewhere corresponds to 0.5; every formula here
assumes the value below.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .curvature import normal_metric_jet
from .errors import DegenerateHessian, MalformedInput, SingularSystem
from .jets import (JetPolynomial, _graded_matmul, _graded_solve, _layout,
                   _partial_table, _readonly, wirtinger_z, wirtinger_zbar)

FIBER_SCALE = 1.0

DEFAULT_DEGREE = 6  # exposes the first surviving residual order above four
HESSIAN_TOL = 1e-8  # smallest eigenvalue a constant complex Hessian may have


@functools.lru_cache(maxsize=None)
def _fiber_shift(n, max_degree):
    """Row i * n + j: the positions in the tube layout of (2n, max_degree)
    of y_i y_j times each x monomial of the n-variable layout of degree
    max_degree - 2.  Multiplying by a monomial is a shift of positions."""
    x = np.pad(_layout(n, max_degree - 2).exponents, ((0, 0), (0, n)))
    y = np.eye(2 * n, dtype=np.int64)[n:]
    yy = (y[:, None] + y[None, :]).reshape(n * n, 1, 2 * n)
    return _readonly(_layout(2 * n, max_degree).index(x + yy))


def potential_expansion(tensor, max_degree=DEFAULT_DEGREE):
    """Jet of the tube potential, FIBER_SCALE * y^T g(x) y, for the (n, n)
    normal-coordinate metric jet g of ``tensor`` in x through x-degree
    max_degree - 2: one ``bincount`` of the stack of its entries g_ij, each
    shifted by y_i y_j."""
    # below the quartic, a prefix of g through degree 2 (and max_degree < 2 raises)
    metric = normal_metric_jet(tensor, max(max_degree - 2, min(max_degree, 2)))._c
    n = len(metric)
    coeffs = np.bincount(_fiber_shift(n, max_degree).ravel(),
                         (FIBER_SCALE * metric[..., :_layout(n, max_degree - 2).size]).ravel(),
                         _layout(2 * n, max_degree).size)
    return JetPolynomial._from_array(2 * n, max_degree, coeffs)


def _fiber_dimension(rho):
    if rho.num_vars % 2 or rho.shape:
        raise MalformedInput("potential jets are scalar jets in 2n variables (x then y)")
    return rho.num_vars // 2


def complex_hessian(rho):
    """(n, n) jet H[a, b] = d^2 rho / dz_a dzbar_b."""
    n = _fiber_dimension(rho)
    return wirtinger_z(wirtinger_zbar(rho, np.arange(n), n), np.arange(n), n)


def require_positive_hessian(H0):
    """Raise DegenerateHessian unless the constant complex Hessian ``H0`` is
    positive-definite with smallest eigenvalue at least HESSIAN_TOL; return
    the eigenvalues of its Hermitian part, ascending."""
    eigenvalues = np.linalg.eigvalsh(0.5 * (H0 + H0.conj().T))
    if not eigenvalues[0] >= HESSIAN_TOL:
        raise DegenerateHessian(
            f"quadratic part not positive-definite (min eigenvalue {eigenvalues[0]:.3e})")
    return eigenvalues


def _wirtinger_parts(jet, n):
    """Coefficient arrays (dz, dzbar, HT) of a scalar jet: dz[a] = d jet /
    dz_a and dzbar[b] on the layout of degree max_degree - 1, and the
    transposed complex Hessian HT[b, a] = d^2 jet / dz_a dzbar_b on that of
    degree max_degree - 2, the degrees through which each is complete.
    With S the real second partials, 4 HT[b, a] = S[x_a, x_b] + S[y_a, y_b]
    + i (S[x_a, y_b] - S[y_a, x_b]); a real jet has dzbar = conj(dz)."""
    src, weight = _partial_table(jet.num_vars, jet.max_degree)
    grad = jet._c[src] * weight
    # S[i, j] = d grad[i] / dx_j, complete through max_degree - 2
    below = int(jet._layout.offsets[-3])
    second = np.take(grad, src[:, :below], axis=1) * weight[:, :below]
    dz = 0.5 * (grad[:n] - 1j * grad[n:])
    dzbar = dz.conj() if np.isrealobj(grad) else 0.5 * (grad[:n] + 1j * grad[n:])
    H = 1j * (second[:n, n:] - second[n:, :n])  # H[a, b] = HT[b, a]
    H += second[:n, :n] + second[n:, n:]
    H *= 0.25
    return dz, dzbar, H.transpose(1, 0, 2)


def ma_residual(rho):
    """Jet of sum_a rho^a rho_a - 2 rho.

    The raised index follows the convention sum_b rho^{a bbar} rho_{c bbar}
    = delta_{ac}.  The residual of a real ``rho`` is real, and is returned as
    a real jet.  Raises DegenerateHessian when the constant part of the
    complex Hessian is not positive-definite.  When rho has no linear part,
    as every potential here, the residual has rho's degree bound.  With one,
    the residual's block of degree d needs rho through degree d + 2: the
    inverse Hessian's degree-d block meets the constant terms of both first
    derivatives.  The residual then stops at ``bound - 2``, the last degree
    the jet determines.
    """
    n = _fiber_dimension(rho)
    num_vars, bound = rho.num_vars, rho.max_degree
    if bound < 2:  # the jet keeps no Hessian
        require_positive_hessian(np.zeros((n, n)))
    # dz and dzbar are complete through degree bound - 1 and kept there, the
    # Hessian through bound - 2, and the solve runs through bound - 1 as if
    # the Hessian's block of degree bound - 1 were zero: only a linear part
    # of rho, which gives dz and dzbar constant terms, lets that block reach
    # the product, and the residual is then cut to bound - 2.
    dz, dzbar, HT = _wirtinger_parts(rho, n)
    eigenvalues = require_positive_hessian(HT[:, :, 0].T)
    # a real rho has a Hermitian H0: its condition number is an eigenvalue ratio
    condition = eigenvalues[-1] / eigenvalues[0] if np.isrealobj(rho._c) else None
    # raised[a] = sum_b (H^-1)[b][a] dzbar[b]: solve H^T raised = dzbar,
    # then sum_a raised[a] dz[a] as one real product, whose first row is
    # Re(raised).Re(dz) - Im(raised).Im(dz) and whose second, for a complex
    # rho, is the imaginary part
    try:
        raised = _graded_solve(HT, dzbar[:, None], num_vars, bound - 1, condition)[:, 0]
    except SingularSystem as exc:
        raise DegenerateHessian(str(exc)) from exc
    rows = [np.concatenate([raised.real, -raised.imag])]
    if not np.isrealobj(rho._c):
        rows.append(np.concatenate([raised.imag, raised.real]))
    contracted = _graded_matmul(np.array(rows), np.concatenate([dz.real, dz.imag])[:, None],
                                num_vars, bound)[:, 0]
    if len(rows) == 2:
        contracted = contracted[0] + 1j * contracted[1]
    residual = (-2.0) * rho + JetPolynomial._from_array(num_vars, bound, contracted.reshape(-1))
    if rho._c[rho._layout.block(1)].any():
        return residual.truncated(bound - 2)
    return residual


# The identity linearized at rho = |y|^2 is
#     dMA(P) = 2 (y . grad_y) P - y^T (grad_x^2 + grad_y^2) P y - 2 P.
# On a block P of x-degree a and y-degree b, Euler's identity gives
# (y . grad_y) P = b P and y^T grad_y^2 P y = b (b - 1) P, so
# dMA(P) = (2 b - b (b - 1) - 2) P - y^T grad_x^2 P y
#        = -(b - 1)(b - 2) P - y^T grad_x^2 P y.
# The gain -(b - 1)(b - 2) is nonzero for every b >= 3 (-6 on the quartic
# blocks, b = 4), and the last term, ``_coupling``, moves block (a, b) to
# (a - 2, b + 2) of the same total degree.  A step P of degree d changes the
# residual below degree d + 1 by dMA(P) alone when the rest of rho is
# y^T g(0) y plus terms of degree >= 3 (the real linear change z -> g(0)^(1/2) z
# is holomorphic, takes y^T g(0) y to |y|^2 and keeps each bi-degree, the
# gains and y^T grad_x^2 P y), so one residual per degree serves all its
# blocks: by ascending b, the residual block (a, b) less the coupled image
# of the step just taken on block (a + 2, b - 2).
def _block_gain(b):
    """Minus the gain of the linearized identity on a block of y-degree b."""
    return (b - 1) * (b - 2)


@functools.lru_cache(maxsize=None)
def _block_positions(num_vars, max_degree, a, b):
    """Positions of the block of x-degree ``a`` and y-degree ``b`` in the
    tube layout, descending: on the pure-y quartic block that is the order
    of the quadruples i <= j <= k <= l of y_i y_j y_k y_l, ascending."""
    layout = _layout(num_vars, max_degree)
    block = layout.block(a + b)
    y_degree = layout.exponents[block, num_vars // 2:].sum(axis=1)
    return _readonly(block.start + np.flatnonzero(y_degree == b)[::-1])


@functools.lru_cache(maxsize=None)
def _coupling(num_vars, max_degree, a, b):
    """(rows, cols, weight): for S on block (a + 2, b - 2), the block (a, b)
    of y^T grad_x^2 S y is bincount(rows, weight * S[cols]), both blocks in
    ``_block_positions`` order.  d^2 x^alpha / dx_i dx_j times y_i y_j is
    alpha_i (alpha_j - delta_ij) times the monomial whose code is shifted
    by the codes of y_i y_j less those of x_i x_j."""
    layout = _layout(num_vars, max_degree)
    n = num_vars // 2
    positions = _block_positions(num_vars, max_degree, a + 2, b - 2)
    source, codes = layout.exponents[positions], layout.codes[positions]
    target = layout.codes[_block_positions(num_vars, max_degree, a, b)[::-1]]  # ascending
    unit = layout.unit
    shift = (unit[n:, None] + unit[n:]) - (unit[:n, None] + unit[:n])
    rows, cols, weight = [], [], []
    for i in range(n):  # one x_i at a time bounds the temporaries
        w = source[:, i] * (source[:, :n] - np.eye(n, dtype=np.int64)[i]).T  # (n, m)
        j, col = np.nonzero(w)
        rows.append(len(target) - 1 - np.searchsorted(target, codes[col] + shift[i, j]))
        cols.append(col)
        weight.append(w[j, col].astype(float))
    return tuple(_readonly(np.concatenate(part)) for part in (rows, cols, weight))


def solve_potential(seed):
    """The potential that solves the identity through the seed's degree bound.

    The seed supplies the blocks of y-degree 2, y^T g(x) y for a metric g;
    the solve fills every block of y-degree b >= 3.  For total degree d =
    3..max_degree it takes one residual, recomputed only when an earlier
    step changed the jet, and within d, by ascending b = 3..d, sets the
    block (a, b), a = d - b, to (r_(a, b) - [y^T grad_x^2 S y]_(a, b)) /
    ((b - 1)(b - 2)), with S the step just added to block (a + 2, b - 2):
    a step changes the residual within its degree only by the gain on its
    own block, which it cancels, and by that coupling.  An even seed of
    degree D costs at most D / 2 - 1 residuals.
    Raises MalformedInput for a seed with any term of y-degree 0 or 1, such
    as a linear part or x_0^2: the solve leaves those blocks of the
    residual as they are, and the coupling is exact only without them.
    """
    n = _fiber_dimension(seed)
    num_vars, bound = seed.num_vars, seed.max_degree
    if seed._c[seed._layout.exponents[:, n:].sum(axis=1) <= 1].any():
        raise MalformedInput("a potential seed may not have a linear part, "
                             "or any other term of y-degree 0 or 1")
    coeffs = seed._c.copy()
    rho = JetPolynomial._from_array(num_vars, bound, coeffs)
    residual = None  # the residual of rho, while rho is unchanged
    for d in range(3, bound + 1):
        if residual is None:
            residual = ma_residual(rho)._c
        steps = {}  # y-degree -> the nonzero step taken on it within degree d
        for b in range(3, d + 1):
            positions = _block_positions(num_vars, bound, d - b, b)
            block = residual[positions]
            if b - 2 in steps:
                rows, cols, weight = _coupling(num_vars, bound, d - b, b)
                block = block - np.bincount(rows, weight * steps[b - 2][cols], len(block))
            step = block / _block_gain(b)
            if step.any():
                coeffs[positions] += step
                steps[b] = step
        if steps:
            residual = None
    return rho


@dataclass(frozen=True)
class QuarticCoefficients:
    """Free quartic y-coefficients of the potential: ``values`` maps the
    non-decreasing quadruples (i <= j <= k <= l) to the coefficient of
    y_i y_j y_k y_l."""

    values: dict


def _solved_pure_y_quartic(tensor, plant):
    """The pure-y quartic block of ``solve_potential`` on the degree-4
    expansion of ``tensor`` plus ``plant(size)`` in that block: the plant
    plus the solve's degree-4 step, one residual."""
    num_vars = 2 * tensor.dimension
    positions = _block_positions(num_vars, 4, 0, 4)
    coeffs = potential_expansion(tensor, 4)._c
    coeffs[positions] += plant(len(positions))
    return solve_potential(JetPolynomial._from_array(num_vars, 4, coeffs))._c[positions]


@functools.lru_cache(maxsize=None)
def _quartic_keys(n):
    """The quadruples i <= j <= k <= l in the order of the pure-y quartic
    block's positions."""
    powers = _layout(2 * n, 4).exponents[_block_positions(2 * n, 4, 0, 4), n:]
    return tuple(tuple(np.repeat(np.arange(n), p).tolist()) for p in powers)


def solve_quartic_coefficients(tensor):
    """The pure-y quartic block of ``solve_potential`` on the degree-4
    expansion of ``tensor``, which the paper says vanishes."""
    found = _solved_pure_y_quartic(tensor, np.zeros)
    return QuarticCoefficients(dict(zip(_quartic_keys(tensor.dimension), found.tolist())))


# -- residual scaling study --------------------------------------------

def residual_scaling_table(rho, seed=2024):
    """Rows (eps, sup |residual|) for the numerically evaluated identity,
    each sup over 400 seeded points of the unit polydisk scaled by eps."""
    n = _fiber_dimension(rho)
    residual = ma_residual(rho)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(400, 2 * n))
    rows = []
    for eps in np.geomspace(1e-2, 1e-1, 7):
        vals = residual.evaluate(pts * eps)
        rows.append((float(eps), float(np.max(np.abs(vals)))))
    return rows


def fitted_loglog_slope(rows):
    """Least-squares slope of log(sup) against log(eps)."""
    eps = np.array([r[0] for r in rows])
    sup = np.array([max(r[1], 1e-300) for r in rows])
    return float(np.polyfit(np.log(eps), np.log(sup), 1)[0])


def scaling_table_csv(rows):
    lines = ["eps,sup_residual"]
    lines += [f"{eps:.6e},{sup:.12e}" for eps, sup in rows]
    return "\n".join(lines) + "\n"

