"""Tube-potential jets and Monge-Ampere residuals.

The strictly plurisubharmonic potential of the tube complexification over a
Riemannian manifold restricts, in geodesic normal coordinates, to

    rho(x + iy) = sum_ij g_ij(x) y_i y_j + higher
                = sum_i y_i^2
                  - (1/3) sum_{ipjq} R[i,p,j,q] x_p x_q y_i y_j  + higher,

with g the metric in normal coordinates, and no cubic, pure-x, or
pure-quartic-y terms.  ``potential_expansion`` builds this jet as
FIBER_SCALE * y^T g(x) y from ``curvature.normal_metric_jet``, the one place
where the curvature contraction is written; ``ma_residual`` measures how well
any potential jet satisfies the degenerate Monge-Ampere identity

    sum_a rho^a rho_a - 2 rho = 0,   rho^a = sum_b rho^{a bbar} rho_bbar,

computed with exact Wirtinger calculus on jets: the raised index is one graded
solve against the transposed complex Hessian, with no inverse formed, and one
jet-matrix product pairs it with d rho / dz.  ``solve_potential`` solves the
identity through any degree by bi-degree back-substitution: the seed gives
the blocks of y-degree at most 2, and the identity linearized at |y|^2
multiplies a block of y-degree b by -(b-1)(b-2), so each block with b >= 3
is a residual block divided by (b-1)(b-2).  ``_block_positions`` finds the
blocks, for the solve's steps and for the pure-y quartic read.

Normalization: the whole potential carries the factor ``FIBER_SCALE = 1``
(so ``rho = |y|^2`` on the fiber over the base point); the identity is
homogeneous of degree one in rho.  The alternative convention
``rho = |v|^2 / 2`` seen elsewhere corresponds to 0.5; every formula here
assumes the value below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import normal_metric_jet
from .errors import DegenerateHessian, MalformedInput, SingularSystem
from .jets import (JetPolynomial, _graded_matmul, _graded_solve, _layout,
                   _split, _wirtinger_pair, wirtinger_z, wirtinger_zbar)

FIBER_SCALE = 1.0

DEFAULT_DEGREE = 6  # exposes the first surviving residual order above four
HESSIAN_TOL = 1e-8  # smallest eigenvalue a constant complex Hessian may have


def potential_expansion(tensor, max_degree=DEFAULT_DEGREE):
    """Degree-4 jet of the tube potential, FIBER_SCALE * y^T g(x) y: one
    graded product of the (n, n) normal-coordinate metric jet of ``tensor``,
    as a (1, n^2) stack, with the (n^2, 1) stack of the monomials y_i y_j."""
    metric = normal_metric_jet(tensor, max_degree)._c
    n = len(metric)
    layout = _layout(2 * n, max_degree)
    y = np.eye(2 * n, dtype=np.int64)[n:]
    fiber = np.zeros((n * n, 1, layout.size))
    fiber[np.arange(n * n), 0,
          layout.index((y[:, None] + y[None, :]).reshape(n * n, 2 * n))] = FIBER_SCALE
    rho = _graded_matmul(metric.reshape(1, n * n, -1), fiber, 2 * n, max_degree)
    return JetPolynomial._from_array(2 * n, max_degree, rho[0, 0])


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
    positive-definite with smallest eigenvalue at least HESSIAN_TOL."""
    smallest = np.min(np.linalg.eigvalsh(0.5 * (H0 + H0.conj().T)))
    if not smallest >= HESSIAN_TOL:
        raise DegenerateHessian(
            f"quadratic part not positive-definite (min eigenvalue {smallest:.3e})")


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
    # dz[a] = d rho / dz_a and dzbar[b] are complete through degree bound - 1
    # and kept there, and so are the Hessian and the solve: only a linear
    # part of rho, which gives dz and dzbar constant terms, lets the product
    # read the Hessian's incomplete top block, and the residual is then cut
    # to bound - 2.  Only the last product is padded to the bound.
    dz, dzbar = _wirtinger_pair(rho, n)
    # the transposed complex Hessian, HT[b, a] = d^2 rho / dz_a dzbar_b
    HT = wirtinger_zbar(dz, np.arange(n), n)._c
    require_positive_hessian(HT[:, :, 0].T)
    # raised[a] = sum_b (H^-1)[b][a] dzbar[b]: solve H^T raised = dzbar,
    # then sum_a raised[a] dz[a]
    try:
        raised = _graded_solve(HT, dzbar._c[:, None], num_vars, dz.max_degree)
    except SingularSystem as exc:
        raise DegenerateHessian(str(exc)) from exc
    raised = JetPolynomial._from_array(num_vars, dz.max_degree, raised.transpose(1, 0, 2))
    contracted = _graded_matmul(raised.truncated(bound)._c,
                                dz.truncated(bound)._c[:, None], num_vars, bound)[0, 0]
    if np.isrealobj(rho._c):
        contracted = contracted.real
    residual = (-2.0) * rho + JetPolynomial._from_array(num_vars, bound, contracted)
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
# blocks, b = 4), and the last term moves block (a, b) to (a - 2, b + 2) of
# the same total degree: the residual block (a, b) also holds the image of
# block (a + 2, b - 2), which a solve by ascending y-degree has already set.
def _block_gain(b):
    """Minus the gain of the linearized identity on a block of y-degree b."""
    return (b - 1) * (b - 2)


def _block_positions(num_vars, max_degree, a, b):
    """Positions of the block of x-degree ``a`` and y-degree ``b`` in the
    tube layout, descending: on the pure-y quartic block that is the order
    of the quadruples i <= j <= k <= l of y_i y_j y_k y_l, ascending."""
    block = _layout(num_vars, max_degree).block(a + b)
    y_degree = _split(num_vars, max_degree).right_degree[block]
    return block.start + np.flatnonzero(y_degree == b)[::-1]


def solve_potential(seed):
    """The potential that solves the identity through the seed's degree bound.

    The seed supplies the blocks of y-degree at most 2, y^T g(x) y for a
    metric g; the solve fills every block of y-degree b >= 3 by
    Gauss-Seidel on ``ma_residual``.  For total degree d = 3..max_degree
    and, within d, b = 3..d, it adds the residual's blocks of degree d and
    y-degree b divided by (b - 1)(b - 2).  Within degree d the step changes
    the residual only by the gain on its own blocks, which it cancels, and
    in blocks of larger b, which come later.  The residual is recomputed
    only after a step that changed the jet, so an even seed of degree 4
    costs one residual.
    Raises MalformedInput for a seed with a linear part, whose residual
    stops two degrees short of the bound.
    """
    _fiber_dimension(seed)  # raises unless x then y, so y is _split's right half
    if seed.max_abs_coeff(degrees={1}):
        raise MalformedInput("a potential seed may not have a linear part")
    coeffs = seed._c.copy()
    rho = JetPolynomial._from_array(seed.num_vars, seed.max_degree, coeffs)
    residual = None
    for d in range(3, seed.max_degree + 1):
        for b in range(3, d + 1):
            if residual is None:
                residual = ma_residual(rho)._c
            positions = _block_positions(seed.num_vars, seed.max_degree, d - b, b)
            step = residual[positions] / _block_gain(b)
            if step.any():
                coeffs[positions] += step
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
    coeffs = potential_expansion(tensor, 4)._c.copy()
    coeffs[positions] += plant(len(positions))
    return solve_potential(JetPolynomial._from_array(num_vars, 4, coeffs))._c[positions]


def solve_quartic_coefficients(tensor):
    """The pure-y quartic block of ``solve_potential`` on the degree-4
    expansion of ``tensor``, which the paper says vanishes."""
    n = tensor.dimension
    found = _solved_pure_y_quartic(tensor, np.zeros)
    powers = _layout(2 * n, 4).exponents[_block_positions(2 * n, 4, 0, 4), n:]
    quadruples = [tuple(np.repeat(np.arange(n), p).tolist()) for p in powers]
    return QuarticCoefficients(dict(zip(quadruples, found.tolist())))


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

