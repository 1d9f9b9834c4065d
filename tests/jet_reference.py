"""Test-side references for jet-matrix inverses and products, and for the
curvature jets.

The library solves A X = B by graded back-substitution.  The reference here
takes the other route, the degree-truncated Neumann series

    A^-1 = (I - E + E^2 - ...) A0^-1,   E = A0^-1 dA,

with its two constant-matrix products written as einsums on a copy of the
stack with the constant part zeroed.  It shares only ``_graded_matmul`` with
the library, so the tests can check the solve against it.  ``identity_gap``
multiplies the coefficient stacks of two (s, s) jets with ``_graded_matmul``,
and ``stack_jets`` builds one (rows, cols) jet from a list of lists of
scalar jets, as test inputs are easiest to write entry by entry.

``lex_rows`` lists the exponent rows of a graded layout by brute force
over all tuples, with no library code.

``loop_normal_metric_jet`` and ``loop_potential_expansion`` write the
curvature contraction -(1/3) R[i,p,j,q] x_p x_q (y_i y_j) term by term into
a dict, one n^4 loop each, with no scatter and no jet product.

``gauss_seidel_potential`` is the potential solve by Gauss-Seidel on the
residual: after every block step it takes the residual again, so it needs
neither the coupling between the blocks of one degree nor any condition
under which that coupling is exact.  It finds the blocks from the exponent
rows and shares only ``ma_residual`` with the library's solve.
"""

import itertools

import numpy as np

from tubegeom import jets, majet
from tubegeom.jets import JetPolynomial


def einsum_inverse(S, num_vars, bound):
    """Neumann-series inverse of the stacked (size, size, monomials) ``S``."""
    A0inv = np.linalg.inv(S[:, :, 0])
    dA = S.copy()
    dA[:, :, 0] = 0.0
    E = np.einsum("ik,kjm->ijm", A0inv, dA)
    series = np.zeros_like(E)
    series[:, :, 0] = np.eye(len(S))
    power = E
    for k in range(1, bound + 1):
        if k > 1:
            power = jets._graded_matmul(power, E, num_vars, bound)
        series += power if k % 2 == 0 else -power
    return np.einsum("ikm,kj->ijm", series, A0inv)


def stack_jets(rows):
    """One (rows, cols) jet from a list of lists of scalar jets, truncated
    to the lowest degree bound among them."""
    entries = [e for row in rows for e in row]
    bound = min(e.max_degree for e in entries)
    coeffs = np.array([[e.truncated(bound)._c for e in row] for row in rows])
    return JetPolynomial._from_array(entries[0].num_vars, bound, coeffs)


def identity_gap(A, X):
    """Largest |coefficient| of A X - I for (s, s) jets A and X."""
    bound = min(A.max_degree, X.max_degree)
    product = jets._graded_matmul(A._c, X._c, A.num_vars, bound)
    product[:, :, 0] -= np.eye(len(product))
    return float(np.max(np.abs(product)))


def lex_rows(num_vars, max_degree):
    """Exponent tuples of total degree <= max_degree, degree by degree and
    lexicographically within a degree."""
    return [row for d in range(max_degree + 1)
            for row in sorted(t for t in itertools.product(range(d + 1), repeat=num_vars)
                              if sum(t) == d)]


def loop_normal_metric_jet(tensor, max_degree):
    """Matrix of jets delta_ij - (1/3) sum_pq R[i,p,j,q] x_p x_q in the n
    variables x."""
    n = tensor.dimension
    R = tensor.components
    jet = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = {(0,) * n: 1.0} if i == j else {}
            for p, q in itertools.product(range(n), repeat=2):
                powers = [0] * n
                powers[p] += 1
                powers[q] += 1
                key = tuple(powers)
                coeffs[key] = coeffs.get(key, 0.0) - R[i, p, j, q] / 3.0
            row.append(JetPolynomial(n, max_degree, coeffs))
        jet.append(row)
    return jet


def loop_potential_expansion(tensor, max_degree, fiber_scale=1.0):
    """Jet of fiber_scale * (sum_i y_i^2
    - (1/3) sum R[i,p,j,q] x_p x_q y_i y_j)."""
    n = tensor.dimension
    R = tensor.components
    coeffs = {}
    for i in range(n):
        powers = [0] * (2 * n)
        powers[n + i] = 2
        coeffs[tuple(powers)] = fiber_scale
    for i, p, j, q in itertools.product(range(n), repeat=4):
        powers = [0] * (2 * n)
        powers[p] += 1
        powers[q] += 1
        powers[n + i] += 1
        powers[n + j] += 1
        key = tuple(powers)
        coeffs[key] = coeffs.get(key, 0.0) - fiber_scale * R[i, p, j, q] / 3.0
    return JetPolynomial(2 * n, max_degree, coeffs)


def gauss_seidel_potential(seed):
    """Fill every block of y-degree b >= 3 of a tube-layout seed, for total
    degree d = 3..max_degree and, within d, b = 3..d: add the residual's
    block of x-degree d - b and y-degree b divided by (b - 1)(b - 2), with a
    new residual for every block."""
    n = seed.num_vars // 2
    coeffs = seed._c.copy()
    rho = JetPolynomial._from_array(seed.num_vars, seed.max_degree, coeffs)
    exponents = rho._layout.exponents
    x_degree, y_degree = exponents[:, :n].sum(axis=1), exponents[:, n:].sum(axis=1)
    for d in range(3, seed.max_degree + 1):
        for b in range(3, d + 1):
            block = (x_degree == d - b) & (y_degree == b)
            coeffs[block] += majet.ma_residual(rho)._c[block] / ((b - 1) * (b - 2))
    return rho
