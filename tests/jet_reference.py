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

``loop_normal_metric_jet`` and ``loop_potential_expansion`` write the
curvature contraction -(1/3) R[i,p,j,q] x_p x_q (y_i y_j) term by term into
a dict, one n^4 loop each, with no scatter and no jet product.
"""

import itertools

import numpy as np

from tubegeom import jets
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


def loop_normal_metric_jet(tensor, max_degree):
    """Matrix of jets delta_ij - (1/3) sum_pq R[i,p,j,q] x_p x_q."""
    n = tensor.dimension
    R = tensor.components
    jet = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = {(0,) * (2 * n): 1.0} if i == j else {}
            for p, q in itertools.product(range(n), repeat=2):
                powers = [0] * (2 * n)
                powers[p] += 1
                powers[q] += 1
                key = tuple(powers)
                coeffs[key] = coeffs.get(key, 0.0) - R[i, p, j, q] / 3.0
            row.append(JetPolynomial(2 * n, max_degree, coeffs))
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
