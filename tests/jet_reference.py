"""Test-side references for jet-matrix inverses and products.

The library solves A X = B by graded back-substitution.  The reference here
takes the other route, the degree-truncated Neumann series

    A^-1 = (I - E + E^2 - ...) A0^-1,   E = A0^-1 dA,

with its two constant-matrix products written as einsums on a copy of the
stack with the constant part zeroed.  It shares only ``_graded_matmul`` with
the library, so the tests can check the solve against it.  ``identity_gap``
multiplies jet matrices with ``_graded_matmul`` on their stacks.
"""

import numpy as np

from tubegeom import jets


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


def identity_gap(A, X):
    """Largest |coefficient| of A X - I for jet matrices A and X."""
    num_vars, bound, SA = jets._stack(A)
    product = jets._graded_matmul(SA, jets._stack(X)[2], num_vars, bound)
    product[:, :, 0] -= np.eye(len(product))
    return float(np.max(np.abs(product)))
