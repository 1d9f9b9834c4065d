"""Result checks for the benchmark workloads.

Each checker returns True only when the result is correct.  Every
comparison is written so that a NaN anywhere makes it fail: ``np.all(x <=
tol)`` is False for a NaN, whereas the ``max()`` reducers of the program
itself silently drop NaN samples, so the checks never lean on them.
References are computed here with NumPy/SciPy, apart from the code under
test.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np


def within(values, tol):
    """All entries finite and of absolute value at most ``tol``."""
    arr = np.abs(np.asarray(values, dtype=complex).ravel())
    return arr.size > 0 and bool(np.all(arr <= tol))


def roundtrip_ok(got, want, tol=1e-6):
    """Frobenius distance of two matrices at most ``tol``."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return False
    return bool(np.linalg.norm(got - want) <= tol)


def observed_order(errors):
    """Median of log2 error ratios over successive grid doublings."""
    e = np.asarray(errors, dtype=float)
    if e.size < 2 or not np.all(np.isfinite(e)) or np.any(e <= 0.0):
        return math.nan
    return float(np.median(np.log2(e[:-1] / e[1:])))


def order_ok(errors, low=3.8, high=4.2):
    order = observed_order(errors)
    return bool(low <= order <= high)


def loglog_slope(eps, sups):
    """Least-squares slope of log(sup) against log(eps); NaN if undefined."""
    eps = np.asarray(eps, dtype=float)
    sups = np.asarray(sups, dtype=float)
    if (eps.shape != sups.shape or eps.size < 2
            or not np.all(np.isfinite(sups)) or np.any(sups <= 0.0)):
        return math.nan
    return float(np.polyfit(np.log(eps), np.log(sups), 1)[0])


def slope_ok(eps, sups, minimum=4.5):
    return bool(loglog_slope(eps, sups) >= minimum)


def low_degree_coeffs(jet, max_degree=5):
    """Coefficients of every monomial of total degree <= ``max_degree``,
    read through the jet's public ``coefficient`` lookup."""
    out = []
    for degree in range(max_degree + 1):
        for variables in itertools.combinations_with_replacement(range(jet.num_vars),
                                                                 degree):
            powers = [0] * jet.num_vars
            for k in variables:
                powers[k] += 1
            out.append(jet.coefficient(tuple(powers)))
    return out


def kahler_reference(R):
    """Closed form K = (R + R^(0,3,2,1)) / 6 from the curvature components."""
    R = np.asarray(R, dtype=float)
    return (R + R.transpose(0, 3, 2, 1)) / 6.0


def kahler_ok(K, R, tol=1e-10):
    K = np.asarray(K, dtype=complex)
    ref = kahler_reference(R)
    return K.shape == ref.shape and within(K - ref, tol)


def quartic_ok(values, tol=1e-9):
    return within(list(values), tol)


def cli_report_ok(report_bytes):
    """Every record passes by its own status and by ``metric <= tol`` with a
    finite metric; the report holds at least one record."""
    try:
        records = json.loads(report_bytes)
    except ValueError:
        return False
    if not isinstance(records, list) or not records:
        return False
    for rec in records:
        metric, tol = rec.get("metric"), rec.get("tol")
        if rec.get("status") != "pass":
            return False
        if not isinstance(metric, (int, float)) or not isinstance(tol, (int, float)):
            return False
        if not (math.isfinite(metric) and metric <= tol):
            return False
    return True
