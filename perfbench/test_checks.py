"""The benchmark's checks must be able to fail.

Run from the root of the repository:  python3 -m pytest perfbench
"""

import json
import math

import numpy as np
import pytest

import checks
import worker
from spans import NullTracer, Tracer

NAN = float("nan")


def sphere():
    R = np.zeros((2, 2, 2, 2))
    R[0, 1, 0, 1] = R[1, 0, 1, 0] = 1.0
    R[0, 1, 1, 0] = R[1, 0, 0, 1] = -1.0
    return R


def record(metric, status="pass", tol=1e-9):
    return {"suite": "s", "case": "c", "status": status, "metric": metric,
            "tol": tol, "ms": 0, "note": ""}


class StubWorkload:
    """One operation per round that returns ``result``; checked by ``check``."""

    known_faults = set()

    def __init__(self, result, check):
        self.result, self.check = result, check

    def round_ops(self, r):
        return [("stub", lambda: self.result, self.check)]


def run_one(result, check):
    ops, rounds = worker.timed_phase(StubWorkload(result, check), 0.0, NullTracer())
    assert len(ops) == 1 and len(rounds) == 1
    return ops[0][2]


A = np.array([[0.6, 0.8j], [0.8j, 0.6]])


def flipped_kahler():
    K = checks.kahler_reference(sphere())
    K[0, 1, 0, 1] *= -1.0
    return K


@pytest.mark.parametrize("result, check, ok", [
    (A, lambda got: checks.roundtrip_ok(got, A), True),
    (A + 1e-5, lambda got: checks.roundtrip_ok(got, A), False),
    (np.full((2, 2), NAN), lambda got: checks.roundtrip_ok(got, A), False),
    (flipped_kahler(), lambda K: checks.kahler_ok(K, sphere()), False),
    (checks.kahler_reference(sphere()), lambda K: checks.kahler_ok(K, sphere()), True),
])
def test_wrong_results_fail_the_operation(result, check, ok):
    assert run_one(result, check) is ok


def test_an_exception_fails_the_operation():
    def boom():
        raise ValueError("library raised")

    class Raising(StubWorkload):
        def round_ops(self, r):
            return [("stub", boom, lambda _: True)]

    ops, _ = worker.timed_phase(Raising(None, None), 0.0, NullTracer())
    assert [ok for _, _, ok in ops] == [False]


def test_kahler_reference_values_and_nan():
    R = sphere()
    K = checks.kahler_reference(R)
    assert K[0, 1, 0, 1] == pytest.approx(1.0 / 3.0)
    assert K[0, 1, 1, 0] == pytest.approx(-1.0 / 6.0)
    K[1, 0, 1, 0] = NAN
    assert not checks.kahler_ok(K, R)


def test_nan_never_passes():
    assert not checks.within([0.0, NAN], 1.0)
    assert not checks.quartic_ok([0.0, NAN])
    assert not checks.slope_ok([0.01, 0.1], [1e-12, NAN])
    assert math.isnan(checks.loglog_slope([0.01, 0.1], [NAN, 1.0]))
    assert not checks.order_ok([1e-4, NAN, 1e-7])


def test_order_and_slope_windows():
    errs = [2.0 ** (-4 * k) for k in range(4)]
    assert checks.observed_order(errs) == pytest.approx(4.0)
    assert checks.order_ok(errs)
    assert not checks.order_ok([2.0 ** (-2 * k) for k in range(4)])
    eps = np.geomspace(1e-2, 1e-1, 7)
    assert checks.slope_ok(eps, eps ** 6)
    assert not checks.slope_ok(eps, eps ** 4)


def test_low_degree_coefficients_cover_every_monomial():
    from tubegeom import JetPolynomial
    jet = JetPolynomial(2, 6, {(3, 3): 1.0})
    coeffs = checks.low_degree_coeffs(jet, 5)
    assert len(coeffs) == 21 and checks.within(coeffs, 1e-12)
    jet = JetPolynomial(2, 6, {(3, 3): 1.0, (1, 1): 1e-11})
    assert not checks.within(checks.low_degree_coeffs(jet, 5), 1e-12)
    jet = JetPolynomial(2, 6, {(0, 0): NAN})
    assert not checks.within(checks.low_degree_coeffs(jet, 5), 1e-12)


def test_cli_report_nan_metric_with_pass_status_fails():
    good = [record(1e-12), record(0.0, tol=0.0)]
    assert checks.cli_report_ok(json.dumps(good).encode())
    bad = good + [record(NAN)]
    assert not checks.cli_report_ok(json.dumps(bad).encode())
    assert run_one(json.dumps(bad).encode(), checks.cli_report_ok) is False


def test_cli_report_other_faults_fail():
    assert not checks.cli_report_ok(json.dumps([record(1e-3)]).encode())
    assert not checks.cli_report_ok(json.dumps([record(0.0, status="fail")]).encode())
    assert not checks.cli_report_ok(json.dumps([]).encode())
    assert not checks.cli_report_ok(b"not json")


def test_self_times_subtract_children():
    tracer = Tracer()
    tracer.spans = [["root", 0.0, 10.0, None], ["a", 1.0, 4.0, 0],
                    ["b", 5.0, 6.0, 0], ["c", 2.0, 3.0, 1]]
    assert tracer.self_times() == pytest.approx([6.0, 2.0, 1.0, 1.0])
    summary = tracer.self_time_summary()
    assert summary["root"]["total_s"] == pytest.approx(6.0)
    assert tracer.durations("a") == [3.0]
