"""The benchmark drives the library through its public functions; one round
of its ``jet-ma`` and of its ``gauge-roundtrip`` workload runs here, so that
a change to what a workload calls or reads (``adapted_roundtrip``'s
signature or ``solve_quartic_coefficients(R).values``, for two) fails a test
rather than only the benchmark's run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_a_jet_ma_round_passes_its_check(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    [(label, call, check)] = workloads.JetMA(seed=1).round_ops(0)
    assert label == "jet-round"
    assert check(call())


def test_a_gauge_roundtrip_round_passes_its_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.GaugeRoundtrip(seed=1)
    ops = workload.round_ops(0)
    assert {label for label, _, _ in ops} == set(workloads.GAUGE_CONTEXTS)
    for label, call, check in ops:
        if label not in workload.known_faults:
            assert check(call()), label
