"""The benchmark drives the library through its public functions; one round
of its ``jet-ma`` workload runs here, so that a change to what the workload
reads (``solve_quartic_coefficients(R).values``, for one) fails a test
rather than only the benchmark's run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_a_jet_ma_round_passes_its_check(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    [(label, call, check)] = workloads.JetMA(seed=1).round_ops(0)
    assert label == "jet-round"
    assert check(call())
