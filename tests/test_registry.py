import numpy as np

from tubegeom import liealg, nahm, registry


def test_one_nan_sample_makes_the_sweep_nan(monkeypatch):
    real = nahm.adapted_roundtrip
    calls = []

    def second_is_nan(a, v, grid_size=2000, h_path=None):
        calls.append(grid_size)
        got = real(a, v, grid_size, h_path)
        if len(calls) == 2:
            return liealg.GroupElement(np.full_like(got.matrix, np.nan), a.context,
                                       complexified=True)
        return got

    monkeypatch.setattr(nahm, "adapted_roundtrip", second_is_nan)
    worst, _ = registry.roundtrip_error(liealg.su2(), np.random.default_rng(1005),
                                        3, 64)
    assert np.isnan(worst)
    assert not worst <= 1e-6  # the acceptance gate of criterion 5 fails


def test_case_ids_are_unique_and_keys_declared():
    ids = [(c.suite, c.case) for c in registry.CHECKS]
    assert len(ids) == len(set(ids))
    assert set(registry.SUITE_NAMES) == {c.suite for c in registry.CHECKS}
    assert all(c.tol_key is None or registry.TOLERANCES[c.tol_key] == c.tol
               for c in registry.CHECKS)


def test_gauge_ratio_names_its_worst_gauge():
    ctx = liealg.builtin_context("su2_u1")
    _, sol, base = registry.nahm_solution(ctx, 400)
    worst, index = registry.gauge_ratio(ctx, np.random.default_rng(5), sol, base, 6)
    rng = np.random.default_rng(5)
    ratios = [nahm.nahm_residual_sup(nahm.gauge_transform(
        nahm.smooth_gauge(ctx, rng, 400, amplitude=0.5), sol)) / base
        for _ in range(6)]
    assert worst == max(ratios)
    assert index == ratios.index(worst)
    assert registry.gauge_ratio(ctx, rng, sol, base, 0) == (0.0, None)
