import csv
import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from tubegeom import cli, kahler, liealg, nahm, registry
from tubegeom import complexify as cx
from tubegeom.errors import ConfigParseError, DegenerateHessian, UnknownSuite


def _usage_error(argv, capsys):
    """argparse's message for ``argv``, which exits 2 from ``parse_args`` and
    from ``main``."""
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    assert exc.value.code == 2
    assert cli.main(argv) == 2
    return capsys.readouterr().err


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuite):
        cli.run_suite(cli.SuiteConfig(suite="nonsense"))


def test_unknown_suite_exit_code(capsys):
    # argparse rejects the choice before run_suite is reached
    assert cli.main(["--suite", "nonsense"]) == 2


def test_bad_override_exit_code():
    assert cli.main(["--suite", "s1-isometry", "--seed=notanint"]) == 2
    assert cli.main(["--suite", "s1-isometry", "--seed"]) == 2


def test_settings_are_what_runs_and_where_reports_go():
    # no setting sizes a case: the sizes are registry constants
    assert [f.name for f in dataclasses.fields(cli.parse_args([]))] == [
        "suite", "context", "seed", "out", "fmt", "timings"]


def test_single_suite_passes_and_writes_report(tmp_path, capsys):
    code = cli.main(["--suite", "kahler-curvature", "--seed", "7",
                     "--out", str(tmp_path), "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cases passed" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert all(rec["status"] == "pass" for rec in report)
    assert all(rec["metric"] <= rec["tol"] or rec["status"] == "fail"
               for rec in report)
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "kahler_planes.csv").exists()


def _roundtrip_off_by(monkeypatch, offset):
    """Plant an error of ``offset`` on every roundtrip of the registry."""
    real = registry.roundtrip_error

    def off(*args):
        worst, norm = real(*args)
        return worst + offset, norm

    monkeypatch.setattr(registry, "roundtrip_error", off)


def test_csv_report_reads_back_as_the_json_records(tmp_path, monkeypatch):
    # s1-isometry notes hold commas, such as "omega(X, X), omega(X, Y) + ...";
    # a planted roundtrip error gives a fail record
    _roundtrip_off_by(monkeypatch, 1e-3)
    for suite, code in (("s1-isometry", 0), ("nahm-roundtrip", 1)):
        out = tmp_path / suite
        assert cli.main(["--suite", suite, "--format", "csv",
                         "--out", str(out)]) == code
        report = json.loads((out / "report.json").read_text())
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report)
        for row, rec in zip(rows, report):
            assert None not in row  # no note split into extra fields
            assert [row[k] for k in ("suite", "case", "status", "note")] == \
                [rec[k] for k in ("suite", "case", "status", "note")]
            assert (float(row["metric"]), float(row["tol"]), int(row["ms"])) == \
                (rec["metric"], rec["tol"], rec["ms"])
        assert any("," in rec["note"] for rec in report)


def test_report_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code = cli.main(["--suite", "ma-expansion", "--seed", "42",
                         "--out", str(d)])
        assert code == 0
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()


def test_outputs_replace_old_files_instead_of_rewriting_them(tmp_path):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    reused.mkdir()
    names = ("report.json", "report.csv", "kahler_planes.csv")
    stale = "stale " * 2000
    for name in names:
        (reused / name).write_text(stale)
        os.link(reused / name, tmp_path / f"old-{name}")
    for d in (reused, fresh):
        assert cli.main(["--suite", "kahler-curvature", "--format", "csv",
                         "--out", str(d)]) == 0
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()
        # the old file was unlinked, not truncated: its other link keeps it
        assert (tmp_path / f"old-{name}").read_text() == stale


def test_gauge_order_note_shows_the_residuals_and_worst_gauge(tmp_path):
    assert cli.main(["--suite", "nahm-gauge", "--context", "su2_u1",
                     "--out", str(tmp_path)]) == 0
    rec = next(r for r in json.loads((tmp_path / "report.json").read_text())
               if r["case"] == "gauge-invariance-order")
    ctx = liealg.builtin_context("su2_u1")
    # the suite's generator (seed 42) is first drawn from by this case
    order, worst, gauged, base = registry.gauge_residual_order(
        ctx, np.random.default_rng(42), 20)
    assert 3.8 <= order <= 4.2
    assert (rec["metric"], rec["tol"]) == (0.0, 0.0)
    assert rec["note"].endswith(f"(at N = 400: gauged {gauged:.3e}, ungauged "
                                f"residual {base:.3e}, worst gauge {worst}) "
                                f"[observed {order:.3f}, needs 3.8 to 4.2]")


def test_failing_tolerance_gives_exit_one(tmp_path, monkeypatch):
    # a roundtrip off by 1e-3 misses the fixed 1e-6 gate: a fail record and
    # exit code 1
    _roundtrip_off_by(monkeypatch, 1e-3)
    code = cli.main(["--suite", "nahm-roundtrip", "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    rec = next(rec for rec in report if rec["case"] == "roundtrip-error")
    assert rec["status"] == "fail"
    assert rec["metric"] > rec["tol"] == 1e-6


def test_records_carry_schema_fields():
    config = cli.SuiteConfig(suite="s1-isometry")
    records = cli.run_suite(config)
    assert records == sorted(records, key=lambda r: (r.suite, r.case))
    for rec in records:
        d = rec.as_dict()
        assert set(d) == {"suite", "case", "status", "metric", "tol", "ms", "note"}
        assert d["status"] in ("pass", "fail")
        if d["status"] == "fail":
            assert d["metric"] > d["tol"]
        assert d["ms"] == 0  # timings disabled by default for determinism


def test_unmet_preconditions_become_skip_records(tmp_path, capsys):
    # so3 has no subalgebra split: the coset and moment-map cases are skipped
    assert cli.main(["--suite", "all", "--context", "so3",
                     "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    skipped = {(rec["suite"], rec["case"]) for rec in report
               if rec["status"] == "skip"}
    assert skipped == {("complexify-holomorphy", "leaf-cr-order-coset"),
                       ("complexify-holomorphy", "coset-well-defined"),
                       ("nahm-gauge", "moment-map-zero"),
                       ("nahm-gauge", "moment-map-loop-gauge")}
    assert all(rec["status"] == "pass" for rec in report
               if (rec["suite"], rec["case"]) not in skipped)
    assert all("no subalgebra split" in rec["note"] for rec in report
               if rec["status"] == "skip")
    assert "4 skipped" in capsys.readouterr().out


def test_nahm_gauge_skips_triple_cases_on_a_two_dimensional_algebra(tmp_path):
    # torus2 has two basis elements, too few for the Nahm data
    assert cli.main(["--suite", "nahm-gauge", "--context", "torus2",
                     "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    status = {rec["case"]: rec["status"] for rec in report}
    assert status == {"solution-residual": "skip", "gauge-invariance-order": "skip",
                      "connection-gauged-constancy": "pass",
                      "moment-map-zero": "skip", "moment-map-loop-gauge": "skip"}


def test_split_context_keeps_every_record_of_the_guarded_suites(tmp_path):
    # su2_u1 meets every precondition: no skip records, same case list
    for suite, cases in (("complexify-holomorphy",
                          {"leaf-cr-order-group", "leaf-cr-order-coset",
                           "coset-well-defined", "polar-inverse"}),
                         ("nahm-gauge",
                          {"solution-residual", "gauge-invariance-order",
                           "connection-gauged-constancy", "moment-map-zero",
                           "moment-map-loop-gauge"})):
        assert cli.main(["--suite", suite, "--context", "su2_u1",
                         "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert {rec["case"]: rec["status"] for rec in report} == \
            dict.fromkeys(cases, "pass")


def test_abelian_context_passes_every_suite(tmp_path):
    # Magnus is exact on torus2: the order sweep sees round-off only
    assert cli.main(["--suite", "all", "--context", "torus2",
                     "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    roundtrip = {rec["case"]: rec for rec in report
                 if rec["suite"] == "nahm-roundtrip"}
    assert set(roundtrip) == {"roundtrip-error", "roundtrip-zero-vector",
                              "roundtrip-order"}
    assert all(rec["status"] == "pass" for rec in roundtrip.values())
    assert roundtrip["roundtrip-order"]["note"].startswith("exact (errors <= ")


@pytest.mark.parametrize("context", ["su2_u1", "su3_u2"])
def test_path_space_suites_keep_case_ids_and_statuses(context, tmp_path):
    expected = {
        ("nahm-gauge", "solution-residual"), ("nahm-gauge", "gauge-invariance-order"),
        ("nahm-gauge", "connection-gauged-constancy"),
        ("nahm-gauge", "moment-map-zero"), ("nahm-gauge", "moment-map-loop-gauge"),
        ("nahm-roundtrip", "roundtrip-error"), ("nahm-roundtrip", "roundtrip-order"),
        ("nahm-roundtrip", "roundtrip-zero-vector")}
    report = []
    for suite in ("nahm-gauge", "nahm-roundtrip"):
        assert cli.main(["--suite", suite, "--context", context,
                         "--out", str(tmp_path)]) == 0
        report += json.loads((tmp_path / "report.json").read_text())
    assert {(rec["suite"], rec["case"]): rec["status"] for rec in report} == \
        dict.fromkeys(expected, "pass")
    order = next(rec for rec in report if rec["case"] == "roundtrip-order")
    observed = re.search(r"\[observed (\S+), needs 3.8 to 4.2\]$", order["note"])
    assert 3.8 <= float(observed.group(1)) <= 4.2
    assert (order["metric"], order["tol"]) == (0.0, 0.0)


def test_nan_roundtrip_sample_fails_its_case(monkeypatch):
    real = nahm.adapted_roundtrip
    calls = []

    def second_is_nan(a, v, grid_size=2000):
        calls.append(grid_size)
        got = real(a, v, grid_size)
        if len(calls) == 2:
            return liealg.GroupElement(np.full_like(got.matrix, np.nan), a.context,
                                       complexified=True)
        return got

    monkeypatch.setattr(nahm, "adapted_roundtrip", second_is_nan)
    records = cli.run_suite(cli.SuiteConfig(suite="nahm-roundtrip"))
    status = {rec.case: rec.status for rec in records}
    assert status["roundtrip-error"] == "fail"
    assert status["roundtrip-zero-vector"] == "pass"


def test_nan_order_fails_order_case():
    # every case of the registry, its compute replaced by planted values:
    # NaN and a library error fail each gate, and so does a value just
    # outside it; a value inside passes
    def status(check, value):
        def compute(ctx, rng, run):
            if isinstance(value, Exception):
                raise value
            return value, ""
        probe = dataclasses.replace(check, compute=compute, needs=())
        return cli._run_checks([probe], cli.SuiteConfig(), None)[0][0].status

    for check in registry.CHECKS:
        assert status(check, float("nan")) == "fail", check.case
        assert status(check, DegenerateHessian("planted")) == "fail", check.case
        if check.order:
            lo, hi = check.order
            assert status(check, lo - 1e-3) == "fail", check.case
            assert status(check, lo) == "pass", check.case
            if np.isfinite(hi):
                assert status(check, hi + 1e-3) == "fail", check.case
                assert status(check, hi) == "pass", check.case
            assert status(check, min(lo + 1.0, (lo + hi) / 2)) == "pass", check.case
        else:
            assert status(check, np.nextafter(check.tol, np.inf)) == "fail", check.case
            assert status(check, 0.0) == "pass", check.case
            infinite = dataclasses.replace(check, tol=float("inf"))
            assert status(infinite, float("inf")) == "fail", check.case


def test_timings_measure_the_roundtrip_computation(tmp_path):
    assert cli.main(["--suite", "nahm-roundtrip", "--timings",
                     "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    ms = {rec["case"]: rec["ms"] for rec in report}
    assert ms["roundtrip-error"] > 0


def test_timings_measure_every_suite(tmp_path):
    assert cli.main(["--suite", "all", "--context", "su2_u1", "--timings",
                     "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    timed = {rec["suite"] for rec in report if rec["ms"] > 0}
    assert timed == set(cli.SUITE_NAMES)


def test_unknown_override_keys_are_rejected():
    assert cli.main(["--suite", "nahm-roundtrip", "--tol.roundtrp=1e-30"]) == 2
    assert cli.main(["--suite", "nahm-roundtrip", "--sweep.pairz=1"]) == 2
    # no key moves a gate, not even one of another suite's cases
    assert cli.main(["--suite", "nahm-roundtrip", "--tol.quartic=1e-8"]) == 2
    # there is no --config flag, and no flag matches by a prefix of its name
    for argv in (["--config", "x"], ["--sweep.pair=1"], ["--see", "1"]):
        assert cli.main(["--suite", "nahm-roundtrip", *argv]) == 2


@pytest.mark.parametrize("context", sorted(liealg.BUILTIN_CONTEXTS))
def test_every_builtin_context_runs_every_suite(context, tmp_path):
    # unmet preconditions are skips; every other case passes
    assert cli.main(["--suite", "all", "--context", context,
                     "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    ctx = liealg.builtin_context(context)
    unmet = {(c.suite, c.case) for c in registry.CHECKS if c.unmet(ctx)}
    assert {(rec["suite"], rec["case"]) for rec in report} == \
        {(c.suite, c.case) for c in registry.CHECKS}
    for rec in report:
        want = "skip" if (rec["suite"], rec["case"]) in unmet else "pass"
        assert rec["status"] == want, rec


def test_growing_two_form_error_fails_the_order_gate(monkeypatch):
    # an error that grows like N^2 has order -2: a sign-blind gate passes it
    real = nahm.potential_two_form

    def growing(config, X, Y):
        return real(config, X, Y) + 1e-6 * config.grid_size ** 2

    monkeypatch.setattr(nahm, "potential_two_form", growing)
    records = cli.run_suite(cli.SuiteConfig(suite="s1-isometry"))
    order = next(rec for rec in records if rec.case == "two-form-order")
    assert order.status == "fail"
    assert "[observed -1.99" in order.note


@pytest.mark.parametrize("pairing", [
    ((1.0, -1.0, 1.0, -1.0), (1, 0, 2, 3)),   # T2 and T3 of Y swapped
    ((1.0, 1.0, 1.0, -1.0), (1, 0, 3, 2)),    # one weight's sign flipped
])
def test_wrong_two_form_reference_fails_the_order_gate(monkeypatch, pairing):
    # potential_two_form does not read the pairing table, so only the
    # reference moves, and every grid then misses it by the same amount
    monkeypatch.setattr(nahm, "_OMEGA_I_PAIRING", pairing)
    records = cli.run_suite(cli.SuiteConfig(suite="s1-isometry"))
    order = next(rec for rec in records if rec.case == "two-form-order")
    assert order.status == "fail"


def test_coset_case_fails_for_shifts_outside_the_subgroup(monkeypatch):
    ctx = liealg.builtin_context("su2_u1")
    off = liealg.group_exp(ctx, 0.8 * ctx.m_basis()[0]).matrix  # exp(m), not in H

    def shift_by_complement(point, h):
        base = liealg.GroupElement(point.base.matrix @ off, point.context)
        return cx.TangentPoint(base, point.vector)

    monkeypatch.setattr(cx, "bundle_shift", shift_by_complement)
    records = cli.run_suite(cli.SuiteConfig(suite="complexify-holomorphy"))
    case = next(rec for rec in records if rec.case == "coset-well-defined")
    assert case.status == "fail"
    assert case.metric == 25.0


def test_a_library_error_fails_its_case_and_the_others_still_run(monkeypatch, tmp_path,
                                                                  capsys):
    def degenerate(ctx, rng, run):
        raise DegenerateHessian("planted")

    checks = tuple(dataclasses.replace(c, compute=degenerate)
                   if (c.suite, c.case) == ("kahler-curvature", "oracle-reality") else c
                   for c in registry.CHECKS)
    monkeypatch.setattr(registry, "CHECKS", checks)
    assert cli.main(["--suite", "kahler-curvature", "--out", str(tmp_path)]) == 1
    assert "error: DegenerateHessian" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert {rec["case"] for rec in report} == {
        c.case for c in registry.CHECKS if c.suite == "kahler-curvature"}
    for rec in report:
        if rec["case"] == "oracle-reality":
            assert rec["status"] == "fail"
            assert math.isnan(rec["metric"])
            assert rec["tol"] == 1e-12
            assert rec["note"] == "error: DegenerateHessian: planted"
        else:
            assert rec["status"] == "pass", rec


def test_removed_equivariance_key_is_unknown(capsys, monkeypatch):
    # every tol. key is gone, and so are sweep.equivariance and the size
    # flags: each is an unrecognised argument and exits 2 before any case runs
    monkeypatch.setattr(cli, "_run_checks", lambda *args: pytest.fail("a case ran"))
    retired = [("complexify-holomorphy", "sweep.equivariance", "3"),
               ("s1-isometry", "grid", "64"), ("nahm-roundtrip", "steps", "8"),
               ("ma-expansion", "tol.permutation", "1e-12"),
               ("complexify-holomorphy", "tol.order_slack", "0.1"),
               ("nahm-roundtrip", "tol.order_window", "0.2")]
    retired += [("kahler-curvature", f"tol.{key}", "1")
                for key in ("quartic", "low_order", "components", "imag", "inverse",
                            "residual", "constancy", "moment", "roundtrip",
                            "zero_vector", "exact", "potential")]
    retired += [("all", f"sweep.{key}", "8")
                for key in ("tensors", "leaves", "well_defined", "gauges", "pairs",
                            "two_form_ref")]
    for suite, key, value in retired:
        err = _usage_error(["--suite", suite, f"--{key}={value}"], capsys)
        assert f"unrecognized arguments: --{key}={value}" in err


def test_negative_seed_and_file_out_are_usage_errors(tmp_path, capsys, monkeypatch):
    # rejected before any case runs: an --out at or below a file would
    # otherwise fail only after every case ran, and a negative seed inside
    # numpy
    err = _usage_error(["--suite", "s1-isometry", "--seed", "-1"], capsys)
    assert "argument --seed: must be at least 0" in err
    assert cli.parse_args(["--seed", "0", "--out", str(tmp_path)]).seed == 0
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setattr(cli, "_run_checks", lambda *args: pytest.fail("a case ran"))
    for out in (taken, taken / "sub"):
        message = f"cannot use --out {out}"
        with pytest.raises(ConfigParseError, match=re.escape(message)):
            cli.run_suite(cli.SuiteConfig(suite="s1-isometry", out=str(out)))
        assert cli.main(["--suite", "s1-isometry", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err


def test_no_setting_passes_a_wrong_witness(monkeypatch):
    # -1/4 where the paper gives -1/3 fails the witness case, and no flag can
    # loosen its gate
    real = kahler.negative_plane_witness

    def three_quarters(tensor):
        witness = real(tensor)
        return dataclasses.replace(witness, value=0.75 * witness.value)

    monkeypatch.setattr(kahler, "negative_plane_witness", three_quarters)
    assert cli.main(["--suite", "kahler-curvature"]) == 1
    assert cli.main(["--suite", "kahler-curvature", "--tol.components=inf"]) == 2


def test_unknown_context_is_a_usage_error(capsys):
    err = _usage_error(["--suite", "s1-isometry", "--context", "nope"], capsys)
    assert "argument --context: invalid choice: 'nope'" in err
    assert "su2_u1" in err  # the choices are listed
    assert cli.parse_args(["--suite", "s1-isometry", "--context", "so3"]).context == "so3"
