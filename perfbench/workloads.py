"""The benchmark's three workloads: contexts, seeded inputs, operations and
result checks.

A workload runs in rounds, each a fixed batch of whole operations.
``round_ops(r)`` returns the r-th round as (label, call, check) triples:
``call()`` runs one operation through the library's public functions and
``check(result)`` says whether its result is correct.  Operations whose
label is in ``known_faults`` fail because of a known fault of the library;
they count as failed but leave the run correct.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np
import scipy.linalg

from tubegeom import cli, kahler, liealg, majet, nahm
from tubegeom import curvature as cv

import checks
from spans import NullTracer

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

GAUGE_CONTEXTS = ("su2", "su3_u2", "so4", "torus2")
GAUGE_GRID = 2000
GAUGE_POOL = 4  # seeded pairs per context
TORUS_SEED = 2024  # torus2 pairs are fixed: their failures must not depend on --seed
JET_DIMS = (2, 3, 4)
JET_POOL = 2  # seeded tensors per dimension
JET_POINTS = 400
JET_EPS = np.geomspace(1e-2, 1e-1, 7)
CLI_CONTEXTS = ("su2_u1", "su3_u2")


def _seeded_pair(ctx, rng):
    a = liealg.group_exp(ctx, ctx.random_element(rng, 1.2))
    v = ctx.random_element(rng, 2.0)
    return a, v, a.matrix @ scipy.linalg.expm(1j * v)


def gauge_inputs(seed):
    """Seeded (a, v, a exp(iv)) pairs per context; torus2 from a fixed seed."""
    rng = np.random.default_rng(seed)
    pairs = {}
    for name in GAUGE_CONTEXTS:
        ctx = liealg.builtin_context(name)
        source = np.random.default_rng(TORUS_SEED) if name == "torus2" else rng
        pairs[name] = [_seeded_pair(ctx, source) for _ in range(GAUGE_POOL)]
    return pairs


class GaugeRoundtrip:
    """Each operation is one adapted_roundtrip at N = 2000; a round rotates
    twice through the four contexts."""

    known_faults = {"torus2"}

    def __init__(self, seed):
        self.tracer = NullTracer()
        self.pairs = gauge_inputs(seed)

    def round_ops(self, r):
        ops = []
        for slot in (2 * r, 2 * r + 1):
            for name in GAUGE_CONTEXTS:
                a, v, want = self.pairs[name][slot % GAUGE_POOL]
                ops.append((name, self._call(name, a, v), self._check(want)))
        return ops

    def _call(self, name, a, v):
        def call():
            with self.tracer.span(f"nahm.adapted_roundtrip.{name}"):
                return nahm.adapted_roundtrip(a, v, GAUGE_GRID)
        return call

    @staticmethod
    def _check(want):
        return lambda got: checks.roundtrip_ok(got.matrix, want, 1e-6)

    def final_checks(self):
        out = {}
        for name in GAUGE_CONTEXTS:
            if name in self.known_faults:
                continue
            a = self.pairs[name][0][0]
            got = nahm.adapted_roundtrip(a, np.zeros_like(a.matrix), GAUGE_GRID)
            out[f"zero-vector.{name}"] = checks.roundtrip_ok(got.matrix, a.matrix, 1e-12)
        ctx = liealg.builtin_context("su2")
        a, v, _ = self.pairs["su2"][0]
        c = ctx.coefficients(v)
        v = ctx.reconstruct(1.8 * c / np.linalg.norm(c))
        want = a.matrix @ scipy.linalg.expm(1j * v)
        errs = [np.linalg.norm(nahm.adapted_roundtrip(a, v, n).matrix - want)
                for n in (32, 64, 128, 256)]
        out["order.su2"] = checks.order_ok(errs, 3.8, 4.2)
        return out


def jet_inputs(seed):
    rng = np.random.default_rng(seed)
    tensors = {n: [cv.random_admissible(n, rng) for _ in range(JET_POOL)]
               for n in JET_DIMS}
    points = {n: rng.uniform(-1.0, 1.0, size=(JET_POINTS, 2 * n)) for n in JET_DIMS}
    return tensors, points


class JetMA:
    """Each operation (and round) runs the jet pipeline at n = 2, 3, 4."""

    known_faults = set()

    def __init__(self, seed):
        self.tracer = NullTracer()
        self.tensors, self.points = jet_inputs(seed)

    def round_ops(self, r):
        chosen = {n: self.tensors[n][r % JET_POOL] for n in JET_DIMS}
        return [("jet-round", lambda: self._pipeline(chosen), self._check(chosen))]

    def _pipeline(self, chosen):
        span = self.tracer.span
        out = {}
        for n, R in chosen.items():
            with span(f"majet.potential_expansion.n{n}"):
                rho = majet.potential_expansion(R)
            with span(f"majet.ma_residual.n{n}"):
                res = majet.ma_residual(rho)
            with span(f"jets.evaluate.n{n}"):
                sups = [np.max(np.abs(res.evaluate(self.points[n] * eps)))
                        for eps in JET_EPS]
            with span(f"kahler.kahler_curvature_from_jet.n{n}"):
                K = kahler.kahler_curvature_from_jet(rho)
            with span(f"majet.solve_quartic_coefficients.n{n}"):
                q = majet.solve_quartic_coefficients(R)
            out[n] = (res, sups, K, q)
        return out

    @staticmethod
    def _check(chosen):
        def check(out):
            for n, (res, sups, K, q) in out.items():
                if not (checks.within(checks.low_degree_coeffs(res, 5), 1e-12)
                        and checks.slope_ok(JET_EPS, sups, 4.5)
                        and checks.kahler_ok(K.components, chosen[n].components, 1e-10)
                        and checks.quartic_ok(q.values.values(), 1e-9)):
                    return False
            return len(out) == len(JET_DIMS)
        return check

    def final_checks(self):
        return {}


class CliSuites:
    """Each operation (and round) is ``cli.main --suite all`` on su2_u1,
    then on su3_u2, at the CLI defaults."""

    known_faults = set()

    def __init__(self, seed):
        self.tracer = NullTracer()
        self.dirs = {}
        for name in CLI_CONTEXTS:
            self.dirs[name] = os.path.join(run_dir(), f"cli-{name}")
            os.makedirs(self.dirs[name], exist_ok=True)
        self.reports = {}  # report.json bytes of the warm-up pass

    def round_ops(self, r):
        return [("cli-pass", self._pass, self._check)]

    def _pass(self):
        codes = {}
        for name in CLI_CONTEXTS:
            argv = ["--suite", "all", "--context", name, "--out", self.dirs[name]]
            with self.tracer.span(f"cli.all.{name}"), \
                    contextlib.redirect_stdout(io.StringIO()):
                codes[name] = cli.main(argv)
        return codes

    def _check(self, codes):
        ok = True
        for name in CLI_CONTEXTS:
            path = os.path.join(self.dirs[name], "report.json")
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
                os.remove(path)  # the next pass must write its own report
            except FileNotFoundError:
                return False
            reference = self.reports.setdefault(name, data)
            ok = ok and codes[name] == 0 and checks.cli_report_ok(data) \
                and data == reference
        return ok

    def final_checks(self):
        return {}


WORKLOADS = {"gauge-roundtrip": GaugeRoundtrip, "jet-ma": JetMA,
             "cli-suites": CliSuites}


def run_dir():
    path = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path
