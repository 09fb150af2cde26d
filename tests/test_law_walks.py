"""The fiber's nu2 and the factorizations the point and vertical laws make.

nu2 at every finite flag of a fiber agrees with the order of the point's
residue in each base mod p counted by repeated ModPPoly divmod, on the
benchmark's seed-7 `laws` slice and on the selftest populations; a vertical
law factors each base reduction once, and a point law factors no more than
its horizontal flags ask for.
"""

import importlib.util
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import arithsurf
from arithsurf import modp, selftest
from arithsurf.errors import ArithsurfError
from arithsurf.modp import ModPPoly
from arithsurf.surface import HORIZONTAL, SWAP, act, curves_through_point, points_on_vertical
from arithsurf.symbols import rank2_vertical

SLICE_SEED, SLICE_SIZE = 7, 600
# _factor_mod_p runs of the point laws of that slice while rank2_vertical
# still counted nu2 by ModPPoly divmod and factored nothing
PRIOR_POINT_RUNS = 85
# the acceptance suites' seed and the CLI's default
SELFTEST_SEEDS = (20260826, 42)


@pytest.fixture(scope="module")
def law_slice():
    """The point and vertical cases of the slice, and the benchmark's caller."""
    path = Path(__file__).resolve().parent.parent / "arithbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("arithbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pool = workloads.law_pool(arithsurf, workloads.Draws("laws", SLICE_SEED), SLICE_SIZE)
    call, _ = workloads.law_runner(arithsurf)
    return [case for case in pool if case.kind in ("point", "vertical")], call


def _selftest_cases(monkeypatch, seed):
    """The (kind, subject, f, g) that the point and vertical selftest suites
    verify at the seed, recorded instead of verified."""
    cases = []

    def recorder(kind):
        def record(subject, f, g, config=None):
            cases.append((kind, subject, f, g))
            return SimpleNamespace(verdict="pass", subject="", f="", g="")
        return record

    monkeypatch.setattr(selftest, "verify_point_law", recorder("point"))
    monkeypatch.setattr(selftest, "verify_vertical_law", recorder("vertical"))
    selftest.suite_point_law(200, seed, n_points=50)
    selftest.suite_vertical_law(200, seed)
    return cases


def _divmod_order(fn, p, point):
    """nu2 at a finite point of the fiber the old way: the multiplicity of
    the residue in each base mod p, by repeated divmod."""
    total = 0
    for b, e in fn.factors:
        bbar = ModPPoly.from_intpoly(b, p)
        while bbar.degree >= 1:
            bbar, rem = divmod(bbar, point.residue)
            if rem:
                break
            total += e
    return total


def test_fiber_nu2_matches_repeated_division(law_slice, monkeypatch):
    cases = [(c.kind, *c.data) for c in law_slice[0]]
    for seed in SELFTEST_SEEDS:
        cases += _selftest_cases(monkeypatch, seed)
    flags = orders = 0
    for kind, subject, f, g in cases:
        if kind == "vertical":
            p, points = subject, points_on_vertical(subject, f, g)
        else:
            p, points = subject.p, [subject]
        for point in points:
            if point.at_infinity:
                continue
            flags += 1
            for fn in (f, g):
                expected = _divmod_order(fn, p, point)
                assert rank2_vertical(fn, p, point)[1] == expected, (point, fn)
                orders += expected != 0
    assert flags > 2000 and orders > 500


def _count_runs(monkeypatch):
    runs = Counter()
    body = modp._factor_mod_p

    def factor(f, p):
        runs[f, p] += 1
        return body(f, p)

    monkeypatch.setattr(modp, "_factor_mod_p", factor)
    return runs


def test_vertical_law_factors_each_base_reduction_once(law_slice, monkeypatch):
    cases, call = law_slice
    runs = _count_runs(monkeypatch)
    checked = 0
    for case in cases:
        if case.kind != "vertical":
            continue
        p, f, g = case.data
        runs.clear()
        call(case)
        reductions = {ModPPoly.from_intpoly(b, p) for fn in (f, g) for b, _ in fn.factors}
        assert runs == Counter({(bbar, p): 1 for bbar in reductions if bbar.degree >= 1})
        checked += 1
    assert checked > 150


def test_point_law_factors_only_bases_through_the_point(law_slice, monkeypatch):
    cases, call = law_slice
    runs = _count_runs(monkeypatch)
    total = 0
    for case in cases:
        if case.kind != "point":
            continue
        point, f, g = case.data
        runs.clear()
        try:
            call(case)
        except ArithsurfError:
            pass
        # only the horizontal flags factor, each its own curve mod p, once,
        # also on the p-adic path; in the second chart at a point at infinity
        curves = [c for c in curves_through_point(point, f, g) if c.kind == HORIZONTAL]
        if point.at_infinity:
            curves = [act(SWAP, c) for c in curves]
        through = {ModPPoly.from_intpoly(c.h, point.p) for c in curves}
        assert set(runs.values()) <= {1}
        assert {bbar for bbar, _ in runs} <= through
        total += sum(runs.values())
    assert 0 < total <= PRIOR_POINT_RUNS
