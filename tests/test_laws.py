import hashlib
import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

import arithsurf
from arithsurf import symbols
from arithsurf.cli import main
from arithsurf.config import RunConfig, default_config
from arithsurf.errors import ArithsurfError, NonIrreducibleBase, ParseError, UnsupportedOrder
from arithsurf.laws import (
    LawReport,
    verify_horizontal_law,
    verify_point_law,
    verify_vertical_law,
)
from arithsurf.selftest import random_pair, random_point
from arithsurf.surface import parse_curve, parse_function, parse_point
from arithsurf.symbols import branch_decomposition

F = parse_function


def test_point_law_fixture():
    r = verify_point_law(parse_point("2:t+1"), F("1*(t^2+1)^1"), F("1*(t-1)^1"))
    assert r.verdict == "pass" and r.exact_sum == 0
    got = {(i["branch"], i["value"]) for i in r.items}
    assert got == {("V:2", 0), ("H:t-1", -1), ("H:t^2+1", 1)}


def test_point_law_at_fiber_infinity():
    # 2t-1 meets the infinity section over 2; the INF curve enters the sum
    r = verify_point_law(parse_point("2:inf"), F("1*(2*t-1)^1"), F("2"))
    assert r.verdict == "pass" and r.exact_sum == 0
    assert any(i["branch"] == "INF" for i in r.items)


def test_point_law_unsupported_is_inconclusive():
    r = verify_point_law(parse_point("2:t+1"), F("1*(2*t^2+t+1)^1"), F("3"))
    assert r.verdict == "inconclusive"
    assert "UnsupportedOrder" in r.reason


def test_point_law_at_a_non_maximal_flag_passes():
    # Z[t]/(t^2+3) is not maximal at 2; the fiber reads -2 (nu1(2) = 1 against
    # the order 2 of (t+1)^2) and the inert branch of the curve +2
    r = verify_point_law(parse_point("2:t+1"), F("1*(t^2+3)^1"), F("2"))
    assert r.verdict == "pass" and r.exact_sum == 0
    assert [(i["branch"], i["value"]) for i in r.items] == [("V:2", -2), ("H:t^2+3", 2)]
    assert main(["verify", "point", "--point", "2:t+1", "--f", "1*(t^2+3)^1",
                 "--g", "2"]) == 0


def test_point_law_reads_an_eisenstein_curve_at_one_least_digit():
    # t^3-3t^2-3t+3 is Eisenstein at 3; one digit cannot read its constant
    # term mod 9, and the factorization still gets the digits the discriminant
    # asks for
    pt, f, g = parse_point("3:t"), F("1*(t^3-3*t^2-3*t+3)^1"), F("3")
    r = verify_point_law(pt, f, g, config=RunConfig(start_precision=1))
    assert r.verdict == "pass" and r.exact_sum == 0
    branches = branch_decomposition(parse_curve("H:t^3-3*t^2-3*t+3"), pt, f, g)
    assert [(b.e, b.f) for b in branches] == [(3, 1)]


def test_start_precision_below_one_is_refused():
    with pytest.raises(ParseError, match="start_precision"):
        verify_point_law(parse_point("3:t"), F("1*(t^3-3*t^2-3*t+3)^1"), F("3"),
                         config=RunConfig(start_precision=0))


def test_vertical_law_fixture():
    r = verify_vertical_law(5, F("5"), F("1*(t^2+2)^1"))
    assert r.verdict == "pass" and r.exact_sum == 0
    got = [(i["place"], i["weighted"]) for i in r.items]
    assert ("5:t^2+2", 2) in got and ("5:inf", -2) in got


def test_vertical_law_weights_use_degrees():
    r = verify_vertical_law(3, F("3"), F("1*(t^2+1)^1"))
    # t^2+1 inert mod 3: one degree-2 point with weight 2, balanced at infinity
    degs = {i["place"]: i["deg"] for i in r.items}
    assert degs["3:t^2+1"] == 2
    assert r.exact_sum == 0


def test_horizontal_law_split_fixture():
    r = verify_horizontal_law(parse_curve("H:t"), F("1*(t)^1"), F("2"))
    assert r.verdict == "pass"
    assert r.finite_part == {"2": 1}
    # finite part log 2 is cancelled exactly by the real place at theta = 0
    assert abs(mp.mpf(r.numeric_sum)) == 0


def test_horizontal_law_ramified_fixture():
    """t^2+1: the finite contribution +log 2 at the ramified prime is killed
    by the conjugate archimedean pair at theta = +-i (each -log sqrt(2))."""
    r = verify_horizontal_law(
        parse_curve("H:t^2+1"), F("1*(t^2+1)^1"), F("1*(t-1)^1")
    )
    assert r.verdict == "pass"
    assert r.finite_part == {"2": 1}
    arch = [i for i in r.items if i["log_base"] == "e"]
    assert len(arch) == 1 and arch[0]["weight"] == 2


def test_horizontal_law_infinity_section():
    r = verify_horizontal_law(parse_curve("INF"), F("1*(t)^1"), F("2"))
    assert r.verdict in ("pass", "inconclusive")
    if r.verdict == "pass":
        assert r.note is not None  # second chart marker


def test_report_schema_and_json():
    r = verify_horizontal_law(parse_curve("H:t^2-2"), F("10 * (t)^1"), F("3 * (t-1)^2"))
    doc = r.to_dict()
    for key in ("law", "subject", "f", "g", "items", "verdict", "config"):
        assert key in doc
    for item in doc["items"]:
        assert {"place", "branch", "value", "log_base"} <= set(item)
    json.dumps(doc)  # serializable


def test_report_prints_its_fields_in_a_fixed_order():
    # the text format prints the keys in this order; a None field is left out
    order = ["law", "subject", "f", "g", "items", "verdict", "exact_sum", "numeric_sum",
             "finite_part", "reason", "note", "config"]
    full = LawReport(*order[:4], items=[], verdict="pass", exact_sum=0, numeric_sum="0",
                     finite_part={}, reason="r", note="n", config={})
    assert list(full.to_dict()) == order
    r = verify_horizontal_law(parse_curve("INF"), F("1*(2*t-1)^1"), F("2"))
    assert list(r.to_dict()) == ["law", "subject", "f", "g", "items", "verdict",
                                 "numeric_sum", "finite_part", "note", "config"]


def test_randomized_all_three_laws():
    rng = random.Random(20260826)
    cfg = default_config()
    curves = [parse_curve(s) for s in ("H:t", "H:t-2", "H:t^2+1", "H:t^2-2", "H:t^3-2")]
    for i in range(30):
        f, g = random_pair(rng)
        rp = verify_point_law(random_point(rng), f, g, config=cfg)
        assert rp.verdict in ("pass", "inconclusive")
        rv = verify_vertical_law((2, 3, 5, 7, 101)[i % 5], f, g, config=cfg)
        assert rv.verdict == "pass"
        rh = verify_horizontal_law(curves[i % 5], f, g, config=cfg)
        assert rh.verdict in ("pass", "inconclusive")
        if rh.verdict == "pass":
            assert abs(mp.mpf(rh.numeric_sum)) <= cfg.tolerance


def test_swap_f_g_still_sums_to_zero():
    rng = random.Random(5150)
    for _ in range(10):
        f, g = random_pair(rng)
        pt = random_point(rng)
        a = verify_point_law(pt, f, g)
        b = verify_point_law(pt, g, f)
        if a.verdict == "pass" and b.verdict == "pass":
            assert a.exact_sum == 0 and b.exact_sum == 0


def test_horizontal_law_support_prime_beyond_point_coordinates():
    # 2^63 + 29 is prime: it lies in the support of f but cannot be a
    # closed-point coordinate, so the law is inconclusive, not a usage error
    big = 2**63 + 29
    r = verify_horizontal_law(parse_curve("H:t+1"), F(str(big)), F("1*(t)^1"))
    assert r.verdict == "inconclusive" and r.reason.startswith("UnsupportedOrder")
    code = main(["verify", "horizontal", "--curve", "H:t+1", "--f", str(big),
                 "--g", "1*(t)^1"])
    assert code == 4


def test_point_law_reducible_base_at_linear_flag():
    # t^5-1 passes the degree <= 4 spot check but vanishes at the root of t-1
    point, f, g = parse_point("5:t+4"), F("1*(t-1)^1"), F("1*(t^5-1)^1")
    with pytest.raises(NonIrreducibleBase):
        verify_point_law(point, f, g)
    # without asserts (python -O) the same input must still fail fast
    cmd = [sys.executable, "-O", "-m", "arithsurf.cli", "verify", "point",
           "--point", "5:t+4", "--f", "1*(t-1)^1", "--g", "1*(t^5-1)^1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    assert done.returncode == 2 and "NonIrreducibleBase" in done.stderr


def test_horizontal_law_refuses_vertical_curves():
    with pytest.raises(UnsupportedOrder, match="horizontal curve"):
        verify_horizontal_law(parse_curve("V:5"), F("2"), F("3"))


# sha256 over the first 600 cases of the benchmark's `laws` pool, one line per
# case: the sorted JSON of its report, or its typed refusal
LAW_REPORT_DIGESTS = {
    1: "884c88ef1c60528f3455995c44a995da82a530743fcf1768ebc9655074d812e1",
    7: "e87d50f5127cebd7429c2a33b7b9005bf3b538255216c45c013c11020082f3ea",
}


def _law_report_digest(seed, size=600):
    """The digest that LAW_REPORT_DIGESTS pins for the seed."""
    path = Path(__file__).resolve().parent.parent / "arithbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("arithbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    call, judge = workloads.law_runner(arithsurf)
    digest = hashlib.sha256()
    for case in workloads.law_pool(arithsurf, workloads.Draws("laws", seed), size):
        try:
            out = judge(case, call(case))[1]
        except ArithsurfError as exc:
            out = f"{type(exc).__name__}: {exc}"
        digest.update(out.encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(LAW_REPORT_DIGESTS))
def test_law_reports_match_their_digest(seed, monkeypatch):
    """A change meant to move no output leaves these digests alone."""
    calls, fiber_counts, infinity_counts = [], [], []
    real = symbols.padic_factor
    monkeypatch.setattr(symbols, "padic_factor", lambda *a, **k: calls.append(a) or real(*a, **k))
    rank2, leading = symbols.rank2_vertical, symbols._leading_valuation

    def count_fiber(fn, p, point):
        if point.at_infinity:
            fiber_counts.append(fn)
        return rank2(fn, p, point)

    def count_infinity(fn, p):
        infinity_counts.append(fn)
        return leading(fn, p)

    monkeypatch.setattr(symbols, "rank2_vertical", count_fiber)
    monkeypatch.setattr(symbols, "_leading_valuation", count_infinity)
    got = _law_report_digest(seed)
    assert len(calls) > 20  # the slice reaches the p-adic path
    # and both counts at a point at infinity, one tame symbol d != 1 per flag
    assert len(fiber_counts) > 20 and len(infinity_counts) > 10
    assert got == LAW_REPORT_DIGESTS[seed], (
        f"the laws reports at seed {seed} moved; if that is meant, re-derive the digest "
        "with PYTHONPATH=src python -c \"import sys; sys.path.insert(0, 'tests'); "
        f"from test_laws import _law_report_digest as d; print(d({seed}))\" "
        "and put it in LAW_REPORT_DIGESTS")
