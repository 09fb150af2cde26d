"""The per-verification memo: each local factorization is computed once
inside a law verification, never reused outside one, and changes no answer."""

import random
from collections import Counter

import pytest

from arithsurf import memo, modp, padic, surface, symbols
from arithsurf.errors import NonIrreducibleBase, UnsupportedOrder, ZeroPolynomial
from arithsurf.intpoly import parse_intpoly, resultant
from arithsurf.laws import verify_horizontal_law, verify_point_law, verify_vertical_law
from arithsurf.padic import vp
from arithsurf.selftest import HORIZONTAL_CURVES, VERTICAL_PRIMES, random_pair, random_point
from arithsurf.surface import (
    ClosedPoint,
    curve_resultant,
    parse_curve,
    parse_function,
    points_on_horizontal,
    points_on_vertical,
    prime_support_on_horizontal,
)

F = parse_function
# t^4+1 has two points over 3, two over 5 and four over 257
SPLIT = (parse_curve("H:t^4+1"), F("3*(t^4+1)^1"), F("1*(t^2+2)^1*(t+4)^-1"))
# t^3-t-2 = t (t+1)^2 mod 2 is not squarefree: both of its points over 2 take
# the p-adic factorization; the support is {2, 3, 13}
CLUSTERED = (parse_curve("H:t^3-t-2"), F("3*(t^3-t-2)^1"), F("1*(t+1)^1*(t^2+3)^-1"))
# 2t^2+4t+5 = 2 (t+1)^2 mod 3, and its points over 2 lie at infinity, where
# the second chart's 5s^2+4s+2 = s^2 mod 2: non-monic and not squarefree mod
# p at both, so both points are factored over Z_p; the support is {2, 3, 7}
NON_MONIC = (parse_curve("H:2*t^2+4*t+5"), F("1*(2*t^2+4*t+5)^1"), F("1*(t-2)^1"))


def _count_bodies(monkeypatch):
    """Count the runs of the factorization bodies, by their arguments."""
    runs = Counter()
    factor_body, padic_body = modp._factor_mod_p, padic._padic_factor

    def factor(f, p):
        runs["factor_mod_p", f, p] += 1
        return factor_body(f, p)

    def lift(h, p, N):
        runs["padic_factor", h, p, N] += 1
        return padic_body(h, p, N)

    monkeypatch.setattr(modp, "_factor_mod_p", factor)
    monkeypatch.setattr(padic, "_padic_factor", lift)
    return runs


def test_horizontal_law_factors_once_per_prime(monkeypatch):
    runs = _count_bodies(monkeypatch)
    asked = Counter()
    public = padic.padic_factor

    def ask(h, p, N=padic.DEFAULT_PRECISION):
        asked[h, p, N] += 1
        return public(h, p, N=N)

    monkeypatch.setattr(symbols, "padic_factor", ask)
    report = verify_horizontal_law(*CLUSTERED)
    assert report.verdict == "pass" and report.finite_part == {"2": -1, "13": -1}
    assert runs and set(runs.values()) == {1}
    h, f, g = CLUSTERED[0].h, *CLUSTERED[1:]
    # both points over 2 ask for the one N of the prime: it reads every base
    N = 1 + max(vp(resultant(h, b), 2) for fn in (f, g) for b, _ in fn.factors if b != h)
    assert asked[h, 2, N] == 2 and len({key[1] for key in asked}) == len(asked)
    assert runs["padic_factor", h, 2, N] == 1
    assert {key[2] for key in runs if key[0] == "factor_mod_p"} == {2, 3, 13}


def test_unramified_points_take_no_p_adic_factorization(monkeypatch):
    runs = _count_bodies(monkeypatch)
    # each base of SPLIT meets at most one point of t^4+1 over each prime
    report = verify_horizontal_law(*SPLIT)
    assert report.verdict == "pass" and report.finite_part == {"5": 2, "257": -1}
    assert not [key for key in runs if key[0] == "padic_factor"]
    assert {key[2] for key in runs if key[0] == "factor_mod_p"} == {3, 5, 257}
    # t^2+1 = (t+1)^2 mod 2: the point over 2 is still factored over Z_2, for
    # nu2(t-1), which the curve's exponent in f multiplies
    report = verify_horizontal_law(parse_curve("H:t^2+1"), F("2*(t^2+1)^1"), F("1*(t-1)^1"))
    assert report.verdict == "pass"
    assert [key[2] for key in runs if key[0] == "padic_factor"] == [2]


def test_a_non_monic_curve_is_factored_as_itself(monkeypatch):
    runs = _count_bodies(monkeypatch)
    report = verify_horizontal_law(*NON_MONIC)
    assert report.verdict == "pass" and report.finite_part == {"2": -1, "3": 1, "7": 1}
    # at each prime the curve of the point's chart is reduced once and that
    # same polynomial is factored over Z_p once: nothing else
    h, s = NON_MONIC[0].h, parse_intpoly("5*t^2+4*t+2")
    assert set(runs.values()) == {1}
    assert {key[:3] for key in runs} == {
        ("factor_mod_p", modp.ModPPoly.from_intpoly(s, 2), 2), ("padic_factor", s, 2),
        ("factor_mod_p", modp.ModPPoly.from_intpoly(h, 3), 3), ("padic_factor", h, 3),
        ("factor_mod_p", modp.ModPPoly.from_intpoly(h, 7), 7),
    }


def test_a_resultant_is_taken_once_per_unordered_pair(monkeypatch):
    calls = []
    monkeypatch.setattr(surface, "resultant", lambda a, b: calls.append(1) or resultant(a, b))
    P = parse_intpoly
    # odd x odd degrees, where Res(b, h) = -Res(h, b), and even x odd
    pairs = [(P("t^3+t+1"), P("2*t+3")), (P("t^3+t+1"), P("t^3-2")),
             (P("t^2+1"), P("3*t^3+t-1")), (P("t^2+1"), P("t-5")), (P("t^4+1"), P("t^2+3"))]
    for h, b in pairs:
        for x, y in ((h, b), (b, h)):
            calls.clear()
            both = memo.verification(lambda: (curve_resultant(x, y), curve_resultant(y, x)))()
            assert both == (resultant(x, y), resultant(y, x)) and len(calls) == 1
    assert any(resultant(h, b) == -resultant(b, h) for h, b in pairs)
    # a shared factor is refused with each call's own curve and base named
    h, b = P("t^2+3*t+2"), P("t+1")

    def refusals():
        out = []
        for x, y in ((h, b), (b, h)):
            with pytest.raises(NonIrreducibleBase) as info:
                curve_resultant(x, y)
            out.append(str(info.value))
        return out

    assert memo.verification(refusals)() == [
        f"base {y} shares a factor with the curve H:{x}, so one of them is reducible"
        for x, y in ((h, b), (b, h))]


def test_inconclusive_verification_stops_factoring_at_the_failing_prime(monkeypatch):
    runs = _count_bodies(monkeypatch)
    # lc = 2: the first point over 2 is inconclusive; 3, 5 and 7 wait behind it.
    # The curve is a base of f, so its nu2(g) is needed at every point.
    curve = parse_curve("H:2*t^2+t+1")
    f, g = F("15*(2*t^2+t+1)^1"), F("7 * (t-1)^1")
    report = verify_horizontal_law(curve, f, g)
    assert report.verdict == "inconclusive" and "p = 2 divides" in report.reason
    assert {key[2] for key in runs if key[0] == "factor_mod_p"} == {2}
    assert prime_support_on_horizontal(curve, f, g) == [2, 3, 5, 7]


def test_nothing_is_reused_outside_a_verification(monkeypatch):
    runs = _count_bodies(monkeypatch)
    h = parse_intpoly("t^4+1")
    for _ in range(2):
        modp.factor_mod_p(h, 257)
        padic.padic_factor(h, 257)
    # two calls of its own and two from inside padic_factor
    assert runs["factor_mod_p", modp.ModPPoly(257, h.coeffs), 257] == 4
    assert runs["padic_factor", h, 257, padic.DEFAULT_PRECISION] == 2
    assert memo._MEMO.get() is None


def test_factor_lists_are_fresh_and_errors_are_not_stored(monkeypatch):
    runs = _count_bodies(monkeypatch)
    h = parse_intpoly("t^4+1")

    @memo.verification
    def verify():
        first = modp.factor_mod_p(h, 257)[1]
        first.clear()
        second = modp.factor_mod_p(h, 257)[1]
        for _ in range(2):
            with pytest.raises(ZeroPolynomial):
                modp.factor_mod_p(parse_intpoly("5*t"), 5)
        return second

    assert len(verify()) == 4
    assert runs["factor_mod_p", modp.ModPPoly(257, h.coeffs), 257] == 1
    assert runs["factor_mod_p", modp.ModPPoly(5), 5] == 2


def test_memo_is_reset_after_a_verification_that_raises(monkeypatch):
    runs = _count_bodies(monkeypatch)
    h = parse_intpoly("t^4+1")

    @memo.verification
    def factor_then_fail():
        modp.factor_mod_p(h, 257)
        assert memo._MEMO.get()
        raise UnsupportedOrder("planted")

    with pytest.raises(UnsupportedOrder, match="planted"):
        factor_then_fail()
    assert memo._MEMO.get() is None
    with pytest.raises(UnsupportedOrder):
        verify_horizontal_law(parse_curve("V:5"), F("2"), F("3"))
    assert memo._MEMO.get() is None
    modp.factor_mod_p(h, 257)
    assert runs["factor_mod_p", modp.ModPPoly(257, h.coeffs), 257] == 2


def _population(seed, cases):
    """Seeded point, vertical and horizontal law instances."""
    rng = random.Random(seed)
    # beyond the selftest curves: several points over a prime, a non-monic
    # curve (factored over Z_p as itself) and a cubic
    extra = ("H:t^4+1", "H:5*t^2+t+3", "H:t^3+t+1")
    curves = [parse_curve(s) for s in HORIZONTAL_CURVES + extra]
    out = []
    for i in range(cases):
        out.append((verify_point_law, random_point(rng), *random_pair(rng)))
        out.append((verify_vertical_law, VERTICAL_PRIMES[i % len(VERTICAL_PRIMES)],
                    *random_pair(rng)))
        out.append((verify_horizontal_law, curves[i % len(curves)], *random_pair(rng)))
    return out + [(verify_horizontal_law, *SPLIT), (verify_horizontal_law, *CLUSTERED)]


@pytest.mark.parametrize("seed", [5, 6])
def test_memo_changes_no_report(seed):
    verdicts = Counter()
    for verify, subject, f, g in _population(seed, 60):
        shared = verify(subject, f, g).to_dict()
        alone = verify.__wrapped__(subject, f, g).to_dict()  # no memo in scope
        assert shared == alone
        verdicts[shared["verdict"]] += 1
    assert verdicts["pass"] > 120 and verdicts["fail"] == 0


def test_factor_points_equal_checked_points():
    rng = random.Random(8)
    curves = [parse_curve(s) for s in HORIZONTAL_CURVES] + [SPLIT[0]]
    seen = 0
    for i in range(30):
        f, g = random_pair(rng)
        points = points_on_vertical(VERTICAL_PRIMES[i % len(VERTICAL_PRIMES)], f, g)
        try:
            points += list(points_on_horizontal(curves[i % len(curves)], f, g))
        except UnsupportedOrder:
            pass
        for pt in points:
            checked = ClosedPoint(pt.p, pt.residue)
            assert checked == pt and hash(checked) == hash(pt)
            assert checked.label() == pt.label() and checked.sort_key() == pt.sort_key()
            seen += not pt.at_infinity
    assert seen > 100
