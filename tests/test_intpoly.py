import random
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from arithsurf import intpoly
from arithsurf.errors import NotExact, ZeroPolynomial
from arithsurf.intpoly import (
    IntPoly,
    discriminant,
    format_intpoly,
    parse_intpoly,
    pseudo_rem,
    rational_roots,
    resultant,
    spot_check_irreducible,
)
from arithsurf.modp import ModPPoly
from arithsurf.qlinalg import det

small_polys = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=5
).map(IntPoly).filter(lambda h: not h.is_zero)


def test_basic_arithmetic():
    a = parse_intpoly("t^2+1")
    b = parse_intpoly("t-1")
    assert a * b == parse_intpoly("t^3 - t^2 + t - 1")
    assert a + b == parse_intpoly("t^2 + t")
    assert (a - a).is_zero
    assert a.evaluate(2) == 5
    assert a.evaluate(Fraction(1, 2)) == Fraction(5, 4)


def test_format_reads_coefficients_alone():
    # a residue prints as its lift into [0, p), with no IntPoly built
    for cs in ((3, 0, 1), (0, 4, 4), (6,), (0, 1)):
        assert format_intpoly(ModPPoly(7, cs)) == format_intpoly(IntPoly(cs))
    assert format_intpoly(IntPoly([-5, 0, -1, 12])) == "12t^3-t^2-5"


def test_parse_format_round_trip():
    for s in ("t", "t-1", "2*t-1", "t^3-2", "-t^2+3*t-5", "7"):
        h = parse_intpoly(s)
        assert parse_intpoly(format_intpoly(h)) == h


@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=9).map(IntPoly))
@settings(max_examples=150, deadline=None)
def test_parse_format_round_trip_on_random_polynomials(h):
    assert parse_intpoly(format_intpoly(h)) == h


def _resultant_sylvester(a, b):
    """Res(a, b) as the Sylvester determinant: the independent slow route."""
    m, n = a.degree, b.degree
    if m == 0:
        return a.lc**n
    if n == 0:
        return b.lc**m
    ac, bc = list(reversed(a.coeffs)), list(reversed(b.coeffs))
    rows = [[0] * i + ac + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + bc + [0] * (m - 1 - i) for i in range(m)]
    return int(det(rows))  # integral: an integer matrix


@given(small_polys, small_polys)
@settings(max_examples=150, deadline=None)
def test_resultant_matches_sylvester(a, b):
    assert resultant(a, b) == _resultant_sylvester(a, b)


def test_linear_resultant_matches_sylvester():
    """The closed form with a linear side, in both argument orders, with
    negative leading coefficients and coefficients up to 10^30."""
    rng = random.Random(30)
    for bound in (9, 10**6, 10**30):
        for _ in range(40):
            lin = IntPoly([rng.randint(-bound, bound), rng.choice((-1, 1)) * rng.randint(1, bound)])
            other = IntPoly([rng.randint(-bound, bound) for _ in range(rng.randint(1, 6))]
                            + [rng.choice((-1, 1)) * rng.randint(1, bound)])
            for a, b in ((lin, other), (other, lin)):
                assert resultant(a, b) == _resultant_sylvester(a, b), (a, b)
    # Res(t+4, 2t^3+4t^2+7t+9) = 2(-4)^3 + 4(-4)^2 + 7(-4) + 9 = -83
    a, b = parse_intpoly("t+4"), parse_intpoly("2t^3+4t^2+7t+9")
    assert resultant(a, b) == _resultant_sylvester(a, b) == -83
    assert resultant(b, a) == 83  # (-1)^(1*3) Res(a, b)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=80, deadline=None)
def test_resultant_multiplicative(a, b, c):
    # Res(ab, c) = Res(a,c) Res(b,c)
    assert resultant(a * b, c) == resultant(a, c) * resultant(b, c)


def test_resultant_shared_root_vanishes():
    a = parse_intpoly("t-3") * parse_intpoly("t+1")
    b = parse_intpoly("t-3") * parse_intpoly("t^2+1")
    assert resultant(a, b) == 0


def test_discriminant_fixtures():
    assert discriminant(parse_intpoly("t^2+1")) == -4
    assert discriminant(parse_intpoly("t^2-5")) == 20
    assert discriminant(parse_intpoly("t^3-2")) == -108


def test_reverse_and_scale():
    h = parse_intpoly("2*t^3 + 3*t + 5")
    # substitute(a, e, c, d) = (c t + d)^deg * h((a t + e)/(c t + d))
    assert h.substitute(0, 1, 1, 0) == parse_intpoly("5*t^3 + 3*t^2 + 2")  # reversal
    assert h.substitute(1, 0, 0, 2) == parse_intpoly("2*t^3 + 12*t + 40")  # 2^3 h(t/2)
    assert h.substitute(1, 1, 0, 1) == parse_intpoly("2*t^3+6*t^2+9*t+10")  # h(t+1)
    # (t+1)^3 h((2t-1)/(t+1)) = 2(2t-1)^3 + 3(2t-1)(t+1)^2 + 5(t+1)^3; h(-1) = 0
    # and (2t-1)/(t+1) = -1 at t = 0
    assert h.substitute(2, -1, 1, 1) == parse_intpoly("27*t^3 + 27*t")
    assert IntPoly().substitute(0, 1, 1, 0).is_zero


def test_content_primitive():
    h = parse_intpoly("6*t^2 - 4*t + 2")
    c, prim = h.content_primitive()
    assert c == 2 and prim == parse_intpoly("3*t^2 - 2*t + 1")
    assert parse_intpoly("-4*t").content_primitive()[0] == -4


def test_rational_roots():
    h = parse_intpoly("2*t-1") * parse_intpoly("t+3") * parse_intpoly("t^2+1")
    assert set(rational_roots(h)) == {Fraction(1, 2), Fraction(-3)}


def _fraction_rational_roots(h):
    """Every candidate +-s/q built as a Fraction and evaluated."""
    roots = []
    k = 0
    while h[k] == 0:
        k += 1
    if k > 0:
        roots.append(Fraction(0))
        h = IntPoly(h.coeffs[k:])
    if h.degree == 0:
        return roots
    tops = [s for s in range(1, abs(h[0]) + 1) if h[0] % s == 0]
    bottoms = [q for q in range(1, abs(h.lc) + 1) if h.lc % q == 0]
    for s in tops:
        for q in bottoms:
            for cand in (Fraction(s, q), Fraction(-s, q)):
                if cand not in roots and h.evaluate(cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def test_rational_roots_match_fraction_evaluation():
    rng = random.Random(11)
    for _ in range(200):
        h = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(0, 3))] + [rng.randint(1, 6)])
        for _ in range(rng.randint(0, 3)):  # planted roots s/q, some repeated
            h = h * IntPoly([-rng.randint(-8, 8), rng.randint(1, 8)])
        if h.is_zero:
            continue
        assert rational_roots(h) == _fraction_rational_roots(h), h


def test_spot_check_irreducible():
    for s in ("t", "t-5", "t^2+1", "t^2-2", "t^3-2", "2*t-1", "t^4+1"):
        assert spot_check_irreducible(parse_intpoly(s))
    for s in ("t^2-1", "t^2+3*t+2", "t^3-t", "4*t^2-1"):
        assert not spot_check_irreducible(parse_intpoly(s))
    # irreducibility is judged on the primitive part; content is the unit's job
    assert spot_check_irreducible(parse_intpoly("2*t^2+2"))


def test_spot_check_solves_for_b_when_the_system_is_singular():
    # a*g = c*e leaves b on a quadratic; large coefficients used to mean a
    # scan over every b up to their size
    for k in (6, 9, 30):
        n = 10**k
        h = IntPoly([1, n, n, n, 1])
        start = time.perf_counter()
        assert spot_check_irreducible(h)
        assert time.perf_counter() - start < 1, k
    n = 10**9
    assert not spot_check_irreducible(IntPoly([1, n + 1, n + 2, n + 1, 1]))  # (t^2+nt+1)(t^2+t+1)


def _quadratic(rng):
    return IntPoly([rng.randint(-9, 9) or 1, rng.randint(-30, 30), rng.randint(1, 6)])


def _random_quartics(rng, count):
    """Dense quartics, products of two quadratics, and products
    (a t^2 + b t + c)(k a t^2 + f t + k c), where a*g = c*e."""
    out = []
    for _ in range(count):
        c, b, a = _quadratic(rng).coeffs
        k = rng.choice((-3, -1, 1, 2))
        out.append(IntPoly([rng.randint(-50, 50) for _ in range(4)] + [rng.randint(1, 9)]))
        out.append(_quadratic(rng) * _quadratic(rng))
        out.append(IntPoly([c, b, a]) * IntPoly([k * c, rng.randint(-30, 30), k * a]))
    return out


def test_spot_check_matches_sympy_on_quartics():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    cases = [parse_intpoly("t^2+3*t+1") * parse_intpoly("t^2+5*t+1")]
    cases += _random_quartics(random.Random(4), 150)
    verdicts = []
    for h in cases:
        _, factors = sympy.factor_list(sum(c * t**i for i, c in enumerate(h.coeffs)), t)
        irreducible = len(factors) == 1 and factors[0][1] == 1
        assert spot_check_irreducible(h) == irreducible, h
        verdicts.append(irreducible)
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_zero_poly_guard():
    with pytest.raises(ZeroPolynomial, match="no leading coefficient"):
        IntPoly(()).lc


# -- answer guards, typed so that python -O keeps them ---------------------------
# Each guard holds for every IntPoly input; a planted fault reaches it.

P = parse_intpoly


def test_pseudo_rem_refuses_a_divisor_whose_top_term_it_cannot_kill():
    # a divisor-like value whose stated lc is not its top coefficient
    b = SimpleNamespace(is_zero=False, degree=1, lc=2, coeffs=(1, 3))
    with pytest.raises(NotExact, match="leading term"):
        pseudo_rem(P("t^2+1"), b)


def _plus_one(r):
    """A remainder list with 1 added to its constant term."""
    return [c + (i == 0) for i, c in enumerate(r)]


def test_resultant_refuses_a_remainder_off_the_subresultant_chain(monkeypatch):
    real = intpoly._pseudo_rem
    monkeypatch.setattr(intpoly, "_pseudo_rem", lambda A, B, lc: _plus_one(real(A, B, lc)))
    with pytest.raises(NotExact, match="remainder not divisible by 9"):
        resultant(P("t^4+t+1"), P("3*t^3+2*t+5"))


def test_resultant_refuses_a_subresultant_coefficient_off_z(monkeypatch):
    # a first remainder 3t+1 drops two degrees; the next h would be 9/2
    real = intpoly._pseudo_rem
    monkeypatch.setattr(
        intpoly, "_pseudo_rem",
        lambda A, B, lc: [1, 3] if len(B) == 4 else real(A, B, lc),
    )
    with pytest.raises(NotExact, match="coefficient 9 not divisible by 2"):
        resultant(P("t^4+1"), P("2*t^3+t+1"))


def test_resultant_refuses_a_closing_step_off_z(monkeypatch):
    # a constant remainder 3 against 2t^2+...: the closing 3^2 / 2 is not integral
    monkeypatch.setattr(intpoly, "_pseudo_rem", lambda A, B, lc: [3])
    with pytest.raises(NotExact, match="bookkeeping broke: 9 / 2"):
        resultant(P("t^3+1"), P("2*t^2+1"))


def test_discriminant_refuses_a_resultant_off_the_leading_coefficient(monkeypatch):
    monkeypatch.setattr(intpoly, "resultant", lambda a, b: 3)
    with pytest.raises(NotExact, match="not divisible by lc"):
        discriminant(P("2*t^2+1"))


def test_answer_guards_survive_python_O():
    script = (
        "from types import SimpleNamespace as NS\n"
        "from arithsurf import intpoly\n"
        "from arithsurf.errors import NotExact\n"
        "from arithsurf.intpoly import parse_intpoly as P\n"
        "real = intpoly._pseudo_rem\n"
        "b = NS(is_zero=False, degree=1, lc=2, coeffs=(1, 3))\n"
        "calls = [\n"
        "    (None, lambda: intpoly.pseudo_rem(P('t^2+1'), b)),\n"
        "    (lambda A, B, lc: [r + (i == 0) for i, r in enumerate(real(A, B, lc))],\n"
        "     lambda: intpoly.resultant(P('t^4+t+1'), P('3*t^3+2*t+5'))),\n"
        "    (lambda A, B, lc: [1, 3] if len(B) == 4 else real(A, B, lc),\n"
        "     lambda: intpoly.resultant(P('t^4+1'), P('2*t^3+t+1'))),\n"
        "    (lambda A, B, lc: [3], lambda: intpoly.resultant(P('t^3+1'), P('2*t^2+1'))),\n"
        "]\n"
        "for fault, call in calls:\n"
        "    intpoly._pseudo_rem = fault or real\n"
        "    try:\n"
        "        call()\n"
        "    except NotExact:\n"
        "        continue\n"
        "    raise SystemExit('unguarded')\n"
        "intpoly._pseudo_rem = real\n"
        "intpoly.resultant = lambda a, c: 3\n"
        "try:\n"
        "    intpoly.discriminant(P('2*t^2+1'))\n"
        "except NotExact:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('unguarded')\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
