import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from mpmath import mp

from arithsurf import symbols
from arithsurf.errors import NotExact, ParseError, UnsupportedOrder
from arithsurf.intpoly import parse_intpoly
from arithsurf.surface import (
    make_function,
    parse_curve,
    parse_function,
    parse_point,
)
from arithsurf.symbols import (
    archimedean_symbol,
    branch_decomposition,
    curve_point_symbol,
    det2,
    rank2_vertical,
)

F = parse_function


def test_det2():
    assert det2(1, 0, 0, 1) == 1
    assert det2(2, 3, 4, 6) == 0
    assert det2(Fraction(1, 2), 1, 1, 4) == 1


def test_transverse_flag():
    # the standard worked pair: f = t, g = 5 at the flag (H:t, 5:t)
    assert curve_point_symbol(parse_curve("H:t"), parse_point("5:t"), F("1*(t)^1"), F("5")) == 1
    assert curve_point_symbol(parse_curve("V:5"), parse_point("5:t"), F("1*(t)^1"), F("5")) == -1


def test_rank2_vertical_values():
    pt = parse_point("5:t")
    # nu1 = v_5(unit), nu2 = order of vanishing of the residue at the point
    assert rank2_vertical(F("5"), 5, pt) == (1, 0)
    assert rank2_vertical(F("1*(t)^2"), 5, pt) == (0, 2)
    assert rank2_vertical(F("25 * (t-1)^1"), 5, pt) == (2, 0)


def test_branch_table_quadratic():
    """t^2+1 over Q_p: ramified at 2, inert at 3, split at 5 -- read off the
    branches of the curve H:t^2+1 at its points over those primes."""
    c = parse_curve("H:t^2+1")
    f, g = F("1*(t^2+1)^1"), F("1*(t-1)^1")
    table = {
        "2:t+1": [(2, 1)],
        "3:t^2+1": [(1, 2)],
        "5:t+2": [(1, 1)],
        "5:t+3": [(1, 1)],
    }
    for label, shape in table.items():
        bs = branch_decomposition(c, parse_point(label), f, g)
        assert [(b.e, b.f) for b in bs] == shape
        assert all(b.weight == 1 for b in bs)


def test_branch_eisenstein_cubic():
    bs = branch_decomposition(
        parse_curve("H:t^3-2"), parse_point("3:t+1"), F("1*(t^3-2)^1"), F("3")
    )
    assert [(b.e, b.f) for b in bs] == [(3, 1)]


def test_linear_curve_exact_path():
    # degree-1 curves go through exact rational evaluation, no p-adics
    c = parse_curve("H:2*t-1")
    assert curve_point_symbol(c, parse_point("2:inf"), F("1*(2*t-1)^1"), F("2")) == 1
    # <t - 5, 5> along H:t-5 at 5:t (theta = 5): v_5(5) pairs with nu1
    c2 = parse_curve("H:t-5")
    assert curve_point_symbol(c2, parse_point("5:t"), F("1*(t-5)^1"), F("5")) == 1


def test_symbol_additive_in_exponents():
    rng = random.Random(3)
    c = parse_curve("H:t^2+1")
    pt = parse_point("5:t+2")
    g = F("7 * (t-1)^1")
    for _ in range(20):
        e1, e2 = rng.randint(-3, 3), rng.randint(-3, 3)
        f1 = make_function(Fraction(2), [(parse_intpoly("t"), e1)] if e1 else [])
        f2 = make_function(Fraction(3), [(parse_intpoly("t"), e2)] if e2 else [])
        s1 = curve_point_symbol(c, pt, f1, g)
        s2 = curve_point_symbol(c, pt, f2, g)
        s12 = curve_point_symbol(c, pt, f1 * f2, g)
        assert s12 == s1 + s2


def test_antisymmetry_of_flag_symbol():
    c = parse_curve("H:t^2+2")
    # -2 is a square mod 11 (3^2 = 9 = -2) and a non-residue mod 5
    for label in ("2:t", "5:t^2+2", "11:t+3"):
        pt = parse_point(label)
        f = F("6 * (t)^2 * (t-1)^-1")
        g = F("15 * (t^2+2)^1")
        assert curve_point_symbol(c, pt, f, g) == -curve_point_symbol(c, pt, g, f)


def test_unsupported_order():
    # p divides the leading coefficient and the curve has degree 2
    c = parse_curve("H:2*t^2+t+1")
    with pytest.raises(UnsupportedOrder):
        branch_decomposition(c, parse_point("2:t+1"), F("1*(2*t^2+t+1)^1"), F("3"))


def test_infinity_handled_by_chart_swap():
    # the symbol at a fiber-infinity point equals the symbol of the swapped
    # data at the origin of the second chart
    c = parse_curve("H:2*t-1")
    pt = parse_point("2:inf")
    f, g = F("1*(2*t-1)^1"), F("6 * (t)^-1")
    direct = curve_point_symbol(c, pt, f, g)
    assert isinstance(direct, int)


def test_archimedean_fixture():
    with mp.workprec(128):
        v = archimedean_symbol(
            parse_intpoly("t^2+1"), mp.mpc(0, 1),
            F("1*(t^2+1)^1"), F("1*(t-1)^1"), prec=128,
        )
        want = -mp.log(mp.sqrt(2))
        assert abs(v - want) < mp.mpf(2) ** -100


def test_archimedean_closed_form_constant():
    # f = 2, g = t at theta = 0 on H:t: value log 2
    with mp.workprec(128):
        v = archimedean_symbol(parse_intpoly("t"), mp.mpf(0), F("2"), F("1*(t)^1"), prec=128)
        assert abs(v - mp.log(2)) < mp.mpf(2) ** -100


# -- answer guards, typed so that python -O keeps them ---------------------------


def test_rank2_vertical_refuses_a_base_vanishing_mod_p():
    # a function-like value taken as given: 5t+5 is not primitive, which
    # FactoredRationalFunction itself refuses
    f = SimpleNamespace(unit=Fraction(1), factors=((parse_intpoly("5*t+5"), 1),))
    with pytest.raises(NotExact, match="vanishes mod 5"):
        rank2_vertical(f, 5, parse_point("5:t"))


def test_monic_point_residue_needs_p_prime_to_the_leading_coefficient():
    with pytest.raises(UnsupportedOrder):
        symbols._monic_point_residue(parse_intpoly("2*t^2+1"), parse_point("2:t+1"))


def test_restriction_valuation_refuses_a_norm_valuation_off_f():
    # Res(t-2, t-7) = 5 has valuation 1, which a residue degree 2 cannot divide
    factor = SimpleNamespace(poly=SimpleNamespace(p=5, to_intpoly=lambda: parse_intpoly("t-2")),
                             e=1, f=2)
    with pytest.raises(NotExact, match="not divisible"):
        symbols._restriction_valuation(F("1*(t-7)^1"), parse_intpoly("t^2+1"), factor, 20)


def test_curve_point_symbol_refuses_points_off_the_curve():
    with pytest.raises(ParseError, match="does not lie"):
        curve_point_symbol(parse_curve("H:t^2+1"), parse_point("5:t"), F("2"), F("3"))


def test_branch_decomposition_refuses_points_off_the_curve():
    c = parse_curve("H:t^2+1")
    with pytest.raises(NotExact, match="does not lie"):
        branch_decomposition(c, parse_point("5:t"), F("2"), F("3"))
    with pytest.raises(UnsupportedOrder, match="second chart"):
        branch_decomposition(c, parse_point("5:inf"), F("2"), F("3"))


def test_branch_decomposition_checks_the_p_adic_factors(monkeypatch):
    # t^2+1 is inert at 3: one branch with f = 2 over the degree-2 point
    c, pt = parse_curve("H:t^2+1"), parse_point("3:t^2+1")
    f, g = F("3"), F("1*(t)^1")
    assert [(b.e, b.f) for b in branch_decomposition(c, pt, f, g)] == [(1, 2)]
    pi_hat = symbols._monic_point_residue(c.h, pt)
    wrong_degree = SimpleNamespace(factors=[SimpleNamespace(residue=pi_hat, e=2, f=1)])
    monkeypatch.setattr(symbols, "padic_factor", lambda *args, **kwargs: wrong_degree)
    with pytest.raises(NotExact, match="not a multiple"):
        branch_decomposition(c, pt, f, g)
    monkeypatch.setattr(symbols, "padic_factor", lambda *args, **kwargs: SimpleNamespace(factors=[]))
    with pytest.raises(NotExact, match="no branch"):
        branch_decomposition(c, pt, f, g)


def test_answer_guards_survive_python_O():
    script = (
        "from fractions import Fraction\n"
        "from types import SimpleNamespace as NS\n"
        "from mpmath import mp\n"
        "from arithsurf import roots, symbols\n"
        "from arithsurf.errors import ArithsurfError\n"
        "from arithsurf.intpoly import parse_intpoly as P\n"
        "from arithsurf.laws import verify_horizontal_law\n"
        "from arithsurf.qlinalg import det\n"
        "from arithsurf.surface import parse_curve, parse_point\n"
        "from arithsurf.surface import parse_function as F\n"
        "h, c, pt = P('t^2+1'), parse_curve('H:t^2+1'), parse_point('3:t^2+1')\n"
        "factor = NS(poly=NS(p=5, to_intpoly=lambda: P('t-2')), e=1, f=2)\n"
        "bad = NS(unit=Fraction(1), factors=((P('5*t+5'), 1),))\n"
        "calls = [\n"
        "    lambda: symbols.rank2_vertical(bad, 5, parse_point('5:t')),\n"
        "    lambda: symbols._monic_point_residue(P('2*t^2+1'), parse_point('2:t+1')),\n"
        "    lambda: symbols._restriction_valuation(F('1*(t-7)^1'), h, factor, 20),\n"
        "    lambda: symbols.branch_decomposition(c, parse_point('5:t'), F('2'), F('3')),\n"
        "    lambda: verify_horizontal_law(parse_curve('V:5'), F('2'), F('3')),\n"
        "    lambda: det(((1, 2),)),\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ArithsurfError:\n"
        "        continue\n"
        "    raise SystemExit('unguarded')\n"
        "symbols.padic_factor = lambda *args, **kwargs: NS(factors=[])\n"
        "roots.all_roots = lambda h, prec: [mp.mpf(1)]\n"
        "for call in (lambda: symbols.branch_decomposition(c, pt, F('3'), F('1*(t)^1')),\n"
        "             lambda: roots.archimedean_places(P('t^2-2'))):\n"
        "    try:\n"
        "        call()\n"
        "    except ArithsurfError:\n"
        "        continue\n"
        "    raise SystemExit('unguarded')\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
