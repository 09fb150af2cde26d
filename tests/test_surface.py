import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arithsurf.errors import (
    NonIrreducibleBase,
    ParseError,
    UnsupportedOrder,
    ZeroPolynomial,
)
from arithsurf.intpoly import parse_intpoly
from arithsurf.modp import ModPPoly, random_monic_irreducible
from arithsurf.padic import vp
from arithsurf.surface import (
    ClosedPoint,
    Curve,
    FactoredRationalFunction,
    chart_swap,
    chart_swap_point,
    chart_swap_poly,
    constant_function,
    curves_through_point,
    format_function,
    horizontal_order,
    incident,
    make_function,
    parse_curve,
    parse_function,
    parse_point,
    points_on_horizontal,
    points_on_vertical,
    prime_support_on_horizontal,
    vertical_order,
)

BASES = tuple(
    parse_intpoly(s) for s in ("t", "t-1", "t-5", "t+2", "t^2+1", "t^2+2", "2*t-1")
)


def rand_function(rng, allow_inf=True):
    n = rng.randint(0, 3)
    ks = rng.sample(range(len(BASES)), n)
    factors = [(BASES[k], rng.choice([-3, -2, -1, 1, 2, 3])) for k in sorted(ks)]
    if allow_inf and rng.random() < 0.3:
        factors.append(("INF", rng.choice([-2, -1, 1, 2])))
    unit = Fraction(rng.choice([x for x in range(-30, 31) if x]), rng.randint(1, 30))
    return make_function(unit, factors)


def test_make_function_normalizes_content():
    f = make_function(Fraction(1), [(parse_intpoly("2*t^2+2"), 1)])
    # content 2 moves into the unit, the base stays primitive
    assert f.unit == Fraction(2)
    assert f.exponent_of(parse_intpoly("t^2+1")) == 1


def test_make_function_rejects_reducible():
    with pytest.raises(NonIrreducibleBase):
        make_function(Fraction(1), [(parse_intpoly("t^2-1"), 1)])


def test_function_parse_format_round_trip():
    rng = random.Random(7)
    for _ in range(60):
        f = rand_function(rng, allow_inf=False)
        assert parse_function(format_function(f)) == f


def test_function_grammar():
    f = parse_function("2/3 * (t)^1 * (t^2+1)^-2")
    assert f.unit == Fraction(2, 3)
    assert f.exponent_of(parse_intpoly("t")) == 1
    assert f.exponent_of(parse_intpoly("t^2+1")) == -2
    assert parse_function("5") == constant_function(5)
    with pytest.raises(ParseError):
        parse_function("2 * t^2")  # bases need parentheses and exponents


def test_function_multiplication_group_law():
    rng = random.Random(11)
    for _ in range(40):
        f, g = rand_function(rng), rand_function(rng)
        prod = f * g
        for b in BASES:
            assert prod.exponent_of(b) == f.exponent_of(b) + g.exponent_of(b)
        assert (f * f.inv()) == constant_function(1)


def test_curve_constructors_and_parse():
    assert parse_curve("V:5").p == 5
    assert parse_curve("H:t^2+1").h == parse_intpoly("t^2+1")
    assert parse_curve("INF").label() == "INF"
    with pytest.raises(ParseError):
        parse_curve("V:6")  # not prime
    with pytest.raises(NonIrreducibleBase):
        parse_curve("H:t^2-1")


def test_point_parse_and_labels():
    pt = parse_point("5:t+2")
    assert pt.p == 5 and pt.degree == 1 and pt.q == 5
    pt2 = parse_point("3:t^2+1")
    assert pt2.degree == 2 and pt2.q == 9
    inf = parse_point("7:inf")
    assert inf.residue is None and inf.degree == 1
    with pytest.raises(NonIrreducibleBase):
        parse_point("5:t^2-1")  # reducible residue


def test_vp_fraction():
    # vertical_order takes the valuation of a function's rational unit
    assert vp(Fraction(12), 2) == 2
    assert vp(Fraction(1, 8), 2) == -3
    assert vp(Fraction(9, 5), 5) == -1
    with pytest.raises(ZeroPolynomial):
        vp(Fraction(0), 5)


def test_orders():
    f = parse_function("50 * (t)^2 * (t^2+1)^-1")
    assert vertical_order(f, 5) == 2
    assert vertical_order(f, 2) == 1
    assert horizontal_order(f, Curve.horizontal(parse_intpoly("t"))) == 2
    assert horizontal_order(f, Curve.horizontal(parse_intpoly("t^2+1"))) == -1
    assert horizontal_order(f, Curve.horizontal(parse_intpoly("t-1"))) == 0


def test_horizontal_order_refuses_vertical_curves():
    with pytest.raises(UnsupportedOrder, match="vertical_order"):
        horizontal_order(parse_function("2"), Curve.vertical(5))


def test_factored_function_refuses_a_zero_unit():
    with pytest.raises(ZeroPolynomial):
        FactoredRationalFunction(Fraction(0), ())


def test_chart_swap_involution():
    rng = random.Random(23)
    for _ in range(60):
        f = rand_function(rng)
        assert chart_swap(chart_swap(f)) == f


def test_chart_swap_degree_bookkeeping():
    # t <-> INF: swapping t^2+1 gives (squared INF pole) * swapped base
    f = parse_function("1 * (t^2+1)^1")
    sw = chart_swap(f)
    assert sw.exponent_of(parse_intpoly("t^2+1")) == 1  # reverse of t^2+1 is itself
    # INF exponent: -(e_t + sum e_i deg) = -(0 + 2) = -2 encoded on t... the
    # infinity marker carries into the t-exponent of the swapped chart
    assert horizontal_order(sw, Curve.horizontal(parse_intpoly("t"))) == -2


def test_incidence():
    pt = parse_point("5:t")
    assert incident(Curve.vertical(5), pt)
    assert not incident(Curve.vertical(3), pt)
    assert incident(Curve.horizontal(parse_intpoly("t")), pt)
    assert not incident(Curve.horizontal(parse_intpoly("t-1")), pt)
    # t-5 = t mod 5, so H:t-5 also passes through 5:t
    assert incident(Curve.horizontal(parse_intpoly("t-5")), pt)
    inf = parse_point("5:inf")
    assert incident(Curve.infinity(), inf)
    # deg h < max(deg f...) iff the horizontal curve meets infinity: 2t-1 has
    # lc 2 and meets the infinity section over 2
    assert incident(Curve.horizontal(parse_intpoly("2*t-1")), parse_point("2:inf"))
    assert not incident(Curve.horizontal(parse_intpoly("t-1")), inf)


def test_curves_through_point_contains_vertical_and_incident():
    f = parse_function("1 * (t)^1 * (t^2+1)^1")
    g = parse_function("3 * (t-1)^1")
    pt = parse_point("5:t")
    curves = curves_through_point(pt, f, g)
    labels = [c.label() for c in curves]
    assert "V:5" in labels and "H:t" in labels
    assert "H:t-1" not in labels  # t-1 does not vanish at t=0 mod 5
    assert labels == sorted(labels, key=lambda s: (s != "V:5", s))


def test_points_on_vertical_cover_function_supports():
    f = parse_function("5 * (t)^1")
    g = parse_function("1 * (t^2+2)^1")
    pts = points_on_vertical(5, f, g)
    labels = {p.label() for p in pts}
    assert "5:t" in labels and "5:t^2+2" in labels and "5:inf" in labels


def test_points_on_horizontal_support():
    curve = Curve.horizontal(parse_intpoly("t"))
    f = parse_function("1 * (t)^1")
    g = parse_function("2")
    pts = points_on_horizontal(curve, f, g)
    assert [p.label() for p in pts] == ["2:t"]


def test_point_residue_validation():
    with pytest.raises(ParseError):
        parse_point("4:t")  # 4 not prime
    rng = random.Random(1)
    for p in (2, 3, 5):
        pi = random_monic_irreducible(p, 2, rng)
        pt = ClosedPoint(p, pi)
        assert pt.q == p * p
    with pytest.raises(ParseError, match="monic"):
        parse_point("5:2*t+1")
    with pytest.raises(ParseError, match="mod 7"):
        ClosedPoint(5, ModPPoly(7, (1, 1)))


def test_answer_guards_survive_python_O():
    script = (
        "from fractions import Fraction\n"
        "from arithsurf.errors import NotExact, ParseError, ZeroPolynomial\n"
        "from arithsurf.intpoly import parse_intpoly as P\n"
        "from arithsurf.modp import ModPPoly\n"
        "from arithsurf.padic import dedekind_p_maximal, padic_factor\n"
        "from arithsurf.surface import ClosedPoint, FactoredRationalFunction, parse_point\n"
        "calls = [\n"
        "    (ZeroPolynomial, lambda: FactoredRationalFunction(Fraction(0), ())),\n"
        "    (NotExact, lambda: padic_factor(P('2*t^2+1'), 3)),\n"
        "    (NotExact, lambda: dedekind_p_maximal(P('2*t^2+1'), 3)),\n"
        "    (ParseError, lambda: parse_point('5:2*t+1')),\n"
        "    (ParseError, lambda: ClosedPoint(5, ModPPoly(7, (1, 1)))),\n"
        "]\n"
        "for error, call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except error:\n"
        "        continue\n"
        "    raise SystemExit('unguarded')\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr


def test_factored_function_refuses_bases_that_are_not_primitive():
    # primitive means content 1 and a positive leading coefficient
    for text in ("5*t+5", "3", "-t-1"):
        with pytest.raises(ParseError, match="primitive"):
            FactoredRationalFunction(Fraction(1), ((parse_intpoly(text), 1),))
    # the normalizing constructors still build valid functions
    f = make_function(Fraction(1), [(parse_intpoly("5*t+5"), 1), (parse_intpoly("-t^2-1"), 2)])
    assert f.unit == 5 and f.exponent_of(parse_intpoly("t+1")) == 1
    assert f.inv().inv() == f and chart_swap(chart_swap(f)) == f


def test_chart_swap_refuses_bases_and_residues_divisible_by_t():
    with pytest.raises(ParseError, match="INF"):
        chart_swap_poly(parse_intpoly("t"))
    with pytest.raises(NonIrreducibleBase, match="origin"):
        chart_swap_poly(parse_intpoly("t^2+t"))
    with pytest.raises(NonIrreducibleBase, match="origin"):
        chart_swap_point(ClosedPoint._of_factor(5, ModPPoly(5, (0, 0, 1))))


def test_prime_support_refuses_vertical_curves():
    with pytest.raises(UnsupportedOrder, match="vertical"):
        prime_support_on_horizontal(Curve.vertical(5), constant_function(2), constant_function(3))
