import subprocess
import sys
from fractions import Fraction

from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from arithsurf import padic
from arithsurf.errors import NotExact, ZeroPolynomial
from arithsurf.intpoly import IntPoly, parse_intpoly
from arithsurf.modp import ModPPoly, factor_mod_p
from arithsurf.padic import (
    PadicFactorization,
    PadicPoly,
    _bezout_modp,
    _sqrt_mod_p,
    dedekind_p_maximal,
    hensel_lift_list,
    hensel_lift_pair,
    newton_slopes,
    padic_factor,
    padic_square_class,
    padic_unit_sqrt,
    vp,
)


def test_vp():
    assert vp(12, 2) == 2
    assert vp(12, 3) == 1
    assert vp(-8, 2) == 3
    assert vp(7, 5) == 0
    with pytest.raises(ZeroPolynomial):
        vp(0, 5)


def test_quadratic_classification_by_p_mod_4():
    """(e, f) decomposition type of t^2+1 over Q_p: ramified at 2, split for
    p = 1 mod 4, inert for p = 3 mod 4."""
    h = parse_intpoly("t^2+1")
    expected = {
        2: [(2, 1)],
        3: [(1, 2)],
        5: [(1, 1), (1, 1)],
        13: [(1, 1), (1, 1)],
        101: [(1, 1), (1, 1)],
    }
    for p, shape in expected.items():
        fac = padic_factor(h, p)
        got = sorted((fct.e, fct.f) for fct in fac.factors)
        assert got == shape, (p, got)


def test_eisenstein_cubic():
    # t^3 - 2 is Eisenstein at 2 and at 3 it is totally ramified as well
    for p in (2, 3):
        fac = padic_factor(parse_intpoly("t^3-2"), p)
        assert [(fct.e, fct.f) for fct in fac.factors] == [(3, 1)]


def test_split_cubic_at_5():
    # 2^3 = 8 = 3 mod 5, and t^3-2 mod 5 = (t-3)(t^2+3t+4) with the quadratic
    # irreducible (disc 9-16 = -7 = 3, a nonresidue mod 5)
    fac = padic_factor(parse_intpoly("t^3-2"), 5)
    shapes = sorted((fct.e, fct.f) for fct in fac.factors)
    assert shapes == [(1, 1), (1, 2)]


def test_factor_product_degree():
    h = parse_intpoly("t^4+1")
    for p in (2, 3, 5, 7, 13):
        fac = padic_factor(h, p)
        assert sum(fct.e * fct.f for fct in fac.factors) == 4


def test_residues_match_mod_p_factorization():
    h = parse_intpoly("t^2+1")
    fac = padic_factor(h, 5)
    residues = sorted(str(fct.residue.to_intpoly()) for fct in fac.factors)
    assert residues == ["t+2", "t+3"]


def test_square_class():
    # 2 is a QR mod 7 (3^2 = 2), 3 is not
    assert padic_square_class(2, 7, 20) == ("square", 0)
    assert padic_square_class(3, 7, 20) == ("nonsquare_unramified", 0)
    # 2-adic units: squares are 1 mod 8, 5 mod 8 gives the unramified quadratic
    assert padic_square_class(17, 2, 20) == ("square", 0)
    assert padic_square_class(13, 2, 20) == ("nonsquare_unramified", 0)
    assert padic_square_class(3, 2, 20) == ("ramified", 0)
    assert padic_square_class(2, 2, 20) == ("ramified", 1)  # odd valuation


def test_newton_slopes():
    # lower hull of t^2-10 at 5: (0,1) -> (2,0), one segment of slope -1/2;
    # root valuations are the negated slopes
    h = parse_intpoly("t^2-10")
    assert newton_slopes(h, 5) == [(Fraction(-1, 2), 2)]
    h2 = parse_intpoly("t^2-3")
    assert newton_slopes(h2, 5) == [(Fraction(0), 2)]


def test_dedekind_guard():
    # Z[t]/(t^2-5) is not 2-maximal (index 2 in the ring of integers of
    # Q(sqrt 5)); t^2+1 is fine at every odd prime
    assert not dedekind_p_maximal(parse_intpoly("t^2-5"), 2)
    assert dedekind_p_maximal(parse_intpoly("t^2+1"), 5)
    assert dedekind_p_maximal(parse_intpoly("t^2+1"), 3)
    assert dedekind_p_maximal(parse_intpoly("t^3-2"), 5)


def test_non_monic_input_is_refused():
    h = parse_intpoly("2*t^2+1")
    with pytest.raises(NotExact, match="monic"):
        padic_factor(h, 3)
    with pytest.raises(NotExact, match="monic"):
        dedekind_p_maximal(h, 3)


def test_non_maximal_quadratic_still_resolved():
    """t^2-5 at p=2: Z[sqrt 5] is not 2-maximal, but the quadratic cluster is
    classified through the discriminant square class (5 = 5 mod 8 is a
    non-square unit), giving the inert extension (e,f) = (1,2)."""
    fac = padic_factor(parse_intpoly("t^2-5"), 2)
    assert [(fct.e, fct.f) for fct in fac.factors] == [(1, 2)]


# -- answer guards of the Hensel lift, typed so that python -O keeps them ------

T, T1 = [0, 1], [1, 1]  # t and t+1 over F_3


def test_hensel_lift_refuses_a_wrong_factorization():
    # t^2+1 is not t*(t+1) mod 3, so no lift can keep f = g*h
    with pytest.raises(NotExact, match="f = g\\*h"):
        hensel_lift_pair(parse_intpoly("t^2+1").coeffs, T, T1, [2], [1], 3, 4)


def test_hensel_lift_refuses_a_wrong_bezout_pair():
    # f = g*h holds exactly, but a = b = 0 is no Bezout pair
    with pytest.raises(NotExact, match="Bezout"):
        hensel_lift_pair(parse_intpoly("t^2+t").coeffs, T, T1, [], [], 3, 4)


def test_bezout_refuses_common_factors():
    a, b = _bezout_modp(T, T1, 3)
    assert ModPPoly(3, a) * ModPPoly(3, T) + ModPPoly(3, b) * ModPPoly(3, T1) == ModPPoly(3, [1])
    with pytest.raises(NotExact, match="not coprime"):
        _bezout_modp([0, 1, 1], T1, 3)


def test_hensel_guards_survive_python_O():
    script = (
        "from arithsurf.errors import NotExact\n"
        "from arithsurf.intpoly import parse_intpoly as P\n"
        "from arithsurf import modp\n"
        "from arithsurf.modp import _pth_root\n"
        "from arithsurf.padic import _bezout_modp, hensel_lift_pair as lift\n"
        "t, t1 = [0, 1], [1, 1]\n"
        "modp._tonelli_shanks = lambda a, p: 1  # no root of -4 mod 401\n"
        "calls = [lambda: lift(P('t^2+1').coeffs, t, t1, [2], [1], 3, 4),\n"
        "         lambda: lift(P('t^2+t').coeffs, t, t1, [], [], 3, 4),\n"
        "         lambda: _bezout_modp(t, t, 3), lambda: _pth_root(t1, 3),\n"
        "         lambda: modp._split_quadratic([1, 0, 1], 401)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except NotExact:\n"
        "        continue\n"
        "    raise SystemExit('unguarded')\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr


@given(st.sampled_from((2, 3, 5, 7, 101)), st.lists(st.integers(-20, 20), min_size=2, max_size=7),
       st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_hensel_lift_list_lifts_each_part(p, low, N):
    """The clusters pi^e of any monic h mod p are pairwise coprime, so they
    lift: the lifts multiply to h mod p^N and each reduces to its part."""
    h = IntPoly(low + [1])
    _, fac = factor_mod_p(h, p)
    parts = [reduce(mul, [pi] * e).coeffs for pi, e in fac]
    lifts = hensel_lift_list(h.coeffs, parts, p, N)
    m = p**N
    assert reduce(mul, (ModPPoly(m, lift) for lift in lifts)) == ModPPoly(m, h.coeffs)
    for lift, part in zip(lifts, parts):
        assert all(0 <= c < m for c in lift) and lift[-1] == 1
        assert ModPPoly(p, lift) == ModPPoly(p, part)


# -- answer guards of the factor data, typed so that python -O keeps them ------


def test_padic_poly_refuses_malformed_coefficients():
    for coeffs in ((), (1, 9)):
        with pytest.raises(NotExact, match="leading coefficient"):
            PadicPoly(3, 2, coeffs)
    for coeffs in ((9, 1), (-1, 1)):
        with pytest.raises(NotExact, match="not reduced"):
            PadicPoly(3, 2, coeffs)


def test_padic_factorization_refuses_a_degree_mismatch():
    with pytest.raises(NotExact, match="sum to 0"):
        PadicFactorization(parse_intpoly("t^2+1"), 5, 20, ())


def test_square_roots_refuse_non_squares(monkeypatch):
    with pytest.raises(NotExact, match="quadratic residue"):
        _sqrt_mod_p(2, 5)
    with pytest.raises(NotExact, match="1 mod 8"):
        padic_unit_sqrt(5, 2, 10)
    assert padic_unit_sqrt(17, 2, 10) ** 2 % 2**10 == 17
    assert padic_unit_sqrt(2, 7, 10) ** 2 % 7**10 == 2
    monkeypatch.setattr(padic, "_sqrt_mod_p", lambda a, p: 1)  # 1 is no root of 2 mod 7
    with pytest.raises(NotExact, match="not a square root"):
        padic_unit_sqrt(2, 7, 10)


def test_quadratic_cluster_refuses_a_root_of_the_wrong_parity(monkeypatch):
    # t^2-17 = (t+1)^2 mod 2; a root s of the discriminant must have the
    # parity of b = 0 for (-b +- s)/2 to be 2-adic integers
    pi = ModPPoly(2, [1, 1])
    fac, _ = padic._quadratic_cluster(parse_intpoly("t^2-17"), pi, 2, 20, exact=True)
    assert [(f.e, f.f) for f in fac] == [(1, 1), (1, 1)]
    monkeypatch.setattr(padic, "padic_square_class", lambda d, p, N: ("square", 0))
    monkeypatch.setattr(padic, "padic_unit_sqrt", lambda u, p, N: 1)
    with pytest.raises(NotExact, match="mod 2"):
        padic._quadratic_cluster(parse_intpoly("t^2-17"), pi, 2, 20, exact=True)


def test_eisenstein_cluster_needs_a_linear_residue():
    with pytest.raises(NotExact, match="linear residue"):
        padic._eisenstein_cluster(parse_intpoly("t^2+t+1"), ModPPoly(2, [1, 1, 1]), 2, 20, exact=True)


def test_dedekind_refuses_factors_that_do_not_multiply_back(monkeypatch):
    # (t+1)^2 = t^2+2t+1 is not t^2+1 mod 3
    monkeypatch.setattr(padic, "factor_mod_p", lambda h, p, seed=0: (1, [(ModPPoly(3, [1, 1]), 2)]))
    with pytest.raises(NotExact, match="multiply back"):
        dedekind_p_maximal(parse_intpoly("t^2+1"), 3)


def test_padic_and_surface_refusals_survive_python_O():
    script = (
        "from fractions import Fraction\n"
        "from arithsurf import padic\n"
        "from arithsurf.errors import NonIrreducibleBase, NotExact, ParseError, UnsupportedOrder\n"
        "from arithsurf.intpoly import parse_intpoly as P\n"
        "from arithsurf.modp import ModPPoly as M\n"
        "from arithsurf.surface import ClosedPoint, Curve, FactoredRationalFunction as FRF\n"
        "from arithsurf.surface import chart_swap_point, chart_swap_poly, prime_support_on_horizontal\n"
        "def refused(error, call):\n"
        "    try:\n"
        "        call()\n"
        "    except error:\n"
        "        return\n"
        "    raise SystemExit(f'unguarded: {error.__name__}')\n"
        "one = FRF(Fraction(1), ())\n"
        "refused(ParseError, lambda: M(3, [1]) + M(5, [1]))\n"
        "refused(NotExact, lambda: padic.PadicPoly(3, 2, (1, 9)))\n"
        "refused(NotExact, lambda: padic.PadicPoly(3, 2, (9, 1)))\n"
        "refused(NotExact, lambda: padic.PadicFactorization(P('t^2+1'), 5, 20, ()))\n"
        "refused(NotExact, lambda: padic._sqrt_mod_p(2, 5))\n"
        "refused(NotExact, lambda: padic.padic_unit_sqrt(5, 2, 10))\n"
        "refused(NotExact, lambda: padic._eisenstein_cluster(P('t^2+t+1'), M(2, [1, 1, 1]), 2, 20, True))\n"
        "refused(ParseError, lambda: FRF(Fraction(1), ((P('5*t+5'), 1),)))\n"
        "refused(ParseError, lambda: FRF(Fraction(1), ((P('3'), 1),)))\n"
        "refused(ParseError, lambda: chart_swap_poly(P('t')))\n"
        "refused(NonIrreducibleBase, lambda: chart_swap_poly(P('t^2+t')))\n"
        "refused(NonIrreducibleBase, lambda: chart_swap_point(ClosedPoint._of_factor(5, M(5, (0, 0, 1)))))\n"
        "refused(UnsupportedOrder, lambda: prime_support_on_horizontal(Curve.vertical(5), one, one))\n"
        "padic._sqrt_mod_p = lambda a, p: 1\n"
        "refused(NotExact, lambda: padic.padic_unit_sqrt(2, 7, 10))\n"
        "padic.factor_mod_p = lambda h, p, seed=0: (1, [(M(3, [1, 1]), 2)])\n"
        "refused(NotExact, lambda: padic.dedekind_p_maximal(P('t^2+1'), 3))\n"
        "padic.padic_square_class = lambda d, p, N: ('square', 0)\n"
        "padic.padic_unit_sqrt = lambda u, p, N: 1\n"
        "refused(NotExact, lambda: padic._quadratic_cluster(P('t^2-17'), M(2, [1, 1]), 2, 20, True))\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
