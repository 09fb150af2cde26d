import subprocess
import sys
from fractions import Fraction

import pytest

from arithsurf.errors import NotExact, ZeroPolynomial
from arithsurf.intpoly import parse_intpoly
from arithsurf.modp import ModPPoly
from arithsurf.padic import (
    _bezout_modp,
    dedekind_p_maximal,
    hensel_lift_pair,
    newton_slopes,
    padic_factor,
    padic_square_class,
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

T, T1 = ModPPoly(3, [0, 1]), ModPPoly(3, [1, 1])  # t and t+1 over F_3


def test_hensel_lift_refuses_a_wrong_factorization():
    # t^2+1 is not t*(t+1) mod 3, so no lift can keep f = g*h
    with pytest.raises(NotExact, match="f = g\\*h"):
        hensel_lift_pair(parse_intpoly("t^2+1"), T, T1, ModPPoly(3, [2]), ModPPoly(3, [1]), 3, 4)


def test_hensel_lift_refuses_a_wrong_bezout_pair():
    # f = g*h holds exactly, but a = b = 0 is no Bezout pair
    with pytest.raises(NotExact, match="Bezout"):
        hensel_lift_pair(parse_intpoly("t^2+t"), T, T1, ModPPoly(3), ModPPoly(3), 3, 4)


def test_bezout_refuses_common_factors():
    a, b = _bezout_modp(T, T1)
    assert a * T + b * T1 == ModPPoly(3, [1])
    with pytest.raises(NotExact, match="not coprime"):
        _bezout_modp(T1 * T, T1)


def test_hensel_guards_survive_python_O():
    script = (
        "from arithsurf.errors import NotExact\n"
        "from arithsurf.intpoly import parse_intpoly as P\n"
        "from arithsurf.modp import ModPPoly as M, _pth_root\n"
        "from arithsurf.padic import _bezout_modp, hensel_lift_pair as lift\n"
        "t, t1, z = M(3, [0, 1]), M(3, [1, 1]), M(3)\n"
        "calls = [lambda: lift(P('t^2+1'), t, t1, M(3, [2]), M(3, [1]), 3, 4),\n"
        "         lambda: lift(P('t^2+t'), t, t1, z, z, 3, 4),\n"
        "         lambda: _bezout_modp(t, t), lambda: _pth_root(t1)]\n"
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
