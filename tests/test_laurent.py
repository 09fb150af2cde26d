from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arithsurf.errors import ParseError
from arithsurf.laurent import LaurentPoly, parse_laurent

coeff = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
).filter(lambda q: q != 0)
laurents = st.dictionaries(
    st.integers(min_value=-4, max_value=6), coeff, min_size=0, max_size=5
).map(LaurentPoly)


def test_parse_examples():
    f = parse_laurent("t*(3+t)")
    assert f == LaurentPoly({1: Fraction(3), 2: Fraction(1)})
    assert parse_laurent("5*t^2") == LaurentPoly.monomial(5, 2)
    assert parse_laurent("1/2*t^-1 + t") == LaurentPoly(
        {-1: Fraction(1, 2), 1: Fraction(1)}
    )
    assert parse_laurent("2") == LaurentPoly.constant(2)
    assert parse_laurent("(2+t)*(3+t)") == LaurentPoly(
        {0: Fraction(6), 1: Fraction(5), 2: Fraction(1)}
    )
    assert parse_laurent("-t^2 + 0.25") == LaurentPoly(
        {2: Fraction(-1), 0: Fraction(1, 4)}
    )


def test_parse_rejects_garbage():
    for bad in ("", "t^", "3//4", "t**2", "(t"):
        with pytest.raises(ParseError):
            parse_laurent(bad)


def test_nu_top_bottom():
    f = parse_laurent("1/2*t^-1 + 3*t^4")
    assert f.nu == -1 and f.top == 4
    assert f.bottom_coeff == Fraction(1, 2)
    assert LaurentPoly.zero().is_zero


@given(laurents, laurents, laurents)
@settings(max_examples=120, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c


@given(laurents, laurents)
@settings(max_examples=80, deadline=None)
def test_valuation_of_product(a, b):
    if a.is_zero or b.is_zero:
        assert (a * b).is_zero
    else:
        assert (a * b).nu == a.nu + b.nu
        assert (a * b).bottom_coeff == a.bottom_coeff * b.bottom_coeff


def test_monomial_powers():
    m = LaurentPoly.monomial(Fraction(2, 3), -2)
    assert m**3 == LaurentPoly.monomial(Fraction(8, 27), -6)
    assert m**-1 == LaurentPoly.monomial(Fraction(3, 2), 2)
    with pytest.raises(Exception):
        parse_laurent("1+t") ** -1  # only monomials invert


@pytest.mark.parametrize("text,offset", [("t t", 2), ("1 + t^", 6), ("t^2 t", 4), ("(t", 2)])
def test_parse_errors_carry_character_offsets(text, offset):
    with pytest.raises(ParseError) as info:
        parse_laurent(text)
    assert info.value.position == offset


@given(laurents)
@settings(max_examples=150, deadline=None)
def test_parse_print_round_trip(f):
    assert parse_laurent(str(f)) == f
