"""Laurent polynomials over Q, the function ring for the archimedean
fiber R((t)) and for the finite-window models of multiplication operators.

Representation: dict {exponent: Fraction} with no zero values.

This module also holds the one lexer and grammar for polynomial text;
intpoly.parse_intpoly and surface.parse_function read the same tokens:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := ('+' | '-') factor | num factor | atom ['^' ['+' | '-'] int]
    atom   := num | 't' | '(' expr ')'

Numbers are integers, fractions "a/b" and decimals, all read exactly.
The middle form of factor is a number written against t ("2t^3", as
format_intpoly prints it), a product.  A sign binds looser than '^':
"-t^2" and "t*-t^2" negate t^2.  The identifier INF is a token too, but
only surface.parse_function accepts it, as a base.  Negative powers of
anything but a monomial are rejected: quotients like (1+t)^-1 live in
R((t)) but not in R[t, t^-1].  Every ParseError carries the character
offset of the offending token.
"""

import re
from fractions import Fraction

from .errors import ParseError, ZeroPolynomial


class LaurentPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {k: Fraction(v) for k, v in coeffs.items() if v != 0}

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, c):
        return cls({0: Fraction(c)})

    @classmethod
    def monomial(cls, c, k):
        return cls({k: Fraction(c)})

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def nu(self):
        """t-adic valuation (lowest exponent); None for zero."""
        return min(self.coeffs) if self.coeffs else None

    @property
    def top(self):
        return max(self.coeffs) if self.coeffs else None

    def __getitem__(self, k):
        return self.coeffs.get(k, Fraction(0))

    @property
    def bottom_coeff(self):
        """Coefficient of t^nu, i.e. f0(0) when f = t^nu * f0."""
        if self.is_zero:
            raise ZeroPolynomial("zero Laurent polynomial has no bottom coefficient")
        return self.coeffs[self.nu]

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({k: v * other for k, v in self.coeffs.items()})
        out = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                k = ka + kb
                out[k] = out.get(k, 0) + va * vb
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            if len(self.coeffs) != 1:
                raise ParseError("negative power of a non-monomial is not Laurent")
            k, v = next(iter(self.coeffs.items()))
            return LaurentPoly({k * n: v**n})
        out = LaurentPoly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{k}")
        return " + ".join(parts)

    __repr__ = __str__


_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d+|\d+\s*/\s*\d+|\d+)|(?P<inf>[Ii][Nn][Ff])|(?P<sym>[-+*^()t])|(?P<bad>\S)"
)


def _tokenize(text):
    """(kind, value, offset) triples, ending with an "end" token."""
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind, start = m.lastgroup, m.start()
        if kind == "bad":
            raise ParseError(f"bad character in {text!r}", start)
        if kind == "num":
            try:  # Fraction reads "a/b" and decimals exactly
                toks.append(("num", Fraction("".join(m[0].split())), start))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {text!r}", start) from None
        else:
            toks.append((m[0] if kind == "sym" else kind, None, start))
    return toks + [("end", None, len(text))]


class Parser:
    """Recursive descent over the tokens of one text."""

    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self, ahead=0):
        return self.toks[self.i + ahead][0]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        if self.peek() != kind:
            raise ParseError(f"expected {kind!r} in {self.text!r}", self.toks[self.i][2])
        return self.next()

    def sign(self):
        """-1 or 1 for an optional sign, which is consumed."""
        if self.peek() in ("+", "-"):
            return -1 if self.next()[0] == "-" else 1
        return 1

    def expr(self):
        out = self.term()
        while self.peek() in ("+", "-"):  # factor reads the sign
            out = out + self.term()
        return out

    def term(self):
        out = self.factor()
        while self.peek() == "*":
            self.next()
            out = out * self.factor()
        return out

    def factor(self):
        if self.peek() in ("+", "-"):
            return self.sign() * self.factor()
        if self.peek() == "num" and self.peek(1) == "t":  # a coefficient against t: 2t^3
            return self.next()[1] * self.factor()
        base = self.atom()
        if self.peek() == "^":
            caret = self.next()[2]
            n = int(self.number(integer=True))
            if n < 0 and len(base.coeffs) != 1:
                raise ParseError("negative power of a non-monomial is not Laurent", caret)
            base = base**n
        return base

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return LaurentPoly.constant(val)
        if kind == "t":
            return LaurentPoly.monomial(1, 1)
        if kind != "(":
            raise ParseError(f"unexpected {kind!r} in {self.text!r}", pos)
        inner = self.expr()
        self.expect(")")
        return inner

    def number(self, integer=False):
        """An optionally signed number token, as a Fraction."""
        sign = self.sign()
        kind, val, pos = self.next()
        if kind != "num" or integer and val.denominator != 1:
            raise ParseError("expected an integer" if integer else "expected a number", pos)
        return sign * val


def parse_laurent(text):
    p = Parser(text)
    out = p.expr()
    p.expect("end")
    return out
