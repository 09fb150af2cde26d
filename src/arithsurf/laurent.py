"""Laurent polynomials over Q, the function ring for the archimedean
fiber R((t)) and for the finite-window models of multiplication operators.

Representation: dict {exponent: Fraction} with no zero values.  The
parser accepts products and sums of rationals (including decimals,
read exactly) and powers of t, e.g. "t*(3+t)", "5*t^2", "1/2*t^-1+t".
Negative powers of anything but a monomial are rejected: quotients like
(1+t)^-1 live in R((t)) but not in R[t, t^-1].
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
    r"\s*(?:(?P<num>\d+\.\d+|\d+/\d+|\d+)|(?P<t>t)|(?P<op>[-+*^()]))"
)


def _tokenize(text):
    pos, toks = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"bad character in {text!r}", pos)
        if m.group("num"):
            s = m.group("num")
            try:
                toks.append(("num", Fraction(s)))  # Fraction parses "a/b" and decimals
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {text!r}", m.start("num")) from None
        elif m.group("t"):
            toks.append(("t", None))
        else:
            toks.append((m.group("op"), None))
        pos = m.end()
    toks.append(("end", None))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i][0]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expr(self):
        sign = 1
        if self.peek() in ("+", "-"):
            if self.next()[0] == "-":
                sign = -1
        out = self.term() * sign
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            t = self.term()
            out = out + (t if op == "+" else -t)
        return out

    def term(self):
        out = self.factor()
        while self.peek() == "*":
            self.next()
            out = out * self.factor()
        return out

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.next()
            sign = 1
            if self.peek() == "-":
                self.next()
                sign = -1
            kind, val = self.next()
            if kind != "num" or val.denominator != 1:
                raise ParseError("exponent must be an integer", self.i)
            base = base ** (sign * int(val))
        return base

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return LaurentPoly.constant(val)
        if kind == "t":
            return LaurentPoly.monomial(1, 1)
        if kind == "(":
            inner = self.expr()
            if self.next()[0] != ")":
                raise ParseError("unbalanced parenthesis", self.i)
            return inner
        if kind == "-":
            return -self.atom()
        raise ParseError(f"unexpected token {kind!r}", self.i)


def parse_laurent(text):
    p = _Parser(_tokenize(text))
    out = p.expr()
    if p.peek() != "end":
        raise ParseError(f"trailing input in {text!r}", p.i)
    return out
