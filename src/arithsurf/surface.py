"""The arithmetic surface P^1 over Z: curves, closed points, and factored
rational functions on it.

A rational function is kept in factored form

    unit * prod base_i ^ e_i

with the unit a nonzero rational and every base a primitive irreducible
integer polynomial with positive leading coefficient.  The reciprocal of
the coordinate (the local equation of the infinity section) is accepted
on input as the marker INF and normalized to base t with negated
exponent, since INF = t^-1 as a function.

Curves are: Vertical(p) (the fiber over p), Horizontal(h) (the closure of
h = 0 on the generic fiber), and the infinity section.  Closed points are
(p, pi) with pi monic irreducible mod p, or (p, infinity) on each fiber.
The second coordinate chart s = 1/t is reached through chart_swap, an
involution on functions, curves and points.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonIrreducibleBase, ParseError, UnsupportedOrder, ZeroPolynomial
from .intpoly import (
    IntPoly,
    T,
    format_intpoly,
    parse_intpoly,
    resultant,
    spot_check_irreducible,
)
from .memo import shared
from .modp import ModPPoly, factor_mod_p, is_irreducible_modp
from .padic import vp
from .primes import factor_integer, is_prime

PRIME_COORD_BOUND = 2**63


@dataclass(frozen=True)
class FactoredRationalFunction:
    unit: Fraction
    factors: tuple  # ((IntPoly base, int exponent), ...) canonical order

    def __post_init__(self):
        if self.unit == 0:
            raise ZeroPolynomial("the zero function has no factored form")
        for b, _ in self.factors:
            if b.degree < 1 or b.lc < 0 or math.gcd(*b.coeffs) != 1:
                raise ParseError(
                    f"base {b} is not a primitive polynomial of degree >= 1 with lc > 0"
                )

    def exponent_of(self, base):
        for b, e in self.factors:
            if b == base:
                return e
        return 0

    def inv(self):
        return FactoredRationalFunction(
            1 / self.unit, tuple((b, -e) for b, e in self.factors)
        )

    def __mul__(self, other):
        merged = {b: e for b, e in self.factors}
        for b, e in other.factors:
            merged[b] = merged.get(b, 0) + e
        return make_function(self.unit * other.unit, list(merged.items()), check=False)

    def __str__(self):
        return format_function(self)


def make_function(unit, factors, check=True):
    """Normalize (unit, [(poly, exp), ...]) into a FactoredRationalFunction.

    Polynomial entries need not be primitive; contents move into the unit.
    Pass the string "INF" (or the parsed sentinel) as a base for t^-1.
    check=True runs the degree<=4 irreducibility spot-check on new bases.
    """
    unit = Fraction(unit)
    if unit == 0:
        raise ZeroPolynomial("the zero function has no factored form")
    merged = {}

    def add(base, exp):
        if exp:
            merged[base] = merged.get(base, 0) + exp

    for base, exp in factors:
        if isinstance(base, str):
            if base.upper() != "INF":
                raise ParseError(f"unknown base marker {base!r}")
            add(T, -exp)
            continue
        if base.is_zero:
            raise ZeroPolynomial("zero polynomial as base")
        content, prim = base.content_primitive()
        if prim.degree == 0:
            unit *= Fraction(content) ** exp
            continue
        unit *= Fraction(content) ** exp
        if check and exp:
            verdict = spot_check_irreducible(prim)
            if verdict is False:
                raise NonIrreducibleBase(f"base {prim} is reducible over Q")
        add(prim, exp)
    cleaned = tuple(
        (b, e) for b, e in sorted(merged.items(), key=lambda be: (be[0].degree, be[0].coeffs)) if e
    )
    return FactoredRationalFunction(unit, cleaned)


def constant_function(c):
    return make_function(c, [])


def format_function(f):
    parts = [str(f.unit)]
    for b, e in f.factors:
        parts.append(f"({format_intpoly(b)})^{e}")
    return " * ".join(parts)


_RATIONAL_RE = re.compile(r"\s*(-?\d+)(?:\s*/\s*(\d+))?\s*")


def parse_function(text):
    """Parse `<rational> ( '*' '(' <intpoly|INF> ')' '^' <int> )*`.

    Examples: "5", "2/3 * (t)^1 * (t^2+1)^-2", "1 * (INF)^2".
    """
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ParseError(f"expected leading rational in {text!r}", 0)
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError("zero denominator", m.start(2))
    unit = Fraction(num, den)
    pos = m.end()
    factors = []
    while pos < len(text):
        if text[pos] != "*":
            raise ParseError(f"expected '*' in {text!r}", pos)
        pos += 1
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text) or text[pos] != "(":
            raise ParseError(f"expected '(' in {text!r}", pos)
        close = text.find(")", pos)
        if close < 0:
            raise ParseError(f"unbalanced '(' in {text!r}", pos)
        body = text[pos + 1 : close].strip()
        pos = close + 1
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text) or text[pos] != "^":
            raise ParseError(f"expected '^' after base in {text!r}", pos)
        pos += 1
        em = re.match(r"\s*(-?\d+)\s*", text[pos:])
        if not em:
            raise ParseError(f"expected integer exponent in {text!r}", pos)
        exp = int(em.group(1))
        pos += em.end()
        if body.upper() == "INF":
            factors.append(("INF", exp))
        else:
            factors.append((parse_intpoly(body), exp))
    return make_function(unit, factors)


# -- curves -----------------------------------------------------------------

VERTICAL = "vertical"
HORIZONTAL = "horizontal"
INFINITY_SECTION = "infinity"


@dataclass(frozen=True)
class Curve:
    kind: str
    p: int = None
    h: IntPoly = None

    @classmethod
    def vertical(cls, p):
        if not (2 <= p < PRIME_COORD_BOUND and is_prime(p)):
            raise ParseError(f"vertical fiber needs a prime < 2^63, got {p}")
        return cls(VERTICAL, p=p)

    @classmethod
    def horizontal(cls, h):
        content, prim = h.content_primitive()
        if prim.degree < 1:
            raise ZeroPolynomial("horizontal curve needs degree >= 1")
        verdict = spot_check_irreducible(prim)
        if verdict is False:
            raise NonIrreducibleBase(f"curve polynomial {prim} is reducible")
        return cls(HORIZONTAL, h=prim)

    @classmethod
    def infinity(cls):
        return cls(INFINITY_SECTION)

    def label(self):
        if self.kind == VERTICAL:
            return f"V:{self.p}"
        if self.kind == HORIZONTAL:
            return f"H:{format_intpoly(self.h)}"
        return "INF"

    def sort_key(self):
        if self.kind == VERTICAL:
            return (0, self.p, ())
        if self.kind == HORIZONTAL:
            return (1, self.h.degree, self.h.coeffs)
        return (2, 0, ())

    def __str__(self):
        return self.label()


def parse_curve(text):
    s = text.strip()
    if s.upper() == "INF":
        return Curve.infinity()
    if s.startswith("V:"):
        try:
            return Curve.vertical(int(s[2:]))
        except ValueError:
            raise ParseError(f"bad vertical curve {text!r}") from None
    if s.startswith("H:"):
        return Curve.horizontal(parse_intpoly(s[2:]))
    raise ParseError(f"curve must be V:<p>, H:<poly>, or INF, got {text!r}")


# -- closed points ----------------------------------------------------------


@dataclass(frozen=True)
class ClosedPoint:
    p: int
    residue: ModPPoly = None  # None marks the fiber-infinity point

    def __post_init__(self):
        if not (2 <= self.p < PRIME_COORD_BOUND and is_prime(self.p)):
            raise ParseError(f"point needs a prime < 2^63, got {self.p}")
        if self.residue is not None:
            if self.residue.degree < 1:
                raise ParseError("a closed point's residue needs degree >= 1")
            if self.residue.p != self.p:
                raise ParseError(
                    f"residue taken mod {self.residue.p} at a point over {self.p}"
                )
            if self.residue.lc != 1:
                raise ParseError(
                    f"residue {self.residue.to_intpoly()} must be monic mod {self.p}"
                )
            if not is_irreducible_modp(self.residue):
                raise NonIrreducibleBase(
                    f"residue {self.residue.to_intpoly()} is reducible mod {self.p}"
                )

    @classmethod
    def _of_factor(cls, p, residue):
        """The point of an irreducible factor that factor_mod_p returned
        modulo a prime p below PRIME_COORD_BOUND: monic and irreducible by
        construction, so it skips the checks of the public constructor."""
        point = object.__new__(cls)
        object.__setattr__(point, "p", p)
        object.__setattr__(point, "residue", residue)
        return point

    @property
    def at_infinity(self):
        return self.residue is None

    @property
    def degree(self):
        return 1 if self.at_infinity else self.residue.degree

    @property
    def q(self):
        """Size of the residue field at the point."""
        return self.p**self.degree

    def label(self):
        if self.at_infinity:
            return f"{self.p}:inf"
        return f"{self.p}:{format_intpoly(self.residue.to_intpoly())}"

    def sort_key(self):
        return (self.p, 1 if self.at_infinity else 0, self.degree,
                () if self.at_infinity else self.residue.coeffs)

    def __str__(self):
        return self.label()


def parse_point(text):
    s = text.strip()
    if ":" not in s:
        raise ParseError(f"point must be p:<poly> or p:inf, got {text!r}")
    head, _, tail = s.partition(":")
    try:
        p = int(head)
    except ValueError:
        raise ParseError(f"bad prime in point {text!r}") from None
    infinity = ClosedPoint(p)  # checks p before reducing mod p
    tail = tail.strip()
    if tail.lower() == "inf":
        return infinity
    poly = parse_intpoly(tail)
    return ClosedPoint(p, ModPPoly.from_intpoly(poly, p))


# -- orders and incidence -----------------------------------------------------


def vertical_order(f, p):
    """Order of vanishing of f along the fiber over p (= v_p of the unit)."""
    return vp(f.unit, p)


def horizontal_order(f, curve):
    """Order of vanishing of f along a horizontal curve.

    Horizontal(h): the exponent of h in the factored form.  Infinity
    section: -(sum of exponent * degree), the order of f at t = infinity
    on the generic fiber.
    """
    if curve.kind == HORIZONTAL:
        return f.exponent_of(curve.h)
    if curve.kind == INFINITY_SECTION:
        return -sum(e * b.degree for b, e in f.factors)
    raise UnsupportedOrder(f"vertical curve {curve.label()}: use vertical_order")


def incident(curve, point):
    """Does the closed point lie on the curve?"""
    if curve.kind == VERTICAL:
        return curve.p == point.p
    if curve.kind == INFINITY_SECTION:
        return point.at_infinity
    h = curve.h
    if point.at_infinity:
        return h.lc % point.p == 0
    hbar = ModPPoly.from_intpoly(h, point.p)
    if hbar.degree < 1:
        return False
    return (hbar % point.residue).is_zero


# -- the second chart ---------------------------------------------------------


def chart_swap_poly(h):
    """Reverse a primitive irreducible base != t; returns (reversed, sign)."""
    if h == T:
        raise ParseError("the base t has no reversal: the second chart maps it to INF")
    if h[0] == 0:
        raise NonIrreducibleBase(f"base {h} != t vanishes at the origin, so t divides it")
    rev = h.reverse()
    if rev.lc < 0:
        return -rev, -1
    return rev, 1


def chart_swap(f):
    """The function in the chart s = 1/t; an involution.

    t maps to INF (exponent bookkeeping through the t-power), every other
    base h to its normalized reversal t^deg(h) * h(1/t).
    """
    unit = f.unit
    e_t = 0
    new_factors = []
    for b, e in f.factors:
        if b == T:
            e_t = e
            continue
        rev, sign = chart_swap_poly(b)
        if sign < 0 and e % 2:
            unit = -unit
        new_factors.append((rev, e))
    e_t_new = -e_t - sum(e * b.degree for b, e in f.factors if b != T)
    if e_t_new:
        new_factors.append((T, e_t_new))
    return make_function(unit, new_factors, check=False)


def chart_swap_curve(curve):
    if curve.kind == VERTICAL:
        return curve
    if curve.kind == INFINITY_SECTION:
        return Curve.horizontal(T)
    if curve.h == T:
        return Curve.infinity()
    rev, _ = chart_swap_poly(curve.h)
    return Curve(HORIZONTAL, h=rev)


def chart_swap_point(point):
    p = point.p
    if point.at_infinity:
        return ClosedPoint(p, ModPPoly(p, (0, 1)))
    pi = point.residue
    if pi == ModPPoly(p, (0, 1)):
        return ClosedPoint(p)
    if pi[0] == 0:
        raise NonIrreducibleBase(
            f"residue {pi.to_intpoly()} != t vanishes at the origin mod {p}, so t divides it"
        )
    rev = ModPPoly(p, tuple(reversed(pi.coeffs)))
    return ClosedPoint(p, rev.monic())


# -- enumeration used by the reciprocity laws ---------------------------------


def curves_through_point(point, f, g):
    """All curves through the point along which f or g can have nonzero
    order: the fiber, the horizontal closures of the bases, and the
    infinity section.  Every omitted curve contributes a zero symbol."""
    out = [Curve.vertical(point.p)]
    seen = set()
    for fn in (f, g):
        for b, _ in fn.factors:
            if b.coeffs in seen:
                continue
            seen.add(b.coeffs)
            c = Curve(HORIZONTAL, h=b)
            if incident(c, point):
                out.append(c)
    if point.at_infinity:
        out.append(Curve.infinity())
    out.sort(key=Curve.sort_key)
    return out


def points_on_vertical(p, f, g, seed=0):
    """Support of f and g on the fiber over p: the mod-p irreducible factors
    of the bases plus the fiber-infinity point."""
    infinity = ClosedPoint(p)  # checks p before any factoring
    residues = set()
    for fn in (f, g):
        for b, _ in fn.factors:
            bbar = ModPPoly.from_intpoly(b, p)
            if bbar.degree < 1:
                continue
            _, fs = factor_mod_p(bbar, p, seed=seed)
            for pi, _ in fs:
                residues.add(pi)
    points = [ClosedPoint._of_factor(p, pi) for pi in residues]
    points.append(infinity)
    points.sort(key=ClosedPoint.sort_key)
    return points


def curve_resultant(h, b):
    """Res(h, b), computed once per law verification (see memo.py): the
    prime support and the branch valuations read the same value.

    Raises NonIrreducibleBase when b shares a factor with h (a zero
    resultant): one of the two is reducible."""
    res = shared(("resultant", h, b), lambda: resultant(h, b))
    if res == 0:
        raise NonIrreducibleBase(
            f"base {b} shares a factor with the curve H:{format_intpoly(h)}, "
            "so one of them is reducible"
        )
    return res


def prime_support_on_horizontal(curve, f, g):
    """Primes p where f or g can have a zero or pole on the horizontal
    curve: divisors of Res(h, base), of the unit, and of lc(h).

    Raises NonIrreducibleBase when a base other than h shares a factor
    with h (see curve_resultant)."""
    if curve.kind == INFINITY_SECTION:
        curve = Curve.horizontal(T)
        f, g = chart_swap(f), chart_swap(g)
    return _horizontal_support(curve, f, g)[0]


def _horizontal_support(curve, f, g):
    """prime_support_on_horizontal on a curve of the first chart, and a
    dict from each base b != h of f or g to Res(h, b)."""
    if curve.kind == VERTICAL:
        raise UnsupportedOrder(f"vertical curve {curve.label()} has no horizontal support")
    h = curve.h
    primes = set()
    resultants = {}

    def add_int(n):
        _, fs = factor_integer(abs(n))
        primes.update(q for q, _ in fs)

    for fn in (f, g):
        add_int(fn.unit.numerator)
        add_int(fn.unit.denominator)
        for b, _ in fn.factors:
            if b != h:
                resultants[b] = curve_resultant(h, b)
                add_int(resultants[b])
    if h.lc != 1:
        add_int(h.lc)
    return sorted(primes), resultants


def points_on_horizontal(curve, f, g, seed=0):
    """Closed points of a horizontal curve in the support of f or g, as an
    iterator in ClosedPoint.sort_key order.

    The prime support and its bound check run at the call: it raises
    UnsupportedOrder when the support holds a prime beyond the
    closed-point coordinates (>= 2^63), before any point is produced.
    The curve is factored mod p only when iteration reaches p, so a caller
    that stops early factors nothing beyond where it stopped.  A timer
    around the call therefore covers the support and the iterator's
    creation; the factoring falls in the caller's time.

    Most support primes divide a resultant Res(h, b) with a base b, so
    h mod p and b mod p share a factor, and the factoring starts from
    those common factors (see _points_over)."""
    if curve.kind == INFINITY_SECTION:
        curve = Curve.horizontal(T)
        f, g = chart_swap(f), chart_swap(g)
    primes, resultants = _horizontal_support(curve, f, g)
    for p in primes:
        if p >= PRIME_COORD_BOUND:
            raise UnsupportedOrder(f"support prime {p} is not below 2^63")
    return _points_over(curve.h, primes, resultants, seed)


def _points_over(h, primes, resultants, seed):
    """The points of h = 0 over each prime in turn (primes sorted).

    resultants maps each base b != h to Res(h, b).  The bases b with
    p | Res(h, b) go to factor_mod_p as its split: above ROOT_SCAN it cuts
    h mod p by its gcds with them before factoring the pieces, which by
    unique factorization gives the factors, and the memo entry, of
    factoring h mod p whole."""
    for p in primes:
        points = []
        hbar = ModPPoly.from_intpoly(h, p)
        if hbar.degree >= 1:
            split = [b for b, res in resultants.items() if res % p == 0]
            _, fs = factor_mod_p(hbar, p, seed=seed, split=split)
            points.extend(ClosedPoint._of_factor(p, pi) for pi, _ in fs)
        if h.lc % p == 0:
            points.append(ClosedPoint(p))
        points.sort(key=ClosedPoint.sort_key)
        yield from points
