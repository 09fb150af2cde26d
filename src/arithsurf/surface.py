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
A coordinate change t = (a s + e)/(c s + d) in GL_2(Z) is an automorphism
of P^1 over Z, and act(sigma, .) applies it to functions, curves and
points.  The second chart s = 1/t is act(SWAP, .), an involution.  It is
used in two places: the infinity section becomes H:t with both functions
swapped (affine_chart) for its prime support, its points and its
horizontal law, and symbols reads a horizontal curve h at its point at
infinity (p | lc(h)) as a finite flag.  The fiber and the infinity section
are read at a point at infinity without it, by counting degrees and
valuations (see symbols).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonIrreducibleBase, ParseError, UnsupportedOrder, ZeroPolynomial
from .intpoly import (
    IntPoly,
    T,
    format_intpoly,
    intpoly_of_laurent,
    parse_intpoly,
    resultant,
    spot_check_irreducible,
)
from .laurent import Parser
from .memo import shared
from .modp import ModPPoly, _reduce, _rem, factor_mod_p, is_irreducible_modp
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


def parse_function(text):
    """Parse `<rational> ( '*' '(' <expr> | INF ')' '^' <int> )*`, each
    expr an integer polynomial in laurent's grammar.

    Examples: "5", "2/3 * (t)^1 * (t^2+1)^-2", "1 * (INF)^2".
    """
    p = Parser(text)
    unit = p.number()
    factors = []
    while p.peek() != "end":
        p.expect("*")
        start = p.expect("(")[2]
        if p.peek() == "inf":
            p.next()
            base = "INF"
        else:
            base = intpoly_of_laurent(p.expr(), start)
        p.expect(")")
        p.expect("^")
        factors.append((base, int(p.number(integer=True))))
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
    """A curve label; a ParseError in its polynomial reports the offset into
    the whole label, as blanks in place of the prefix keep it."""
    s = text.strip()
    if s.upper() == "INF":
        return Curve.infinity()
    if s.startswith("V:"):
        try:
            return Curve.vertical(int(s[2:]))
        except ValueError:
            raise ParseError(f"bad vertical curve {text!r}") from None
    if s.startswith("H:"):
        return Curve.horizontal(parse_intpoly(text.replace("H:", "  ", 1)))
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
        return f"{self.p}:{format_intpoly(self.residue)}"

    def sort_key(self):
        return (self.p, 1 if self.at_infinity else 0, self.degree,
                () if self.at_infinity else self.residue.coeffs)

    def __str__(self):
        return self.label()


def parse_point(text):
    """A point label; a ParseError in its polynomial reports the offset into
    the whole label, as blanks in place of the prefix keep it."""
    if ":" not in text:
        raise ParseError(f"point must be p:<poly> or p:inf, got {text!r}")
    head, _, tail = text.partition(":")
    try:
        p = int(head)
    except ValueError:
        raise ParseError(f"bad prime in point {text!r}") from None
    infinity = ClosedPoint(p)  # checks p before reducing mod p
    if tail.strip().lower() == "inf":
        return infinity
    poly = parse_intpoly(" " * (len(head) + 1) + tail)
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
    hbar = _reduce(h.coeffs, point.p)
    return len(hbar) > 1 and not _rem(hbar, point.residue.coeffs, 1, point.p)


# -- coordinate changes --------------------------------------------------------

SWAP = (0, 1, 1, 0)  # t = 1/s: the second chart


def _moved(b, sigma, p=None):
    """b^sigma = (c t + d)^deg(b) * b((a t + e)/(c t + d)), reduced mod p
    when p is given.  Its degree drops where b vanishes at the image a/c of
    t = infinity: a linear b moves to infinity, and a b of degree >= 2 has
    a linear factor there, so it is refused."""
    moved = b.substitute(*sigma)
    if p is not None:
        moved = ModPPoly.from_intpoly(moved, p)
    if b.degree >= 2 and moved.degree < b.degree:
        a, _, c, _ = sigma
        where = f" mod {p}" if p is not None else ""
        raise NonIrreducibleBase(
            f"{b} of degree {b.degree} vanishes at t = {Fraction(a, c)}{where}, "
            f"where s = infinity lands, so {IntPoly([-a, c]).primitive_part()} divides it"
        )
    return moved


def act(sigma, x):
    """The coordinate change t = (a s + e)/(c s + d), sigma = (a, e, c, d)
    in GL_2(Z), on a function, a curve or a closed point; for sigma then
    tau, act(tau, act(sigma, x)) == act(sigma . tau, x) (matrix product).

    A function's base b becomes b^sigma (see _moved) and the function picks
    up (c s + d)^(-sum e deg b).  t = infinity is the curve c s + d = 0, and
    stays the infinity section when c = 0; a residue pi mod p becomes
    pi^sigma mod p, made monic, and the point at infinity when its degree
    drops to 0.  A fiber is fixed.  Raises NonIrreducibleBase for a base,
    curve or residue of degree >= 2 whose degree drops."""
    a, e, c, d = sigma
    if a * d - e * c not in (1, -1):
        raise ParseError(f"{sigma} is not in GL_2(Z)")
    if isinstance(x, FactoredRationalFunction):
        factors = [(_moved(b, sigma), k) for b, k in x.factors]
        factors.append((IntPoly([d, c]), -sum(k * b.degree for b, k in x.factors)))
        return make_function(x.unit, factors, check=False)
    if isinstance(x, ClosedPoint):
        p = x.p
        if x.at_infinity:
            pi = ModPPoly(p, (d, c))
        else:
            pi = _moved(x.residue.to_intpoly(), sigma, p)
        return ClosedPoint(p, pi.monic() if pi.degree >= 1 else None)
    if x.kind == VERTICAL:
        return x
    h = IntPoly([d, c]) if x.kind == INFINITY_SECTION else _moved(x.h, sigma)
    return Curve.infinity() if h.degree < 1 else Curve(HORIZONTAL, h=h.primitive_part())


def affine_chart(curve, f, g):
    """A chart where the curve is the closure of h = 0, with f and g in it:
    the infinity section becomes H:t in s = 1/t, with f and g swapped, and
    any other curve stays as it is."""
    if curve.kind == INFINITY_SECTION:
        return act(SWAP, curve), act(SWAP, f), act(SWAP, g)
    return curve, f, g


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


def points_on_vertical(p, f, g):
    """Support of f and g on the fiber over p: the mod-p irreducible factors
    of the bases plus the fiber-infinity point."""
    infinity = ClosedPoint(p)  # checks p before any factoring
    residues = set()
    for fn in (f, g):
        for b, _ in fn.factors:
            bbar = ModPPoly.from_intpoly(b, p)
            if bbar.degree < 1:
                continue
            _, fs = factor_mod_p(bbar, p)
            for pi, _ in fs:
                residues.add(pi)
    points = [ClosedPoint._of_factor(p, pi) for pi in residues]
    points.append(infinity)
    points.sort(key=ClosedPoint.sort_key)
    return points


def curve_resultant(h, b):
    """Res(h, b), computed once per law verification (see memo.py): the
    prime support and the branch valuations read the same value.  Res(b, h)
    reads the same entry, as Res(b, h) = (-1)^(deg h deg b) Res(h, b).

    Raises NonIrreducibleBase when b shares a factor with h (a zero
    resultant): one of the two is reducible."""
    first, second = (h, b) if h.coeffs <= b.coeffs else (b, h)
    res = shared(("resultant", first, second), lambda: resultant(first, second))
    if first is not h and h.degree * b.degree % 2:
        res = -res
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
    return _horizontal_support(*affine_chart(curve, f, g))[0]


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


def points_on_horizontal(curve, f, g):
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
    curve, f, g = affine_chart(curve, f, g)
    primes, resultants = _horizontal_support(curve, f, g)
    for p in primes:
        if p >= PRIME_COORD_BOUND:
            raise UnsupportedOrder(f"support prime {p} is not below 2^63")
    return _points_over(curve.h, primes, resultants)


def _points_over(h, primes, resultants):
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
            _, fs = factor_mod_p(hbar, p, split=split)
            points.extend(ClosedPoint._of_factor(p, pi) for pi, _ in fs)
        if h.lc % p == 0:
            points.append(ClosedPoint(p))
        points.sort(key=ClosedPoint.sort_key)
        yield from points
