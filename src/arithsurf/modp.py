"""Polynomials over F_p and complete factorization.

Coefficients live in [0, p) low-to-high with no trailing zeros.  The
factorization pipeline is squarefree decomposition (char-p aware),
distinct-degree splitting, then seeded Cantor-Zassenhaus equal-degree
splitting (trace construction for p = 2).

Division, `pow_mod` and `gcd_modp` run on plain coefficient lists (`_mul`,
`_rem`), which reduce each coefficient once at the end of a product or
division rather than at every elimination step, and build a single
ModPPoly for the result.
"""

import random
from itertools import zip_longest

from .errors import NotExact, ZeroPolynomial
from .intpoly import IntPoly
from .memo import shared
from .primes import factor_integer


class ModPPoly:
    """Polynomial with coefficients mod p, or mod p^k for Hensel lifting.

    Ring operations hold for any modulus; division needs a unit leading
    coefficient of the divisor (a monic one mod p^k), and the gcd and
    factorization functions below need the modulus to be a prime p.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs=()):
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _reduced(cls, p, cs):
        """Build from a list cs already in [0, p), trimming trailing zeros."""
        while cs and cs[-1] == 0:
            cs.pop()
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(cs))
        return self

    def __setattr__(self, *_):
        raise AttributeError("ModPPoly is immutable")

    @classmethod
    def from_intpoly(cls, h, p):
        return cls(p, h.coeffs)

    def to_intpoly(self):
        """Lift with coefficients in [0, p)."""
        return IntPoly(self.coeffs)

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def lc(self):
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        return (
            isinstance(other, ModPPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(("ModPPoly", self.p, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("mixed characteristics")

    def __add__(self, other):
        self._check(other)
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return ModPPoly(self.p, [a + b for a, b in pairs])

    def __sub__(self, other):
        self._check(other)
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return ModPPoly(self.p, [a - b for a, b in pairs])

    def __neg__(self):
        return ModPPoly(self.p, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return ModPPoly(self.p, [c * other for c in self.coeffs])
        self._check(other)
        return ModPPoly(self.p, _mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def monic(self):
        if self.is_zero:
            return self
        inv = pow(self.lc, -1, self.p)
        return self * inv

    def _divisor(self, other):
        """Checked (coefficients, inverse of the leading one) of a divisor."""
        if other.is_zero:
            raise ZeroPolynomial("division by zero polynomial")
        self._check(other)
        return other.coeffs, pow(other.coeffs[-1], -1, self.p)

    def __divmod__(self, other):
        mod, inv = self._divisor(other)
        p = self.p
        quo = [0] * max(0, len(self.coeffs) - len(mod) + 1)
        rem = _rem(list(self.coeffs), mod, inv, p, quo)
        return ModPPoly._reduced(p, quo), ModPPoly._reduced(p, rem)

    def __mod__(self, other):
        mod, inv = self._divisor(other)
        return ModPPoly._reduced(self.p, _rem(list(self.coeffs), mod, inv, self.p))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def derivative(self):
        return ModPPoly(self.p, [i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def __repr__(self):
        return f"ModPPoly({self.p}, {self.to_intpoly()!s})"


def x_poly(p):
    return ModPPoly(p, (0, 1))


def one_poly(p):
    return ModPPoly(p, (1,))


def gcd_modp(a, b):
    a._check(b)
    p = a.p
    x, y = list(a.coeffs), list(b.coeffs)
    while y:
        x, y = y, _rem(x, y, pow(y[-1], -1, p), p)
    return ModPPoly._reduced(p, x).monic()


def _rem(rem, mod, inv, m, quo=None):
    """The list rem reduced modulo the coefficient tuple mod, in place.

    inv is the inverse mod m of mod's leading coefficient.  Entries of rem
    may lie outside [0, m); the result is reduced and trimmed.  A list quo
    of the quotient's length receives the quotient.
    """
    d = len(mod) - 1
    for k in range(len(rem) - d - 1, -1, -1):
        q = rem[k + d] * inv % m
        if q:
            if quo is not None:
                quo[k] = q
            for i in range(d):
                rem[k + i] -= q * mod[i]
    del rem[d:]
    rem = [c % m for c in rem]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _mul(a, b):
    """Product of two coefficient sequences, as an unreduced list."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _mulmod(a, b, mod, inv, m):
    """a*b modulo mod, on coefficient sequences mod m (see _rem)."""
    return _rem(_mul(a, b), mod, inv, m)


def pow_mod(base, e, mod):
    """base^e modulo mod, by square and multiply."""
    mc, inv = base._divisor(mod)
    m = base.p
    result, b = [1], _rem(list(base.coeffs), mc, inv, m)
    while e:
        if e & 1:
            result = _mulmod(result, b, mc, inv, m)
        e >>= 1
        if e:
            b = _mulmod(b, b, mc, inv, m)
    return ModPPoly._reduced(m, result)


def _pth_root(f):
    """For f with f' = 0 (so f = g(t^p)), return g; over F_p coefficients
    are their own p-th roots."""
    p = f.p
    if any(c for i, c in enumerate(f.coeffs) if i % p):
        raise NotExact(f"{f} is not a polynomial in t^{p}")
    return ModPPoly._reduced(p, list(f.coeffs[::p]))


def squarefree_decomposition(f):
    """Monic f = prod g_i^i with the g_i squarefree and pairwise coprime.

    Returns a sorted list of (g_i, i), omitting trivial g_i = 1.
    """
    p = f.p
    out = {}

    def accumulate(g, mult):
        if g.degree >= 1:
            out[mult] = out.get(mult, one_poly(p)) * g

    def decompose(f, outer):
        fp = f.derivative()
        if fp.is_zero:
            decompose(_pth_root(f), outer * p)
            return
        c = gcd_modp(f, fp)
        w = f // c
        i = 1
        while w.degree >= 1:
            y = gcd_modp(w, c)
            z = w // y
            accumulate(z, i * outer)
            w = y
            c = c // y
            i += 1
        if c.degree >= 1:
            decompose(_pth_root(c), outer * p)

    decompose(f.monic(), 1)
    return sorted(((g, i) for i, g in out.items()), key=lambda gi: (gi[1], gi[0].coeffs))


def distinct_degree_split(f):
    """Squarefree monic f -> list of (product-of-irreducibles-of-degree-d, d)."""
    p = f.p
    out = []
    x = x_poly(p)
    h = x
    v = f
    d = 0
    while v.degree > 0:
        d += 1
        if 2 * d > v.degree:
            out.append((v, v.degree))
            break
        h = pow_mod(h, p, v)
        g = gcd_modp(h - x, v)
        if g.degree > 0:
            out.append((g, d))
            v = v // g
            h = h % v
    return out


def equal_degree_split(f, d, rng):
    """Cantor-Zassenhaus: factor squarefree monic f into its degree-d
    irreducible factors; rng drives the random splitting polynomials."""
    p = f.p
    if f.degree == d:
        return [f]
    factors = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g.degree == d:
            factors.append(g)
            continue
        while True:
            a = ModPPoly(p, [rng.randrange(p) for _ in range(g.degree)])
            if a.degree < 1:
                continue
            if p == 2:
                # Trace map over F_{2^d}: T(a) = a + a^2 + ... + a^(2^(d-1)).
                b = a % g
                tr = b
                for _ in range(d - 1):
                    b = b * b % g
                    tr = (tr + b) % g
                h = gcd_modp(tr, g)
            else:
                b = pow_mod(a, (p**d - 1) // 2, g)
                h = gcd_modp(b - one_poly(p), g)
            if 0 < h.degree < g.degree:
                stack.append(h)
                stack.append(g // h)
                break
    factors.sort(key=lambda q: q.coeffs)
    return factors


def factor_mod_p(h, p, seed=0):
    """Factor a nonzero IntPoly (or ModPPoly) completely modulo p.

    Returns (unit, [(monic irreducible ModPPoly, exponent), ...]) with the
    factor list sorted by (degree, coefficients).  unit is the leading
    coefficient in F_p of the reduction.  Deterministic for a fixed seed,
    so a law verification factors each reduction once (see memo.py).
    """
    f = ModPPoly.from_intpoly(h, p) if isinstance(h, IntPoly) else h
    unit, factors = shared(("factor_mod_p", f, p, seed), lambda: _factor_mod_p(f, p, seed))
    return unit, list(factors)


def _factor_mod_p(f, p, seed):
    """factor_mod_p on the reduction f, with the factors as a tuple."""
    if f.is_zero:
        raise ZeroPolynomial(f"polynomial vanishes mod {p}")
    unit = f.lc
    f = f.monic()
    rng = random.Random((seed, p, f.coeffs).__hash__() & 0x7FFFFFFF)
    result = []
    for g, mult in squarefree_decomposition(f):
        for block, d in distinct_degree_split(g):
            for irr in equal_degree_split(block, d, rng):
                result.append((irr, mult))
    result.sort(key=lambda fe: (fe[0].degree, fe[0].coeffs))
    return unit, tuple(result)


def is_irreducible_modp(f):
    """Rabin's test: f monic of degree n is irreducible iff
    x^(p^n) = x mod f and gcd(x^(p^(n/q)) - x, f) = 1 for primes q | n."""
    p = f.p
    n = f.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    f = f.monic()
    x = x_poly(p)
    for q, _ in factor_integer(n)[1]:
        hq = x
        for _ in range(n // q):
            hq = pow_mod(hq, p, f)
        if gcd_modp(hq - x, f).degree != 0:
            return False
    hn = x
    for _ in range(n):
        hn = pow_mod(hn, p, f)
    return (hn - x) % f == ModPPoly(p)


def multiplicity(f, pi):
    """Largest k with pi^k | f (both over the same F_p)."""
    if f.is_zero:
        raise ZeroPolynomial("multiplicity in zero polynomial")
    k = 0
    while True:
        q, r = divmod(f, pi)
        if not r.is_zero:
            return k
        f = q
        k += 1


def random_monic_irreducible(p, d, rng):
    """Uniformly sample (by rejection) a monic irreducible of degree d mod p."""
    while True:
        f = ModPPoly(p, [rng.randrange(p) for _ in range(d)] + [1])
        if is_irreducible_modp(f):
            return f
