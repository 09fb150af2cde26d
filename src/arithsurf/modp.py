"""Polynomials over F_p and complete factorization.

Coefficients live in [0, p) low-to-high with no trailing zeros.  The
factorization pipeline is squarefree decomposition (char-p aware),
distinct-degree splitting, then seeded Cantor-Zassenhaus equal-degree
splitting (trace construction for p = 2).
"""

import random
from itertools import zip_longest

from .errors import ZeroPolynomial
from .intpoly import IntPoly
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
        if self.is_zero or other.is_zero:
            return ModPPoly(self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return ModPPoly(self.p, out)

    __rmul__ = __mul__

    def monic(self):
        if self.is_zero:
            return self
        inv = pow(self.lc, -1, self.p)
        return self * inv

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroPolynomial("division by zero polynomial")
        self._check(other)
        p = self.p
        rem = list(self.coeffs)
        d = other.degree
        inv = pow(other.lc, -1, p)
        quo = [0] * max(0, len(rem) - d)
        for k in range(len(rem) - d - 1, -1, -1):
            q = rem[k + d] * inv % p
            if q:
                quo[k] = q
                for i, bc in enumerate(other.coeffs):
                    rem[k + i] = (rem[k + i] - q * bc) % p
        return ModPPoly(p, quo), ModPPoly(p, rem[:d])

    def __mod__(self, other):
        return divmod(self, other)[1]

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
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def pow_mod(base, e, mod):
    """base^e modulo mod, by square and multiply."""
    result = one_poly(base.p)
    base = base % mod
    while e:
        if e & 1:
            result = result * base % mod
        base = base * base % mod
        e >>= 1
    return result


def _pth_root(f):
    """For f with f' = 0 (so f = g(t^p)), return g; over F_p coefficients
    are their own p-th roots."""
    p = f.p
    assert all(c == 0 for i, c in enumerate(f.coeffs) if i % p)
    return ModPPoly(p, f.coeffs[::p])


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
    coefficient in F_p of the reduction.  Deterministic for a fixed seed.
    """
    f = ModPPoly.from_intpoly(h, p) if isinstance(h, IntPoly) else h
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
    return unit, result


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
