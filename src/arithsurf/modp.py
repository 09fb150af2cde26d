"""Polynomials over F_p and complete factorization.

All arithmetic runs on one kernel of plain coefficient lists, low to high
(`_reduce`, `_add`, `_sub`, `_mul`, `_rem`, `_divmod`, `_powmod`, `_gcd`).
Inputs may hold any integers; a kernel function reduces each coefficient
once, at the end of a sum, product or division, and returns a list in
[0, m) with no trailing zeros.  `padic` lifts on the same kernel mod p^k.

The factorization pipeline is squarefree decomposition (char-p aware),
distinct-degree splitting, then seeded Cantor-Zassenhaus equal-degree
splitting (trace construction for p = 2), all on lists.  A ModPPoly is
built only where a result leaves the module: the factors `factor_mod_p`
returns and the results of the public operators and functions, which are
thin wrappers over the kernel.
"""

import random
from itertools import zip_longest

from .errors import NotExact, ParseError, ZeroPolynomial
from .intpoly import IntPoly
from .memo import shared
from .primes import factor_integer

# -- the coefficient-list kernel ----------------------------------------------


def _reduce(a, m):
    """The coefficients a reduced into [0, m), trailing zeros trimmed."""
    cs = [c % m for c in a]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _add(a, b, m):
    return _reduce([x + y for x, y in zip_longest(a, b, fillvalue=0)], m)


def _sub(a, b, m):
    return _reduce([x - y for x, y in zip_longest(a, b, fillvalue=0)], m)


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


def _rem(rem, mod, inv, m, quo=None):
    """The list rem reduced modulo the coefficient sequence mod, in place.

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
    return _reduce(rem, m)


def _divmod(a, b, m):
    """(quotient, remainder) of a by b mod m; b's leading coefficient must
    be a unit mod m."""
    quo = [0] * max(0, len(a) - len(b) + 1)
    rem = _rem(list(a), b, pow(b[-1], -1, m), m, quo)
    while quo and quo[-1] == 0:
        quo.pop()
    return quo, rem


def _mulmod(a, b, mod, inv, m):
    """a*b modulo mod, on coefficient sequences mod m (see _rem)."""
    return _rem(_mul(a, b), mod, inv, m)


def _powmod(base, e, mod, m):
    """base^e modulo mod, by square and multiply."""
    inv = pow(mod[-1], -1, m)
    result, b = [1], _rem(list(base), mod, inv, m)
    while e:
        if e & 1:
            result = _mulmod(result, b, mod, inv, m)
        e >>= 1
        if e:
            b = _mulmod(b, b, mod, inv, m)
    return result


def _monic(a, m):
    """Nonzero a scaled to leading coefficient 1 (a unit lc mod m)."""
    if a[-1] == 1:
        return a
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _gcd(a, b, p):
    """Monic gcd over F_p (empty when both are zero)."""
    while b:
        a, b = b, _rem(list(a), b, pow(b[-1], -1, p), p)
    return _monic(a, p) if a else []


def _derivative(a, m):
    return _reduce([i * c for i, c in enumerate(a)][1:], m)


def _pth_root(f, p):
    """For f over F_p with f' = 0 (so f = g(t^p)), return g; over F_p
    coefficients are their own p-th roots."""
    if any(c for i, c in enumerate(f) if i % p):
        raise NotExact(f"{IntPoly(f)} is not a polynomial in t^{p} mod {p}")
    return list(f[::p])


# -- the public polynomial type ------------------------------------------------


class ModPPoly:
    """Polynomial with coefficients mod p, or mod p^k for Hensel lifting.

    Ring operations hold for any modulus; division needs a unit leading
    coefficient of the divisor (a monic one mod p^k), and the gcd and
    factorization functions below need the modulus to be a prime p.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs=()):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(_reduce(coeffs, p)))

    @classmethod
    def _reduced(cls, p, cs):
        """Build from coefficients cs already in [0, p) and trimmed."""
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
            raise ParseError(f"mixed characteristics: mod {self.p} and mod {other.p}")

    def __add__(self, other):
        self._check(other)
        return ModPPoly._reduced(self.p, _add(self.coeffs, other.coeffs, self.p))

    def __sub__(self, other):
        self._check(other)
        return ModPPoly._reduced(self.p, _sub(self.coeffs, other.coeffs, self.p))

    def __neg__(self):
        return ModPPoly._reduced(self.p, _sub((), self.coeffs, self.p))

    def __mul__(self, other):
        if isinstance(other, int):
            return ModPPoly(self.p, [c * other for c in self.coeffs])
        self._check(other)
        return ModPPoly._reduced(self.p, _reduce(_mul(self.coeffs, other.coeffs), self.p))

    __rmul__ = __mul__

    def monic(self):
        if self.is_zero:
            return self
        return ModPPoly._reduced(self.p, _monic(self.coeffs, self.p))

    def _divisor(self, other):
        """The checked coefficients of a divisor."""
        if other.is_zero:
            raise ZeroPolynomial("division by zero polynomial")
        self._check(other)
        return other.coeffs

    def __divmod__(self, other):
        q, r = _divmod(self.coeffs, self._divisor(other), self.p)
        return ModPPoly._reduced(self.p, q), ModPPoly._reduced(self.p, r)

    def __mod__(self, other):
        mod = self._divisor(other)
        rem = _rem(list(self.coeffs), mod, pow(mod[-1], -1, self.p), self.p)
        return ModPPoly._reduced(self.p, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def __repr__(self):
        return f"ModPPoly({self.p}, {self.to_intpoly()!s})"


def gcd_modp(a, b):
    a._check(b)
    return ModPPoly._reduced(a.p, _gcd(a.coeffs, b.coeffs, a.p))


def pow_mod(base, e, mod):
    """base^e modulo mod, by square and multiply."""
    return ModPPoly._reduced(base.p, _powmod(base.coeffs, e, base._divisor(mod), base.p))


# -- factorization, on coefficient lists over F_p ------------------------------


def squarefree_decomposition(f, p):
    """Monic f = prod g_i^i over F_p with the g_i squarefree and pairwise
    coprime, all as coefficient lists.

    Returns a sorted list of (g_i, i), omitting trivial g_i = 1.
    """
    out = {}

    def accumulate(g, mult):
        if len(g) > 1:
            out[mult] = _reduce(_mul(out[mult], g), p) if mult in out else g

    def decompose(f, outer):
        fp = _derivative(f, p)
        if not fp:
            decompose(_pth_root(f, p), outer * p)
            return
        c = _gcd(f, fp, p)
        w = _divmod(f, c, p)[0]
        i = 1
        while len(w) > 1:
            y = _gcd(w, c, p)
            accumulate(_divmod(w, y, p)[0], i * outer)
            w = y
            c = _divmod(c, y, p)[0]
            i += 1
        if len(c) > 1:
            decompose(_pth_root(c, p), outer * p)

    decompose(f, 1)
    return sorted(((g, i) for i, g in out.items()), key=lambda gi: (gi[1], gi[0]))


def distinct_degree_split(f, p):
    """Squarefree monic f over F_p -> list of (product of its irreducible
    factors of degree d, d), as coefficient lists."""
    out = []
    x = [0, 1]
    h = x
    v = f
    d = 0
    while len(v) > 1:
        d += 1
        if 2 * d > len(v) - 1:
            out.append((v, len(v) - 1))
            break
        h = _powmod(h, p, v, p)
        g = _gcd(_sub(h, x, p), v, p)
        if len(g) > 1:
            out.append((g, d))
            v = _divmod(v, g, p)[0]
            h = _rem(h, v, 1, p)
    return out


def equal_degree_split(f, d, p, rng):
    """Cantor-Zassenhaus: factor squarefree monic f over F_p into its
    degree-d irreducible factors (coefficient lists, sorted); rng drives the
    random splitting polynomials."""
    if len(f) - 1 == d:
        return [f]
    factors = []
    stack = [f]
    while stack:
        g = stack.pop()
        if len(g) - 1 == d:
            factors.append(g)
            continue
        while True:
            a = _reduce([rng.randrange(p) for _ in range(len(g) - 1)], p)
            if len(a) < 2:
                continue
            if p == 2:
                # Trace map over F_{2^d}: T(a) = a + a^2 + ... + a^(2^(d-1)).
                b = tr = a  # already of lower degree than g
                for _ in range(d - 1):
                    b = _mulmod(b, b, g, 1, p)
                    tr = _add(tr, b, p)
                h = _gcd(tr, g, p)
            else:
                b = _powmod(a, (p**d - 1) // 2, g, p)
                h = _gcd(_sub(b, [1], p), g, p)
            if 1 < len(h) < len(g):
                stack.append(h)
                stack.append(_divmod(g, h, p)[0])
                break
    factors.sort()
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
    if f.degree < 2:  # a unit, or its own monic factor
        return unit, ((f.monic(), 1),) if f.degree == 1 else ()
    fm = _monic(f.coeffs, p)
    rng = random.Random((seed, p, tuple(fm)).__hash__() & 0x7FFFFFFF)
    result = []
    for g, mult in squarefree_decomposition(fm, p):
        for block, d in distinct_degree_split(g, p):
            for irr in equal_degree_split(block, d, p, rng):
                result.append((irr, mult))
    result.sort(key=lambda fe: (len(fe[0]), fe[0]))
    return unit, tuple((ModPPoly._reduced(p, irr), mult) for irr, mult in result)


def is_irreducible_modp(f):
    """Rabin's test: f monic of degree n is irreducible iff
    x^(p^n) = x mod f and gcd(x^(p^(n/q)) - x, f) = 1 for primes q | n."""
    p = f.p
    n = f.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    fm = _monic(f.coeffs, p)
    x = [0, 1]
    for q, _ in factor_integer(n)[1]:
        hq = x
        for _ in range(n // q):
            hq = _powmod(hq, p, fm, p)
        if len(_gcd(_sub(hq, x, p), fm, p)) != 1:
            return False
    hn = x
    for _ in range(n):
        hn = _powmod(hn, p, fm, p)
    return not _rem(_sub(hn, x, p), fm, 1, p)


def multiplicity(f, pi):
    """Largest k with pi^k | f (both over the same F_p)."""
    if f.is_zero:
        raise ZeroPolynomial("multiplicity in zero polynomial")
    mod = f._divisor(pi)
    cs, k = f.coeffs, 0
    while True:
        cs, rem = _divmod(cs, mod, f.p)
        if rem:
            return k
        k += 1


def random_monic_irreducible(p, d, rng):
    """Uniformly sample (by rejection) a monic irreducible of degree d mod p."""
    while True:
        f = ModPPoly(p, [rng.randrange(p) for _ in range(d)] + [1])
        if is_irreducible_modp(f):
            return f
