"""Polynomials over F_p and complete factorization.

All arithmetic runs on one kernel of plain coefficient lists, low to high
(`_reduce`, `_add`, `_sub`, `_mul`, `_rem`, `_divmod`, `_powmod`, `_gcd`).
Inputs may hold any integers; a kernel function reduces each coefficient
once, at the end of a sum, product or division, and returns a list in
[0, m) with no trailing zeros.  `padic` lifts on the same kernel mod p^k.

Factoring first strips the roots, with their multiplicities, by evaluating
at every x in F_p when p <= ROOT_SCAN; a rootless cofactor of degree 2 or 3
is irreducible.  The rest goes through squarefree decomposition (char-p
aware; one gcd when gcd(f, f') = 1), distinct-degree splitting, then seeded
Cantor-Zassenhaus equal-degree splitting (trace construction for p = 2; its
generator is built only when a block needs splitting), all on lists.  The
distinct-degree split takes x^p by left-to-right squaring whose multiply
step is a shift, and roots split by (x + delta)^((p-1)/2) the same way.
For odd p, a monic squarefree quadratic met on the way (a squarefree
block, a distinct-degree block of two roots, a two-root piece of the
equal-degree split) skips the powering: Euler's criterion on its
discriminant decides it, and the roots come from a Tonelli-Shanks square
root, one integer `pow` or a few.

`factor_mod_p` takes an optional `split`, polynomials that may share
factors with the reduction (a horizontal curve's bases b with
p | Res(h, b)).  Above ROOT_SCAN their gcds with the reduction cut it into
pieces, by Euclid alone, which are factored apart and merged; the result
and the memo key are those of factoring it whole.

A ModPPoly is built only where a result leaves the module: the factors
`factor_mod_p` returns and the results of the public operators and
functions, which are thin wrappers over the kernel.
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


def _tonelli_shanks(a, p):
    """A square root of a quadratic residue a != 0 mod an odd prime p
    (Cohen, Alg. 1.5.1); the non-residue it needs is the least one, found
    by Euler's criterion."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _sqrt_mod_p(a, p):
    """A square root of a mod an odd prime p; NotExact for a non-residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise NotExact(f"{a} is not a quadratic residue mod {p}")
    return _tonelli_shanks(a, p)


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

# Primes up to which factoring first finds the roots by evaluating at every
# x in F_p, where that is cheaper than the powering and splitting it saves.
# The measured crossover is near 330 for random reductions of degree 2-4 and
# near 500 for those of the law checks, whose support primes divide a
# resultant and so often carry a root.  The law figure was measured while
# those roots still went through the equal-degree split; since the curve's
# gcd with a base and the square-root split find them, the crossover may
# lie lower, but 400 stays until it is measured again.  Above the bound
# factor_mod_p also cuts the reduction by its split polynomials.
ROOT_SCAN = 400


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
        if len(c) == 1:  # squarefree: f is its own block
            accumulate(f, outer)
            return
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


def _shift_pow(delta, e, f, p):
    """(x + delta)^e modulo monic f over F_p, by left-to-right squaring: the
    multiply step is a shift plus one scaled add on the square, before the
    one reduction that both share."""
    r = _rem([delta, 1], f, 1, p) if e else [1]
    for bit in bin(e)[3:]:
        s = _mul(r, r)
        if bit == "1":
            s = [0] + s
            if delta:
                for i, c in enumerate(s[1:]):
                    s[i] += delta * c
        r = _rem(s, f, 1, p)
    return r


def _strip_roots(f, p):
    """The linear factors (t - x, multiplicity) of monic f over F_p, found
    by evaluating f at every x in F_p, and the rootless cofactor."""
    vals = [1] * p  # f is monic
    for c in reversed(f[:-1]):
        vals = [(v * x + c) % p for x, v in enumerate(vals)]
    linear = []
    for x, v in enumerate(vals):
        if v:
            continue
        lin, mult = [-x % p, 1], 0
        while True:
            q, r = _divmod(f, lin, p)
            if r:
                break
            f, mult = q, mult + 1
        linear.append((lin, mult))
    return linear, f


def _split_quadratic(g, p):
    """The monic irreducible factors of a monic squarefree quadratic g over
    F_p, p odd, sorted: g itself when its discriminant is a non-residue
    (Euler's criterion), else t - x for its roots x = (-b +- s)/2, with s
    the square root of the discriminant by Tonelli-Shanks."""
    c, b = g[0], g[1]
    disc = (b * b - 4 * c) % p
    if pow(disc, (p - 1) // 2, p) != 1:
        return [g]
    s = _tonelli_shanks(disc, p)
    if s * s % p != disc:
        raise NotExact(f"{s} is not a square root of the discriminant {disc} mod {p}")
    half = (p + 1) // 2
    return sorted([[(b - s) * half % p, 1], [(b + s) * half % p, 1]])


def distinct_degree_split(f, p):
    """Squarefree monic f over F_p -> list of (product of its irreducible
    factors of degree d, d), as coefficient lists.  x^p comes from
    _shift_pow, each later x^(p^d) from a p-th power of the one before."""
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
        h = _shift_pow(0, p, v, p) if d == 1 else _powmod(h, p, v, p)
        g = _gcd(_sub(h, x, p), v, p)
        if len(g) > 1:
            out.append((g, d))
            v = _divmod(v, g, p)[0]
            h = _rem(h, v, 1, p)
    return out


def equal_degree_split(f, d, p, rng):
    """Cantor-Zassenhaus: factor squarefree monic f over F_p into its
    degree-d irreducible factors (coefficient lists, sorted); rng drives the
    random splitting polynomials.  For odd p, roots (d = 1) split by
    (x + delta)^((p-1)/2) through _shift_pow, down to a piece of two roots,
    which _split_quadratic splits without a draw."""
    factors = []
    stack = [f]
    while stack:
        g = stack.pop()
        if len(g) - 1 == d:
            factors.append(g)
            continue
        if p > 2 and d == 1 and len(g) == 3:
            factors.extend(_split_quadratic(g, p))
            continue
        while True:
            if p > 2 and d == 1:
                b = _shift_pow(rng.randrange(p), (p - 1) // 2, g, p)
                h = _gcd(_sub(b, [1], p), g, p)
            else:
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


def factor_mod_p(h, p, seed=0, split=()):
    """Factor a nonzero IntPoly (or ModPPoly) completely modulo p.

    Returns (unit, [(monic irreducible ModPPoly, exponent), ...]) with the
    factor list sorted by (degree, coefficients).  unit is the leading
    coefficient in F_p of the reduction.  Deterministic for a fixed seed,
    so a law verification factors each reduction once (see memo.py).

    split holds integer or mod-p polynomials that may share factors with
    the reduction, such as the bases b with p | Res(h, b) on a horizontal
    curve h: for p > ROOT_SCAN the reduction is cut into pieces by its gcds
    with them, and the pieces are factored apart (below it the root scan
    finds what the cut would).  By unique factorization neither the result
    nor the memo key depends on split.
    """
    f = ModPPoly.from_intpoly(h, p) if isinstance(h, IntPoly) else h
    unit, factors = shared(
        ("factor_mod_p", f, p, seed), lambda: _factor_by_pieces(f, p, seed, split)
    )
    return unit, list(factors)


def _factor_by_pieces(f, p, seed, split):
    """_factor_mod_p on f or, for p > ROOT_SCAN, on each piece that the
    gcds of the monic reduction with the polynomials in split cut it into
    (Euclid only, no powering), adding up the exponents of equal factors."""
    if not split or f.degree < 2 or p <= ROOT_SCAN:
        return _factor_mod_p(f, p, seed)
    pieces = [_monic(f.coeffs, p)]
    for b in split:
        bbar = _reduce(b.coeffs, p)
        if len(bbar) < 2:
            continue
        cut = []
        for q in pieces:
            g = _gcd(q, bbar, p) if len(q) > 2 else [1]
            if 1 < len(g) < len(q):
                cut += [g, _divmod(q, g, p)[0]]
            else:
                cut.append(q)
        pieces = cut
    if len(pieces) < 2:
        return _factor_mod_p(f, p, seed)
    exponents = {}
    for q in pieces:
        for irr, mult in _factor_mod_p(ModPPoly._reduced(p, q), p, seed)[1]:
            exponents[irr] = exponents.get(irr, 0) + mult
    ordered = sorted(exponents.items(), key=lambda fe: (fe[0].degree, fe[0].coeffs))
    return f.lc, tuple(ordered)


def _factor_mod_p(f, p, seed):
    """factor_mod_p on the reduction f, with the factors as a tuple."""
    if f.is_zero:
        raise ZeroPolynomial(f"polynomial vanishes mod {p}")
    unit = f.lc
    if f.degree < 2:  # a unit, or its own monic factor
        return unit, ((f.monic(), 1),) if f.degree == 1 else ()
    fm = _monic(f.coeffs, p)
    result, rest = [], fm
    if p <= ROOT_SCAN:
        result, rest = _strip_roots(fm, p)
        if len(rest) in (3, 4):  # no roots, degree 2 or 3: irreducible
            result.append((rest, 1))
            rest = [1]
    rng = None  # built at the first split that draws
    for g, mult in squarefree_decomposition(rest, p) if len(rest) > 1 else ():
        if p > 2 and len(g) == 3:
            result.extend((irr, mult) for irr in _split_quadratic(g, p))
            continue
        for block, d in distinct_degree_split(g, p):
            if len(block) - 1 == d:
                result.append((block, mult))
                continue
            if p > 2 and d == 1 and len(block) == 3:
                result.extend((irr, mult) for irr in _split_quadratic(block, p))
                continue
            if rng is None:
                rng = random.Random((seed, p, tuple(fm)).__hash__() & 0x7FFFFFFF)
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
