"""Exact univariate integer polynomials.

Coefficients are stored low-to-high in a tuple with no trailing zeros;
the zero polynomial is the empty tuple.  The variable prints as `t`.
All arithmetic is exact over Z; division helpers that need Q return
fractions.Fraction coefficients.
"""

import math
from fractions import Fraction

from .errors import NotExact, ParseError, ZeroPolynomial
from .laurent import parse_laurent
from .primes import factor_integer


class IntPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("IntPoly is immutable")

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lc(self):
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("IntPoly", self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[i] - other[i] for i in range(n)])

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of IntPoly")
        out, base = IntPoly([1]), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def evaluate(self, x):
        """Horner evaluation; works for int, Fraction, mpf, mpc inputs."""
        acc = 0 * x  # zero of the right type
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    # -- integer-polynomial specifics -------------------------------------

    def content_primitive(self):
        """Return (content, primitive) with primitive's leading coefficient > 0.

        content * primitive == self; the content carries the sign.
        """
        if self.is_zero:
            raise ZeroPolynomial("content of zero polynomial")
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, abs(c))
        if self.lc < 0:
            g = -g
        return g, IntPoly([c // g for c in self.coeffs])

    def primitive_part(self):
        return self.content_primitive()[1]

    def substitute(self, a, e, c, d):
        """(c t + d)^deg * self((a t + e)/(c t + d)) for integers a, e, c, d.

        Homogeneous Horner from the top coefficient b_deg down:
        acc <- acc * (a t + e) + b_i * (c t + d)^(deg - i).  The degree
        drops exactly when self vanishes at a/c, the image of t = infinity
        (at 0 for the reversal (0, 1, 1, 0))."""
        cs = self.coeffs
        if not cs:
            return self
        n = len(cs) - 1
        acc, power = [cs[-1]] + [0] * n, [1] + [0] * n  # power = (c t + d)^k
        for k, b in enumerate(reversed(cs[:-1]), 1):
            for j in range(k, 0, -1):
                power[j] = d * power[j] + c * power[j - 1]
                acc[j] = e * acc[j] + a * acc[j - 1] + b * power[j]
            power[0] *= d
            acc[0] = e * acc[0] + b * power[0]
        return IntPoly(acc)

    def __repr__(self):
        return f"IntPoly({format_intpoly(self)!r})"

    def __str__(self):
        return format_intpoly(self)


def _coerce(x):
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return IntPoly([x])
    raise TypeError(f"cannot coerce {x!r} to IntPoly")


T = IntPoly([0, 1])
ONE = IntPoly([1])


def divmod_exact(a, b):
    """Division in Q[t] returning Fraction-coefficient (quotient, remainder)."""
    if b.is_zero:
        raise ZeroPolynomial("division by zero polynomial")
    rem = [Fraction(c) for c in a.coeffs]
    quo = [Fraction(0)] * max(0, len(rem) - len(b.coeffs) + 1)
    blc = Fraction(b.lc)
    db = b.degree
    while len(rem) - 1 >= db and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        k = len(rem) - 1 - db
        q = rem[-1] / blc
        quo[k] = q
        for i, bc in enumerate(b.coeffs):
            rem[k + i] -= q * bc
        rem.pop()
    return quo, rem


def divides(b, a):
    """True when b | a in Q[t] (equivalently in Z[t] up to content)."""
    _, rem = divmod_exact(a, b)
    return not any(rem)


def pseudo_rem(a, b):
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a modulo b, in Z[t]."""
    if b.is_zero:
        raise ZeroPolynomial("pseudo-division by zero")
    return IntPoly(_pseudo_rem(a.coeffs, b.coeffs, b.lc))


def _pseudo_rem(a, b, lc):
    """pseudo_rem on coefficient lists, low to high: lc^(deg a - deg b + 1)
    * a modulo b, trimmed, where lc is the leading coefficient of b that
    the division scales by."""
    r = list(a)
    d = len(b) - 1
    for k in range(len(r) - 1 - d, -1, -1):
        top = r[-1]
        r = [c * lc for c in r]
        # r <- lc*r - top*(t^k * b); kills the coefficient at k+d exactly.
        for i, bc in enumerate(b):
            r[k + i] -= top * bc
        if r.pop():
            raise NotExact(f"pseudo-division by {IntPoly(b)} left a leading term")
    while r and r[-1] == 0:
        r.pop()
    return r


def resultant(a, b):
    """Res(a, b) = lc(a)^deg(b) * prod b(alpha_i) over the roots of a.

    Subresultant PRS (Cohen, Alg. 3.3.7) on coefficient lists; exact over
    Z.  A linear side b1 t + b0 against a of degree n takes the closed form
    (-1)^n sum a_i (-b0)^i b1^(n-i), up to the sign of the swap.
    """
    if a.is_zero or b.is_zero:
        raise ZeroPolynomial("resultant of zero polynomial")
    s = 1
    if a.degree < b.degree:
        if (a.degree & 1) and (b.degree & 1):
            s = -s
        a, b = b, a
    if b.degree == 0:
        return s * b.lc**a.degree
    if b.degree == 1:  # the closed form, by homogeneous Horner
        (b0, b1), acc, power = b.coeffs, 0, 1
        for c in reversed(a.coeffs):
            acc, power = acc * -b0 + c * power, power * b1
        return s * (-acc if a.degree & 1 else acc)
    ca, a1 = a.content_primitive()
    cb, b1 = b.content_primitive()
    t = ca**b.degree * cb**a.degree
    g = h = 1
    A, B = a1.coeffs, b1.coeffs
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if (dA & 1) and (dB & 1):
            s = -s
        R = _pseudo_rem(A, B, B[-1])
        A = B
        if not R:
            return 0
        div = g * h**delta
        if any(c % div for c in R):
            raise NotExact(f"subresultant remainder not divisible by {div}")
        B = [c // div for c in R]
        g = A[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            num = g**delta
            den = h ** (delta - 1)
            if num % den:
                raise NotExact(f"subresultant coefficient {num} not divisible by {den}")
            h = num // den
        if len(B) == 1:
            break
    # Closing step: Res = s * t * lc(B)^deg(A) / h^(deg(A) - 1).
    dA = len(A) - 1
    num = B[-1] ** dA
    den = h ** (dA - 1) if dA >= 1 else 1
    if den == 0 or num % den:
        raise NotExact(f"subresultant bookkeeping broke: {num} / {den}")
    return s * t * (num // den)


def discriminant(h):
    if h.degree < 1:
        raise ZeroPolynomial("discriminant needs degree >= 1")
    d = h.degree
    r = resultant(h, h.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    q, rem = divmod(sign * r, h.lc)
    if rem:
        raise NotExact(f"Res(h, h') = {r} is not divisible by lc(h) = {h.lc}")
    return q


def gcd_int(a, b):
    """Polynomial gcd over Z (primitive, positive leading coefficient)."""
    if a.is_zero:
        return b if b.is_zero else b.primitive_part()
    if b.is_zero:
        return a.primitive_part()
    ca, A = a.content_primitive()
    cb, B = b.content_primitive()
    c = math.gcd(abs(ca), abs(cb))
    if A.degree < B.degree:
        A, B = B, A
    while not B.is_zero:
        R = pseudo_rem(A, B)
        A = B
        B = R.primitive_part() if not R.is_zero else R
    return c * A


def squarefree_part(h):
    """h / gcd(h, h'), primitive with positive leading coefficient."""
    g = gcd_int(h, h.derivative())
    quo, rem = divmod_exact(h, g)
    if any(rem):
        raise NotExact(f"gcd(h, h') = {g} does not divide h = {h}")
    den = 1
    for q in quo:
        den = den * q.denominator // math.gcd(den, q.denominator)
    return IntPoly([int(q * den) for q in quo]).primitive_part()


def _divisors(n):
    sign, fs = factor_integer(abs(n))
    divs = [1]
    for p, e in fs:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def rational_roots(h):
    """All rational roots of h (as Fractions), via the rational root theorem."""
    if h.is_zero:
        raise ZeroPolynomial("roots of zero polynomial")
    roots = []
    k = 0
    while h[k] == 0:
        k += 1
    if k > 0:
        roots.append(Fraction(0))
        h = IntPoly(h.coeffs[k:])
    if h.degree == 0:
        return roots
    d = h.degree
    tops = _divisors(h.coeffs[0])
    for q in _divisors(h.lc):
        # s/q is a root iff q^d h(s/q) = sum c_i s^i q^(d-i) vanishes.
        terms = [c * q ** (d - i) for i, c in enumerate(h.coeffs)][::-1]
        for s in tops:
            if math.gcd(s, q) > 1:
                continue
            for x in (s, -s):
                acc = 0
                for t in terms:
                    acc = acc * x + t
                if acc == 0:
                    roots.append(Fraction(x, q))
    return sorted(roots)


def spot_check_irreducible(h):
    """Irreducibility over Q for deg <= 4: True/False; None when unchecked.

    deg 1: always irreducible.  deg 2, 3: irreducible iff no rational root.
    deg 4: rational-root test plus a bounded search for quadratic factors.
    """
    h = h.primitive_part()
    d = h.degree
    if d <= 0:
        return False
    if d == 1:
        return True
    if d > 4:
        return None
    if rational_roots(h):
        return False
    if d <= 3:
        return True
    # Degree 4: try h = (a t^2 + b t + c)(e t^2 + f t + g) over Z.
    h0, h1, h2, h3, h4 = (h[i] for i in range(5))
    for a in _divisors(h4):
        e = h4 // a
        for c in _divisors(h0):
            for c_signed in (c, -c):
                if h0 % c_signed != 0:
                    continue
                g = h0 // c_signed
                # unknowns b, f:  b*e + f*a = h3 ; b*g + f*c_signed = h1
                det = e * c_signed - a * g
                if det != 0:
                    b_num = h3 * c_signed - a * h1
                    f_num = e * h1 - h3 * g
                    if b_num % det or f_num % det:
                        continue
                    b, f = b_num // det, f_num // det
                    if a * g + b * f + c_signed * e == h2:
                        return False
                else:
                    # f = (h3 - b e) / a turns the h2 equation into
                    # e b^2 - h3 b + a (h2 - a g - c e) = 0
                    disc = h3 * h3 - 4 * e * a * (h2 - a * g - c_signed * e)
                    root = math.isqrt(disc) if disc >= 0 else -1
                    if root * root != disc:
                        continue
                    for b_num in (h3 + root, h3 - root):
                        if b_num % (2 * e):
                            continue
                        b = b_num // (2 * e)
                        f, rem = divmod(h3 - b * e, a)
                        if not rem and b * g + f * c_signed == h1:
                            return False
    return True


# -- text form ------------------------------------------------------------

def parse_intpoly(text):
    """Parse integer polynomials like 't^3-2', '2t-1', '-t^2 + 3*t + 1'."""
    return intpoly_of_laurent(parse_laurent(text), 0)


def intpoly_of_laurent(f, position):
    """The IntPoly equal to the LaurentPoly f read at position: refuses a
    negative exponent or a coefficient outside Z."""
    if f.is_zero:
        return IntPoly()
    if f.nu < 0:
        raise ParseError("negative exponent in an integer polynomial", position)
    if any(c.denominator != 1 for c in f.coeffs.values()):
        raise ParseError("coefficient outside Z in an integer polynomial", position)
    return IntPoly([int(f[i]) for i in range(f.top + 1)])


def format_intpoly(h):
    """h as text, read off its coefficients alone: h may be an IntPoly or a
    ModPPoly, which prints as its lift into [0, p)."""
    cs = h.coeffs
    if not cs:
        return "0"
    parts = []
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if not c:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            var = "t" if i == 1 else f"t^{i}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts)
