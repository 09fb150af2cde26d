"""p-adic polynomial factorization at desk scale.

Supported inputs: squarefree h in Z[t] with p prime to lc(h), so that
h / lc(h) is monic over Z_p with the same roots.  The reduction mod p
splits h into clusters, one per irreducible factor pi^e of h mod p, lifted
as factors of h / lc(h) to a working precision; each is then handled alone:

  * multiplicity 1          -> unramified factor (e = 1), which is every
                               factor when h is squarefree mod p,
  * degree 2                -> explicit quadratic analysis via the p-adic
                               square criterion on the discriminant
                               (split / inert / ramified),
  * degree >= 3 over a linear residue -> Eisenstein-after-shift
                               certificate (totally ramified) or bust.

Anything else raises UnsupportedFactorization; general Montes/Round-4
machinery is deliberately out of scope.

Hensel lifting, the Bezout pairs it starts from and the Dedekind test run
on the coefficient-list kernel of `modp` (mod p, then mod p^k), reducing
once per sum, product or division.  The residues of the factors stay the
ModPPoly objects that `factor_mod_p(h, p)` returns: those of h's points.

`padic_factor(h, p, N)` works out that precision itself: it lifts to
N + v_p(disc h) + 4 digits.  Each cluster's discriminant divides disc(h)
over Z_p, so the 4 digits past it cover the square-class guard, the digits
a split quadratic's roots lose and Eisenstein's test mod p^2, and every
factor comes back known to at least N digits.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .errors import NotExact, UnsupportedFactorization, ZeroPolynomial
from .intpoly import IntPoly, discriminant
from .memo import shared
from .modp import (
    ModPPoly,
    _add,
    _divmod,
    _gcd,
    _mul,
    _reduce,
    _sqrt_mod_p,
    _sub,
    factor_mod_p,
)

DEFAULT_PRECISION = 20


def vp(n, p):
    """p-adic valuation of a nonzero integer (or Fraction)."""
    if isinstance(n, Fraction):
        num, den = n.numerator, n.denominator
        if num % p and den % p:
            return 0
        return vp(num, p) - vp(den, p)
    if n == 0:
        raise ZeroPolynomial("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class PadicPoly:
    """Monic polynomial with coefficients known modulo p^N."""

    p: int
    N: int
    coeffs: tuple  # low-to-high, each in [0, p^N)

    def __post_init__(self):
        q = self.p**self.N
        if not self.coeffs or self.coeffs[-1] % q == 0:
            raise NotExact(f"leading coefficient of {self.coeffs} vanishes mod {self.p}^{self.N}")
        if not all(0 <= c < q for c in self.coeffs):
            raise NotExact(f"coefficients {self.coeffs} are not reduced mod {self.p}^{self.N}")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def to_intpoly(self):
        return IntPoly(self.coeffs)

    def __str__(self):
        return f"{self.to_intpoly()} (mod {self.p}^{self.N})"


@dataclass(frozen=True)
class PadicFactor:
    poly: PadicPoly
    e: int  # ramification index
    f: int  # residue degree
    residue: ModPPoly  # irreducible pi with poly mod p = pi^e


@dataclass(frozen=True)
class PadicFactorization:
    h: IntPoly
    p: int
    factors: tuple  # of PadicFactor

    def __post_init__(self):
        total = sum(f.e * f.f for f in self.factors)
        if total != self.h.degree:
            raise NotExact(f"factor degrees sum to {total}, not to deg {self.h} at p={self.p}")


def hensel_lift_pair(f, g, h, a, b, p, target_N):
    """Quadratic Hensel: from f = g*h and a*g + b*h = 1 (mod p), lift to
    f = g*h (mod p^target_N) with g, h monic.  All five are coefficient
    sequences, f over Z and the others mod p; the lifts of g, h come back
    as lists mod p^target_N.
    """
    k = 1
    while k < target_N:
        k = min(2 * k, target_N)
        m = p**k
        fk = _reduce(f, m)
        e = _sub(fk, _mul(g, h), m)
        # delta_g = (b*e) mod g ; delta_h = a*e + (b*e div g)*h
        q, r = _divmod(_mul(b, e), g, m)
        g, h = _add(g, r, m), _add(h, _add(_mul(a, e), _mul(q, h), m), m)
        if _reduce(_mul(g, h), m) != fk:
            raise NotExact(f"Hensel lift lost f = g*h mod {p}^{k}")
        if k == target_N:
            break  # the Bezout pair is not needed past the last step
        # refresh Bezout: (a, b) <- (a, b) * (1 + r) with r = 1 - a g - b h,
        # then reduce a mod h to control degrees.
        one_plus = _sub([2], _add(_mul(a, g), _mul(b, h), m), m)
        qa, a = _divmod(_mul(a, one_plus), h, m)
        b = _add(_mul(b, one_plus), _mul(qa, g), m)
        if _add(_mul(a, g), _mul(b, h), m) != [1]:
            raise NotExact(f"Bezout refresh lost a*g + b*h = 1 mod {p}^{k}")
    return g, h


def _bezout_modp(g, h, p):
    """a, b with a*g + b*h = 1 in F_p[t] for coprime g, h (coefficient
    sequences)."""
    r0, r1 = g, h
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1), p)
    if len(r0) != 1:
        raise NotExact(f"factors not coprime mod {p}")
    inv = pow(r0[0], -1, p)
    return _reduce([c * inv for c in s0], p), _reduce([c * inv for c in t0], p)


def hensel_lift_list(h, parts, p, N):
    """Lift pairwise-coprime monic parts of h mod p to factors mod p^N.

    h: coefficients over Z; parts: coefficient sequences mod p whose
    product is h mod p.  Returns coefficient lists mod p^N in the same order.
    """
    if len(parts) == 1:
        return [_reduce(h, p**N)]
    rest = parts[1]
    for q in parts[2:]:
        rest = _reduce(_mul(rest, q), p)
    a, b = _bezout_modp(parts[0], rest, p)
    g_lift, h_lift = hensel_lift_pair(h, parts[0], rest, a, b, p, N)
    return [g_lift] + hensel_lift_list(h_lift, parts[1:], p, N)


# -- p-adic square roots ----------------------------------------------------


def padic_unit_sqrt(u, p, N):
    """Square root of a p-adic unit square u, modulo p^N.

    p odd: u must be a QR mod p.  p = 2: u must be 1 mod 8 (then N >= 3).
    """
    m = p**N
    u %= m
    if p != 2:
        s = _sqrt_mod_p(u, p)
        k = 1
        while k < N:
            k = min(2 * k, N)
            mm = p**k
            s = (s + u * pow(s, -1, mm)) % mm * pow(2, -1, mm) % mm
    else:
        if u % 8 != 1:
            raise NotExact(f"2-adic unit {u} is not 1 mod 8, so not a square")
        s = 1
        for k in range(3, N):
            # s*s = u mod 2^k; a step that fails to reach 2^(k+1) shows below
            if (s * s - u) % (1 << (k + 1)):
                s += 1 << (k - 1)
        s %= m
    if s * s % m != u:
        raise NotExact(f"{s} is not a square root of {u} mod {p}^{N}")
    return s


def padic_square_class(d, p, N):
    """Classify nonzero d mod p^N: ('square', v) / ('nonsquare_unramified', v)
    / ('ramified', v) for the quadratic extension Q_p(sqrt(d)).

    d must not vanish mod p^(N - guard): its valuation and unit part are
    then certified by the available digits.
    """
    guard = 3 if p == 2 else 1
    if d % p ** max(N - guard, 1) == 0:
        raise NotExact(f"discriminant valuation >= {N - guard} at precision {N}")
    v = vp(d, p)
    u = d // p**v
    if v % 2 == 1:
        return "ramified", v
    if p == 2:
        r = u % 8
        if r == 1:
            return "square", v
        if r == 5:
            return "nonsquare_unramified", v
        return "ramified", v
    if pow(u % p, (p - 1) // 2, p) == 1:
        return "square", v
    return "nonsquare_unramified", v


def newton_slopes(h, p):
    """Lower Newton polygon of h w.r.t. p: list of (slope, horizontal length).

    Vertices run from the lowest-degree nonzero coefficient to the leading
    one; slopes are Fractions, increasing.
    """
    pts = [(i, vp(c, p)) for i, c in enumerate(h.coeffs) if c != 0]
    hull = [pts[0]]
    for pt in pts[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies above the segment hull[-2] -> pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
    return out


# -- the factorization entry point ------------------------------------------


def _monic_mod(h, p, m):
    """The coefficients of h / lc(h) mod m, a power of p; p | lc(h) is refused."""
    if h.lc % p == 0:
        raise NotExact(f"p = {p} divides the leading coefficient of {h}")
    return [c * pow(h.lc, -1, m) % m for c in h.coeffs]


def padic_factor(h, p, N=DEFAULT_PRECISION):
    """Factor h / lc(h), h squarefree over Q and p prime to lc(h), over Z_p
    into irreducibles with certified (e, f), each known to at least p^N.

    Raises UnsupportedFactorization for clusters outside the supported
    class.  The result is a function of (h, p, N), so a law verification
    factors each (h, p, N) once (see memo.py).
    """
    return shared(("padic_factor", h, p, N), lambda: _padic_factor(h, p, N))


def _padic_factor(h, p, N):
    if h.is_zero:
        raise ZeroPolynomial("cannot factor zero")
    disc = discriminant(h)
    if disc == 0:
        raise NotExact(f"padic_factor requires squarefree input, got {h}")
    N += vp(disc, p) + 4
    monic = _monic_mod(h, p, p**N)
    _, red_factors = factor_mod_p(h, p)
    factors = []
    clusters = []
    for pi, e in red_factors:
        cl = [1]
        for _ in range(e):
            cl = _reduce(_mul(cl, pi.coeffs), p)
        clusters.append((pi, e, cl))
    lifted = hensel_lift_list(monic, [cl for _, _, cl in clusters], p, N)
    for (pi, e, _), cs in zip(clusters, lifted):
        cluster_poly = IntPoly(cs)
        if e == 1:
            poly = PadicPoly(p, N, tuple(c % p**N for c in cs))
            factors.append(PadicFactor(poly, 1, pi.degree, pi))
            continue
        D = e * pi.degree
        if D == 2:
            factors.extend(_quadratic_cluster(cluster_poly, pi, p, N))
            continue
        if pi.degree == 1:
            fac = _eisenstein_cluster(cluster_poly, pi, p, N)
            if fac is not None:
                factors.append(fac)
                continue
        base = f"({pi.to_intpoly()})" if pi[0] else "t"  # (t+1)^3, not t+1^3
        raise UnsupportedFactorization(
            f"cluster {base}^{e} of degree {D} at p={p} is outside "
            "the supported class (no Montes/Round-4 ladder)"
        )
    factors.sort(key=lambda f: (f.residue.degree, f.residue.coeffs, f.e))
    return PadicFactorization(h, p, tuple(factors))


def _quadratic_cluster(H, pi, p, N):
    """Monic quadratic H (coefficients mod p^N) whose reduction is pi^2,
    with N past the valuation of its discriminant.  Returns its
    PadicFactors; split roots are known to fewer than N digits."""
    m = p**N
    b, c = H[1], H[0]
    disc = (b * b - 4 * c) % m
    if disc == 0:
        raise NotExact(f"quadratic discriminant vanishes mod {p}^{N}")
    kind, v = padic_square_class(disc, p, N)
    if kind == "square":
        k = v // 2
        u = (disc // p**v) % m
        s = padic_unit_sqrt(u, p, N) * p**k
        # roots (-b +- s) / 2; for p = 2 the division costs one digit.
        prec = N - k - (1 if p == 2 else 0)
        if prec < 2:
            raise NotExact(f"split quadratic needs more than {N} digits")
        mm = p**prec
        if p == 2:
            if (-b + s) % 2:
                raise NotExact(f"root {s} of the discriminant is not congruent to {b} mod 2")
            r1 = ((-b + s) // 2) % mm
            r2 = ((-b - s) // 2) % mm
        else:
            inv2 = pow(2, -1, mm)
            r1 = (-b + s) * inv2 % mm
            r2 = (-b - s) * inv2 % mm
        out = []
        for r in sorted((r1, r2)):
            poly = PadicPoly(p, prec, ((-r) % mm, 1))
            out.append(PadicFactor(poly, 1, 1, pi))
        return out
    poly = PadicPoly(p, N, tuple(x % m for x in (c, b, 1)))
    if kind == "nonsquare_unramified":
        return [PadicFactor(poly, 1, 2, pi)]
    return [PadicFactor(poly, 2, 1, pi)]


def _eisenstein_cluster(H, pi, p, N):
    """Eisenstein-after-shift certificate for a cluster over a linear residue.

    Returns a totally ramified PadicFactor, or None when the certificate
    does not apply (caller then reports UnsupportedFactorization).
    """
    if pi.degree != 1:
        raise NotExact(f"the Eisenstein shift needs a linear residue, got {pi}")
    r = (-pi[0]) % p  # the residue root
    m = p**N
    shifted = IntPoly([c % m for c in H.coeffs]).substitute(1, r, 0, 1)
    cs = [c % m for c in shifted.coeffs]
    if any(c % p for c in cs[:-1]):
        return None
    if cs[0] % p**2 == 0:
        return None
    # Eisenstein at p: irreducible, totally ramified with e = deg, f = 1.
    poly = PadicPoly(p, N, tuple(c % m for c in H.coeffs))
    return PadicFactor(poly, H.degree, 1, pi)


def dedekind_p_maximal(h, p):
    """Dedekind's criterion on h / lc(h): is Z[t]/(h) maximal at p?  h irreducible.

    A law verification decides each (h, p) once (see memo.py)."""
    return shared(("dedekind_p_maximal", h, p), lambda: _dedekind_p_maximal(h, p))


def _dedekind_p_maximal(h, p):
    monic = _monic_mod(h, p, p * p)
    _, fs = factor_mod_p(h, p)
    gbar, hstar_bar = [1], [1]
    for pi, e in fs:
        gbar = _reduce(_mul(gbar, pi.coeffs), p)
        for _ in range(e - 1):
            hstar_bar = _reduce(_mul(hstar_bar, pi.coeffs), p)
    # F = (g_lift * hstar_lift - h / lc) / p mod p, with the lifts in [0, p)
    diff = [x - y for x, y in zip_longest(_mul(gbar, hstar_bar), monic, fillvalue=0)]
    if any(c % p for c in diff):
        raise NotExact(f"the factors mod {p} do not multiply back to {h}")
    common = _gcd(gbar, hstar_bar, p)
    Fbar = _reduce([c // p for c in diff], p)
    if Fbar:
        common = _gcd(Fbar, common, p)
    return len(common) == 1
