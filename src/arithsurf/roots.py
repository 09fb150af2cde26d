"""Complex roots of integer polynomials and archimedean place data.

This module finds the complex roots of an integer polynomial, certifies
them at a requested bit precision, and classifies the roots of an
irreducible polynomial into real embeddings (weight 1) and conjugate pairs
(weight 2), which is what the archimedean side of the horizontal
reciprocity law consumes.

Certified Newton.  Fujiwara's bound gives a shift k >= 0 with every root
of h below 2^k (`_shift`), so the monic coefficients of h(2^k s) fit in a
double.  A short Durand-Kerner run on h(2^k s) in complex doubles
(`_double_start`) puts every root s within about 2^-50 of 1; the start
2^k s is a root of h to that many bits.  Newton's method on h in
fixed-point integers (`_newton`) then doubles its working precision with
each step, up to 2·prec + 32 fraction bits of t, and stops once a
correction at full precision is below 2^-(prec+16); where some part of a
root kept by the cleanup below has fewer than 2·prec + 16 significant bits,
it adds the bits missing and steps once more.  Since h is real, Newton runs
on its real roots, kept exactly real, and on one root of each conjugate
pair; the other is the mirror image.

The result is proved exactly (`_certified`).  With h and h' evaluated at
each estimate z as Gaussian integers, n|h(z)| <= r|h'(z)| for r = 2^-2prec
puts a root within r of z, because h'/h(z) is the sum of 1/(z - ζ) over the
n roots ζ.  When the n disks are also pairwise disjoint, each holds exactly
one root, and that root is simple.  There is no second root finder: where
the double start, Newton or the certificate fails, as it must on a repeated
root, archimedean_places raises RootFindingDivergence.

Real places and pairs.  The certificate also proves the split.  A real
estimate's disk is symmetric about the real axis, so its one root is real;
an upper estimate's disk is disjoint from its mirror image's, so its root
is not.  The estimates are rounded to prec + 32 bits, and |z|, Im z or Re z
below eps = 2^-(prec+31) is chopped; an upper root chopped onto the real
axis is refused.  The exact number of real roots, counted with a Sturm
chain in integer arithmetic (`real_root_count`), must equal the number of
real estimates; a disagreement raises NotExact.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

from mpmath import mp
from mpmath.libmp import from_man_exp

from .errors import NotExact, RootFindingDivergence, ZeroPolynomial
from .intpoly import IntPoly, pseudo_rem

DEFAULT_PREC_BITS = 128

# Sweeps of the double-precision warm start; it stops earlier once every
# correction is below 2^-50 of its root.
_DOUBLE_SWEEPS = 60
_DOUBLE_TOL = 2.0**-50
# Newton's first step runs at no more than twice the bits a double start
# holds.  The margin is the slack of each precision over half the next, of
# the stopping rule over prec bits, and of the bits kept per part of a root.
_START_BITS = 50
_MARGIN_BITS = 16


def _shift(h):
    """A k >= 0 with every root ζ of h below 2^k: Fujiwara's bound
    |ζ| <= 2·max_j |a_(n-j)/a_n|^(1/j), each term read off bit lengths,
    |a_(n-j)/a_n| < 2^(len a_(n-j) - len a_n + 1)."""
    top = abs(h.lc).bit_length()
    # 1 + ceil((len a_(n-j) - top + 1)/j)
    return max([0] + [1 - (top - 1 - abs(c).bit_length()) // j
                      for j, c in enumerate(reversed(h.coeffs[:-1]), 1) if c])


def _double_start(g):
    """Durand-Kerner roots of g in complex doubles, from the generic start
    of the powers of 0.4 + 0.9i; None when they cannot seed Newton."""
    d = g.degree
    monic = [c / g.lc for c in reversed(g.coeffs)]
    z = [(0.4 + 0.9j) ** k for k in range(d)]
    try:
        for _ in range(_DOUBLE_SWEEPS):
            settled = True
            for i in range(d):
                p = z[i]
                x = 0j
                for c in monic:
                    x = x * p + c
                for j in range(d):
                    if j != i:
                        x /= p - z[j]
                z[i] = p - x
                settled = settled and abs(x) <= _DOUBLE_TOL * abs(z[i])
            if settled:
                break
    except (ZeroDivisionError, OverflowError):
        return None
    if not all(cmath.isfinite(r) for r in z) or len(set(z)) < d:
        return None
    return z


def _newton(cs, z, bits):
    """One Newton step on each fixed-point estimate in z, a pair of integers
    (x, y) standing for (x + iy)/2^bits, for the polynomial with integer
    coefficients cs, leading first.  Returns the new pairs and the largest
    squared correction in units of 2^-2bits, or None when h' vanishes at an
    estimate."""
    one = 1 << bits
    out, largest = [], 0
    for xr, xi in z:
        # Horner for h (pr, pi) and h' (dr, di) at x = (xr + i xi) / one
        pr, pi, dr, di = cs[0] * one, 0, 0, 0
        for c in cs[1:]:
            dr, di = ((dr * xr - di * xi) >> bits) + pr, ((dr * xi + di * xr) >> bits) + pi
            pr, pi = ((pr * xr - pi * xi) >> bits) + c * one, (pr * xi + pi * xr) >> bits
        norm = dr * dr + di * di
        if not norm:
            return None
        cr, ci = (pr * dr + pi * di) * one // norm, (pi * dr - pr * di) * one // norm
        out.append((xr - cr, xi - ci))
        largest = max(largest, cr * cr + ci * ci)
    return out, largest


def _certified(cs, z, bits, prec):
    """Whether the disks of radius r = 2^-2prec about the fixed-point
    estimates z (pairs with `bits` fraction bits) each hold a root of the
    polynomial with coefficients cs, leading first, and are pairwise
    disjoint.  Then each holds exactly one root, and it is simple.

    Exact: at w = x + iy, F = 2^(bits·n) h(w/2^bits) and
    D = 2^(bits·(n-1)) h'(w/2^bits) are Gaussian integers, and
    n|h| <= r|h'| reads n²|F|²·2^(4prec) <= |D|²·2^(2bits)."""
    n = len(cs) - 1
    # h is real, so |h| and |h'| are the same at w and at its mirror image
    for x, y in {(x, abs(y)) for x, y in z}:
        fr, fi, dr, di = cs[0], 0, 0, 0
        for k, c in enumerate(cs[1:], 1):
            dr, di = dr * x - di * y + fr, dr * y + di * x + fi
            fr, fi = fr * x - fi * y + (c << bits * k), fr * y + fi * x
        d2 = dr * dr + di * di
        if not d2 or (n * n * (fr * fr + fi * fi)) << 4 * prec > d2 << 2 * bits:
            return False
    gap = 1 << 2 * (bits - 2 * prec + 1)  # (2r)² in units of 2^-2bits
    return all((a - c) ** 2 + (b - d) ** 2 > gap
               for (a, b), (c, d) in itertools.combinations(z, 2))


def _fixed(v, bits):
    """floor(v·2^bits) for a double v, exactly, however large bits is."""
    p, q = v.as_integer_ratio()
    return (p << bits) // q


def _widths(top):
    """Newton's working precisions, last first: from `top` fraction bits,
    each about half the one after it, down to twice the bits of a start."""
    widths = [top]
    while widths[-1] > 2 * _START_BITS:
        widths.append(widths[-1] // 2 + _MARGIN_BITS)
    return widths


def _newton_roots(h, k, start, prec):
    """Newton on h from the double start s of h(2^k s) at doubling
    precision, then the certificate: the certified real and upper estimates,
    as pairs, apart, and their fraction bits; None when Newton stalls within
    its step budget or the certificate fails."""
    # h is real, so its roots are real or conjugate pairs.  A start nearer
    # its own mirror image than any other start seeds a real root, kept
    # exactly real; of each pair, Newton runs on the upper root only.
    n = len(start)
    mirror = [min(range(n), key=lambda j: abs(start[j] - r.conjugate())) for r in start]
    reals = [complex(r.real) for i, r in enumerate(start) if mirror[i] == i]
    uppers = [r for i, r in enumerate(start) if mirror[i] != i and r.imag > 0]
    if len(reals) + 2 * len(uppers) != n:
        return None
    full = 2 * prec + 32
    widths = _widths(full)
    # the widths count fraction bits of t = 2^k s, so a start s takes k more
    bits = wide = widths.pop()
    z = [(_fixed(r.real, bits + k), _fixed(r.imag, bits + k)) for r in reals + uppers]
    cs = list(reversed(h.coeffs))
    # a start good to 2^(k-50) takes the doublings of a ladder to full + k
    for _ in range(len(_widths(full + k)) + 2):
        z = [(x << wide - bits, y << wide - bits) for x, y in z]
        bits = wide
        stepped = _newton(cs, z, bits)
        if stepped is None:
            return None
        z, largest = stepped
        if widths:
            wide = widths.pop()
            continue
        if largest > 1 << 2 * (bits - prec - _MARGIN_BITS):
            continue
        # a part of a root far below its size, such as a real part of
        # 10^-40 beside an imaginary part of 1, takes more fraction bits
        kept = _cleanup(z, bits, prec)
        least = min((abs(c).bit_length() for w in kept for c in w if c), default=full)
        if least >= full - _MARGIN_BITS:
            if not _certified(cs, z + [(x, -y) for x, y in z[len(reals):]], bits, prec):
                return None
            return z[:len(reals)], [(x, abs(y)) for x, y in z[len(reals):]], bits
        wide = bits + full - least
    return None


def _cleanup(z, bits, prec):
    """Fixed-point estimates z with |z|, Im z or Re z below eps =
    2^-(prec+31), the epsilon of prec + 32 bits, set to 0."""
    eps = 1 << bits - prec - 31
    out = []
    for x, y in z:
        if x * x + y * y < eps * eps:
            x = y = 0
        elif abs(y) < eps:
            y = 0
        elif abs(x) < eps:
            x = 0
        out.append((x, y))
    return out


def _sign_changes(signs):
    nonzero = [s for s in signs if s]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def real_root_count(h):
    """Number of distinct real roots of h, exactly: the sign changes of the
    leading coefficients of its Sturm chain at -inf minus those at +inf.

    The chain is h, h', then -rem(p_{i-1}, p_i) up to a positive factor:
    the pseudo-remainder, with the sign of lc(p_i)^(deg p_{i-1} - deg p_i + 1)
    taken out, divided by its positive content."""
    if h.degree < 1:
        raise ZeroPolynomial("constant polynomial has no roots")
    chain = [h, h.derivative()]
    while chain[-1].degree > 0:
        a, b = chain[-2], chain[-1]
        r = pseudo_rem(a, b)
        if r.is_zero:
            break
        if b.lc < 0 and (a.degree - b.degree) % 2 == 0:
            r = -r
        g = 0
        for c in r.coeffs:
            g = math.gcd(g, c)
        chain.append(IntPoly([-c // g for c in r.coeffs]))
    at_plus = [1 if p.lc > 0 else -1 for p in chain]
    at_minus = [s if p.degree % 2 == 0 else -s for s, p in zip(at_plus, chain)]
    return _sign_changes(at_minus) - _sign_changes(at_plus)


@dataclass
class ArchimedeanPlace:
    theta: object  # mpf or mpc representative root
    weight: int  # 1 for a real embedding, 2 for a conjugate pair
    is_real: bool


def archimedean_places(h, prec=DEFAULT_PREC_BITS):
    """Archimedean places of Q[t]/(h), h irreducible: one entry per real
    root and one per conjugate pair of complex roots, each θ at prec + 32
    bits within 2^-2prec of its root, certified, before rounding.  The
    double start runs on h(2^k s), k from `_shift`.  RootFindingDivergence
    where there is no certificate, as on a repeated root.  Deterministic
    order: real places by value, then pairs by (real part, imaginary part)."""
    if h.degree < 1:
        raise ZeroPolynomial("constant polynomial has no roots")
    k = _shift(h)
    start = _double_start(h.substitute(1 << k, 0, 0, 1))
    found = start and _newton_roots(h, k, start, prec)
    if not found:
        raise RootFindingDivergence(f"no certified roots of {h} at 2^-{2 * prec}")
    reals, uppers, bits = found
    exact = real_root_count(h)
    if len(reals) != exact:
        raise NotExact(f"{len(reals)} certified real roots of {h}, but {exact} by its Sturm chain")
    uppers = _cleanup(uppers, bits, prec)
    if not all(y for _, y in uppers):
        raise RootFindingDivergence(f"a non-real root of {h} rounds onto the real axis")

    def part(c):
        return from_man_exp(c, -bits, prec + 32, "n")

    reals = sorted(mp.make_mpf(part(x)) for x, _ in _cleanup(reals, bits, prec))
    pairs = sorted((mp.make_mpc((part(x), part(y))) for x, y in uppers),
                   key=lambda z: (z.real, z.imag))
    return ([ArchimedeanPlace(t, 1, True) for t in reals]
            + [ArchimedeanPlace(z, 2, False) for z in pairs])
