"""Complex roots of integer polynomials and archimedean place data.

mpmath's polyroots does the actual work; this module adds error
certification at a requested bit precision and the classification of the
roots of an irreducible polynomial into real embeddings (weight 1) and
conjugate pairs (weight 2), which is what the archimedean side of the
horizontal reciprocity law consumes.

Warm start.  polyroots runs Durand-Kerner at prec + 32 + prec bits, and
from its generic start that takes seven to ten full-precision sweeps.  A
short Durand-Kerner run in complex doubles (`_double_start`) puts every
root within about 2^-50 first, and one Newton step in fixed-point integers
(`_newton_step`) squares that error, so the multiprecision run needs two
sweeps.  Its stopping rule, its `error=True` certificate and the 2^-prec
refusal are unchanged, and it still stops at its own fixed point rounded to
prec + 32 bits; on every curve the tests compare, its roots equal a cold
start's bit for bit.  When the monic coefficients do not fit in a double, or
the double run ends with a start that is not finite or not pairwise
distinct, the generic start is used, exactly as a cold call; when only the
Newton step cannot be taken, the double start is used as it is.

Real-root count.  Roots closer to the real axis than 2^-(prec/2) are taken
as real.  That split is checked against the exact number of real roots,
counted with a Sturm chain in integer arithmetic (`real_root_count`); a
disagreement raises RootFindingDivergence instead of reporting a wrong
place.
"""

import cmath
import math
from dataclasses import dataclass

from mpmath import mp

from .errors import RootFindingDivergence, ZeroPolynomial
from .intpoly import IntPoly, pseudo_rem

DEFAULT_PREC_BITS = 128

# Sweeps of the double-precision warm start; it stops earlier once every
# correction is below 2^-50 of its root.
_DOUBLE_SWEEPS = 60
_DOUBLE_TOL = 2.0**-50


def _double_start(h):
    """Durand-Kerner roots of h in complex doubles, from polyroots' own
    generic start; None when they cannot seed the multiprecision run."""
    d = h.degree
    try:
        monic = [c / h.lc for c in reversed(h.coeffs)]
    except OverflowError:
        return None
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


def _newton_step(h, z, bits):
    """One Newton step on each root estimate in z, in fixed point with
    `bits` fraction bits; it squares the error of a double start.  None when
    the step cannot be taken or the results are not pairwise distinct."""
    one = 1 << bits
    cs = list(reversed(h.coeffs))
    out = []
    for r in z:
        try:
            xr, xi = int(r.real * one), int(r.imag * one)
        except OverflowError:
            return None
        # Horner for h (pr, pi) and h' (dr, di) at x = (xr + i xi) / one
        pr, pi, dr, di = cs[0] * one, 0, 0, 0
        for c in cs[1:]:
            dr, di = ((dr * xr - di * xi) >> bits) + pr, ((dr * xi + di * xr) >> bits) + pi
            pr, pi = ((pr * xr - pi * xi) >> bits) + c * one, (pr * xi + pi * xr) >> bits
        norm = dr * dr + di * di
        if not norm:
            return None
        out.append((xr - (pr * dr + pi * di) * one // norm,
                    xi - (pi * dr - pr * di) * one // norm))
    if len(set(out)) < len(out):
        return None
    return [mp.mpc(mp.mpf((a, -bits)), mp.mpf((b, -bits))) for a, b in out]


def all_roots(h, prec=DEFAULT_PREC_BITS):
    """All complex roots of h (with multiplicity), as mpc numbers accurate
    to roughly 2^-prec."""
    if h.degree < 1:
        raise ZeroPolynomial("constant polynomial has no roots")
    start = _double_start(h)
    with mp.workprec(prec + 32):
        if start is not None:
            start = _newton_step(h, start, 2 * prec + 32) or [mp.mpc(r) for r in start]
        coeffs = [mp.mpf(c) for c in reversed(h.coeffs)]
        try:
            roots, err = mp.polyroots(
                coeffs, maxsteps=200, extraprec=prec, error=True, roots_init=start
            )
        except mp.NoConvergence as exc:
            raise RootFindingDivergence(str(exc)) from None
        if err > mp.mpf(2) ** (-prec):
            raise RootFindingDivergence(
                f"root error {err} above 2^-{prec} for {h}"
            )
        return [mp.mpc(r) for r in roots]


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
    root and one per conjugate pair of complex roots.  Deterministic order:
    real places by value, then pairs by (real part, |imag|)."""
    roots = all_roots(h, prec=prec)
    with mp.workprec(prec + 32):
        tol = mp.mpf(2) ** (-(prec // 2))
        reals, uppers, lowers = [], [], []
        for r in roots:
            if abs(mp.im(r)) <= tol:
                reals.append(mp.re(r))
            elif mp.im(r) > 0:
                uppers.append(r)
            else:
                lowers.append(r)
        if len(uppers) != len(lowers):
            raise RootFindingDivergence(
                f"could not split roots of {h} into conjugate pairs at {prec} bits"
            )
        if len(reals) + 2 * len(uppers) != h.degree:
            raise RootFindingDivergence(
                f"found {len(reals) + 2 * len(uppers)} roots of {h}, of degree {h.degree}"
            )
        exact = real_root_count(h)
        if len(reals) != exact:
            raise RootFindingDivergence(
                f"{len(reals)} roots of {h} within 2^-{prec // 2} of the real "
                f"axis, but it has {exact} real roots"
            )
        places = [ArchimedeanPlace(t, 1, True) for t in sorted(reals)]
        uppers.sort(key=lambda z: (mp.re(z), mp.im(z)))
        places.extend(ArchimedeanPlace(z, 2, False) for z in uppers)
        return places
