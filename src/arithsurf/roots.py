"""Complex roots of integer polynomials and archimedean place data.

mpmath's polyroots does the actual work; this module adds error
certification at a requested bit precision and the classification of the
roots of an irreducible polynomial into real embeddings (weight 1) and
conjugate pairs (weight 2), which is what the archimedean side of the
horizontal reciprocity law consumes.
"""

from dataclasses import dataclass

from mpmath import mp

from .errors import RootFindingDivergence, ZeroPolynomial

DEFAULT_PREC_BITS = 128


def all_roots(h, prec=DEFAULT_PREC_BITS):
    """All complex roots of h (with multiplicity), as mpc numbers accurate
    to roughly 2^-prec."""
    if h.degree < 1:
        raise ZeroPolynomial("constant polynomial has no roots")
    with mp.workprec(prec + 32):
        coeffs = [mp.mpf(c) for c in reversed(h.coeffs)]
        try:
            roots, err = mp.polyroots(
                coeffs, maxsteps=200, extraprec=prec, error=True
            )
        except mp.NoConvergence as exc:
            raise RootFindingDivergence(str(exc)) from None
        if err > mp.mpf(2) ** (-prec):
            raise RootFindingDivergence(
                f"root error {err} above 2^-{prec} for {h}"
            )
        return [mp.mpc(r) for r in roots]


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
        places = [ArchimedeanPlace(t, 1, True) for t in sorted(reals)]
        uppers.sort(key=lambda z: (mp.re(z), mp.im(z)))
        places.extend(ArchimedeanPlace(z, 2, False) for z in uppers)
        return places

