"""Two-dimensional reciprocity symbols on curve/point flags.

For a flag (curve C, closed point x on C) the completed local ring has a
rank-2 valuation (nu1, nu2): nu1 is the order of vanishing along C, nu2
the valuation of the leading coefficient along the fiber direction at x.
The symbol of two functions is the 2x2 determinant

    nu(f, g) = nu1(f) nu2(g) - nu1(g) nu2(f),

summed over the analytic branches of C at x with weights [k_i : k(x)].
nu1 is the order along C, the same on every branch, so each nu2 is taken
only where its nu1 cofactor is nonzero: a flag with nu1(f) = nu1(g) = 0
has symbol 0 and no branch data is computed for it, and otherwise the
function whose nu2 is multiplied by 0 is replaced by the constant ONE.  A
horizontal flag still refuses a skipped function's base that shares a
factor with the curve (NonIrreducibleBase).

Vertical flags are exact and immediate: nu2 is an order of vanishing mod
p, at the fiber-infinity point the order at t = infinity, -sum e deg(b mod
p).  The infinity section is read by counting too: nu1 = -sum e deg(b), and
at (p, infinity) nu2 is v_p of the leading coefficient at t = infinity.  So
a coordinate change is made only for a horizontal curve h at its point at
infinity (p | lc(h)): the symbol is intrinsic, and act(SWAP, .) moves the
flag into the second chart s = 1/t, where it is finite and needs branch
data.  A horizontal curve h = 0 with p prime to lc(h) is read at x through
its reduction mod p:

  * when h is squarefree mod p, Z[t]/(h) is maximal at p and every branch
    is unramified, so x carries one branch of residue degree deg(x).  For
    a base b that meets no other point of h over p, nu2(b) is read off the
    global resultant (Dedekind-Kummer; the local intersection number): 0
    when the point's residue does not divide b mod p, and
    v_p(Res(h, b)) / deg(x) when it does, because b is a unit on the other
    branches.  Res(h, b) is the one `prime_support_on_horizontal` computed.
    A degree-one curve is the case deg(x) = 1 with a single point over p.
  * otherwise (a non-squarefree reduction, or a base meeting two points
    over p) each p-adic factor of hm = monicize(h) over the point is a
    branch, whether or not Z[t]/(h) is maximal at p: the primes of the
    ring of integers over p are the p-adic factors of hm (Neukirch, ANT
    II.8.2), and padic certifies each one's (e, f).  nu2 comes from
    resultants against the factor's coefficient lift, known to more digits
    than any v_p(Res(h, b)) over all the bases.  That N depends on the
    prime only, so every point of h over p asks for the same N and h is
    factored over Z_p once per prime; padic works out the digits its own
    factorization needs on top of N.  Where Dedekind's criterion says
    Z[t]/(h) is maximal at p, Dedekind-Kummer predicts the branches (one,
    with e the multiplicity of the point's residue in h mod p and
    f = deg(x)), and the factorization is checked against it.
"""

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .errors import (
    EvaluationAtZero,
    NotExact,
    ParseError,
    UnsupportedOrder,
)
from .intpoly import resultant
from .modp import ModPPoly, factor_mod_p, multiplicity
from .padic import dedekind_p_maximal, padic_factor, vp
from .surface import (
    HORIZONTAL,
    INFINITY_SECTION,
    VERTICAL,
    SWAP,
    act,
    curve_resultant,
    horizontal_order,
    incident,
    make_function,
    vertical_order,
)

# Stands in for a function whose nu2 the determinant multiplies by 0.
ONE = make_function(1, [])


def det2(a, b, c, d):
    return a * d - b * c


# -- vertical flags ----------------------------------------------------------


def rank2_vertical(f, p, point):
    """(nu1, nu2) of f at the flag (fiber over p, point).

    nu1 = v_p(unit); nu2 = order at the point of the mod-p reduction of
    p^-nu1 f.  At the fiber-infinity point that is the order at t = infinity,
    -sum e * deg(b mod p).
    """
    nu1 = vertical_order(f, p)
    nu2 = 0
    for b, e in f.factors:
        bbar = ModPPoly.from_intpoly(b, p)
        if bbar.is_zero:
            raise NotExact(f"base {b} vanishes mod {p}, but a primitive polynomial cannot")
        if point.at_infinity:
            nu2 -= e * bbar.degree
        elif bbar.degree >= 1:
            nu2 += e * multiplicity(bbar, point.residue)
    return nu1, nu2


def vertical_flag_symbol(p, point, f, g):
    """nu1(f) nu2(g) - nu1(g) nu2(f), taking each nu2 only where its nu1
    cofactor is nonzero."""
    nu1_f, nu1_g = vertical_order(f, p), vertical_order(g, p)
    if not (nu1_f or nu1_g):
        return 0
    nu2_g = rank2_vertical(g, p, point)[1] if nu1_f else 0
    nu2_f = rank2_vertical(f, p, point)[1] if nu1_g else 0
    return det2(nu1_f, nu1_g, nu2_f, nu2_g)


# -- horizontal flags --------------------------------------------------------


@dataclass
class BranchData:
    """One analytic branch of a horizontal curve at a closed point."""

    e: int  # ramification index of the branch field over Q_p
    f: int  # residue degree over F_p
    weight: int  # [k_branch : k(x)] = f / deg(x)
    nu2_f: int
    nu2_g: int


def _monic_point_residue(h, point):
    """The residue of a branch of monicize(h) over the given point of h.

    Under y = lc * t a point pi of h corresponds to the monic irreducible
    pi_hat(y) = cbar^deg(pi) * pi(y / cbar) mod p.  Requires p not | lc."""
    p = point.p
    cbar = h.lc % p
    if cbar == 0:
        raise UnsupportedOrder(f"p = {p} divides the leading coefficient of {h}")
    return ModPPoly.from_intpoly(point.residue.to_intpoly().substitute(1, 0, 0, cbar), p)


def _restriction_valuation(fn, h, factor, N):
    """Valuation on the branch field of the restriction of fn to the branch,
    with the exponent of h itself already stripped from fn.

    fn(theta) with theta a root of factor (as a factor of monicize(h)):
    for each base b, w(b(theta)) = v_p(Res(factor_lift, B)) / f, where
    B(y) = lc^deg(b) * b(y/lc) and p does not divide lc.  The factor is
    known mod p^N, and N exceeds every such valuation (_least_precision),
    so a valuation of N or more breaks that bound.
    """
    p = factor.poly.p
    lc = h.lc
    lift = factor.poly.to_intpoly()
    total = Fraction(factor.e) * vp(fn.unit, p)
    for b, e in fn.factors:
        if b == h:
            continue
        B = b.substitute(1, 0, 0, lc) if lc != 1 else b
        res = resultant(lift, B)
        if res == 0 or vp(res, p) >= N:
            raise NotExact(f"resultant of {b} with a branch of {h} reaches the precision {N}")
        w_num = vp(res, p)
        if w_num % factor.f:
            raise NotExact(f"norm valuation {w_num} is not divisible by f = {factor.f}")
        total += e * Fraction(w_num, factor.f)
    if total.denominator != 1:
        raise NotExact(f"branch valuation {total} is not an integer")
    return int(total)


def _residue_branch(h, point, residues, f, g):
    """The single branch at the point when h is squarefree mod p, read off
    the residues of that reduction and the global resultants; None when a
    base needs the p-adic factorization instead.

    nu2(b) = 0 when the point's residue does not divide b mod p, and
    v_p(Res(h, b)) / deg(x) when it is the only residue of h that does.
    A base meeting a second point over p returns None.
    """
    p, pi = point.p, point.residue
    others = [r for r in residues if r != pi]

    def nu2(fn):
        total = vp(fn.unit, p)
        for b, e in fn.factors:
            if b == h:
                continue
            bbar = ModPPoly.from_intpoly(b, p)
            if bbar % pi:
                continue  # b is a unit on the branch
            v = vp(curve_resultant(h, b), p)
            if any(not bbar % r for r in others):
                return None
            if v % point.degree:
                raise NotExact(
                    f"v_{p}(Res(h, {b})) = {v} is not a multiple of deg(x) = {point.degree}"
                )
            total += e * (v // point.degree)
        return total

    nu2_f, nu2_g = nu2(f), nu2(g)
    if nu2_f is None or nu2_g is None:
        return None
    return BranchData(e=1, f=point.degree, weight=1, nu2_f=nu2_f, nu2_g=nu2_g)


def _least_precision(h, p, f, g):
    """N: the p-adic digits of the branches of h over p that read the nu2
    of f and g on each of them, for p prime to lc(h).

    A branch's resultant with B divides Res(hm, B) over Z_p, and a lift
    correct mod p^N keeps it mod p^N, so N > v_p(Res(h, b)) reads nu2(b).
    N is taken over every base, not only those through one point, so it is
    the same at every point of h over p.  curve_resultant refuses a base
    that shares a factor with h (NonIrreducibleBase).
    """
    return 1 + max((vp(curve_resultant(h, b), p)
                    for fn in (f, g) for b, _ in fn.factors if b != h), default=0)


def branch_decomposition(curve, point, f, g):
    """Analytic branches of the horizontal curve at the point, with the
    nu2 valuations of f and g on each branch.

    A squarefree reduction mod p decides the point's one branch from the
    residues (see _residue_branch); every other case factors monicize(h)
    over Z_p once per prime, at the N of _least_precision.  The p-adic
    factors over the point are its branches whether or not Z[t]/(h) is
    maximal at p.  Where it is (a squarefree reduction, or Dedekind's
    criterion), Dedekind-Kummer fixes them: one branch with e the
    multiplicity of the point's residue in h mod p and f = deg(x); any
    other answer raises NotExact.  Raises UnsupportedOrder for p | lc with
    degree >= 2 and UnsupportedFactorization for clusters outside padic's
    class.
    """
    h = curve.h
    p = point.p
    if point.at_infinity:
        raise UnsupportedOrder("branch data at a fiber-infinity point needs the second chart")
    if not incident(curve, point):
        raise NotExact(f"point {point.label()} does not lie on curve {curve.label()}")
    if h.lc % p == 0:
        raise UnsupportedOrder(
            f"p = {p} divides the leading coefficient of {h} (degree >= 2)"
        )
    _, reduction = factor_mod_p(h, p)
    squarefree = all(e == 1 for _, e in reduction)
    if squarefree:
        # maximal at p (Dedekind), every branch unramified
        branch = _residue_branch(h, point, [pi for pi, _ in reduction], f, g)
        if branch is not None:
            return [branch]
    hm = h.monicize()
    maximal = squarefree or dedekind_p_maximal(hm, p)
    pi_hat = _monic_point_residue(h, point)
    branches = []
    for factor in padic_factor(hm, p, N=_least_precision(h, p, f, g)).factors:
        if factor.residue != pi_hat:
            continue
        if factor.f % point.degree:
            raise NotExact(
                f"branch residue degree {factor.f} is not a multiple of "
                f"deg(x) = {point.degree}"
            )
        branches.append(
            BranchData(
                e=factor.e,
                f=factor.f,
                weight=factor.f // point.degree,
                nu2_f=_restriction_valuation(f, h, factor, factor.poly.N),
                nu2_g=_restriction_valuation(g, h, factor, factor.poly.N),
            )
        )
    if not branches:
        raise NotExact(f"incident point {point.label()} carries no branch")
    shape = [(br.e, br.f) for br in branches]
    kummer = [(dict(reduction)[point.residue], point.degree)]
    if maximal and shape != kummer:
        raise NotExact(
            f"Z[t]/({hm}) is maximal at {p}, so the branches (e, f) over "
            f"{point.label()} are {kummer} (Dedekind-Kummer), not {shape}"
        )
    return branches


def _skipped(curve, fn):
    """ONE in place of fn, whose nu2 the determinant multiplies by 0.

    Branch data refuses a base of fn sharing a factor with the curve
    (curve_resultant raises NonIrreducibleBase); the refusal is kept here.
    Inside a law verification these are the resultants the prime support
    already computed.  No base shares a factor with the infinity section,
    so there is nothing to refuse on it."""
    if curve.kind == HORIZONTAL:
        for b, _ in fn.factors:
            if b != curve.h:
                curve_resultant(curve.h, b)
    return ONE


def vanishes_on_curve(curve, f, g):
    """Is the horizontal curve a base of neither f nor g?  Then
    nu1(f) = nu1(g) = 0 and the symbol is 0 at every point of the curve.
    Before answering True it raises the refusal that _skipped keeps for
    f and for g, as the symbol at a point would."""
    if horizontal_order(f, curve) or horizontal_order(g, curve):
        return False
    _skipped(curve, f)
    _skipped(curve, g)
    return True


def _leading_valuation(fn, p):
    """nu2 of fn at the flag (infinity section, p:inf): v_p of the leading
    coefficient of fn at t = infinity, unit * prod lc(b)^e."""
    return vp(fn.unit, p) + sum(e * vp(b.lc, p) for b, e in fn.factors)


def horizontal_flag_symbol(curve, point, f, g):
    """Weighted symbol sum over the branches of the horizontal curve at x.

    The infinity section has one branch at each of its points, where nu2 is
    _leading_valuation.  A horizontal curve is read at its point at infinity
    in the second chart, moved there by act(SWAP, .); nu1 is the same in
    both charts, so it is taken before the move."""
    nu1_f = horizontal_order(f, curve)
    nu1_g = horizontal_order(g, curve)
    if not nu1_g:
        f = _skipped(curve, f)
    if not nu1_f:
        g = _skipped(curve, g)
    if not (nu1_f or nu1_g):
        return 0
    if curve.kind == INFINITY_SECTION:
        return det2(nu1_f, nu1_g, _leading_valuation(f, point.p), _leading_valuation(g, point.p))
    if point.at_infinity:
        curve, point = act(SWAP, curve), act(SWAP, point)
        f = f if f is ONE else act(SWAP, f)
        g = g if g is ONE else act(SWAP, g)
    total = 0
    for br in branch_decomposition(curve, point, f, g):
        total += br.weight * det2(nu1_f, nu1_g, br.nu2_f, br.nu2_g)
    return total


def curve_point_symbol(curve, point, f, g):
    """nu_{C,x}(f, g): the branch-weighted rank-2 symbol at the flag."""
    if not incident(curve, point):
        raise ParseError(f"point {point} does not lie on curve {curve}")
    if curve.kind == VERTICAL:
        return vertical_flag_symbol(curve.p, point, f, g)
    return horizontal_flag_symbol(curve, point, f, g)


# -- archimedean symbol -------------------------------------------------------


def _abs_value(fn, h, theta, prec):
    """|fn_0(theta)| with the h-part stripped, at prec working bits."""
    with mp.workprec(prec + 32):
        acc = mp.mpf(abs(fn.unit.numerator)) / abs(fn.unit.denominator)
        floor = mp.mpf(2) ** (-(prec // 2))
        for b, e in fn.factors:
            if b == h:
                continue
            val = abs(b.evaluate(theta))
            if val < floor:
                raise EvaluationAtZero(
                    f"|{b}({theta})| below resolution at {prec} bits"
                )
            acc *= val**e
        return acc


def archimedean_symbol(h, theta, f, g, prec=128):
    """nu_P(f, g) = m_g log|f_1(theta)| - m_f log|g_1(theta)| at the
    archimedean place of Q[t]/(h) represented by the root theta, where
    m = order along the curve h and f_1, g_1 are the h-stripped parts."""
    m_f = f.exponent_of(h)
    m_g = g.exponent_of(h)
    with mp.workprec(prec + 32):
        out = mp.mpf(0)
        if m_g:
            out += m_g * mp.log(_abs_value(f, h, theta, prec))
        if m_f:
            out -= m_f * mp.log(_abs_value(g, h, theta, prec))
        return out
