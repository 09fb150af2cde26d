"""Two-dimensional reciprocity symbols on curve/point flags.

For a flag (curve C, closed point x on C) the completed local ring has a
rank-2 valuation (nu1, nu2): nu1 is the order of vanishing along C, nu2
the valuation of the leading coefficient along the fiber direction at x.
The symbol of two functions is the 2x2 determinant

    nu(f, g) = nu1(f) nu2(g) - nu1(g) nu2(f),

summed over the analytic branches of C at x with weights [k_i : k(x)].
nu1 is the same at every point of C and on every branch, and nu2 is
additive, so the symbol is minus the nu2 of one function, the tame symbol

    d_C{f, g} = f^nu1(g) / g^nu1(f),

which has order 0 along C (Milnor, Introduction to Algebraic K-Theory,
section 11; the sign (-1)^(nu1(f) nu1(g)) there is a unit that no nu2
sees, and is left out).  tame_symbol builds d once per curve, from the
factors of f and g; flag_symbol reads -nu2(d) at each point, with the
valuation of that kind of curve.  When nu1(f) = nu1(g) = 0, d is the constant ONE and every
symbol on C is 0, with no count or branch data taken.  On a horizontal
curve every base of f and g is first checked for a factor shared with the
curve (NonIrreducibleBase), whether or not it enters d.

  * On a fiber V_p, nu2 is an order of vanishing mod p, counted by
    dividing each base of d mod p by the point's residue on modp's list
    kernel while it divides (rank2_vertical), so a fiber's flags factor
    nothing; at the fiber-infinity point it is the order at t = infinity,
    -sum e deg(b mod p).
  * On the infinity section, nu2 at (p, infinity) is v_p of the leading
    coefficient of d at t = infinity (_leading_valuation).
  * On a horizontal curve h, nu2 is the branch-weighted sum of the
    valuations of d on the branches of h at x (branch_decomposition, with
    ONE as the second function).  At a point at infinity (p | lc(h)) the
    symbol is intrinsic, and act(SWAP, .) moves the flag into the second
    chart s = 1/t, where it is finite; this is the only coordinate change
    made.

A horizontal curve h = 0 with p prime to lc(h) is read at x through its
reduction mod p:

  * when h is squarefree mod p, Z[t]/(h) is maximal at p and every branch
    is unramified, so x carries one branch of residue degree deg(x).  For
    a base b that meets no other point of h over p, nu2(b) is read off the
    global resultant (Dedekind-Kummer; the local intersection number): 0
    when the point's residue does not divide b mod p, and
    v_p(Res(h, b)) / deg(x) when it does, because b is a unit on the other
    branches.  Res(h, b) is the memoized `surface.curve_resultant`.
    A degree-one curve is the case deg(x) = 1 with a single point over p.
  * otherwise (a non-squarefree reduction, or a base meeting two points
    over p) each p-adic factor of h over the point is a branch, whether or
    not Z[t]/(h) is maximal at p: lc(h) is a unit of Z_p, the primes of the
    ring of integers over p are the factors of h over Z_p (Neukirch, ANT
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
from .modp import _reduce, _rem, factor_mod_p
from .padic import dedekind_p_maximal, padic_factor, vp
from .surface import (
    HORIZONTAL,
    INFINITY_SECTION,
    VERTICAL,
    SWAP,
    FactoredRationalFunction,
    act,
    curve_resultant,
    horizontal_order,
    incident,
    make_function,
    vertical_order,
)

# The tame symbol of two functions of order 0 along the curve; the second
# function when one function's nu2 is read through branch_decomposition.
ONE = make_function(1, [])


# -- vertical flags ----------------------------------------------------------


def rank2_vertical(f, p, point):
    """(nu1, nu2) of f at the flag (fiber over p, point).

    nu1 = v_p(unit); nu2 = order at the point of the mod-p reduction of
    p^-nu1 f: each base mod p is divided by the point's monic residue, on
    modp's list kernel, for as long as it divides.  At the fiber-infinity
    point nu2 is the order at t = infinity, -sum e * deg(b mod p).
    """
    nu1 = vertical_order(f, p)
    nu2 = 0
    for b, e in f.factors:
        bbar = _reduce(b.coeffs, p)
        if not bbar:
            raise NotExact(f"base {b} vanishes mod {p}, but a primitive polynomial cannot")
        if point.at_infinity:
            nu2 -= e * (len(bbar) - 1)
        elif len(bbar) > 1:
            pi = point.residue.coeffs  # monic
            while True:
                quo = [0] * max(0, len(bbar) - len(pi) + 1)
                if _rem(bbar, pi, 1, p, quo):
                    break
                bbar, nu2 = quo, nu2 + e
    return nu1, nu2


# -- horizontal flags --------------------------------------------------------


@dataclass
class BranchData:
    """One analytic branch of a horizontal curve at a closed point."""

    e: int  # ramification index of the branch field over Q_p
    f: int  # residue degree over F_p
    weight: int  # [k_branch : k(x)] = f / deg(x)
    nu2_f: int
    nu2_g: int


def _restriction_valuation(fn, h, factor, N):
    """Valuation on the branch field of the restriction of fn to the branch,
    with the exponent of h itself already stripped from fn.

    fn(theta) with theta a root of factor, a monic factor of h over Z_p:
    for each base b, w(b(theta)) = v_p(Res(factor_lift, b)) / f.  The
    factor is known mod p^N, and N exceeds every such valuation
    (_least_precision), so a valuation of N or more breaks that bound.
    """
    p = factor.poly.p
    lift = factor.poly.to_intpoly()
    total = Fraction(factor.e) * vp(fn.unit, p)
    for b, e in fn.factors:
        if b == h:
            continue
        res = resultant(lift, b)
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
    A base meeting a second point over p returns None.  Each base is
    reduced mod p once and divided by the monic residues on modp's list
    kernel.
    """
    p, pi = point.p, point.residue
    others = [r.coeffs for r in residues if r != pi]

    def divides(residue, bbar):
        return not _rem(list(bbar), residue, 1, p)

    def nu2(fn):
        total = vp(fn.unit, p)
        for b, e in fn.factors:
            if b == h:
                continue
            bbar = _reduce(b.coeffs, p)
            if not divides(pi.coeffs, bbar):
                continue  # b is a unit on the branch
            v = vp(curve_resultant(h, b), p)
            if any(divides(r, bbar) for r in others):
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

    A branch's resultant with b divides Res(h, b) over Z_p, and a lift
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
    residues (see _residue_branch); every other case factors h over Z_p
    once per prime, at the N of _least_precision.  The p-adic
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
    maximal = squarefree or dedekind_p_maximal(h, p)
    branches = []
    for factor in padic_factor(h, p, N=_least_precision(h, p, f, g)).factors:
        if factor.residue != point.residue:
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
            f"Z[t]/({h}) is maximal at {p}, so the branches (e, f) over "
            f"{point.label()} are {kummer} (Dedekind-Kummer), not {shape}"
        )
    return branches


def _leading_valuation(fn, p):
    """nu2 of fn at the flag (infinity section, p:inf): v_p of the leading
    coefficient of fn at t = infinity, unit * prod lc(b)^e."""
    return vp(fn.unit, p) + sum(e * vp(b.lc, p) for b, e in fn.factors)


# -- the tame symbol ----------------------------------------------------------


def tame_symbol(curve, f, g):
    """d_C{f, g} = f^nu1(g) / g^nu1(f), with nu1 the order along the curve.

    Its order along C is 0, and every flag symbol on C is read from it
    (flag_symbol).  It is built from the factors of f and g, which are
    already canonical.  On a horizontal curve h every base b != h of f and
    g is checked first, whether or not it enters d: curve_resultant refuses
    one sharing a factor with h (NonIrreducibleBase).  ONE when
    nu1(f) = nu1(g) = 0."""
    if curve.kind == HORIZONTAL:
        for b, _ in f.factors + g.factors:
            if b != curve.h:
                curve_resultant(curve.h, b)
    if curve.kind == VERTICAL:
        m_f, m_g = vertical_order(f, curve.p), vertical_order(g, curve.p)
    else:
        m_f, m_g = horizontal_order(f, curve), horizontal_order(g, curve)
    if not (m_f or m_g):
        return ONE
    exponents = {b: m_g * e for b, e in f.factors}
    for b, e in g.factors:
        exponents[b] = exponents.get(b, 0) - m_f * e
    factors = sorted(((b, e) for b, e in exponents.items() if e),
                     key=lambda be: (be[0].degree, be[0].coeffs))
    return FactoredRationalFunction(f.unit**m_g / g.unit**m_f, tuple(factors))


def flag_symbol(curve, point, tame):
    """nu_{C,x}(f, g) = -nu2(d) at a point x of C, for d = tame_symbol(C, f, g).

    nu2 is the fiber count on V_p (rank2_vertical), the leading valuation on
    the infinity section, and the branch-weighted sum of branch_decomposition
    on H:h; a point at infinity of H:h is read in the second chart, where
    act(SWAP, .) moves the flag.  d = 1 reads 0 with no count or branch
    data taken."""
    if tame == ONE:
        return 0
    if curve.kind == VERTICAL:
        return -rank2_vertical(tame, curve.p, point)[1]
    if curve.kind == INFINITY_SECTION:
        return -_leading_valuation(tame, point.p)
    if point.at_infinity:
        curve, point, tame = act(SWAP, curve), act(SWAP, point), act(SWAP, tame)
    return -sum(br.weight * br.nu2_f for br in branch_decomposition(curve, point, tame, ONE))


def curve_point_symbol(curve, point, f, g):
    """nu_{C,x}(f, g): the branch-weighted rank-2 symbol at the flag."""
    if not incident(curve, point):
        raise ParseError(f"point {point} does not lie on curve {curve}")
    return flag_symbol(curve, point, tame_symbol(curve, f, g))


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
