"""The three reciprocity laws for rank-2 symbols on P^1 over Z.

  point law       sum over curves through a fixed closed point x of
                  nu_{C,x}(f, g) = 0  (exact integers, no weights beyond
                  the branch weights already inside nu_{C,x});

  vertical law    sum over closed points of a fiber V_p of
                  deg(x) * nu_{V_p,x}(f, g) = 0  (exact integers);

  horizontal law  sum over closed points of a horizontal curve E of
                  nu_{E,x}(f, g) * log q_x, plus the archimedean terms
                  N_sigma * nu_sigma(f, g) over the real embeddings
                  (N = 1) and conjugate pairs (N = 2) of Q[t]/(E) = 0,
                  checked numerically against a tolerance.  The finite
                  part is accumulated as exact integer coefficients c_p
                  of log p before any floating point enters.

Verifiers return a LawReport; points or curves whose branch data cannot be
certified (INCONCLUSIVE_ERRORS) mark the whole report inconclusive rather
than guessing.  The p-adic precision is worked out per prime from the
resultants of the curve with the bases before factoring (see symbols.py),
so running out of digits is not among them, and neither is a non-maximal
order: its branches are the p-adic factors of the curve (see symbols.py).
What is left: p | lc(h) at a finite point of a curve of degree >= 2 and a
support prime not below 2^63 (UnsupportedOrder), a p-adic cluster outside
padic's class (UnsupportedFactorization) and an integer rho cannot split
in its budget (FactorizationTimeout).

Each law builds the tame symbol d_C{f, g} = f^nu1(g) / g^nu1(f) once per
curve (symbols.tame_symbol): once for the fiber, once for the horizontal
curve, and once per curve through the point; the symbol at each flag is
-nu2(d) at its point (symbols.flag_symbol).  A horizontal curve that is a base of neither
function has d = 1, so every finite item is 0 and it is never refused for
p | lc(h) or an unsupported p-adic factorization; the point law still meets
those refusals on the curves through the point, which are bases of f or g.

Inside one verification the points share their local factorizations: each
reduction mod p is factored once (`factor_mod_p`; the points of a curve
over p and their branches read the same factorization of h mod p), each
resultant of two polynomials is taken once, in either order
(`surface.curve_resultant`), and a curve that is not squarefree mod p is
tested for p-maximality (`dedekind_p_maximal`, the check on the
branches where it holds) and factored over Z_p (`padic_factor`) once per
prime, however many points lie over p.  A base that shares a factor with
the curve is refused with NonIrreducibleBase, not reported: d of a
horizontal curve is built only after every resultant of the curve with a
base, as the prime support of a horizontal law takes them too.  A
factorization that raises is not stored.  Nothing is shared between
verifications; see memo.py.  The horizontal law walks its points one
support prime at a time (`points_on_horizontal` is lazy), so an
inconclusive point stops the factoring at its prime.
"""

from dataclasses import dataclass, field

from mpmath import mp

from .config import default_config
from .errors import (
    FactorizationTimeout,
    UnsupportedFactorization,
    UnsupportedOrder,
)
from .memo import verification
from .roots import archimedean_places
from .surface import (
    HORIZONTAL,
    INFINITY_SECTION,
    Curve,
    affine_chart,
    curves_through_point,
    points_on_horizontal,
    points_on_vertical,
)
from .symbols import archimedean_symbol, flag_symbol, tame_symbol

INCONCLUSIVE_ERRORS = (
    UnsupportedOrder,
    UnsupportedFactorization,
    FactorizationTimeout,
)


@dataclass
class LawReport:
    law: str
    subject: str  # point / fiber / curve label
    f: str
    g: str
    items: list = field(default_factory=list)
    verdict: str = "fail"
    exact_sum: int = None
    numeric_sum: str = None
    finite_part: dict = None
    reason: str = None
    note: str = None
    config: dict = None

    def add_item(self, place, value, branch=None, log_base=None, **extra):
        """Ledger items share a stable schema: place / branch / value /
        log_base, plus law-specific extras."""
        item = {"place": place, "branch": branch, "value": value,
                "log_base": log_base}
        item.update(extra)
        self.items.append(item)

    def to_dict(self):
        """The fields in declaration order, leaving out those still None."""
        return {k: v for k, v in vars(self).items() if v is not None}


def _config_dict(cfg):
    return {
        "prec_bits": cfg.prec_bits,
        "start_precision": cfg.start_precision,
        "seed": cfg.seed,
        "tolerance": cfg.tolerance,
    }


@verification
def verify_point_law(point, f, g, config=None):
    cfg = config or default_config()
    report = LawReport(
        law="point",
        subject=point.label(),
        f=str(f),
        g=str(g),
        config=_config_dict(cfg),
    )
    total = 0
    for curve in curves_through_point(point, f, g):
        try:
            s = flag_symbol(curve, point, tame_symbol(curve, f, g))
        except INCONCLUSIVE_ERRORS as exc:
            report.verdict = "inconclusive"
            report.reason = f"{curve.label()}: {type(exc).__name__}: {exc}"
            return report
        report.add_item(place=point.label(), branch=curve.label(), value=s)
        total += s
    report.exact_sum = total
    report.verdict = "pass" if total == 0 else "fail"
    return report


@verification
def verify_vertical_law(p, f, g, config=None):
    cfg = config or default_config()
    fiber = Curve.vertical(p)  # checks p before any factoring
    report = LawReport(
        law="vertical",
        subject=fiber.label(),
        f=str(f),
        g=str(g),
        config=_config_dict(cfg),
    )
    total = 0
    tame = tame_symbol(fiber, f, g)
    for point in points_on_vertical(p, f, g):
        s = flag_symbol(fiber, point, tame)
        d = point.degree
        report.add_item(
            place=point.label(), value=s, log_base=p ** d, deg=d, weighted=d * s
        )
        total += d * s
    report.exact_sum = total
    report.verdict = "pass" if total == 0 else "fail"
    return report


@verification
def verify_horizontal_law(curve, f, g, config=None):
    """Check the reciprocity sum along a horizontal curve (or the infinity
    section, which is handled in the second chart)."""
    cfg = config or default_config()
    report = LawReport(
        law="horizontal",
        subject=curve.label(),
        f=str(f),
        g=str(g),
        config=_config_dict(cfg),
    )
    if curve.kind == INFINITY_SECTION:
        report.note = "second chart: curve H:t, functions swapped"
    curve, f, g = affine_chart(curve, f, g)
    if curve.kind != HORIZONTAL:
        raise UnsupportedOrder(f"the horizontal law needs a horizontal curve, got {curve.label()}")
    h = curve.h

    c_p = {}
    try:
        points = points_on_horizontal(curve, f, g)
        tame = tame_symbol(curve, f, g)
        for point in points:
            s = flag_symbol(curve, point, tame)
            report.add_item(
                place=point.label(),
                value=s,
                log_base=point.p ** point.degree,
                deg=point.degree,
                log_q_coeff=s * point.degree,
            )
            if s:
                c_p[point.p] = c_p.get(point.p, 0) + s * point.degree
    except INCONCLUSIVE_ERRORS as exc:
        report.verdict = "inconclusive"
        report.reason = f"{type(exc).__name__}: {exc}"
        return report

    report.finite_part = {str(p): c for p, c in sorted(c_p.items())}
    with mp.workprec(cfg.prec_bits):
        total = mp.mpf(0)
        for p, c in sorted(c_p.items()):
            total += c * mp.log(p)
        for k, place in enumerate(archimedean_places(h, prec=cfg.prec_bits)):
            val = archimedean_symbol(h, place.theta, f, g, prec=cfg.prec_bits)
            report.add_item(
                place=f"arch:{k}:{'real' if place.is_real else 'pair'}",
                value=mp.nstr(val, 30),
                log_base="e",
                theta=mp.nstr(place.theta, 20),
                weight=place.weight,
            )
            total += place.weight * val
        report.numeric_sum = mp.nstr(total, 30)
        report.verdict = "pass" if abs(total) <= cfg.tolerance else "fail"
    return report
