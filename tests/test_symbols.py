import importlib.util
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from mpmath import mp

import arithsurf
from arithsurf import laws, padic, surface, symbols
from arithsurf.config import RunConfig
from arithsurf.errors import (
    ArithsurfError,
    NonIrreducibleBase,
    NotExact,
    ParseError,
    UnsupportedOrder,
)
from arithsurf.intpoly import IntPoly, parse_intpoly, resultant, spot_check_irreducible
from arithsurf.laws import (
    INCONCLUSIVE_ERRORS,
    verify_horizontal_law,
    verify_point_law,
    verify_vertical_law,
)
from arithsurf.modp import _reduce, factor_mod_p, random_monic_irreducible
from arithsurf.padic import dedekind_p_maximal, vp
from arithsurf.selftest import HORIZONTAL_CURVES, VERTICAL_PRIMES, random_pair, random_point
from arithsurf.surface import (
    HORIZONTAL,
    INFINITY_SECTION,
    VERTICAL,
    SWAP,
    ClosedPoint,
    Curve,
    act,
    affine_chart,
    curves_through_point,
    horizontal_order,
    make_function,
    parse_curve,
    parse_function,
    parse_point,
    points_on_horizontal,
    points_on_vertical,
    vertical_order,
)
from arithsurf.symbols import (
    archimedean_symbol,
    branch_decomposition,
    curve_point_symbol,
    rank2_vertical,
    tame_symbol,
)

F = parse_function


def det2(a, b, c, d):
    """The determinant of the full symbol, the reference the tame symbol is
    checked against."""
    return a * d - b * c


def test_det2():
    assert det2(1, 0, 0, 1) == 1
    assert det2(2, 3, 4, 6) == 0
    assert det2(Fraction(1, 2), 1, 1, 4) == 1


def test_transverse_flag():
    # the standard worked pair: f = t, g = 5 at the flag (H:t, 5:t)
    assert curve_point_symbol(parse_curve("H:t"), parse_point("5:t"), F("1*(t)^1"), F("5")) == 1
    assert curve_point_symbol(parse_curve("V:5"), parse_point("5:t"), F("1*(t)^1"), F("5")) == -1


def test_rank2_vertical_values():
    pt = parse_point("5:t")
    # nu1 = v_5(unit), nu2 = order of vanishing of the residue at the point
    assert rank2_vertical(F("5"), 5, pt) == (1, 0)
    assert rank2_vertical(F("1*(t)^2"), 5, pt) == (0, 2)
    assert rank2_vertical(F("25 * (t-1)^1"), 5, pt) == (2, 0)


def test_branch_table_quadratic():
    """t^2+1 over Q_p: ramified at 2, inert at 3, split at 5 -- read off the
    branches of the curve H:t^2+1 at its points over those primes."""
    c = parse_curve("H:t^2+1")
    f, g = F("1*(t^2+1)^1"), F("1*(t-1)^1")
    table = {
        "2:t+1": [(2, 1)],
        "3:t^2+1": [(1, 2)],
        "5:t+2": [(1, 1)],
        "5:t+3": [(1, 1)],
    }
    for label, shape in table.items():
        bs = branch_decomposition(c, parse_point(label), f, g)
        assert [(b.e, b.f) for b in bs] == shape
        assert all(b.weight == 1 for b in bs)


def test_branch_eisenstein_cubic():
    bs = branch_decomposition(
        parse_curve("H:t^3-2"), parse_point("3:t+1"), F("1*(t^3-2)^1"), F("3")
    )
    assert [(b.e, b.f) for b in bs] == [(3, 1)]


def test_linear_curve_exact_path():
    # a degree-1 curve has one point over p, decided from the residues: no p-adics
    c = parse_curve("H:2*t-1")
    assert curve_point_symbol(c, parse_point("2:inf"), F("1*(2*t-1)^1"), F("2")) == 1
    # <t - 5, 5> along H:t-5 at 5:t (theta = 5): v_5(5) pairs with nu1
    c2 = parse_curve("H:t-5")
    assert curve_point_symbol(c2, parse_point("5:t"), F("1*(t-5)^1"), F("5")) == 1


def test_symbol_additive_in_exponents():
    rng = random.Random(3)
    c = parse_curve("H:t^2+1")
    pt = parse_point("5:t+2")
    g = F("7 * (t-1)^1")
    for _ in range(20):
        e1, e2 = rng.randint(-3, 3), rng.randint(-3, 3)
        f1 = make_function(Fraction(2), [(parse_intpoly("t"), e1)] if e1 else [])
        f2 = make_function(Fraction(3), [(parse_intpoly("t"), e2)] if e2 else [])
        s1 = curve_point_symbol(c, pt, f1, g)
        s2 = curve_point_symbol(c, pt, f2, g)
        s12 = curve_point_symbol(c, pt, f1 * f2, g)
        assert s12 == s1 + s2


def test_antisymmetry_of_flag_symbol():
    c = parse_curve("H:t^2+2")
    # -2 is a square mod 11 (3^2 = 9 = -2) and a non-residue mod 5
    for label in ("2:t", "5:t^2+2", "11:t+3"):
        pt = parse_point(label)
        f = F("6 * (t)^2 * (t-1)^-1")
        g = F("15 * (t^2+2)^1")
        assert curve_point_symbol(c, pt, f, g) == -curve_point_symbol(c, pt, g, f)


def test_unsupported_order():
    # p divides the leading coefficient and the curve has degree 2
    c = parse_curve("H:2*t^2+t+1")
    with pytest.raises(UnsupportedOrder):
        branch_decomposition(c, parse_point("2:t+1"), F("1*(2*t^2+t+1)^1"), F("3"))


def test_infinity_handled_by_chart_swap():
    # the symbol at a fiber-infinity point equals the symbol of the swapped
    # data at the origin of the second chart
    c = parse_curve("H:2*t-1")
    pt = parse_point("2:inf")
    f, g = F("1*(2*t-1)^1"), F("6 * (t)^-1")
    direct = curve_point_symbol(c, pt, f, g)
    assert isinstance(direct, int)


def test_archimedean_fixture():
    with mp.workprec(128):
        v = archimedean_symbol(
            parse_intpoly("t^2+1"), mp.mpc(0, 1),
            F("1*(t^2+1)^1"), F("1*(t-1)^1"), prec=128,
        )
        want = -mp.log(mp.sqrt(2))
        assert abs(v - want) < mp.mpf(2) ** -100


def test_archimedean_closed_form_constant():
    # f = 2, g = t at theta = 0 on H:t: value log 2
    with mp.workprec(128):
        v = archimedean_symbol(parse_intpoly("t"), mp.mpf(0), F("2"), F("1*(t)^1"), prec=128)
        assert abs(v - mp.log(2)) < mp.mpf(2) ** -100


# -- answer guards, typed so that python -O keeps them ---------------------------


def test_rank2_vertical_refuses_a_base_vanishing_mod_p():
    # a function-like value taken as given: 5t+5 is not primitive, which
    # FactoredRationalFunction itself refuses
    f = SimpleNamespace(unit=Fraction(1), factors=((parse_intpoly("5*t+5"), 1),))
    with pytest.raises(NotExact, match="vanishes mod 5"):
        rank2_vertical(f, 5, parse_point("5:t"))


def test_branch_decomposition_needs_p_prime_to_the_leading_coefficient():
    # 2t^2+t+1 = t+1 mod 2: the point 2:t+1 is finite, but lc = 2 is no unit
    # of Z_2, so its branches are not those of a monic factor over Z_2
    c, pt = parse_curve("H:2*t^2+t+1"), parse_point("2:t+1")
    with pytest.raises(UnsupportedOrder, match="leading coefficient"):
        branch_decomposition(c, pt, F("2"), F("1*(t)^1"))


def test_restriction_valuation_refuses_a_norm_valuation_off_f():
    # Res(t-2, t-7) = 5 has valuation 1, which a residue degree 2 cannot divide
    factor = SimpleNamespace(poly=SimpleNamespace(p=5, to_intpoly=lambda: parse_intpoly("t-2")),
                             e=1, f=2)
    with pytest.raises(NotExact, match="not divisible"):
        symbols._restriction_valuation(F("1*(t-7)^1"), parse_intpoly("t^2+1"), factor, 20)


def test_curve_point_symbol_refuses_points_off_the_curve():
    with pytest.raises(ParseError, match="does not lie"):
        curve_point_symbol(parse_curve("H:t^2+1"), parse_point("5:t"), F("2"), F("3"))


def test_branch_decomposition_refuses_points_off_the_curve():
    c = parse_curve("H:t^2+1")
    with pytest.raises(NotExact, match="does not lie"):
        branch_decomposition(c, parse_point("5:t"), F("2"), F("3"))
    with pytest.raises(UnsupportedOrder, match="second chart"):
        branch_decomposition(c, parse_point("5:inf"), F("2"), F("3"))


def test_branch_decomposition_checks_the_p_adic_factors(monkeypatch):
    # t^4+t^3+t^2-2 = t^2 (t^2+t+1) mod 2 is not squarefree, so its points over
    # 2 are factored over Z_2: one inert branch with f = 2 over the degree-2 point
    c, pt = parse_curve("H:t^4+t^3+t^2-2"), parse_point("2:t^2+t+1")
    f, g = F("2"), F("1*(t)^1")
    assert [(b.e, b.f) for b in branch_decomposition(c, pt, f, g)] == [(1, 2)]
    wrong_degree = SimpleNamespace(factors=[SimpleNamespace(residue=pt.residue, e=2, f=1)])
    monkeypatch.setattr(symbols, "padic_factor", lambda *args, **kwargs: wrong_degree)
    with pytest.raises(NotExact, match="not a multiple"):
        branch_decomposition(c, pt, f, g)
    monkeypatch.setattr(symbols, "padic_factor", lambda *args, **kwargs: SimpleNamespace(factors=[]))
    with pytest.raises(NotExact, match="no branch"):
        branch_decomposition(c, pt, f, g)


def test_a_non_maximal_flag_reads_its_branches_off_the_p_adic_factors():
    # Z[t]/(t^2+3) = Z[sqrt -3] is not maximal at 2, where t^2+3 = (t+1)^2;
    # -3 = 5 mod 8, so 2 is inert in Q(sqrt -3): one branch, e = 1, f = 2,
    # weight f / deg(x) = 2, and nu2(2) = 1 on it
    c, pt = parse_curve("H:t^2+3"), parse_point("2:t+1")
    assert not dedekind_p_maximal(c.h, 2)
    f, g = F("1*(t^2+3)^1"), F("2")
    bs = branch_decomposition(c, pt, f, g)
    assert [(b.e, b.f, b.weight, b.nu2_g) for b in bs] == [(1, 2, 2, 1)]
    assert curve_point_symbol(c, pt, f, g) == 2
    # t^2+15 = (t+1)^2 mod 2 too, and -15 = 1 mod 8 splits it over Z_2 into
    # t - r and t + r; (r - 1)(-r - 1) = 16, with one factor 2 times a unit,
    # so nu2(t-1) is 3 on one branch and 1 on the other
    c, g = parse_curve("H:t^2+15"), F("1*(t-1)^1")
    assert not dedekind_p_maximal(c.h, 2)
    bs = branch_decomposition(c, pt, F("1*(t^2+15)^1"), g)
    assert [(b.e, b.f, b.weight) for b in bs] == [(1, 1, 1)] * 2
    assert sorted(b.nu2_g for b in bs) == [1, 3]
    assert curve_point_symbol(c, pt, F("1*(t^2+15)^1"), g) == 4
    assert vp(resultant(c.h, parse_intpoly("t-1")), 2) == 4


def test_a_maximal_flag_is_checked_against_dedekind_kummer(monkeypatch):
    # Z[i] is maximal at 2, so the point 2:t+1 of t^2+1 = (t+1)^2 carries one
    # branch with e = 2 and f = 1; a factorization saying otherwise is refused
    c, pt, f, g = parse_curve("H:t^2+1"), parse_point("2:t+1"), F("1*(t^2+1)^1"), F("1*(t-1)^1")
    assert [(b.e, b.f) for b in branch_decomposition(c, pt, f, g)] == [(2, 1)]
    real = symbols.padic_factor

    def unramified(*args, **kwargs):
        return SimpleNamespace(factors=[replace(x, e=1) for x in real(*args, **kwargs).factors])

    monkeypatch.setattr(symbols, "padic_factor", unramified)
    with pytest.raises(NotExact, match="Dedekind-Kummer"):
        branch_decomposition(c, pt, f, g)


def test_answer_guards_survive_python_O():
    script = (
        "from dataclasses import replace\n"
        "from fractions import Fraction\n"
        "from types import SimpleNamespace as NS\n"
        "from mpmath import mp\n"
        "from arithsurf import roots, symbols\n"
        "from arithsurf.errors import ArithsurfError\n"
        "from arithsurf.intpoly import parse_intpoly as P\n"
        "from arithsurf.laws import verify_horizontal_law\n"
        "from arithsurf.qlinalg import det\n"
        "from arithsurf.surface import parse_curve, parse_point\n"
        "from arithsurf.surface import parse_function as F\n"
        "h, c, pt = P('t^2+1'), parse_curve('H:t^2+1'), parse_point('2:t+1')\n"
        "factor = NS(poly=NS(p=5, to_intpoly=lambda: P('t-2')), e=1, f=2)\n"
        "bad = NS(unit=Fraction(1), factors=((P('5*t+5'), 1),))\n"
        "calls = [\n"
        "    lambda: symbols.rank2_vertical(bad, 5, parse_point('5:t')),\n"
        "    lambda: symbols.rank2_vertical(bad, 5, parse_point('5:inf')),\n"
        "    lambda: symbols.branch_decomposition(\n"
        "        parse_curve('H:2*t^2+t+1'), pt, F('2'), F('1*(t)^1')),\n"
        "    lambda: symbols.padic_factor(P('2*t^2+t+1'), 2),\n"
        "    lambda: symbols.dedekind_p_maximal(P('2*t^2+t+1'), 2),\n"
        "    lambda: symbols._restriction_valuation(F('1*(t-7)^1'), h, factor, 20),\n"
        "    lambda: symbols.branch_decomposition(c, parse_point('5:t'), F('2'), F('3')),\n"
        "    lambda: verify_horizontal_law(parse_curve('V:5'), F('2'), F('3')),\n"
        "    lambda: det(((1, 2),)),\n"
        "]\n"
        "real_resultant = symbols.curve_resultant\n"
        "symbols.curve_resultant = lambda h, b: 3\n"
        "calls.append(lambda: symbols.branch_decomposition(\n"
        "    c, parse_point('3:t^2+1'), F('1*(t^2+4)^1'), F('2')))\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ArithsurfError:\n"
        "        continue\n"
        "    raise SystemExit('unguarded')\n"
        "symbols.curve_resultant = real_resultant\n"
        "real_factor = symbols.padic_factor\n"
        "symbols.padic_factor = lambda *args, **kwargs: NS(\n"
        "    factors=[replace(x, e=1) for x in real_factor(*args, **kwargs).factors])\n"
        "try:\n"
        "    symbols.branch_decomposition(c, pt, F('1*(t^2+1)^1'), F('1*(t-1)^1'))\n"
        "except ArithsurfError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('unguarded')\n"
        "symbols.padic_factor = lambda *args, **kwargs: NS(factors=[])\n"
        "roots.all_roots = lambda h, prec: [mp.mpf(1)]\n"
        "for call in (lambda: symbols.branch_decomposition(c, pt, F('3'), F('1*(t)^1')),\n"
        "             lambda: roots.archimedean_places(P('t^2-2'))):\n"
        "    try:\n"
        "        call()\n"
        "    except ArithsurfError:\n"
        "        continue\n"
        "    raise SystemExit('unguarded')\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr


# -- the residue decision of unramified points -------------------------------


def test_residue_branch_reads_nu2_off_the_resultant():
    # t^2+1 is inert at 3; Res(t^2+1, t^2+4) = 9, so nu2(t^2+4) = 2 / deg(x) = 1
    c, pt = parse_curve("H:t^2+1"), parse_point("3:t^2+1")
    bs = branch_decomposition(c, pt, F("1*(t^2+4)^1"), F("6 * (t-1)^2"))
    assert [(b.e, b.f, b.weight, b.nu2_f, b.nu2_g) for b in bs] == [(1, 2, 1, 1, 1)]


def test_residue_branch_refuses_a_valuation_off_deg_x(monkeypatch):
    # a planted Res(h, b) = 3 would put nu2 at 1/2 on the degree-2 point
    monkeypatch.setattr(symbols, "curve_resultant", lambda h, b: 3)
    with pytest.raises(NotExact, match="not a multiple of deg"):
        branch_decomposition(parse_curve("H:t^2+1"), parse_point("3:t^2+1"),
                             F("1*(t^2+4)^1"), F("2"))


def force_ladder(monkeypatch):
    """Switch off the one gate of the residue decision: every point takes
    the p-adic factorization."""
    monkeypatch.setattr(symbols, "_residue_branch", lambda *args: None)


def _wider_law_cases(seed, size, kinds=("point", "vertical", "horizontal")):
    """The cases of the given kinds among the first size of the benchmark's
    `laws` pool."""
    path = Path(__file__).resolve().parent.parent / "arithbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("arithbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pool = workloads.law_pool(arithsurf, workloads.Draws("laws", seed), size)
    verify = {"point": verify_point_law, "vertical": verify_vertical_law,
              "horizontal": verify_horizontal_law}
    return [(verify[c.kind], *c.data) for c in pool if c.kind in kinds]


def _selftest_law_cases(seed, cases):
    rng = random.Random(seed)
    extra = ("H:t^4+1", "H:5*t^2+t+3", "H:t^3+t+1", "H:t^3-t-2", "H:t^4+t^3+t^2-2")
    curves = [parse_curve(s) for s in HORIZONTAL_CURVES + extra]
    out = []
    for i in range(cases):
        out.append((verify_point_law, random_point(rng), *random_pair(rng)))
        out.append((verify_horizontal_law, curves[i % len(curves)], *random_pair(rng)))
    return out


def test_residue_decision_changes_no_report(monkeypatch):
    # only horizontal flags with nu1 != 0 reach the gate, so the pool is wide
    # enough to decide over a thousand branches
    cases = _selftest_law_cases(5, 80) + _wider_law_cases(7, 1500, ("point", "horizontal"))
    # (t^2+1)(t^3-2) passes the degree-4 spot check; Res(t^2+1, it) = 0.  At a
    # point on t^3-2 alone the base is a unit on H:t^2+1, and the residue
    # rule never reads t^2+1 on the flag of H:t^5+t^3-2t^2-2; the flag still
    # takes every resultant of the curve with a base first and refuses it.
    reducible = (F("1*(t^5+t^3-2*t^2-2)^1"), F("3*(t^2+1)^1"))
    alone = parse_point("13:t^3+11")
    decided = []
    gate = symbols._residue_branch

    def counted(h, *args):
        branch = gate(h, *args)
        decided.append((h.degree, branch is not None))
        return branch

    monkeypatch.setattr(symbols, "_residue_branch", counted)
    fast = [verify(subject, f, g).to_dict() for verify, subject, f, g in cases]
    with pytest.raises(NonIrreducibleBase, match="t\\^2\\+1 shares a factor"):
        verify_point_law(alone, *reducible)
    # through a root of t^2+1 the rule refuses the zero resultant, where the
    # ladder could only run out of precision
    for label in ("7:t^2+1", "11:t^2+1", "13:t+5"):
        with pytest.raises(NonIrreducibleBase, match="H:t\\^2\\+1"):
            verify_point_law(parse_point(label), *reducible)
    force_ladder(monkeypatch)
    assert [verify(subject, f, g).to_dict() for verify, subject, f, g in cases] == fast
    # and so does the p-adic path, whichever way the branch is read
    with pytest.raises(NonIrreducibleBase, match="t\\^2\\+1 shares a factor"):
        verify_point_law(alone, *reducible)
    assert {r["verdict"] for r in fast} == {"pass", "inconclusive"}
    assert sum(ok for _, ok in decided) > 1000 and not all(ok for _, ok in decided)
    assert any(ok for degree, ok in decided if degree == 1)


def _root_base(h, p, r, digits):
    """b = t - r with r a p-adic root of h, lifted by Newton's method from the
    simple root r mod p to the given digits."""
    h = parse_intpoly(h)
    dh, m = h.derivative(), p**digits
    while h.evaluate(r) % m:
        r = (r - h.evaluate(r) * pow(dh.evaluate(r), -1, m)) % m
    return make_function(1, [(parse_intpoly(f"t-{r}"), 1)])


def test_a_base_past_the_default_precision_is_read_exactly(monkeypatch):
    asked = []
    real = symbols.padic_factor

    def ask(*args, **kwargs):
        asked.append(kwargs["N"])
        return real(*args, **kwargs)

    monkeypatch.setattr(symbols, "padic_factor", ask)
    # t^2+1 is squarefree mod 5: at 1300 digits nu2 is far past the default
    # precision, and the residues still decide it exactly
    c, pt = parse_curve("H:t^2+1"), parse_point("5:t+3")
    b = _root_base("t^2+1", 5, 2, 1300)
    exact = branch_decomposition(c, pt, b, F("5"))
    assert asked == [] and exact[0].nu2_f >= 1300
    # t^3-t^2+3 = t^2 (t+2) mod 3 is not squarefree, so even its simple point
    # is factored over Z_3, once, at the precision v_3(Res(h, b)) asks for
    c3, pt3 = parse_curve("H:t^3-t^2+3"), parse_point("3:t+2")
    deep = branch_decomposition(c3, pt3, _root_base("t^3-t^2+3", 3, 1, 1300), F("3"))
    assert len(asked) == 1 and asked[0] >= 1300 and deep[0].nu2_f >= 1300
    # the p-adic factorization finds the branch the residues decide
    force_ladder(monkeypatch)
    assert branch_decomposition(c, pt, b, F("5")) == exact


def _branches_or_error(*args):
    try:
        return branch_decomposition(*args)
    except ArithsurfError as exc:
        return type(exc), str(exc)


def test_each_point_is_factored_once_at_the_precision_it_needs(monkeypatch):
    asked, flags, case = [], [], [None]
    real = symbols.padic_factor

    def ask(*args, **kwargs):
        asked.append(kwargs["N"])
        return real(*args, **kwargs)

    def record(curve, point, f, g):
        before = len(asked)
        out = _branches_or_error(curve, point, f, g)
        if len(asked) > before:
            flags.append((case[0], curve, point, f, g, asked[before:], out))
        if isinstance(out, tuple):
            raise out[0](out[1])
        return out

    monkeypatch.setattr(symbols, "padic_factor", ask)
    monkeypatch.setattr(symbols, "branch_decomposition", record)
    cases = _wider_law_cases(7, 1200, ("point", "horizontal"))
    runs = []
    for config in (RunConfig(), RunConfig(start_precision=1), RunConfig(start_precision=100)):
        flags.clear()
        for i, (verify, subject, f, g) in enumerate(cases):
            case[0] = i
            try:
                verify(subject, f, g, config=config)
            except ArithsurfError:
                pass
        runs.append(list(flags))
    # start_precision is read by nothing
    assert runs[0] == runs[1] == runs[2] and len(runs[0]) > 100
    per_prime = {}
    for i, curve, point, f, g, calls, out in runs[0]:
        h, p = curve.h, point.p
        # the digits that read nu2 on every branch over p; padic adds the
        # ones its factorization needs
        reach = [vp(resultant(h, b), p) for fn in (f, g) for b, _ in fn.factors if b != h]
        assert calls == [1 + max(reach, default=0)]
        per_prime.setdefault((i, h, p), []).append(calls[0])
    # the points of one curve over one prime ask for one N
    assert all(len(set(ns)) == 1 for ns in per_prime.values())
    assert sum(len(ns) > 1 for ns in per_prime.values()) > 10


def test_start_precision_is_read_by_nothing(monkeypatch):
    asked, ran = [], []
    ask, body = symbols.padic_factor, padic._padic_factor

    def recorded(h, p, N):
        asked.append((h, p, N))
        return ask(h, p, N=N)

    def counted(h, p, N):
        ran.append((h, p, N))
        return body(h, p, N)

    monkeypatch.setattr(symbols, "padic_factor", recorded)
    monkeypatch.setattr(padic, "_padic_factor", counted)
    cases = _selftest_law_cases(5, 80) + _wider_law_cases(901, 800)
    runs = []
    for config in (RunConfig(start_precision=1), RunConfig(), RunConfig(start_precision=100)):
        reports, calls = [], []
        for verify, subject, f, g in cases:
            asked.clear()
            try:
                report = verify(subject, f, g, config=config).to_dict()
            except ArithsurfError as exc:
                report = {"raised": type(exc).__name__, "reason": str(exc)}
            report.pop("config", None)
            reports.append(report)
            calls.append(list(asked))
        runs.append((reports, calls))
    assert runs[0] == runs[1] == runs[2]
    # within one verification each curve asks for one N per prime
    calls = runs[0][1]
    assert sum(map(len, calls)) > 50
    assert all(len({(h, p) for h, p, _ in c}) == len(set(c)) for c in calls)
    # t^3-t-2 is not squarefree mod 2 or mod 13, and two points over each
    # prime read f and g: one factorization per prime, at any start_precision
    ran.clear()
    report = verify_horizontal_law(parse_curve("H:t^3-t-2"), F("3*(t^3-t-2)^1"),
                                   F("1*(t+1)^1*(t^2+3)^-1"),
                                   config=RunConfig(start_precision=1))
    assert report.verdict == "pass" and [p for _, p, _ in ran] == [2, 13]


# -- the tame symbol: one function per curve ------------------------------------


def _full_symbol(curve, point, f, g):
    """The flag symbol with both nu2 computed at every flag."""
    if curve.kind == VERTICAL:
        (a, b), (c, d) = rank2_vertical(f, curve.p, point), rank2_vertical(g, curve.p, point)
        return det2(a, c, b, d)
    if curve.kind == INFINITY_SECTION or point.at_infinity:
        return _full_symbol(*(act(SWAP, x) for x in (curve, point, f, g)))
    nu1_f, nu1_g = horizontal_order(f, curve), horizontal_order(g, curve)
    return sum(br.weight * det2(nu1_f, nu1_g, br.nu2_f, br.nu2_g)
               for br in branch_decomposition(curve, point, f, g))


def _nu1(curve, fn):
    if curve.kind == VERTICAL:
        return vertical_order(fn, curve.p)
    return horizontal_order(fn, curve)


def _tame_by_make_function(curve, f, g):
    """f^nu1(g) / g^nu1(f), normalized by make_function."""
    m_f, m_g = _nu1(curve, f), _nu1(curve, g)
    factors = [(b, m_g * e) for b, e in f.factors] + [(b, -m_f * e) for b, e in g.factors]
    return make_function(f.unit**m_g / g.unit**m_f, factors, check=False)


def _flags(verify, subject, f, g):
    """The (curve, point) flags a law verification sums over."""
    if verify is verify_point_law:
        return [(curve, subject) for curve in curves_through_point(subject, f, g)]
    if verify is verify_vertical_law:
        return [(Curve.vertical(subject), x) for x in points_on_vertical(subject, f, g)]
    flags = []
    try:
        for x in points_on_horizontal(subject, f, g):
            flags.append((subject, x))
    except INCONCLUSIVE_ERRORS:
        pass  # the flags listed before the refusal are still compared
    return flags


def _value_or_refusal(symbol, *args):
    try:
        return symbol(*args)
    except INCONCLUSIVE_ERRORS as exc:
        return type(exc)


def test_lazy_symbol_equals_the_full_determinant():
    """-sum w nu2(d) for the tame symbol d = f^nu1(g) / g^nu1(f), which
    curve_point_symbol reads, equals the full determinant at every flag of
    the seed-7 slice and the selftest populations.  Where d is refused, the
    full determinant is refused with the same error; where only the full
    determinant is, the refused nu2 belongs to a function whose nu1 cofactor
    is 0, so it is not in d."""
    rng = random.Random(12)
    cases = _selftest_law_cases(5, 80) + _wider_law_cases(7, 600)
    cases += [(verify_vertical_law, VERTICAL_PRIMES[i % len(VERTICAL_PRIMES)], *random_pair(rng))
              for i in range(80)]
    compared, refused, gained = Counter(), Counter(), 0
    for case in cases:
        f, g = case[2:]
        for curve, point in _flags(*case):
            tame = tame_symbol(curve, f, g)
            assert tame == _tame_by_make_function(curve, f, g), (curve, f, g)
            full = _value_or_refusal(_full_symbol, curve, point, f, g)
            value = _value_or_refusal(curve_point_symbol, curve, point, f, g)
            if isinstance(value, type):
                assert full is value, (curve, point, f, g)
                refused[value.__name__] += 1
            elif isinstance(full, type):
                assert not (_nu1(curve, f) and _nu1(curve, g)), (curve, point, f, g)
                gained += value == 0
            else:
                assert value == full, (curve, point, f, g)
                compared[curve.kind, full != 0] += 1
    # every kind of curve, with zero and nonzero symbols, flags both refuse,
    # and flags the full determinant leaves undecided that d decides
    assert len(compared) == 6 and min(compared.values()) > 5, compared
    assert sum(refused.values()) > 20 and gained > 50, (refused, gained)


def test_the_vertical_law_is_the_degree_of_a_divisor():
    """On a fiber V_p, d mod p is a rational function on P^1 over F_p, and the
    vertical law says that its divisor has degree 0: the sum of
    deg(x) ord_x(d mod p) over the closed points, t = infinity included.
    ord_x is read off factor_mod_p of each base of d, and each symbol of the
    law is -ord_x."""
    rng = random.Random(31)
    seen = Counter()
    for i in range(150):
        p = VERTICAL_PRIMES[i % len(VERTICAL_PRIMES)]
        f, g = random_pair(rng)
        if rng.random() < 0.5:  # put p in the units
            f = f * make_function(p ** rng.randint(1, 2), [])
        tame = tame_symbol(Curve.vertical(p), f, g)
        divisor = Counter()
        for b, e in tame.factors:
            bbar = _reduce(b.coeffs, p)
            divisor[None] -= e * (len(bbar) - 1)  # the order at t = infinity
            if len(bbar) > 1:
                for pi, k in factor_mod_p(b, p)[1]:
                    divisor[pi] += e * k
        assert sum((1 if pi is None else pi.degree) * n for pi, n in divisor.items()) == 0
        report = verify_vertical_law(p, f, g)
        assert report.exact_sum == 0
        for item, x in zip(report.items, points_on_vertical(p, f, g)):
            assert item["value"] == -divisor[x.residue], (p, f, g, x)
        seen[bool(tame.factors), any(divisor.values())] += 1
    assert seen[True, True] > 30 and seen[False, False] > 10, seen


def test_no_nu2_is_taken_for_a_zero_cofactor(monkeypatch):
    """d carries no base of a function whose nu1 cofactor is 0; a curve with
    nu1(f) = nu1(g) = 0 takes no branch data or fiber count; a vertical law
    takes nu1 of f and of g once per fiber, not once per point."""
    built, branch_calls, rank2_calls, orders = [], [], [], []
    tame, branches, rank2, order = (laws.tame_symbol, symbols.branch_decomposition,
                                    symbols.rank2_vertical, symbols.vertical_order)

    def record_tame(curve, f, g):
        d = tame(curve, f, g)
        built.append((curve, d))
        return d

    def count_branches(curve, point, f, g):
        branch_calls.append((f, g))
        return branches(curve, point, f, g)

    def count_rank2(fn, p, point):
        rank2_calls.append(fn)
        return rank2(fn, p, point)

    def count_order(fn, p):
        orders.append(fn)
        return order(fn, p)

    monkeypatch.setattr(laws, "tame_symbol", record_tame)
    monkeypatch.setattr(symbols, "branch_decomposition", count_branches)
    monkeypatch.setattr(symbols, "rank2_vertical", count_rank2)
    monkeypatch.setattr(symbols, "vertical_order", count_order)
    seen = Counter()
    for verify, subject, f, g in _wider_law_cases(7, 600):
        for calls in (built, branch_calls, rank2_calls, orders):
            calls.clear()
        report = verify(subject, f, g)
        for curve, d in built:
            m_f, m_g = _nu1(curve, f), _nu1(curve, g)
            bases = {b for b, _ in d.factors}
            if not m_g:
                assert bases <= {b for b, _ in g.factors}, (curve, f, g, d)
            if not m_f:
                assert bases <= {b for b, _ in f.factors}, (curve, f, g, d)
            seen["one cofactor 0", bool(m_f) != bool(m_g)] += 1
        if verify is verify_horizontal_law:
            m_f, m_g = f.exponent_of(subject.h), g.exponent_of(subject.h)
            if not (m_f or m_g):
                assert branch_calls == []
            # the tame symbol, or its move to s = 1/t at a point at infinity,
            # with ONE in place of the second function
            for bf, bg in branch_calls:
                assert bg is symbols.ONE and bf in (built[0][1], act(SWAP, built[0][1]))
            seen["horizontal", bool(m_f or m_g), bool(branch_calls)] += 1
        elif verify is verify_vertical_law:
            v_f, v_g = vertical_order(f, subject), vertical_order(g, subject)
            if not (v_f or v_g):
                assert rank2_calls == []
            assert sum(fn is f for fn in orders) == sum(fn is g for fn in orders) == 1
            assert len(rank2_calls) in (0, len(report.items)), report.items
            seen["vertical", bool(v_f or v_g), bool(rank2_calls)] += 1
            seen["vertical points", len(report.items) > 1] += 1
    assert {("horizontal", False, False), ("horizontal", True, True),
            ("vertical", False, False), ("vertical", True, True)} <= set(seen), seen
    assert seen["one cofactor 0", True] > 50 and seen["vertical points", True] > 50, seen


def test_a_law_builds_one_tame_symbol_per_curve(monkeypatch):
    """d is built once for the fiber of a vertical law, once for the curve of
    a horizontal law, and once per curve through the point of a point law."""
    built = []
    tame = laws.tame_symbol

    def record(curve, f, g):
        built.append(curve)
        return tame(curve, f, g)

    monkeypatch.setattr(laws, "tame_symbol", record)
    seen = Counter()
    for verify, subject, f, g in _wider_law_cases(7, 600):
        built.clear()
        try:
            report = verify(subject, f, g)
        except ArithsurfError:
            continue
        if verify is verify_vertical_law:
            curves = [Curve.vertical(subject)]
        elif verify is verify_horizontal_law:
            curves = [affine_chart(subject, f, g)[0]]
        else:
            curves = curves_through_point(subject, f, g)
        # an inconclusive law stops at the curve or point it cannot decide
        assert built == curves or report.verdict == "inconclusive" and built == curves[:len(built)]
        seen[verify.__name__, report.verdict != "inconclusive", len(report.items) > 1] += 1
    for name in ("verify_vertical_law", "verify_horizontal_law", "verify_point_law"):
        assert seen[name, True, True] > 50, seen


def test_a_skipped_function_still_refuses_a_base_sharing_a_factor_with_the_curve():
    # (t^2+1)(t^3-2) passes the degree-4 spot check and meets every point of
    # H:t^2+1.  It is not in d with nu1(f) = 0 or nu1(g) = 0, and every
    # resultant of the curve with a base is taken before d is built.
    c, pt = parse_curve("H:t^2+1"), parse_point("3:t^2+1")
    for f in ("1*(t^5+t^3-2*t^2-2)^1", "1*(t^2+1)^1*(t^5+t^3-2*t^2-2)^1"):
        with pytest.raises(NonIrreducibleBase, match="H:t\\^2\\+1"):
            curve_point_symbol(c, pt, F(f), F("3"))
        with pytest.raises(NonIrreducibleBase, match="H:t\\^2\\+1"):
            curve_point_symbol(c, pt, F("3"), F(f))


# -- the fiber and the infinity section at a point at infinity ------------------

COUNT_PRIMES = (2, 3, 5, 7, 13, 2**61 - 1)


def _counted_function(rng, p):
    """A seeded function for the counts at (p, inf): its unit has p in the
    numerator, the denominator or neither, and some of its bases have
    p | lc(b)."""
    factors = []
    for _ in range(rng.randint(1, 3)):
        while True:
            lc = rng.choice((1, 2, -3, p, 2 * p, -p))
            b = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 3))] + [lc])
            try:
                make_function(1, [(b, 1)])
                break
            except NonIrreducibleBase:
                continue
        factors.append((b, rng.choice((-2, -1, 1, 2))))
    unit = Fraction(rng.choice((1, -1, 2, 3)) * p ** rng.randint(0, 2), p ** rng.randint(0, 2))
    return make_function(unit, factors)


def test_the_counts_at_a_point_at_infinity_equal_the_second_chart():
    """nu2 on the fiber and on the infinity section at (p, inf), counted in
    the first chart, against the same flags read at the origin of s = 1/t."""
    rng = random.Random(2201)
    t = parse_intpoly("t")
    seen = Counter()
    for i in range(900):
        p = COUNT_PRIMES[i % len(COUNT_PRIMES)]
        f, g = _counted_function(rng, p), _counted_function(rng, p)
        x, origin = ClosedPoint(p), act(SWAP, ClosedPoint(p))
        sf, sg = act(SWAP, f), act(SWAP, g)
        # the fiber: the order at t = infinity of f mod p, -sum e deg(b mod p)
        fiber = rank2_vertical(f, p, x)
        assert fiber == rank2_vertical(sf, p, origin)
        # the infinity section: H:t in the second chart, with one branch
        (branch,) = branch_decomposition(Curve.horizontal(t), origin, sf, sg)
        leading = symbols._leading_valuation(f, p), symbols._leading_valuation(g, p)
        assert leading == (branch.nu2_f, branch.nu2_g)
        assert (curve_point_symbol(Curve.vertical(p), x, f, g)
                == curve_point_symbol(Curve.vertical(p), origin, sf, sg))
        assert (curve_point_symbol(Curve.infinity(), x, f, g)
                == curve_point_symbol(Curve.horizontal(t), origin, sf, sg))
        drops = any(b.lc % p == 0 for b, _ in f.factors)
        seen[p, drops, fiber[1] != horizontal_order(f, Curve.infinity()), leading[0] != 0] += 1
    for p in COUNT_PRIMES:
        # a base through the point drops degree mod p and puts p in the
        # leading coefficient; without one, the unit alone sets nu2
        assert seen[p, True, True, True] and seen[p, False, False, True], seen
        assert seen[p, False, False, False], seen


def test_the_counts_swap_no_chart(monkeypatch):
    calls = Counter()
    real = surface.act

    def count(sigma, x):
        calls[type(x).__name__] += 1
        return real(sigma, x)

    for module in (surface, symbols):
        monkeypatch.setattr(module, "act", count)
    cases = _wider_law_cases(7, 1500)
    vertical = [case for case in cases if case[0] is verify_vertical_law]
    for verify, p, f, g in vertical:
        verify(p, f, g)
    assert not calls and len(vertical) > 400
    flags = Counter()
    for verify, x, f, g in cases:
        if verify is not verify_point_law or not x.at_infinity:
            continue
        for curve in curves_through_point(x, f, g):
            calls.clear()
            try:
                outcome = "nonzero" if curve_point_symbol(curve, x, f, g) else "zero"
            except INCONCLUSIVE_ERRORS:  # only an H:b flag has branch data to refuse
                outcome = "inconclusive"
            if curve.kind == HORIZONTAL:
                # an H:b flag with p | lc(b) still takes its branches in s = 1/t:
                # one move of the curve and one of the point
                assert calls["Curve"] == calls["ClosedPoint"] == 1, calls
            else:
                assert not calls, (curve, x, f, g)
            flags[curve.kind, outcome] += 1
    assert flags[VERTICAL, "nonzero"] > 5 and flags[INFINITY_SECTION, "nonzero"] > 5, flags
    assert not flags[VERTICAL, "inconclusive"] and not flags[INFINITY_SECTION, "inconclusive"]
    assert sum(n for (kind, _), n in flags.items() if kind == HORIZONTAL) > 5, flags


def test_a_base_divisible_by_t_is_counted_at_infinity():
    # t^5+t = t (t^4+1) passes the degree <= 4 spot check; the second chart
    # refuses it, and the counts read the sum of t and t^4+1
    with pytest.raises(NonIrreducibleBase, match="t = 0, where s = infinity lands, so t divides it"):
        act(SWAP, F("1*(t^5+t)^1"))
    for p in (2, 3, 5):
        x = ClosedPoint(p)
        f, parts = F(f"{p} * (t^5+t)^1"), (F(f"{p} * (t)^1"), F("1*(t^4+1)^1"))
        for curve, g in ((Curve.vertical(p), F(f"{p}")), (Curve.infinity(), F(f"{p} * (t)^1"))):
            value = curve_point_symbol(curve, x, f, g)
            assert value == sum(curve_point_symbol(curve, x, part, g) for part in parts)
            assert value != 0
        assert verify_point_law(x, f, F(f"{p} * (t)^1")).exact_sum == 0


# -- coordinate changes: the symbol is intrinsic ---------------------------------

# t -> t + 1, t -> -t and t -> 1/t generate GL_2(Z)
GENERATORS = ((1, 1, 0, 1), (-1, 0, 0, 1), SWAP)


def _matmul(s, t):
    a, e, c, d = s
    a2, e2, c2, d2 = t
    return (a * a2 + e * c2, a * e2 + e * d2, c * a2 + d * c2, c * e2 + d * d2)


def _random_word(rng):
    """A random product of one to three generators."""
    sigma = (1, 0, 0, 1)
    for _ in range(rng.randint(1, 3)):
        sigma = _matmul(sigma, rng.choice(GENERATORS))
    return sigma


def test_act_composes_as_the_matrix_product():
    """act(tau, act(sigma, x)) == act(sigma . tau, x), since act(sigma, f) is
    f((a s + e)/(c s + d)); SWAP is an involution; -1 acts trivially.  On
    functions, horizontal curves, the infinity section, fibers and points."""
    rng = random.Random(26)
    moved = set()
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7))
        bases, n = [], rng.randint(0, 3)
        while len(bases) < n:
            b = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 4))] + [rng.choice((1, 2, 3))])
            if spot_check_irreducible(b) and b.primitive_part() == b:
                bases.append(b)
        xs = [make_function(Fraction(rng.randint(1, 30), rng.randint(1, 30)),
                            [(b, rng.choice((-2, -1, 1, 2))) for b in bases])]
        xs += [Curve.horizontal(b) for b in bases] + [Curve.infinity(), Curve.vertical(p)]
        xs += [ClosedPoint(p), ClosedPoint(p, random_monic_irreducible(p, rng.randint(1, 3), rng))]
        sigma, tau = _random_word(rng), _random_word(rng)
        for x in xs:
            assert act(tau, act(sigma, x)) == act(_matmul(sigma, tau), x), (sigma, tau, x)
            assert act(SWAP, act(SWAP, x)) == x
            assert act((-1, 0, 0, -1), x) == x
            moved.add((type(x).__name__, act(sigma, x) != x))
    assert len(moved) == 6, moved


def test_the_symbol_is_invariant_under_coordinate_changes():
    """nu_{sC, sx}(sf, sg) = nu_{C, x}(f, g) for random words s in the three
    generators, three per flag, on every flag of the point-law cases of the
    `laws` pool and of the selftest populations.  A law checks a sum; this
    checks each flag on its own.  A moved flag may fall outside what the
    symbol decides (a point at infinity may move to a finite point with
    p | lc); those are counted."""
    rng = random.Random(26)
    seen = Counter()
    pool = [("laws", *case[1:]) for case in _wider_law_cases(7, 3000, ("point",))]
    pool += [("selftest", *case[1:]) for case in _selftest_law_cases(5, 400)
             if case[0] is verify_point_law]
    for source, x, f, g in pool:
        for curve in curves_through_point(x, f, g):
            try:
                value = curve_point_symbol(curve, x, f, g)
            except INCONCLUSIVE_ERRORS:
                continue
            for _ in range(3):
                sigma = _random_word(rng)
                moved = [act(sigma, y) for y in (curve, x, f, g)]
                try:
                    assert curve_point_symbol(*moved) == value, (curve, x, f, g, moved)
                except INCONCLUSIVE_ERRORS:
                    seen["moved inconclusive"] += 1
                    continue
                seen[source] += 1
                seen[curve.kind, value != 0, x.at_infinity, moved[1].at_infinity] += 1
    assert seen["moved inconclusive"] < 200, seen
    assert seen["laws"] > 4000 and seen["selftest"] > 1500, seen
    for kind in (VERTICAL, HORIZONTAL):
        # finite flags moved to infinity and flags at infinity moved to finite
        assert seen[kind, True, False, True] and seen[kind, True, True, False], seen
    assert seen[INFINITY_SECTION, True, True, False], seen


def test_a_horizontal_flag_at_infinity_moves_to_a_finite_one():
    # 2 | lc(2t^2+t+1): the flag at 2:inf is read at 2:s of s^2+s+2 = s (s+1)
    # mod 2, one unramified branch, where the root theta = 0 mod 2 has
    # v(theta) = v(-2 / (theta+1)) = 1.  By hand, with nu1(f) = m and
    # nu1(g) = 0 the symbol is m nu2(g) in s: 2 gives v(2) = 1; 2t becomes
    # 2/s, so v(2) - v(theta) = 0; (t+1) t^-3 becomes (s+1) s^2, so 2.
    curve, x = parse_curve("H:2*t^2+t+1"), parse_point("2:inf")
    assert act(SWAP, curve) == parse_curve("H:t^2+t+2")
    assert act(SWAP, x) == parse_point("2:t")
    for f, g, value in (("1*(2*t^2+t+1)^1", "2", 1), ("1*(2*t^2+t+1)^1", "2*(t)^1", 0),
                        ("3*(2*t^2+t+1)^2", "1*(t+1)^1*(t)^-3", 4)):
        f, g = F(f), F(g)
        assert curve_point_symbol(curve, x, f, g) == value
        assert curve_point_symbol(act(SWAP, curve), act(SWAP, x), act(SWAP, f), act(SWAP, g)) == value
