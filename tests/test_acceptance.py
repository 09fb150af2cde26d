"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each criterion asserts its stated tolerance and time budget.
"""

import random
import time
from fractions import Fraction

from mpmath import mp

from arithsurf.centext import (
    ExactSequenceData,
    MetrizedSpace,
    auto_window,
    commutator_pairing,
    gamma_sequence,
    mult_operator,
    standard_lattice,
)
from arithsurf.errors import WindowTooSmall
from arithsurf.intpoly import parse_intpoly
from arithsurf.laws import verify_horizontal_law
from arithsurf.modp import ModPPoly, factor_mod_p, is_irreducible_modp
from arithsurf.padic import padic_factor
from arithsurf.qlinalg import det, matmul
from arithsurf.selftest import (
    random_laurent,
    suite_horizontal_law,
    suite_oracle,
    suite_point_law,
    suite_prop_a,
    suite_prop_b,
    suite_vertical_law,
)
from arithsurf.surface import parse_curve, parse_function

SEED = 20260826
Q = Fraction


def report(n, name, ok, detail):
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} ({name}): {detail}"


def test_criterion_1_point_law():
    t0 = time.monotonic()
    r = suite_point_law(200, SEED, n_points=50)
    dt = time.monotonic() - t0
    rate = r.inconclusive / r.total
    ok = r.failed == 0 and rate < 0.10 and dt < 60
    report(1, "point-law", ok,
           f"{r.passed}/{r.total} pass, {r.inconclusive} inconclusive "
           f"({100 * rate:.1f}%), {dt:.1f}s < 60s; failures={r.failures}")


def test_criterion_2_vertical_law():
    t0 = time.monotonic()
    r = suite_vertical_law(200, SEED)
    dt = time.monotonic() - t0
    ok = r.failed == 0 and r.inconclusive == 0 and dt < 10
    report(2, "vertical-law", ok,
           f"{r.passed}/{r.total} pass, {dt:.1f}s < 10s; failures={r.failures}")


def test_criterion_3_horizontal_law():
    t0 = time.monotonic()
    r = suite_horizontal_law(250, SEED)  # 5 curves x 50 pairs
    # the ramified fixture: finite +log 2 at p=2 against the archimedean pair
    fix = verify_horizontal_law(
        parse_curve("H:t^2+1"), parse_function("1*(t^2+1)^1"), parse_function("1*(t-1)^1")
    )
    dt = time.monotonic() - t0
    ok = (r.failed == 0 and fix.verdict == "pass" and fix.finite_part == {"2": 1}
          and r.inconclusive <= 0.2 * r.total and dt < 120)
    report(3, "horizontal-law", ok,
           f"{r.passed}/{r.total} pass, {r.inconclusive} inconclusive, ramified "
           f"fixture {fix.verdict} (finite part {fix.finite_part}), {dt:.1f}s < 120s; "
           f"failures={r.failures}")


def test_criterion_4_oracle_equality():
    r = suite_oracle(100, SEED, tol=1e-9, prec=128)
    ok = r.failed == 0
    report(4, "arch-oracle", ok,
           f"{r.passed}/{r.total} within 1e-9, {r.inconclusive} inconclusive; "
           f"failures={r.failures}")


def test_criterion_5_prop_a():
    r = suite_prop_a(200, SEED)
    ok = r.failed == 0 and r.inconclusive == 0
    report(5, "prop-a", ok, f"{r.passed}/{r.total} triples exact; failures={r.failures}")


def test_criterion_6_prop_b():
    r = suite_prop_b(200, SEED, max_dim=8)
    ok = r.failed == 0
    report(6, "prop-b", ok,
           f"{r.passed}/{r.total} exact, {r.inconclusive} inconclusive; "
           f"failures={r.failures}")


def _rand_invertible(rng, n):
    while True:
        m = tuple(tuple(Q(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n))
        if det(m) != 0:
            return m


def test_criterion_7_well_definedness():
    rng = random.Random(SEED + 7)
    worst_pair = mp.mpf(0)
    done = 0
    while done < 50:
        f = random_laurent(rng, lo_exp=-1, hi_exp=3, coeff_bound=9)
        g = random_laurent(rng, lo_exp=-1, hi_exp=3, coeff_bound=9)
        w = auto_window(f, g)
        A = standard_lattice(w)
        gop, hop = mult_operator(f, w), mult_operator(g, w)
        try:
            base = commutator_pairing(gop, hop, A)
            resc = commutator_pairing(
                gop, hop, A,
                a_coord=Q(rng.randint(1, 50), rng.randint(1, 50)),
                b_coord=Q(-rng.randint(1, 50), rng.randint(1, 50)),
            )
        except WindowTooSmall:
            continue
        worst_pair = max(worst_pair, abs(base.to_mpf(128) - resc.to_mpf(128)))
        done += 1
    ok_pair = worst_pair <= mp.mpf("1e-12")

    worst_gamma = mp.mpf(0)
    for _ in range(50):
        d1, d3 = rng.randint(1, 2), rng.randint(1, 2)
        n = d1 + d3
        g2 = _rand_invertible(rng, n)
        gram = matmul(tuple(zip(*g2)), g2)
        inj = tuple(tuple(Q(1) if i == j else Q(0) for j in range(d1)) for i in range(n))
        surj = tuple(tuple(Q(1) if j == d1 + i else Q(0) for j in range(n)) for i in range(d3))
        seq = ExactSequenceData(MetrizedSpace(d1), MetrizedSpace(n, gram=gram),
                                MetrizedSpace(d3), inj=inj, surj=surj)
        base = gamma_sequence(seq)
        b1 = _rand_invertible(rng, d1)
        b3 = _rand_invertible(rng, d3)
        lifts = tuple(
            tuple(Q(rng.randint(-3, 3)) if j < d1 else b3[i][j - d1] for j in range(n))
            for i in range(d3)
        )
        re_r = gamma_sequence(seq, basis1=b1, basis3=b3, lifts=lifts)
        worst_gamma = max(worst_gamma, abs(base.to_mpf(128) - re_r.to_mpf(128)))
    ok_gamma = worst_gamma <= mp.mpf("1e-12")

    report(7, "well-definedness", ok_pair and ok_gamma,
           f"lift rescaling worst {mp.nstr(worst_pair, 3)} <= 1e-12 (50), "
           f"gamma re-randomization worst {mp.nstr(worst_gamma, 3)} <= 1e-12 (50)")


def test_criterion_8_exact_arith():
    rng = random.Random(SEED + 8)
    primes = (2, 3, 5, 7, 11, 13)
    bad = 0
    for i in range(1000):
        p = primes[rng.randrange(len(primes))]
        d = rng.randint(1, 6)
        h = ModPPoly(p, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])
        unit, fac = factor_mod_p(h, p)
        prod = ModPPoly(p, [unit])
        for piece, e in fac:
            if piece.lc != 1 or not is_irreducible_modp(piece):
                bad += 1
                break
            for _ in range(e):
                prod = prod * piece
        else:
            if prod != h:
                bad += 1
    h = parse_intpoly("t^2+1")
    expected = {2: [(2, 1)], 3: [(1, 2)], 5: [(1, 1), (1, 1)],
                13: [(1, 1), (1, 1)], 101: [(1, 1), (1, 1)]}
    table_ok = all(
        sorted((fct.e, fct.f) for fct in padic_factor(h, p).factors) == shape
        for p, shape in expected.items()
    )
    ok = bad == 0 and table_ok
    report(8, "exact-arith", ok,
           f"factor_mod_p round-trip 1000/{1000 - bad} ok, "
           f"padic (e,f) table for t^2+1 {'matches' if table_ok else 'MISMATCH'}")
