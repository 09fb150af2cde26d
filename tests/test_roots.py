import importlib.util
import random
from pathlib import Path

import pytest
from mpmath import mp

import arithsurf
from arithsurf import roots
from arithsurf.errors import RootFindingDivergence
from arithsurf.intpoly import T, IntPoly, discriminant, parse_intpoly, spot_check_irreducible
from arithsurf.roots import all_roots, archimedean_places, real_root_count


def test_all_roots_quadratic():
    roots = all_roots(parse_intpoly("t^2+1"))
    with mp.workprec(128):
        assert len(roots) == 2
        for r in roots:
            assert abs(r * r + 1) < mp.mpf(2) ** -100


def test_places_real_and_pairs():
    # (t^2+1)(t-1): one real place (weight 1) and one conjugate pair (weight 2)
    h = parse_intpoly("t^2+1") * parse_intpoly("t-1")
    places = archimedean_places(h)
    weights = sorted(p.weight for p in places)
    assert weights == [1, 2]
    real = [p for p in places if p.is_real]
    assert len(real) == 1
    with mp.workprec(128):
        assert abs(real[0].theta - 1) < mp.mpf(2) ** -60
    pair = [p for p in places if not p.is_real][0]
    assert pair.theta.imag > 0  # upper half plane representative


def test_places_count_totally_real():
    # t^2-2: two real embeddings
    places = archimedean_places(parse_intpoly("t^2-2"))
    assert [p.weight for p in places] == [1, 1]
    assert all(p.is_real for p in places)
    vals = sorted(float(p.theta) for p in places)
    assert abs(vals[0] + 2**0.5) < 1e-20 and abs(vals[1] - 2**0.5) < 1e-20


def test_places_ordering_deterministic():
    h = parse_intpoly("t^3-2")
    a = archimedean_places(h)
    b = archimedean_places(h)
    assert [(str(p.theta), p.weight) for p in a] == [
        (str(p.theta), p.weight) for p in b
    ]


def test_evaluate_poly():
    with mp.workprec(96):
        v = parse_intpoly("t^2+1").evaluate(mp.mpc(0, 1))
        assert abs(v) < mp.mpf(2) ** -80


def test_archimedean_places_checks_the_root_count(monkeypatch):
    # one real root reported for a quadratic: no split into places adds up
    monkeypatch.setattr(roots, "all_roots", lambda h, prec: [mp.mpf(1)])
    with pytest.raises(RootFindingDivergence):
        archimedean_places(parse_intpoly("t^2-2"))


# -- warm start against cold polyroots ----------------------------------------


def _cold_roots(h, prec):
    """The call all_roots made before it had a warm start, with its two
    refusals mapped to the same error type."""
    with mp.workprec(prec + 32):
        try:
            found, err = mp.polyroots([mp.mpf(c) for c in reversed(h.coeffs)],
                                      maxsteps=200, extraprec=prec, error=True)
        except mp.NoConvergence:
            return RootFindingDivergence
        if err > mp.mpf(2) ** (-prec):
            return RootFindingDivergence
        return sorted((mp.re(r), mp.im(r)) for r in found)


def _warm_roots(h, prec):
    try:
        found = all_roots(h, prec=prec)
    except RootFindingDivergence:
        return RootFindingDivergence
    return sorted((mp.re(r), mp.im(r)) for r in found)


def _random_curves(count, seed=11):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 4)
        cs = [rng.randint(-6, 6) for _ in range(d)] + [rng.choice((1, 2, 3, -2, -5))]
        h = IntPoly(cs)
        if h.primitive_part() == h and spot_check_irreducible(h):
            out.append(h)
    return out


WARM_EDGES = [
    T,
    2 * T - 1,
    T**2 + 1,  # purely imaginary roots
    T**4 - 10**20 * T**2 + 1,
    T**4 - 2 * (100 * T - 1) ** 2,  # Mignotte: two close real roots
]
# roots of 10^300: unscaled, the double start of the first is not finite and
# that of the second overflows a fixed-point double.  A cold polyroots call
# answers both, and refuses t^2 + 10^400.
SCALED_EDGES = [T**2 - 10**300 * T + 1, T - 10**300]


def _start(h):
    """The shift and the double start that all_roots takes."""
    k = roots._shift(h)
    return k, roots._double_start(h.substitute(1 << k, 0, 0, 1))


def test_warm_start_matches_cold_polyroots_bit_for_bit():
    for h in _random_curves(200) + WARM_EDGES + SCALED_EDGES:
        assert _warm_roots(h, 128) == _cold_roots(h, 128), h


def test_edge_curves_take_the_scaled_start():
    for h in SCALED_EDGES + [T**2 + 10**400]:
        k, start = _start(h)
        # every root of h is below 2^k, and Fujiwara's bound is within 2^3
        assert k > 600 and start is not None and 1 / 8 < max(abs(r) for r in start) < 1, h
    assert _cold_roots(T**2 + 10**400, 128) is RootFindingDivergence
    places = archimedean_places(T**2 + 10**400)
    assert [(p.weight, p.is_real) for p in places] == [(2, False)]
    with mp.workprec(128 + 32):
        assert places[0].theta == mp.mpc(0, 10**200)
    places = archimedean_places(T**2 - 10**300 * T + 1)
    assert [float(p.theta) for p in places] == [0.0, 1e300]


def _wide_curves(count, seed):
    """Squarefree curves of degree 5 and 6 with coefficients up to 10^12."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.choice((5, 6))
        h = IntPoly([rng.randint(-10**12, 10**12) for _ in range(d)] + [rng.randint(1, 10**12)])
        if discriminant(h):
            out.append(h)
    return out


def _law_curves(seed, size):
    """The curves of the horizontal laws among the first `size` cases of the
    benchmark's `laws` pool."""
    path = Path(__file__).resolve().parent.parent / "arithbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("arithbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pool = workloads.law_pool(arithsurf, workloads.Draws("laws", seed), size)
    return [case.data[0].h for case in pool if case.kind == "horizontal"]


def _no_polyroots(*args, **kwargs):
    raise AssertionError("polyroots was called")


# parts of a root far below 1: a root of 10^-45, and roots 10^-40 +- i,
# whose real part needs more fraction bits than 2·prec + 32
SMALL_PARTS = [10**45 * T - 1, 10**80 * T**2 - 2 * 10**40 * T + 10**80 + 1]


@pytest.mark.parametrize("prec", [53, 64, 200, 1024])
def test_certified_roots_match_cold_polyroots_at_every_precision(prec):
    for h in _random_curves(50, seed=prec) + _wide_curves(10, seed=prec) + SMALL_PARTS:
        assert _warm_roots(h, prec) == _cold_roots(h, prec), h


def test_law_curves_never_reach_polyroots(monkeypatch):
    curves = _random_curves(200) + WARM_EDGES + _law_curves(1, 800)
    monkeypatch.setattr(mp, "polyroots", _no_polyroots)
    for h in curves:
        places = archimedean_places(h)
        assert sum(p.weight for p in places) == h.degree, h


def test_edge_curves_never_reach_polyroots(monkeypatch):
    monkeypatch.setattr(mp, "polyroots", _no_polyroots)
    repeated = (T**2 - 2) ** 2
    outcomes = {h: _warm_roots(h, 128) for h in SCALED_EDGES + [T**2 + 10**400, repeated]}
    # no certificate holds on a repeated root, though a cold polyroots call
    # would return four roots
    assert outcomes.pop(repeated) is RootFindingDivergence
    assert RootFindingDivergence not in outcomes.values()


# t^d - a is irreducible when a is no p-th power for a prime p | d and, for
# 4 | d, not -4 times a fourth power (Capelli); 2·10^m is neither for any m
CAPELLI = [(d, sign, m) for d in (2, 3, 5) for sign in (1, -1)
           for m in (0, 10, 100, 200, 301, 400)]


@pytest.mark.parametrize("prec", [53, 128])
def test_scaled_roots_match_the_closed_form(prec):
    for d, sign, m in CAPELLI:
        h = T**d - sign * 2 * 10**m
        k, start = _start(h)
        z, bits = roots._newton_roots(h, k, start, prec)
        assert len(z) == d and roots._certified(list(reversed(h.coeffs)), z, bits, prec), h
        places = archimedean_places(h, prec)
        assert sum(p.weight for p in places) == d, h
        with mp.workprec(2 * prec + 64):
            rho = mp.root(mp.mpf(2) * mp.mpf(10) ** m, d)
            # the roots are rho·ζ with ζ^d = sign
            exact = [rho * mp.expjpi(mp.mpf(2 * j + (sign < 0)) / d) for j in range(d)]
            for p in places:
                assert min(abs(p.theta - e) for e in exact) <= rho * mp.mpf(2) ** -prec, (h, p)


def test_certificate_is_exact():
    prec = 128
    for h in (T**2 - 2, T**3 - 2, 3 * T**4 - 5 * T + 1):
        cs = list(reversed(h.coeffs))
        z, bits = roots._newton_roots(h, *_start(h), prec)
        assert roots._certified(cs, z, bits, prec), h
        (x, y), rest = z[0], z[1:]
        # 2^-200 off the root is outside the disk of radius r = 2^-256
        assert not roots._certified(cs, [(x + (1 << bits - 200), y)] + rest, bits, prec), h
        # two estimates 2^-bits apart, each within r of the same root: their
        # disks overlap, so they cannot hold two distinct roots
        twin = [(x, y), (x + 1, y)] + rest[1:]
        assert roots._certified(cs, twin[:1], bits, prec) and roots._certified(cs, twin[1:2], bits, prec)
        assert not roots._certified(cs, twin, bits, prec), h


# -- exact real-root count ------------------------------------------------------


@pytest.mark.parametrize("h, count", [
    (T, 1),
    (T**2 + 1, 0),
    (T**2 - 2, 2),
    (T**3 - 2, 1),
    (-(T**3) + 2, 1),
    (T**4 - 10**20 * T**2 + 1, 4),
    (T**4 - 2 * (100 * T - 1) ** 2, 4),
    (10**100 * T**2 + 1, 0),
    ((T**2 + 1) * (T - 1), 1),
    ((T - 1) ** 2 * (T + 2), 2),  # distinct roots only
])
def test_real_root_count(h, count):
    assert real_root_count(h) == count


def test_real_root_count_agrees_with_the_places():
    for h in _random_curves(60, seed=12):
        places = archimedean_places(h)
        assert real_root_count(h) == sum(p.is_real for p in places), h


def test_places_refuse_a_pair_inside_the_real_tolerance():
    # roots +-i 10^-50 round to 0 at Newton's first width, where h' vanishes
    with pytest.raises(RootFindingDivergence, match="no certified roots"):
        archimedean_places(10**100 * T**2 + 1)
