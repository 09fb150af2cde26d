import pytest
from mpmath import mp

from arithsurf import roots
from arithsurf.errors import RootFindingDivergence
from arithsurf.intpoly import parse_intpoly
from arithsurf.roots import all_roots, archimedean_places


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
