import random

import pytest
from hypothesis import given, settings, strategies as st

from arithsurf import modp
from arithsurf.errors import NotExact, ParseError, ZeroPolynomial
from arithsurf.intpoly import parse_intpoly
from arithsurf.modp import (
    ModPPoly,
    _pth_root,
    factor_mod_p,
    gcd_modp,
    is_irreducible_modp,
    multiplicity,
    pow_mod,
    random_monic_irreducible,
)

PRIMES = (2, 3, 5, 7, 13, 101)


def rand_poly(rng, p, d):
    return ModPPoly(p, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])


@given(st.integers(0, 5), st.data())
@settings(max_examples=150, deadline=None)
def test_factor_round_trip(pi, data):
    p = PRIMES[pi]
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    h = rand_poly(rng, p, rng.randint(1, 6))
    unit, fac = factor_mod_p(h, p, seed=7)
    prod = ModPPoly(p, [unit])
    for pi_poly, e in fac:
        assert pi_poly.lc == 1
        assert is_irreducible_modp(pi_poly)
        for _ in range(e):
            prod = prod * pi_poly
    assert prod == h


def test_factor_fixture_split():
    # t^2+1 mod 5 = (t+2)(t+3)
    h = ModPPoly.from_intpoly(parse_intpoly("t^2+1"), 5)
    _, fac = factor_mod_p(h, 5, seed=0)
    assert sorted(str(f.to_intpoly()) for f, _ in fac) == ["t+2", "t+3"]
    assert all(e == 1 for _, e in fac)


def test_factor_fixture_inert():
    h = ModPPoly.from_intpoly(parse_intpoly("t^2+1"), 3)
    _, fac = factor_mod_p(h, 3, seed=0)
    assert len(fac) == 1 and fac[0][1] == 1
    assert fac[0][0].degree == 2


def test_factor_fixture_ramified():
    # t^2+1 = (t+1)^2 mod 2
    h = ModPPoly.from_intpoly(parse_intpoly("t^2+1"), 2)
    _, fac = factor_mod_p(h, 2, seed=0)
    assert len(fac) == 1
    assert str(fac[0][0].to_intpoly()) == "t+1" and fac[0][1] == 2


def test_factor_seed_determinism():
    h = ModPPoly.from_intpoly(parse_intpoly("t^6+t^3+2*t+5"), 13)
    a = factor_mod_p(h, 13, seed=123)
    b = factor_mod_p(h, 13, seed=123)
    assert a == b


def test_multiplicity():
    p = 5
    pi = ModPPoly(p, [2, 1])  # t+2
    h = pi * pi * ModPPoly(p, [3, 1])
    assert multiplicity(h, pi) == 2
    assert multiplicity(h, ModPPoly(p, [3, 1])) == 1
    assert multiplicity(h, ModPPoly(p, [1, 1])) == 0


def test_random_monic_irreducible():
    rng = random.Random(9)
    for p in (2, 5, 13):
        for d in (1, 2, 3):
            f = random_monic_irreducible(p, d, rng)
            assert f.degree == d and f.lc == 1 and is_irreducible_modp(f)


@given(st.integers(0, 5), st.data())
@settings(max_examples=100, deadline=None)
def test_gcd_divides(pi, data):
    p = PRIMES[pi]
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    a, b = rand_poly(rng, p, rng.randint(1, 5)), rand_poly(rng, p, rng.randint(1, 5))
    d = gcd_modp(a, b)
    assert (a % d).is_zero and (b % d).is_zero


def test_x_poly_and_eval():
    x = ModPPoly(7, [0, 1])
    assert x.evaluate(3) == 3
    assert ((x * x + ModPPoly(7, [1])).evaluate(2)) == 5


# -- the list-level kernel against schoolbook arithmetic ---------------------


def _naive_divmod(a, b):
    """Long division reducing every coefficient at every step."""
    m = a.p
    rem = list(a.coeffs)
    d = b.degree
    inv = pow(b.lc, -1, m)
    quo = [0] * max(0, len(rem) - d)
    for k in range(len(rem) - d - 1, -1, -1):
        q = rem[k + d] * inv % m
        quo[k] = q
        for i, c in enumerate(b.coeffs):
            rem[k + i] = (rem[k + i] - q * c) % m
    return ModPPoly(m, quo), ModPPoly(m, rem[:d])


def _naive_pow_mod(base, e, mod):
    result = ModPPoly(base.p, [1])
    base = _naive_divmod(base, mod)[1]
    while e:
        if e & 1:
            result = _naive_divmod(result * base, mod)[1]
        base = _naive_divmod(base * base, mod)[1]
        e >>= 1
    return result


KERNEL_MODULI = (2, 7, 101, 2**10, 7**5, 101**3)


def _operand(rng, m):
    d = rng.choice((-1, 0, 0, 1, 3, 6, 9))  # -1 is the zero polynomial
    return ModPPoly(m, [rng.randrange(m) for _ in range(d + 1)])


def _divisor(rng, m, p):
    """Random divisor whose leading coefficient is a unit, mostly not 1."""
    lc = rng.choice([u for u in range(2, 2 * p + 2) if u % p][:3] + [1])
    d = rng.choice((0, 1, 2, 4))
    return ModPPoly(m, [rng.randrange(m) for _ in range(d)] + [lc])


@pytest.mark.parametrize("m", KERNEL_MODULI)
def test_division_matches_schoolbook(m):
    p = next(q for q in (2, 7, 101) if m % q == 0)
    rng = random.Random(m)
    for _ in range(60):
        a, b = _operand(rng, m), _divisor(rng, m, p)
        q, r = _naive_divmod(a, b)
        assert divmod(a, b) == (q, r)
        assert a % b == r and a // b == q
        assert q * b + r == a and r.degree < b.degree


@pytest.mark.parametrize("m", KERNEL_MODULI)
def test_pow_mod_matches_square_and_multiply(m):
    p = next(q for q in (2, 7, 101) if m % q == 0)
    rng = random.Random(m + 1)
    for _ in range(25):
        base, mod = _operand(rng, m), _divisor(rng, m, p)
        for e in (0, 1, 2, 5, p, rng.randrange(2, 10**6)):
            assert pow_mod(base, e, mod) == _naive_pow_mod(base, e, mod), (base, e, mod)


def test_kernel_refuses_zero_and_mixed_divisors():
    a = ModPPoly(7, [1, 2, 3])
    for op in (lambda b: a % b, lambda b: a // b, lambda b: pow_mod(a, 3, b)):
        with pytest.raises(ZeroPolynomial):
            op(ModPPoly(7))
        with pytest.raises(ParseError, match="mixed characteristics"):
            op(ModPPoly(5, [1, 1]))


def test_pth_root_rejects_a_non_pth_power():
    assert _pth_root((1, 0, 0, 0, 0, 2), 5) == [1, 2]
    with pytest.raises(NotExact):
        _pth_root((1, 1), 5)


def test_linear_and_constant_inputs_skip_the_pipeline(monkeypatch):
    def pipeline(*args):
        raise AssertionError("the factoring pipeline ran")

    monkeypatch.setattr(modp, "squarefree_decomposition", pipeline)
    f = ModPPoly(7, [3, 5])  # 5t + 3 = 5 (t + 2) mod 7
    assert modp._factor_mod_p(f, 7, 0) == (5, ((ModPPoly(7, [2, 1]), 1),))
    assert factor_mod_p(f, 7) == (5, [(ModPPoly(7, [2, 1]), 1)])
    assert modp._factor_mod_p(ModPPoly(7, [4]), 7, 0) == (4, ())


# -- differential test against sympy -------------------------------------------

DIFF_PRIMES = (2, 3, 5, 7, 10007, 2**31 - 1)


def _diff_input(rng, p):
    """A nonzero polynomial of degree <= 8 mod p: a generic one, or a product
    of random factors with repeats and, where the degree allows, p-th powers."""
    if rng.random() < 0.3:
        return rand_poly(rng, p, rng.randint(1, 8))
    f = ModPPoly(p, [rng.randrange(1, p)])
    room = rng.randint(1, 8)
    if p <= room and rng.random() < 0.3:  # a p-th power of a linear factor
        g = rand_poly(rng, p, 1)
        for _ in range(p):
            f = f * g
        room -= p
    while room:
        d = rng.randint(1, min(3, room))
        g = rand_poly(rng, p, d)
        for _ in range(rng.choice([e for e in (1, 1, 2, 3, p) if d * e <= room])):
            f = f * g
            room -= d
    return f


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize("p", DIFF_PRIMES)
def test_factor_mod_p_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    rng = random.Random(p)
    for _ in range(30):
        f = _diff_input(rng, p)
        expr = sum(c * t**i for i, c in enumerate(f.coeffs))
        lc, factors = sympy.factor_list(expr, t, modulus=p)
        expected = sorted(
            ([int(c) % p for c in reversed(sympy.Poly(g, t).all_coeffs())], e) for g, e in factors
        )
        unit, got = factor_mod_p(f, p, seed=3)
        assert unit == int(lc) % p, f
        assert [(list(pi.coeffs), e) for pi, e in got] == sorted(expected, key=lambda fe: (len(fe[0]), fe)), f
