import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from arithsurf import modp
from arithsurf.errors import NotExact, ParseError, ZeroPolynomial
from arithsurf.intpoly import IntPoly, parse_intpoly, resultant
from arithsurf.modp import (
    ModPPoly,
    _pth_root,
    _split_quadratic,
    _sqrt_mod_p,
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


def test_squarefree_input_is_its_own_block_after_one_gcd(monkeypatch):
    calls = []
    gcd = modp._gcd
    monkeypatch.setattr(modp, "_gcd", lambda a, b, p: calls.append(p) or gcd(a, b, p))
    f = [1, 0, 1]  # t^2+1 is irreducible mod 3
    assert modp.squarefree_decomposition(f, 3) == [(f, 1)] and calls == [3]


# -- differential test against sympy -------------------------------------------

# 397 and 401 sit either side of modp.ROOT_SCAN = 400; 10007 = 3 mod 4,
# 10037 = 5 mod 8 and 65537 = 1 mod 2^16 take different square-root paths
DIFF_PRIMES = (2, 3, 5, 7, 101, 397, 401, 10007, 10037, 65537, 2**31 - 1, 2**61 - 1)


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
    squarefree = {True: 0, False: 0}
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
        if f.degree >= 2:
            squarefree[all(e == 1 for _, e in expected)] += 1
    # both sides of the squarefree shortcut in the decomposition ran
    assert squarefree[True] and squarefree[False], squarefree


# inputs that split, with their factors before the squarefree shortcut
SPLIT_INPUTS = (
    ("t^4+1", 257, [([4, 1], 1), ([64, 1], 1), ([193, 1], 1), ([253, 1], 1)]),
    ("t^4+1", 3, [([2, 1, 1], 1), ([2, 2, 1], 1)]),
    ("t^6+t^5+t^4+t^3+t^2+t+1", 2, [([1, 0, 1, 1], 1), ([1, 1, 0, 1], 1)]),
    ("t^4+1", 2, [([1, 1], 4)]),  # f' = 0: the decomposition takes the p-th root
)


@pytest.mark.parametrize("h, p, expected", SPLIT_INPUTS)
def test_split_inputs_keep_their_factors(h, p, expected):
    unit, got = factor_mod_p(parse_intpoly(h), p, seed=5)
    assert unit == 1 and [(list(pi.coeffs), e) for pi, e in got] == expected


def test_random_generator_is_built_only_to_split(monkeypatch):
    seeds = []
    real = modp.random.Random

    def generator(seed):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(modp, "random", SimpleNamespace(Random=generator))
    split_primes = []
    real_split = modp.distinct_degree_split

    def split(f, p):
        split_primes.append(p)
        return real_split(f, p)

    monkeypatch.setattr(modp, "distinct_degree_split", split)
    # t^2+1 is irreducible mod 3 and t^3+t+1 = (t+2)(t^2+t+2) mod 3 splits
    # into factors of distinct degrees: no equal-degree split draws; below
    # ROOT_SCAN the roots of t^2+1 = (t+2)(t+3) mod 5 are found by the scan.
    # (t-1)(t^2-3) mod 401, above the bound, and the rootless
    # (t^2+1)(t^3+2t+1) mod 3 reach distinct-degree splitting, which leaves
    # each factor at its own degree
    for h, p, degrees in (("t^2+1", 3, [2]), ("t^3+t+1", 3, [1, 2]),
                          ("t^2+1", 5, [1, 1]), ("t^3-t^2-3*t+3", 401, [1, 2]),
                          ("t^5+t^2+2*t+1", 3, [2, 3])):
        assert [pi.degree for pi, _ in factor_mod_p(parse_intpoly(h), p)[1]] == degrees
    assert split_primes == [401, 3]
    assert seeds == []
    # above ROOT_SCAN, two roots split by a square root and draw nothing
    assert modp.ROOT_SCAN < 401
    assert factor_mod_p(parse_intpoly("t^2+1"), 401, seed=4)[1] == [
        (ModPPoly(401, [20, 1]), 1), (ModPPoly(401, [381, 1]), 1)]
    assert seeds == []
    # three roots need an equal-degree draw: the generator is seeded as before, once
    fm = (395, 11, 395, 1)  # (t-1)(t-2)(t-3) mod 401
    assert factor_mod_p(ModPPoly(401, fm), 401, seed=4)[1] == [
        (ModPPoly(401, [398, 1]), 1), (ModPPoly(401, [399, 1]), 1), (ModPPoly(401, [400, 1]), 1)]
    assert seeds == [(4, 401, fm).__hash__() & 0x7FFFFFFF]


# -- square roots and the pieces cut by a base -----------------------------------

# p = 3 mod 4 (one power), 5 mod 8 and 1 mod 2^16 (the Tonelli-Shanks loop)
SQRT_PRIMES = (10007, 2**61 - 1, 10037, 65537)


@pytest.mark.parametrize("p", SQRT_PRIMES)
def test_square_roots_of_residues_and_non_residues(p):
    rng = random.Random(p)
    kinds = {True: 0, False: 0}
    for _ in range(40):
        a = rng.randrange(1, p)
        residue = pow(a, (p - 1) // 2, p) == 1
        kinds[residue] += 1
        b = rng.randrange(p)
        g = [(b * b - a) * pow(4, -1, p) % p, b, 1]  # discriminant a
        if residue:
            s = _sqrt_mod_p(a, p)
            assert s * s % p == a
            roots = _split_quadratic(g, p)
            assert len(roots) == 2 and roots == sorted(roots)
            assert ModPPoly(p, roots[0]) * ModPPoly(p, roots[1]) == ModPPoly(p, g)
        else:
            with pytest.raises(NotExact, match="not a quadratic residue"):
                _sqrt_mod_p(a, p)
            assert _split_quadratic(g, p) == [g]
    assert _sqrt_mod_p(p, p) == 0
    assert kinds[True] and kinds[False], kinds


def test_quadratic_split_refuses_a_wrong_square_root(monkeypatch):
    # -4 is a square mod 401 = 1 mod 4, but 1 is no root of it
    monkeypatch.setattr(modp, "_tonelli_shanks", lambda a, p: 1)
    with pytest.raises(NotExact, match="not a square root of the discriminant 397"):
        _split_quadratic([1, 0, 1], 401)


def _shared_pair(rng, p):
    """Integer h and b with p | Res(h, b): lifts of c*u and c*v mod p for
    a common c, with c repeated in h (not squarefree, so the pieces share
    it) or p dividing lc(b) some of the time."""
    def monic(d):
        return ModPPoly(p, [rng.randrange(p) for _ in range(d)] + [1])

    c = monic(rng.randint(1, 2))
    hbar = c * monic(rng.randint(0, 2))
    if rng.random() < 0.4:
        hbar = hbar * c
    bbar = c * monic(rng.randint(0, 2)) * rng.randrange(1, p)

    def lift(a, top=0):
        return IntPoly([x + p * rng.randrange(-3, 4) for x in a.coeffs] + [p * top] * bool(top))

    return lift(hbar), lift(bbar, rng.choice((0, 0, 1)))


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize("p", (401, 10007, 10037, 65537, 2**31 - 1, 2**61 - 1))
def test_split_factorization_matches_unsplit_and_sympy(p):
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    rng = random.Random(p + 19)
    seen = {"cut": 0, "not squarefree": 0, "pieces share a factor": 0, "p | lc(b)": 0}
    for _ in range(25):
        h, b = _shared_pair(rng, p)
        assert resultant(h, b) % p == 0
        hbar, bbar = ModPPoly.from_intpoly(h, p), ModPPoly.from_intpoly(b, p)
        piece = gcd_modp(hbar, bbar)
        assert 1 <= piece.degree
        unsplit = factor_mod_p(h, p, seed=3)
        assert factor_mod_p(h, p, seed=3, split=[b]) == unsplit, (h, b)
        lc, factors = sympy.factor_list(sympy.Poly(list(reversed(h.coeffs)), t), modulus=p)
        expected = sorted(
            ([int(c) % p for c in reversed(sympy.Poly(g, t).all_coeffs())], e) for g, e in factors
        )
        assert unsplit[0] == int(lc) % p
        assert [(list(pi.coeffs), e) for pi, e in unsplit[1]] == sorted(
            expected, key=lambda fe: (len(fe[0]), fe))
        seen["not squarefree"] += any(e > 1 for _, e in unsplit[1])
        if piece.degree < hbar.degree:
            seen["cut"] += 1
            seen["pieces share a factor"] += not gcd_modp(piece, hbar // piece).degree < 1
        seen["p | lc(b)"] += b.lc % p == 0
    assert all(seen.values()), seen
