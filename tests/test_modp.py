import functools
import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from arithsurf import modp
from arithsurf.errors import NotExact
from arithsurf.intpoly import IntPoly, parse_intpoly, resultant
from arithsurf.modp import (
    ModPPoly,
    _add,
    _divmod,
    _mul,
    _pth_root,
    _reduce,
    _rem,
    _split_quadratic,
    _sqrt_mod_p,
    _gcd,
    _powmod,
    factor_mod_p,
    is_irreducible_modp,
    random_monic_irreducible,
)
from arithsurf.primes import is_prime

PRIMES = (2, 3, 5, 7, 13, 101)


def rand_poly(rng, p, d):
    return ModPPoly(p, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])


def times(*fs):
    """The product of ModPPolys with one modulus, by the list kernel."""
    return ModPPoly(fs[0].p, functools.reduce(_mul, (f.coeffs for f in fs)))


def expand(p, unit, factors):
    """unit times the product of the factors mod p, each to its exponent."""
    return times(ModPPoly(p, [unit]), *(pi for pi, e in factors for _ in range(e)))


@given(st.integers(0, 5), st.data())
@settings(max_examples=150, deadline=None)
def test_factor_round_trip(pi, data):
    p = PRIMES[pi]
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    h = rand_poly(rng, p, rng.randint(1, 6))
    unit, fac = factor_mod_p(h, p)
    for pi_poly, e in fac:
        assert pi_poly.lc == 1
        assert is_irreducible_modp(pi_poly)
    assert expand(p, unit, fac) == h


def test_factor_fixture_split():
    # t^2+1 mod 5 = (t+2)(t+3)
    h = ModPPoly.from_intpoly(parse_intpoly("t^2+1"), 5)
    _, fac = factor_mod_p(h, 5)
    assert sorted(str(f.to_intpoly()) for f, _ in fac) == ["t+2", "t+3"]
    assert all(e == 1 for _, e in fac)


def test_factor_fixture_inert():
    h = ModPPoly.from_intpoly(parse_intpoly("t^2+1"), 3)
    _, fac = factor_mod_p(h, 3)
    assert len(fac) == 1 and fac[0][1] == 1
    assert fac[0][0].degree == 2


def test_factor_fixture_ramified():
    # t^2+1 = (t+1)^2 mod 2
    h = ModPPoly.from_intpoly(parse_intpoly("t^2+1"), 2)
    _, fac = factor_mod_p(h, 2)
    assert len(fac) == 1
    assert str(fac[0][0].to_intpoly()) == "t+1" and fac[0][1] == 2


def test_factor_seed_determinism():
    h = ModPPoly.from_intpoly(parse_intpoly("t^6+t^3+2*t+5"), 13)
    a = factor_mod_p(h, 13)
    b = factor_mod_p(h, 13)
    assert a == b


def test_multiplicity():
    """A residue's multiplicity is its exponent in the factorization."""
    p = 5
    pi = ModPPoly(p, [2, 1])  # t+2
    h = times(pi, pi, ModPPoly(p, [3, 1]))
    exponents = dict(factor_mod_p(h, p)[1])
    assert exponents[pi] == 2
    assert exponents[ModPPoly(p, [3, 1])] == 1
    assert ModPPoly(p, [1, 1]) not in exponents


@pytest.mark.parametrize("p", (2, 3, 5, 13, 397))
def test_strip_roots_matches_division(p):
    """Synthetic division takes off each root as often as _divmod by t - x
    does, on (t - x)^k g with g random monic and k <= 5."""
    rng = random.Random(p)
    for k in range(6):
        for _ in range(8):
            x = rng.randrange(p)
            f = [1]
            for _ in range(k):
                f = modp._reduce(modp._mul(f, [-x % p, 1]), p)
            f = modp._reduce(modp._mul(f, [rng.randrange(p) for _ in range(rng.randint(0, 4))] + [1]), p)
            linear, rest = modp._strip_roots(f, p)
            expected, cofactor = [], f
            for y in range(p):
                lin, mult = [-y % p, 1], 0
                while True:
                    q, r = modp._divmod(cofactor, lin, p)
                    if r:
                        break
                    cofactor, mult = q, mult + 1
                if mult:
                    expected.append((lin, mult))
            assert (linear, rest) == (expected, cofactor), (f, p)
            assert dict((lin[0], m) for lin, m in linear).get(-x % p, 0) >= k


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
    d = ModPPoly(p, _gcd(a.coeffs, b.coeffs, p))
    assert d.lc == 1 and _divmod(a.coeffs, d.coeffs, p)[1] == _divmod(b.coeffs, d.coeffs, p)[1] == []


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
            result = _naive_divmod(times(result, base), mod)[1]
        base = _naive_divmod(times(base, base), mod)[1]
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
        assert _divmod(a.coeffs, b.coeffs, m) == (list(q.coeffs), list(r.coeffs))
        assert _rem(list(a.coeffs), b.coeffs, pow(b.lc, -1, m), m) == list(r.coeffs)
        assert _add(_mul(q.coeffs, b.coeffs), r.coeffs, m) == list(a.coeffs) and r.degree < b.degree


@pytest.mark.parametrize("m", KERNEL_MODULI)
def test_pow_mod_matches_square_and_multiply(m):
    p = next(q for q in (2, 7, 101) if m % q == 0)
    rng = random.Random(m + 1)
    for _ in range(25):
        base, mod = _operand(rng, m), _divisor(rng, m, p)
        for e in (0, 1, 2, 5, p, rng.randrange(2, 10**6)):
            got = ModPPoly(m, _powmod(base.coeffs, e, mod.coeffs, m))
            assert got == _naive_pow_mod(base, e, mod), (base, e, mod)


def test_pth_root_rejects_a_non_pth_power():
    assert _pth_root((1, 0, 0, 0, 0, 2), 5) == [1, 2]
    with pytest.raises(NotExact):
        _pth_root((1, 1), 5)


def test_linear_and_constant_inputs_skip_the_pipeline(monkeypatch):
    def pipeline(*args):
        raise AssertionError("the factoring pipeline ran")

    monkeypatch.setattr(modp, "squarefree_decomposition", pipeline)
    f = ModPPoly(7, [3, 5])  # 5t + 3 = 5 (t + 2) mod 7
    assert modp._factor_mod_p(f, 7) == (5, ((ModPPoly(7, [2, 1]), 1),))
    assert factor_mod_p(f, 7) == (5, [(ModPPoly(7, [2, 1]), 1)])
    assert modp._factor_mod_p(ModPPoly(7, [4]), 7) == (4, ())


def test_squarefree_input_is_its_own_block_after_one_gcd(monkeypatch):
    calls = []
    gcd = modp._gcd
    monkeypatch.setattr(modp, "_gcd", lambda a, b, p: calls.append(p) or gcd(a, b, p))
    f = [1, 0, 1]  # t^2+1 is irreducible mod 3
    assert modp.squarefree_decomposition(f, 3) == [(f, 1)] and calls == [3]


# -- differential test against sympy -------------------------------------------

# the largest prime the closed form for small reductions covers, and the
# least prime above it, either side of modp.ROOT_SCAN
BELOW_SCAN = next(p for p in range(modp.ROOT_SCAN, 1, -1) if is_prime(p))
ABOVE_SCAN = next(q for q in itertools.count(modp.ROOT_SCAN + 1) if is_prime(q))
# 10007 = 3 mod 4, 10037 = 5 mod 8 and 65537 = 1 mod 2^16 take different
# square-root paths
DIFF_PRIMES = (2, 3, 5, 7, 101, 149, 151, BELOW_SCAN, ABOVE_SCAN, 10007, 10037, 65537,
               2**31 - 1, 2**61 - 1)


def _diff_input(rng, p):
    """A nonzero polynomial of degree <= 8 mod p: a generic one, or a product
    of random factors with repeats and, where the degree allows, p-th powers."""
    if rng.random() < 0.3:
        return rand_poly(rng, p, rng.randint(1, 8))
    f = ModPPoly(p, [rng.randrange(1, p)])
    room = rng.randint(1, 8)
    if p <= room and rng.random() < 0.3:  # a p-th power of a linear factor
        g = rand_poly(rng, p, 1)
        f = times(f, *[g] * p)
        room -= p
    while room:
        d = rng.randint(1, min(3, room))
        g = rand_poly(rng, p, d)
        for _ in range(rng.choice([e for e in (1, 1, 2, 3, p) if d * e <= room])):
            f = times(f, g)
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
        unit, got = factor_mod_p(f, p)
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
    unit, got = factor_mod_p(parse_intpoly(h), p)
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
    # q, the least prime above the bound, and n, the least non-residue mod q
    q = ABOVE_SCAN
    n = next(n for n in range(2, q) if pow(n, (q - 1) // 2, q) == q - 1)
    # t^2+1 is irreducible mod 3 and t^3+t+1 = (t+2)(t^2+t+2) mod 3 splits
    # into factors of distinct degrees: no equal-degree split draws; the
    # roots of t^2+1 = (t+2)(t+3) mod 5 come from its discriminant.
    # (t-1)(t^2-n) mod q, above the bound, and the rootless
    # (t^2+1)(t^3+2t+1) mod 3 reach distinct-degree splitting, which leaves
    # each factor at its own degree
    for h, p, degrees in ((parse_intpoly("t^2+1"), 3, [2]), (parse_intpoly("t^3+t+1"), 3, [1, 2]),
                          (parse_intpoly("t^2+1"), 5, [1, 1]), (IntPoly([n, -n, -1, 1]), q, [1, 2]),
                          (parse_intpoly("t^5+t^2+2*t+1"), 3, [2, 3])):
        assert [pi.degree for pi, _ in factor_mod_p(h, p)[1]] == degrees
    assert split_primes == [q, 3]
    assert seeds == []
    # above ROOT_SCAN, two roots split by a square root and draw nothing
    assert factor_mod_p(parse_intpoly("t^2-400"), q)[1] == [
        (ModPPoly(q, [20, 1]), 1), (ModPPoly(q, [q - 20, 1]), 1)]
    assert seeds == []
    # three roots need an equal-degree draw: the generator is seeded once, from p
    # and the monic coefficients
    fm = (q - 6, 11, q - 6, 1)  # (t-1)(t-2)(t-3) mod q
    assert factor_mod_p(ModPPoly(q, fm), q)[1] == [
        (ModPPoly(q, [q - 3, 1]), 1), (ModPPoly(q, [q - 2, 1]), 1), (ModPPoly(q, [q - 1, 1]), 1)]
    assert seeds == [(q, fm).__hash__() & 0x7FFFFFFF]


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
            assert _reduce(_mul(roots[0], roots[1]), p) == g
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
    hbar = times(c, monic(rng.randint(0, 2)))
    if rng.random() < 0.4:
        hbar = times(hbar, c)
    bbar = times(c, monic(rng.randint(0, 2)), ModPPoly(p, [rng.randrange(1, p)]))

    def lift(a, top=0):
        return IntPoly([x + p * rng.randrange(-3, 4) for x in a.coeffs] + [p * top] * bool(top))

    return lift(hbar), lift(bbar, rng.choice((0, 0, 1)))


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize("p", (ABOVE_SCAN, 10007, 10037, 65537, 2**31 - 1, 2**61 - 1))
def test_split_factorization_matches_unsplit_and_sympy(p):
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    rng = random.Random(p + 19)
    seen = {"cut": 0, "not squarefree": 0, "pieces share a factor": 0, "p | lc(b)": 0}
    for _ in range(25):
        h, b = _shared_pair(rng, p)
        assert resultant(h, b) % p == 0
        hbar, bbar = ModPPoly.from_intpoly(h, p), ModPPoly.from_intpoly(b, p)
        piece = ModPPoly(p, _gcd(hbar.coeffs, bbar.coeffs, p))
        assert 1 <= piece.degree
        unsplit = factor_mod_p(h, p)
        assert factor_mod_p(h, p, split=[b]) == unsplit, (h, b)
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
            cofactor = _divmod(hbar.coeffs, piece.coeffs, p)[0]
            seen["pieces share a factor"] += len(_gcd(piece.coeffs, cofactor, p)) > 1
        seen["p | lc(b)"] += b.lc % p == 0
    assert all(seen.values()), seen


# -- the closed-form path for small reductions ------------------------------------

def _pipeline(f, p):
    """(unit, factors) of f by the general pipeline called directly:
    squarefree decomposition, distinct-degree then equal-degree split."""
    fm = modp._monic(f.coeffs, p)
    out = []
    for g, mult in modp.squarefree_decomposition(fm, p):
        for block, d in modp.distinct_degree_split(g, p):
            out += [(irr, mult) for irr in modp.equal_degree_split(block, d, p, random.Random(p))]
    out.sort(key=lambda fe: (len(fe[0]), fe[0]))
    return f.lc, [(list(irr), mult) for irr, mult in out]


def _small_reductions():
    """Every monic polynomial of degree 2-4 over F_2, F_3, F_5 and F_7, then
    2000 seeded ones, half with a repeated or a quadratic factor planted, at
    each of 11, 13, 101 and 149, with a random leading coefficient."""
    for p in (2, 3, 5, 7):
        for d in (2, 3, 4):
            for cs in itertools.product(range(p), repeat=d):
                yield ModPPoly(p, list(cs) + [1]), p
    rng = random.Random(33)
    for p in (11, 13, 101, 149):
        for _ in range(2000):
            f = rand_poly(rng, p, rng.randint(2, 4))
            if rng.random() < 0.5:
                q = rand_poly(rng, p, rng.randint(1, 2))
                f = times(q, q) if rng.random() < 0.5 else times(q, rand_poly(rng, p, 2))
            yield f, p


def test_small_reductions_factor_as_the_pipeline_does():
    assert modp.ROOT_SCAN >= 149
    for f, p in _small_reductions():
        unit, factors = modp._factor_mod_p(f, p)
        assert (unit, [(list(irr.coeffs), e) for irr, e in factors]) == _pipeline(f, p), (f, p)
        assert expand(p, unit, factors) == f, (f, p)


def test_small_reductions_run_no_powering_and_no_split(monkeypatch):
    def refuse(*args):
        raise AssertionError("the general pipeline ran")

    for name in ("_shift_pow", "_powmod", "squarefree_decomposition",
                 "distinct_degree_split", "equal_degree_split"):
        monkeypatch.setattr(modp, name, refuse)
    monkeypatch.setattr(modp, "random", SimpleNamespace(Random=refuse))
    rng = random.Random(34)
    # p = 97 and 113 = 1 mod 16 take the Tonelli-Shanks loop
    assert modp.ROOT_SCAN >= 113
    for p in (2, 3, 5, 97, 113, BELOW_SCAN):
        for _ in range(300):
            f = rand_poly(rng, p, rng.randint(2, 4))
            if rng.random() < 0.5:
                q = rand_poly(rng, p, rng.randint(1, 2))
                f = times(q, q) if rng.random() < 0.5 else times(q, rand_poly(rng, p, 2))
            modp._factor_mod_p(f, p)
    # a square of an irreducible quadratic, two of them, and an irreducible quartic
    assert modp._factor_mod_p(ModPPoly(2, [1, 0, 1, 0, 1]), 2)[1] == ((ModPPoly(2, [1, 1, 1]), 2),)
    assert modp._factor_mod_p(ModPPoly(3, [1, 0, 0, 0, 1]), 3)[1] == (
        (ModPPoly(3, [2, 1, 1]), 1), (ModPPoly(3, [2, 2, 1]), 1))
    assert modp._factor_mod_p(ModPPoly(2, [1, 1, 0, 0, 1]), 2)[1] == ((ModPPoly(2, [1, 1, 0, 0, 1]), 1),)


def test_quadratic_pair_refuses_a_product_off_the_quartic(monkeypatch):
    # inverses planted one off: the pair found for t^4+1 mod 3 is not a factorization
    monkeypatch.setattr(modp, "pow", lambda b, e, m: (pow(b, e, m) + 1) % m, raising=False)
    with pytest.raises(NotExact, match=r"\(t\^2\+1\)\(t\^2\+2\) is not t\^4\+1 mod 3"):
        modp._quadratic_pair([1, 0, 0, 0, 1], 3)
