import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from arithsurf import primes
from arithsurf.intpoly import IntPoly
from arithsurf.primes import factor_integer, is_prime
from arithsurf.surface import make_function


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-2, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2**61 - 1)  # Mersenne
    assert not is_prime(2**61 + 1)
    assert is_prime(10**18 + 9)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


@given(st.integers(min_value=2, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_factor_round_trip(n):
    sign, fac = factor_integer(n)
    assert sign == 1
    prod = 1
    for p, e in fac:
        assert is_prime(p)
        prod *= p**e
    assert prod == n
    assert fac == sorted(fac)


def test_factor_semiprime():
    p, q = 1000003, 1000033
    assert factor_integer(p * q) == (1, [(p, 1), (q, 1)])


def test_factor_sign_and_one():
    assert factor_integer(1) == (1, [])
    assert factor_integer(-12) == (-1, [(2, 2), (3, 1)])


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor_integer(0)


def test_factor_integer_seeds_rho_only_when_needed(monkeypatch):
    def no_rng(*args):
        raise AssertionError("factor_integer built a generator it did not use")

    monkeypatch.setattr(primes.random, "Random", no_rng)
    assert factor_integer(4) == (1, [(2, 2)])
    assert factor_integer(2 * 10007) == (1, [(2, 1), (10007, 1)])
    assert factor_integer(10**12 + 39) == (1, [(10**12 + 39, 1)])


# -- differential against sympy.factorint (test-only dependency) ------------

def _reference(n):
    sympy = pytest.importorskip("sympy")
    return 1, sorted(sympy.factorint(n).items())


def test_factor_integer_matches_sympy_on_random_inputs():
    rng = random.Random(20261018)
    for _ in range(60):
        n = rng.randrange(2, 10**22)
        assert factor_integer(n) == _reference(n), n


def test_factor_integer_matches_sympy_on_mid_size_factors():
    # one factor between the small-prime bound and 10^6, which only rho finds
    rng = random.Random(7)
    mids = [q for q in (rng.randrange(10**3, 10**6) for _ in range(400)) if is_prime(q)]
    for q in mids[:25]:
        r = rng.randrange(2, 10**12)
        assert factor_integer(q * r) == _reference(q * r), (q, r)


@pytest.mark.parametrize("n", [
    999983**2,
    2 * 999983**3,
    65537**4,
    1009 * 1013 * 999983,
    *(2**64 + k for k in range(-6, 7)),
])
def test_factor_integer_matches_sympy_on_fixed_inputs(n):
    assert factor_integer(n) == _reference(n)
    assert factor_integer(-n) == (-1, _reference(n)[1])


# -- perfect powers, which rho cannot split ------------------------------------

MERSENNE_61 = 2**61 - 1


@pytest.mark.parametrize("n, expected", [
    (MERSENNE_61**2, [(MERSENNE_61, 2)]),
    ((10**12 + 39) ** 3, [(10**12 + 39, 3)]),
    (MERSENNE_61**2 * (10**9 + 7), [(10**9 + 7, 1), (MERSENNE_61, 2)]),
])
def test_a_large_prime_power_is_found_as_a_power(n, expected):
    start = time.perf_counter()
    assert factor_integer(n) == (1, expected)
    assert time.perf_counter() - start < 1


def test_a_curve_with_a_prime_square_coefficient_is_built_quickly():
    # the irreducibility spot check factors the leading coefficient
    start = time.perf_counter()
    fn = make_function(1, [(IntPoly([1, 3, MERSENNE_61**2]), 1)])
    assert fn.factors == ((IntPoly([1, 3, MERSENNE_61**2]), 1),)
    assert time.perf_counter() - start < 1


def test_factor_integer_matches_sympy_on_prime_powers():
    # small and mid-size prime powers (rho finds those) times one power of a
    # prime up to 2^61, which only the power test finds
    rng = random.Random(20261020)
    small = [q for q in range(2, 1000) if is_prime(q)]
    for _ in range(40):
        n = 1
        for _ in range(rng.randint(0, 3)):
            n *= rng.choice(small) ** rng.randint(1, 4)
        for _ in range(rng.randint(0, 2)):
            q = rng.randrange(10**3, 10**6)
            while not is_prime(q):
                q += 1
            n *= q ** rng.randint(1, 3)
        q = rng.randrange(10**9, 2**61)
        while not is_prime(q):
            q += 1
        n *= q ** rng.randint(1, 5)
        assert factor_integer(n) == _reference(n), n
