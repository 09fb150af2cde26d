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


def test_three_witnesses_decide_primality_below_jaeschke_bound():
    # 4 759 123 141 = 48 781 * 97 561 is the least strong pseudoprime to
    # bases 2, 7 and 61 at once: the three-witness test would pass it
    n = primes._MR_BOUND_32
    assert n == 48781 * 97561
    assert all(primes._miller_rabin_round(n, a) for a in primes._MR_WITNESSES_32)
    assert not is_prime(n)
    bound = 10**6
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for p in range(2, 1001):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound, p)))
    assert [n for n in range(bound) if is_prime(n)] == [n for n in range(bound) if sieve[n]]
    rng = random.Random(4242)
    for n in [rng.randrange(2**32 - 10**6, 2**32 + 10**6) | 1 for _ in range(3000)]:
        seven = n in (3, 5, 7) or (
            n % 3 and n % 5 and n % 7
            and all(primes._miller_rabin_round(n, a) for a in primes._MR_WITNESSES_64))
        assert is_prime(n) == bool(seven), n
