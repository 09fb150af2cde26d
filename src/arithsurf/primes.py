"""Integer primality and factorization at desk scale.

Division by the primes below SMALL_PRIME_BOUND; a cofactor below its square
is then prime.  Any larger cofactor is tested with Miller-Rabin and, when
composite, for an exact k-th power (rho modulo a prime p needs about
sqrt(p) steps, so it cannot split the square of a large prime); a composite
that is no power is split by Brent's variant of Pollard rho (Brent 1980)
with a step budget.  Primality: deterministic Miller-Rabin below 2^64 (known
witness sets: three witnesses below 4 759 123 141, seven above), 64
pseudorandom rounds above 2^64.
"""

import math
import random

from .errors import FactorizationTimeout

SMALL_PRIME_BOUND = 1000
_SMALL_PRIMES = tuple(
    p for p in range(2, SMALL_PRIME_BOUND) if all(p % q for q in range(2, math.isqrt(p) + 1))
)

# Steps of one Brent-cycle attempt before it gives up.
RHO_BUDGET = 2_000_000

# Witnesses making Miller-Rabin deterministic for n < 4 759 123 141
# (Jaeschke 1993; that bound, 48 781 * 97 561, is the least strong
# pseudoprime to all three) and for n < 2^64 (Sinclair set).
_MR_WITNESSES_32 = (2, 7, 61)
_MR_BOUND_32 = 4_759_123_141
_MR_WITNESSES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _miller_rabin_round(n, a):
    """One Miller-Rabin round; True means "probably prime"."""
    if a % n == 0:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < _MR_BOUND_32:
        return all(_miller_rabin_round(n, a) for a in _MR_WITNESSES_32)
    if n < 2**64:
        return all(_miller_rabin_round(n, a) for a in _MR_WITNESSES_64)
    rng = random.Random(0xC0FFEE ^ n)
    return all(_miller_rabin_round(n, rng.randrange(2, n - 1)) for _ in range(64))


def _brent_rho(n, rng):
    """One Brent-cycle attempt at a nontrivial factor of odd composite n.

    Returns a factor or None if RHO_BUDGET steps ran out.
    """
    if n % 2 == 0:
        return 2
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    steps = 0
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
            steps += m
            if steps > RHO_BUDGET:
                return None
        r *= 2
    if g == n:
        # Backtrack one step at a time.
        while True:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
    return g if g != n else None


def _iroot(n, k):
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(m):
    """(r, k) with m = r^k for a prime k, or None.  Every prime factor of m
    is at least SMALL_PRIME_BOUND > 2^9, so k <= log2(m) / 9."""
    for k in _SMALL_PRIMES:
        if 9 * k > m.bit_length():
            return None
        r = _iroot(m, k)
        if r**k == m:
            return r, k
    return None


def factor_integer(n):
    """Factor a nonzero integer; returns (sign, [(prime, exponent), ...]).

    The prime list is sorted; 1 factors as (1, []).  Raises
    FactorizationTimeout when rho exceeds its step budget, RHO_BUDGET.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    n = abs(n)
    factors = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if 1 < n < SMALL_PRIME_BOUND**2:
        # No prime below SMALL_PRIME_BOUND divides n, so n has no factor
        # up to its square root.
        factors[n] = 1
        n = 1
    stack = [(n, 1)] if n > 1 else []  # (cofactor, its exponent in n)
    rng = None  # seeded on first use: most inputs never reach rho
    while stack:
        m, e = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + e
            continue
        power = _perfect_power(m)
        if power is not None:
            stack.append((power[0], power[1] * e))
            continue
        if rng is None:
            rng = random.Random(0x5EED)
        d = None
        for _ in range(32):
            d = _brent_rho(m, rng)
            if d is not None and d not in (1, m):
                break
            d = None
        if d is None:
            raise FactorizationTimeout(f"rho budget exhausted on {m}")
        stack.append((d, e))
        stack.append((m // d, e))
    return sign, sorted(factors.items())
