"""Primality infrastructure: sieve bitmap, counting and the shifter-count rule.

The prime-counting story intentionally has two faces: ``count_primes`` is the
exact count from the sieve, ``pnt_estimate`` is the asymptotic n/ln(n)
approximation. They disagree noticeably at small n (168 vs 144.76 at n=1000),
so callers must pick the one they mean.
"""
from __future__ import annotations

import math
from collections import namedtuple

# Sieves beyond this are refused; dense tables above 16M positions are out of scope.
DEFAULT_SIEVE_LIMIT = 1 << 24
# one period of the 2·3·5 wheel: byte k is 1 iff k is coprime to 30
_WHEEL = bytes(math.gcd(k, 30) == 1 for k in range(30))


class PrimeTable(namedtuple("PrimeTable", "limit is_prime")):
    """Primality bitmap for 0..limit; ``is_prime[k]`` is nonzero iff k is prime."""

    __slots__ = ()
    # _replace builds through _make, so both run the checks of __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, limit: int, is_prime: bytes):
        if limit < 2:
            raise ValueError(f"prime table limit must be >= 2, got {limit}")
        if len(is_prime) != limit + 1:
            raise ValueError("bitmap length must be limit + 1")
        if is_prime[0] or is_prime[1]:
            raise ValueError("0 and 1 are not prime")
        return super().__new__(cls, limit, is_prime)

    def __repr__(self) -> str:
        # the bitmap holds limit + 1 bytes, too many to print
        return f"PrimeTable(limit={self.limit!r})"


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to ``limit`` inclusive, from a 2·3·5 wheel."""
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > DEFAULT_SIEVE_LIMIT:
        raise ValueError(f"sieve limit {limit} exceeds supported maximum {DEFAULT_SIEVE_LIMIT}")
    # the numbers coprime to 30 start as candidates, so 2, 3 and 5 need no pass
    # of their own; 1 to 5 are set before the cut, which keeps limit + 1 bytes
    flags = bytearray(_WHEEL) * (limit // 30 + 1)
    flags[1:6] = b"\x00\x01\x01\x00\x01"
    del flags[limit + 1 :]
    for p in range(7, math.isqrt(limit) + 1, 2):
        if flags[p]:
            start = p * p
            flags[start :: 2 * p] = bytes((limit - start) // (2 * p) + 1)
    return PrimeTable(limit=limit, is_prime=bytes(flags))


def count_primes(n: int) -> int:
    """Exact number of primes <= n, sieved to n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return sieve_primes(max(n, 2)).is_prime.count(1, 2, n + 1)


def pnt_estimate(n: int) -> float:
    """Prime number theorem approximation n / ln(n) to the prime count below n."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return n / math.log(n)


def recommended_shift_count(n: int) -> int:
    """Number of added shifts suggested for balancing an n-position indicator row.

    Evaluates (1/2) ln(n), rounded half away from zero, with a floor of one
    shift. Non-decreasing in n.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return max(1, math.floor(0.5 * math.log(n) + 0.5))


def is_prime(n: int) -> bool:
    """Trial-division primality of one number, such as a D-sequence modulus (small n only)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True
