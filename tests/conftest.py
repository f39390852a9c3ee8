"""Shared fixtures and independent oracle implementations.

The oracles deliberately take the dumbest possible path (trial division,
double loops, brute-force order search) so they stay independent of the
package's fast paths.
"""
from __future__ import annotations

import math
from itertools import combinations

import pytest

from primeseq import BitSequence, sieve_primes


@pytest.fixture(scope="session")
def table1000():
    return sieve_primes(1000)


def seq_of(bits, label="") -> BitSequence:
    """Pack 0/1 symbols, position 1 first, into a BitSequence."""
    text = "".join(str(b) for b in bits)
    return BitSequence(len(text), int(text or "0", 2), label)


def bits_of(seq: BitSequence) -> tuple[int, ...]:
    return tuple(int(c) for c in seq.to01())


def oracle_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def oracle_primes_upto(limit: int) -> list[int]:
    return [k for k in range(2, limit + 1) if oracle_is_prime(k)]


def oracle_autocorrelation(bits, mapping="bipolar", normalization="by-n"):
    n = len(bits)
    s = [2 * b - 1 for b in bits] if mapping == "bipolar" else list(bits)
    values = []
    for k in range(n):
        acc = 0.0
        for m in range(n):
            acc += s[m] * s[(m + k) % n]
        values.append(acc / n)
    if normalization == "by-peak":
        peak = values[0]
        values = [v / peak for v in values]
    return values


def oracle_randomness(values) -> float:
    return 1.0 - sum(abs(v) for v in values[1:]) / (len(values) - 1)


def oracle_offpeak(values) -> tuple[float, float]:
    mags = [abs(v) for v in values[1:]]
    return max(mags), sum(mags) / len(mags)


def oracle_mult_order_of_two(q: int) -> int:
    t, r = 1, 2 % q
    while r != 1:
        r = r * 2 % q
        t += 1
    return t


def oracle_d_bits(q: int, length: int) -> list[int]:
    return [pow(2, i, q) % 2 for i in range(1, length + 1)]


def oracle_bps_bits(n: int, shifts, prime_set) -> list[int]:
    out = []
    for k in range(1, n + 1):
        v = 0
        for a in shifts:
            v ^= 1 if (k - a) in prime_set else 0
        out.append(v)
    return out


def oracle_attack_moduli(n: int) -> list[int]:
    # pi(n) candidate moduli, from the first prime >= n upwards
    want = len(oracle_primes_upto(n))
    moduli = []
    q = n
    while len(moduli) < want:
        if oracle_is_prime(q):
            moduli.append(q)
        q += 1
    return moduli


def oracle_brute_force(bits, l_max) -> dict:
    # one hypothesis at a time: every candidate modulus with every set of
    # 1..l_max added shifts from 1..n-1, each regenerated bit by bit
    n = len(bits)
    prime_set = set(oracle_primes_upto(n))
    tested = 0
    found = []
    for q in oracle_attack_moduli(n):
        d = oracle_d_bits(q, n)
        for l in range(1, l_max + 1):
            for added in combinations(range(1, n), l):
                tested += 1
                b = oracle_bps_bits(n, (0, *added), prime_set)
                if [x ^ y for x, y in zip(d, b)] == list(bits):
                    found.append((q, [0, *added]))
    found.sort()
    return {
        "consistent_hypotheses": [{"q": q, "shifts": s, "matched": True} for q, s in found],
        "hypotheses_tested": tested,
    }
