import math
from bisect import bisect_right

import pytest

from primeseq import (
    count_primes,
    is_prime,
    pnt_estimate,
    recommended_shift_count,
    sieve_primes,
)
from conftest import oracle_is_prime, oracle_primes_upto


def primes_in(table):
    return [k for k in range(2, table.limit + 1) if table.is_prime[k]]


def test_sieve_limit_10():
    assert primes_in(sieve_primes(10)) == [2, 3, 5, 7]


def test_sieve_smallest_limit():
    assert primes_in(sieve_primes(2)) == [2]


def test_sieve_1000_matches_trial_division(table1000):
    expected = oracle_primes_upto(1000)
    assert len(expected) == 168
    assert primes_in(table1000) == expected


def test_sieve_agrees_with_trial_division_to_10000():
    table = sieve_primes(10_000)
    for k in range(10_001):
        assert bool(table.is_prime[k]) == oracle_is_prime(k), k


def test_is_prime_matches_sieve(table1000):
    assert not is_prime(-7) and not is_prime(0) and not is_prime(1)
    for k in range(1001):
        assert is_prime(k) == bool(table1000.is_prime[k]), k


def test_sieve_matches_trial_division_at_every_limit_to_3000():
    # every limit parity and every last struck multiple near the end
    expected = bytearray(3001)
    for p in oracle_primes_upto(3000):
        expected[p] = 1
    for limit in range(2, 3001):
        assert sieve_primes(limit).is_prime == expected[: limit + 1], limit


def test_sieve_bitmap_edges(table1000):
    assert table1000.is_prime[0] == 0
    assert table1000.is_prime[1] == 0


def test_sieve_rejects_bad_limits():
    with pytest.raises(ValueError):
        sieve_primes(1)
    with pytest.raises(ValueError):
        sieve_primes((1 << 24) + 1)


@pytest.mark.parametrize(
    "n, expected", [(10, 4), (2, 1), (1, 0), (1000, 168), (999983, 78498), (1 << 24, 1_077_871)]
)
def test_count_primes_examples(n, expected):
    assert count_primes(n) == expected


def test_count_primes_matches_trial_division_to_3000():
    primes = oracle_primes_upto(3000)
    for n in range(1, 3001):
        assert count_primes(n) == bisect_right(primes, n), n


def test_count_primes_out_of_range():
    with pytest.raises(ValueError):
        count_primes((1 << 24) + 1)
    with pytest.raises(ValueError):
        count_primes(0)


def test_pnt_estimate_examples():
    assert 144.7 <= pnt_estimate(1000) <= 144.8
    assert pnt_estimate(8) == pytest.approx(8 / math.log(8))
    assert pnt_estimate(2) == pytest.approx(2 / math.log(2))
    with pytest.raises(ValueError):
        pnt_estimate(1)


def test_pnt_ratio_approaches_one():
    for n in (10**3, 10**4, 10**5, 10**6):
        ratio = count_primes(n) / pnt_estimate(n)
        assert 0.9 <= ratio <= 1.25, (n, ratio)


@pytest.mark.parametrize("n, expected", [(10, 1), (997, 3), (10**6, 7), (2, 1)])
def test_recommended_shift_count_examples(n, expected):
    assert recommended_shift_count(n) == expected


def test_recommended_shift_count_rejects_small_n():
    with pytest.raises(ValueError):
        recommended_shift_count(1)


def test_recommended_shift_count_monotone_and_positive():
    # dense check through the first few rounding thresholds, then sampled;
    # thresholds sit near ceil(e^(2m-1))
    points = list(range(2, 2000))
    for boundary in (8104, 59875, 442414):
        points.extend(range(boundary - 3, boundary + 4))
    points.extend(range(2000, 10**6 + 1, 9973))
    points.append(10**6)
    points.sort()
    prev = 0
    for n in points:
        l = recommended_shift_count(n)
        assert l >= 1
        assert l >= prev, n
        prev = l
