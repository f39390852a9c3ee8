"""Eavesdropper accounting: search-space size formulas, exact counting and a toy attack.

Two closed-form search-space figures are exposed side by side because the
headline expression N^2/(2 ln N) * N^(N/ln N) and the product of its three
stated factors, (N/ln N) * (ln N)/2 * N^((ln N)/2), differ enormously. Both
are computed in the log domain; the exact combinatorial count is the ground
truth at small N and the toy attack validates it by enumeration. The attack
decides every (prime, shift set) pair the count names, but XORs each shift
set only once and decides each candidate prime by one table lookup.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from itertools import combinations, count, islice

from .primes import count_primes, is_prime, pnt_estimate
from .sequences import BitSequence, ShiftSet, binary_primes_sequence, d_sequence

# Enumeration caps. At n = 24, l_max = 3 the attack XORs 2047 shift sets and
# looks up 9 candidates: about 1 ms in brute_force_attack and 3 ms for CLI
# `attack` on a 2-vCPU Xeon.
ATTACK_MAX_LENGTH = 24
ATTACK_MAX_ADDED_SHIFTS = 3
# Largest n the closed-form figures take: they divide n^2 and n by floats, so
# n^2 must convert to a double, which fails from just below n = 2^512.
_FORMULA_MAX_N = math.isqrt(int(sys.float_info.max))


class SearchSpaceEstimate(namedtuple(
    "SearchSpaceEstimate", "log10_paper_formula log10_consistent_formula exact_count"
)):
    __slots__ = ()


class AttackResult(namedtuple("AttackResult", "consistent_hypotheses hypotheses_tested")):
    __slots__ = ()

    def as_dict(self) -> dict[str, object]:
        # wire format: the hypothesis array plus the count, nothing else
        return {
            "consistent_hypotheses": [
                {"q": q, "shifts": list(shifts.shifts), "matched": True}
                for q, shifts in self.consistent_hypotheses
            ],
            "hypotheses_tested": self.hypotheses_tested,
        }


def search_space_log10_paper(n: int) -> float:
    """log10 of the headline attacker-workload expression n^2/(2 ln n) * n^(n/ln n)."""
    _check_formula_n(n)
    ln_n = math.log(n)
    return math.log10(n * n / (2.0 * ln_n)) + pnt_estimate(n) * math.log10(n)


def search_space_log10_consistent(n: int) -> float:
    """log10 of the product of the three stated unknowns: (n/2) * n^((ln n)/2)."""
    _check_formula_n(n)
    return math.log10(n / 2.0) + 0.5 * math.log(n) * math.log10(n)


def _check_formula_n(n: int) -> None:
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if n > _FORMULA_MAX_N:
        raise ValueError(f"n={n} exceeds supported maximum {_FORMULA_MAX_N}")


def exact_hypothesis_count(n: int, l_max: int) -> int:
    """Exact size of the (prime, added-shift-set) hypothesis space.

    pi(n) prime choices times the number of ways to pick 1..l_max distinct
    added shifts from 1..n-1 (the offset 0 is fixed).
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if not 1 <= l_max <= n - 1:
        raise ValueError(f"l_max must be in 1..{n - 1}, got {l_max}")
    prime_choices = count_primes(n)
    shift_choices = sum(math.comb(n - 1, l) for l in range(1, l_max + 1))
    return prime_choices * shift_choices


def brute_force_attack(observed: BitSequence, l_max: int) -> AttackResult:
    """Decide every (q, shift set) hypothesis and return those that regenerate observed.

    A hypothesis regenerates by XORing the shifted-indicator sum with the
    candidate D-sequence; matching is bit exact. Every added-shift set of
    1..l_max members is enumerated and XORed once, into a table keyed by its
    XOR; each candidate q is then decided by one lookup of its residual
    observed ^ d(q) ^ b, with b the unshifted indicator row. hypotheses_tested
    counts the pairs decided, the candidate count times the shift sets
    enumerated. Output is ordered by q then by shifts regardless of
    enumeration order. The size caps are checked before the one sieve, to n.
    """
    n = observed.length
    if n > ATTACK_MAX_LENGTH or l_max > ATTACK_MAX_ADDED_SHIFTS:
        raise ValueError(
            f"instance too large: enforced bounds are n <= {ATTACK_MAX_LENGTH} "
            f"and l_max <= {ATTACK_MAX_ADDED_SHIFTS}, got n={n}, l_max={l_max}"
        )
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if not 1 <= l_max <= n - 1:
        raise ValueError(f"l_max must be in 1..{n - 1}, got {l_max}")

    target = observed.value
    # indicator row over positions 1..n; shifting it right by a is base >> a
    base = binary_primes_sequence(n, ShiftSet((0,))).value
    rows = [base >> a for a in range(n)]

    # B(k) is linear in the shift set and no row depends on q, so every
    # added-shift set is XORed once and filed under its XOR. Distinct sets
    # can share one: rows[n - 1] is 0, so S and S with n - 1 added XOR alike.
    by_xor: dict[int, list[tuple[int, ...]]] = {}
    shift_sets = 0
    for l in range(1, l_max + 1):
        for added in combinations(range(1, n), l):
            shift_sets += 1
            acc = 0
            for a in added:
                acc ^= rows[a]
            by_xor.setdefault(acc, []).append(added)

    # pi(n) candidates, the popcount of the indicator row, taken from the
    # first prime >= n upwards: a D-sequence modulus below its own emitted
    # length would repeat inside the window
    candidates = list(islice(filter(is_prime, count(n)), base.bit_count()))
    matches: list[tuple[int, ShiftSet]] = []
    for q in candidates:
        residual = target ^ d_sequence(q, n).value ^ base
        matches.extend((q, ShiftSet((0, *added))) for added in by_xor.get(residual, ()))
    matches.sort(key=lambda h: (h[0], h[1].shifts))
    return AttackResult(tuple(matches), len(candidates) * shift_sets)


def estimate_search_space(n: int, l_max: int = ATTACK_MAX_ADDED_SHIFTS) -> SearchSpaceEstimate:
    """Assemble both log-domain figures plus the exact count where tractable.

    The exact count is attached only for n small enough that the toy attack
    could actually walk the space (n <= ATTACK_MAX_LENGTH). l_max below 1 is
    refused for every n; above n - 1 it is clamped to n - 1.
    """
    paper = search_space_log10_paper(n)
    consistent = search_space_log10_consistent(n)
    exact: int | None = None
    if n <= ATTACK_MAX_LENGTH:
        exact = exact_hypothesis_count(n, min(l_max, n - 1))
    elif l_max < 1:
        # exact_hypothesis_count checks l_max where it runs; here nothing else does
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    return SearchSpaceEstimate(paper, consistent, exact)
