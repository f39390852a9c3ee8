"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 4 checks the randomness R of the 199-position sequence with shifts
(0, 7, 11, 22) under all four conventions against the double-loop oracle, and
checks that no convention is reported as matching the published 0.9949 +/-
0.010. That figure is 1 - 1/199, the ideal two-level value, and the balance
of this sequence rules it out: with 121 ones in 199 bits R is at most 0.9581
under either bipolar convention, and fixed at 0.6315 (by-n) and 0.3939
(by-peak) for raw 0/1 symbols. Reaching 0.9849 would need 86 to 113 ones, so
the published figure is reported in the fig3 summary, not asserted.

Criterion 6a checks that hardening strictly lowers the max off-peak against
the raw D-sequence at q = 199, q = 997 and every prime of the fig6 sweep,
with the fig4/fig5 off-peak figures checked against the oracles. The mean
off-peak is not lowered in general (at q = 199 it rises from 0.0435 to 0.0585,
and it falls at fewer than half of the fig6 primes), so the means are
reported, not asserted.

Criterion 11 checks the leak a prefix decoder uses. No added shift row
reaches positions 1..a1+1, a1 the smallest added shift, so there the
hardened keystream XOR the unshifted indicator row is the D-sequence, whose
first m bits are floor(2^m/q). Once m is about 2 log2 q those bits leave q
the only integer in (2^m/(v+1), 2^m/v].
"""
from __future__ import annotations

import random
from contextlib import contextmanager
from decimal import Decimal, getcontext
from time import perf_counter

import pytest

from primeseq import (
    DEFAULT_CONVENTION,
    autocorrelation,
    binary_primes_sequence,
    brute_force_attack,
    count_primes,
    d_sequence,
    exact_hypothesis_count,
    harden,
    off_peak_stats,
    pnt_estimate,
    randomness_measure,
    search_space_log10_paper,
    select_shifts,
)
from primeseq.reproduce import make_target, run_target
from conftest import (
    bits_of,
    oracle_autocorrelation,
    oracle_bps_bits,
    oracle_d_bits,
    oracle_mult_order_of_two,
    oracle_offpeak,
    oracle_primes_upto,
    oracle_randomness,
    seq_of,
)


@contextmanager
def criterion(num: str, description: str, limit_seconds: float | None = None):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:>3}] FAIL  {description}")
        raise
    elapsed = perf_counter() - start
    if limit_seconds is not None and elapsed > limit_seconds:
        print(f"[criterion {num:>3}] FAIL  {description} (runtime {elapsed:.2f}s over {limit_seconds}s)")
        raise AssertionError(f"runtime {elapsed:.2f}s exceeds {limit_seconds}s limit")
    print(f"[criterion {num:>3}] PASS  {description} ({elapsed:.2f}s)")


def test_c01_table1_bit_exact(tmp_path):
    with criterion("1", "table1 regenerates every published row bit-exactly", 1.0):
        summary = run_target(make_target("table1", tmp_path / "table1.csv"))
        assert summary["mismatches"] == []
        assert summary["rows_matching_published"] == 3
        rows = (tmp_path / "table1.csv").read_text().splitlines()[1:]
        cells = [r.split(",") for r in rows]
        assert [c[1] for c in cells] == ["0110101000", "0011010100", "0101111100"]
        assert [int(c[2]) for c in cells] == [4, 4, 6]


def test_c02_table2_discrepancy_detection(tmp_path):
    with criterion("2", "table2 matches inputs and flags the single sum-row mismatch", 1.0):
        summary = run_target(make_target("table2", tmp_path / "table2.csv"))
        assert summary["rows_matching_published"] == 3
        assert len(summary["mismatches"]) == 1
        mismatch = summary["mismatches"][0]
        assert mismatch["row"] == "sum"
        assert mismatch["positions"] == [9]
        assert mismatch["computed_ones"] == 4
        assert mismatch["published_ones"] == 3
        sum_row = (tmp_path / "table2.csv").read_text().splitlines()[4].split(",")
        assert sum_row[1][8] == "1" and sum_row[3][8] == "0"


def test_c03_prime_counting():
    with criterion("3", "exact prime count 168 below 1000, PNT estimate near 144.76", 1.0):
        assert count_primes(1000) == 168
        assert 144.7 <= pnt_estimate(1000) <= 144.8


def _balance_bound(n: int, ones: int, mapping: str, normalization: str) -> float:
    """Largest R any n-bit sequence with this many ones can reach under a convention.

    The cyclic lag sums S(0..n-1) add up to a square fixed by the balance
    alone: w^2 with w = 2*ones - n for bipolar symbols, ones^2 for raw 0/1
    symbols. With S(0) known, the off-peak sums total w^2 - n (bipolar) or
    ones^2 - ones (raw), which bounds the mean of |c(k)| from below. Raw
    sums are never negative, so for raw 0/1 the bound is attained exactly.
    """
    if mapping == "bipolar":
        # peak is 1 under both normalizations
        return 1.0 - abs((2 * ones - n) ** 2 - n) / (n * (n - 1))
    if normalization == "by-n":
        return 1.0 - ones * (ones - 1) / (n * (n - 1))
    return 1.0 - (ones - 1) / (n - 1)


def test_c04_randomness_reproduction_199(tmp_path):
    with criterion(
        "4",
        "R at n=199 matches the oracle under all four conventions; the balance bound "
        "puts 0.9949 +/- 0.010 out of reach",
        1.0,
    ):
        summary = run_target(make_target("fig3", tmp_path / "fig3.csv"))
        assert summary["reference_randomness"] == 0.9949
        assert summary["tolerance"] == 0.010
        n = 199
        bits = oracle_bps_bits(n, summary["shifts"], set(oracle_primes_upto(n)))
        ones = sum(bits)
        records = summary["randomness_199_by_convention"]
        assert len(records) == 4
        details = []
        for rec in records:
            mapping, normalization = rec["mapping"], rec["normalization"]
            expected = oracle_randomness(oracle_autocorrelation(bits, mapping, normalization))
            # the package sums |c| exactly (fsum), the oracle left to right
            assert rec["randomness"] == pytest.approx(expected, rel=0, abs=1e-12)
            bound = _balance_bound(n, ones, mapping, normalization)
            assert rec["randomness"] <= bound + 1e-12
            assert bound < summary["reference_randomness"] - summary["tolerance"]
            details.append(f"{mapping}/{normalization}={rec['randomness']:.4f} (bound {bound:.4f})")
        assert summary["matching_conventions"] == [], (
            f"a convention claims 0.9949 +/- 0.010 with {ones} ones in {n} bits, "
            f"which the balance bound rules out; measured: {', '.join(details)}"
        )
        print(f"[criterion   4] info  published 0.9949 not reached, ones={ones}: {', '.join(details)}")


def test_c05_offpeak_reporting_997(tmp_path):
    with criterion("5", "off-peak stats reported under all four conventions with 0.3133 deltas"):
        summary = run_target(make_target("fig2", tmp_path / "fig2.csv"))
        assert summary["reference_offpeak"] == 0.3133
        records = summary["offpeak_by_convention"]
        assert len(records) == 4
        for rec in records:
            assert 0.0 <= rec["mean_offpeak"] <= rec["max_offpeak"]
            assert rec["max_delta_to_reference"] == pytest.approx(
                abs(rec["max_offpeak"] - 0.3133)
            )
            assert rec["mean_delta_to_reference"] == pytest.approx(
                abs(rec["mean_offpeak"] - 0.3133)
            )


def _hardened_oracle_bits(q: int, shifts, prime_set) -> tuple[list[int], list[int]]:
    dseq = oracle_d_bits(q, q)
    return dseq, [a ^ b for a, b in zip(dseq, oracle_bps_bits(q, shifts, prime_set))]


def test_c06a_hardening_mean_offpeak(tmp_path):
    with criterion(
        "6a",
        "hardened max off-peak < D-sequence max off-peak at q=199, q=997 and every fig6 prime",
        30.0,
    ):
        prime_set = set(oracle_primes_upto(1000))
        means = []
        for fig in ("fig4", "fig5"):
            summary = run_target(make_target(fig, tmp_path / f"{fig}.csv"))
            q = summary["q"]
            dseq, hardened = _hardened_oracle_bits(q, summary["shifts"], prime_set)
            max_d, mean_d = oracle_offpeak(oracle_autocorrelation(dseq))
            max_p, mean_p = oracle_offpeak(oracle_autocorrelation(hardened))
            assert summary["max_offpeak_dseq"] == max_d
            assert summary["max_offpeak_hardened"] == max_p
            assert summary["mean_offpeak_dseq"] == pytest.approx(mean_d, rel=1e-12)
            assert summary["mean_offpeak_hardened"] == pytest.approx(mean_p, rel=1e-12)
            means.append(f"q={q}: mean hardened {mean_p:.4f} vs dseq {mean_d:.4f}")
            assert max_p < max_d, (
                f"hardening does not lower the max off-peak at q={q}: "
                f"hardened {max_p:.4f} >= dseq {max_d:.4f}; {'; '.join(means)}"
            )

        # the D-sequence repeats with period ord_q(2), so its off-peak peaks at
        # the period or half-period lag; the aperiodic prime indicator breaks
        # those up at every prime, whereas the mean falls at fewer than half
        summary = run_target(make_target("fig6", tmp_path / "fig6.csv"))
        rows = (tmp_path / "fig6.csv").read_text().splitlines()[1:]
        cells = [r.split(",") for r in rows]
        assert [int(c[0]) for c in cells] == [p for p in oracle_primes_upto(650) if p >= 40]
        assert summary["primes"] == len(cells)
        failing, mean_lower = [], 0
        for prime, _, mean_p_csv, shifts in cells:
            q = int(prime)
            dseq, hardened = _hardened_oracle_bits(q, [int(s) for s in shifts.split(";")], prime_set)
            # the package's lag sums, oracle-checked above and in criterion 7
            max_d, mean_d = off_peak_stats(autocorrelation(seq_of(dseq)))
            max_p, mean_p = off_peak_stats(autocorrelation(seq_of(hardened)))
            assert float(mean_p_csv) == pytest.approx(mean_p, rel=1e-9)
            mean_lower += mean_p < mean_d
            if not max_p < max_d:
                failing.append(f"q={q}: hardened {max_p:.4f} >= dseq {max_d:.4f}")
        means.append(f"fig6: mean lower at {mean_lower}/{len(cells)} primes")
        assert not failing, (
            "hardening does not lower the max off-peak at " + ", ".join(failing)
            + "; " + "; ".join(means)
        )
        print(f"[criterion  6a] info  {'; '.join(means)}")


def test_c06b_fig6_offpeak_trend(tmp_path):
    with criterion("6b", "fig6 sweep: hardened mean off-peak falls from smallest to largest prime", 30.0):
        summary = run_target(make_target("fig6", tmp_path / "fig6.csv"))
        assert summary["first_prime"] == 41
        assert summary["last_prime"] == 647
        assert summary["mean_offpeak_hardened_last"] < summary["mean_offpeak_hardened_first"]
        assert summary["trend"] == "off-peak decreases with p"


def test_c07_oracle_equivalence_corpus():
    with criterion("7", "fast autocorrelation bit-identical to the double loop on 200 random sequences", 10.0):
        rng = random.Random(0xC0FFEE)
        for _ in range(200):
            n = rng.randint(2, 64)
            bits = tuple(rng.randint(0, 1) for _ in range(n))
            series = autocorrelation(seq_of(bits), DEFAULT_CONVENTION)
            assert list(series.values) == oracle_autocorrelation(bits)
            assert series.values[0] == 1.0
            for k in range(1, n):
                assert series.values[k] == series.values[n - k]
            assert 0.0 <= randomness_measure(series) <= 1.0


def test_c08_d_sequence_properties():
    with criterion("8", "D-sequence periods divide q-1 and repeat exactly over two periods", 5.0):
        for q in (3, 5, 7, 11, 13, 19, 199, 997):
            t = oracle_mult_order_of_two(q)
            assert (q - 1) % t == 0
            seq = d_sequence(q, 2 * t)
            assert bits_of(seq)[:t] == bits_of(seq)[t:]
        assert d_sequence(13, 12).to01() == "000100111011"


def test_c09_adversary_soundness_completeness():
    with criterion("9", "toy attack recovers the planted key and counts 36 / 180 hypotheses", 10.0):
        pn = d_sequence(13, 10)
        observed = harden(pn, binary_primes_sequence(10, (0, 1)))
        result = brute_force_attack(observed, 1)
        assert (13, (0, 1)) in result.consistent_hypotheses
        assert result.hypotheses_tested == 36
        wider = brute_force_attack(observed, 2)
        assert wider.hypotheses_tested == 180
        assert wider.hypotheses_tested == exact_hypothesis_count(10, 2)


def test_c10_complexity_figures():
    with criterion("10", "log-domain search-space figure hits 434305 +/- 1 and the 60-digit oracle", 1.0):
        assert abs(search_space_log10_paper(10**6) - 434305.0) <= 1.0
        getcontext().prec = 60
        for n in range(3, 31):
            d = Decimal(n)
            ln_n = d.ln()
            exact = d * d / (2 * ln_n) * ((d / ln_n) * ln_n).exp()
            # six significant digits of the linear value = 2.2e-7 in log10
            assert abs(search_space_log10_paper(n) - float(exact.log10())) <= 2.2e-7


def test_c11_hardened_prefix_pins_q():
    with criterion("11", "the first a1+1 bits of a hardened keystream are floor(2^m/q) and pin q", 5.0):
        for n, pin_at_n in ((10007, 27), (100003, 33)):
            base = binary_primes_sequence(n, (0,)).value
            for shifts in (select_shifts(n), *(select_shifts(n, seed) for seed in (1, 2, 3))):
                a1 = shifts[1]
                for q, pin in ((n, pin_at_n), (10**9 + 7, 60)):
                    observed = harden(d_sequence(q, n), binary_primes_sequence(n, shifts))
                    x = observed.value ^ base
                    assert pin <= a1 + 1, (n, shifts[:3])
                    assert x >> (n - a1 - 1) == (1 << (a1 + 1)) // q, (n, q, a1)
                    v = x >> (n - pin)
                    # the least integer above 2^m/(v+1) and the greatest at most 2^m/v
                    assert (1 << pin) // (v + 1) + 1 == q == (1 << pin) // v, (n, q, pin)
