"""Binary primes sequences for hardening pseudorandom keystreams.

Generation of prime-indicator XOR sequences and D-sequences, cyclic
autocorrelation analysis under explicit conventions, attacker search-space
accounting and a reproduction harness for the published reference data.
"""
from .primes import (
    PrimeTable,
    count_primes,
    is_prime,
    pnt_estimate,
    recommended_shift_count,
    sieve_primes,
)
from .sequences import (
    BitSequence,
    binary_primes_sequence,
    d_sequence,
    format_sequence,
    harden,
    parse_sequence,
    select_shifts,
)
from .analysis import (
    AnalysisReport,
    CorrelationConvention,
    CorrelationSeries,
    DEFAULT_CONVENTION,
    all_conventions,
    analyze,
    autocorrelation,
    balance,
    off_peak_stats,
    randomness_measure,
)
from .adversary import (
    AttackResult,
    brute_force_attack,
    estimate_search_space,
    exact_hypothesis_count,
    search_space_log10_consistent,
    search_space_log10_paper,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "AttackResult",
    "BitSequence",
    "CorrelationConvention",
    "CorrelationSeries",
    "DEFAULT_CONVENTION",
    "PrimeTable",
    "all_conventions",
    "analyze",
    "autocorrelation",
    "balance",
    "binary_primes_sequence",
    "brute_force_attack",
    "count_primes",
    "d_sequence",
    "estimate_search_space",
    "exact_hypothesis_count",
    "format_sequence",
    "harden",
    "is_prime",
    "off_peak_stats",
    "parse_sequence",
    "pnt_estimate",
    "randomness_measure",
    "recommended_shift_count",
    "search_space_log10_consistent",
    "search_space_log10_paper",
    "select_shifts",
    "sieve_primes",
]
