"""Cyclic autocorrelation and the derived randomness and balance statistics.

Every statistic is computed under an explicit convention (symbol mapping plus
normalization) so that any published number can be chased under a declared
setting. The default is bipolar/by-n: bits map to -1/+1 and each lag sum is
divided by the sequence length, which pins the lag-0 peak at exactly 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .sequences import BitSequence

MAPPINGS = ("raw01", "bipolar")
NORMALIZATIONS = ("by-n", "by-peak")
# Longest sequence autocorrelation accepts: the O(n^2/64) lag-sum kernel takes
# about 15 s at this length on a 2-vCPU Xeon, and hours at the sieve's 2^24.
ANALYSIS_MAX_LENGTH = 1 << 18


@dataclass(frozen=True)
class CorrelationConvention:
    mapping: str = "bipolar"
    normalization: str = "by-n"

    def __post_init__(self) -> None:
        if self.mapping not in MAPPINGS:
            raise ValueError(f"mapping must be one of {MAPPINGS}, got {self.mapping!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(
                f"normalization must be one of {NORMALIZATIONS}, got {self.normalization!r}"
            )

    @property
    def name(self) -> str:
        return f"{self.mapping}/{self.normalization}"

    def as_dict(self) -> dict[str, str]:
        return {"mapping": self.mapping, "normalization": self.normalization}


DEFAULT_CONVENTION = CorrelationConvention("bipolar", "by-n")


def all_conventions() -> tuple[CorrelationConvention, ...]:
    return tuple(
        CorrelationConvention(m, n) for m in MAPPINGS for n in NORMALIZATIONS
    )


@dataclass(frozen=True)
class CorrelationSeries:
    """Cyclic autocorrelation values at lags 0..N-1 under a declared convention."""

    values: tuple[float, ...]
    convention: CorrelationConvention

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class AnalysisReport:
    randomness: float
    max_offpeak: float
    mean_offpeak: float
    ones_fraction: float
    correlation: CorrelationSeries = field(repr=False)
    sequence_label: str

    @property
    def convention(self) -> CorrelationConvention:
        return self.correlation.convention

    def as_dict(self) -> dict[str, object]:
        return {
            "randomness": self.randomness,
            "max_offpeak": self.max_offpeak,
            "mean_offpeak": self.mean_offpeak,
            "ones_fraction": self.ones_fraction,
            "convention": self.convention.as_dict(),
            "sequence_label": self.sequence_label,
        }


def _cyclic_lag_sums(x: int, n: int) -> list[int]:
    # Bit-packed 0/1 lag sums S_k = popcount(x & rot_k(x)); S_0 is the number
    # of ones. x has n bits, so the AND drops the high half of the doubled word.
    doubled = x | (x << n)
    return [(x & (doubled >> k)).bit_count() for k in range(n)]


def autocorrelation(seq: BitSequence, conv: CorrelationConvention = DEFAULT_CONVENTION) -> CorrelationSeries:
    """Cyclic autocorrelation of seq at every lag 0..N-1.

    Lag k pairs position m with position 1 + ((m + k - 1) mod N); exactly N
    terms enter every lag sum.
    """
    n = seq.length
    if n < 2:
        raise ValueError(f"sequence too short for autocorrelation: length {n}")
    if n > ANALYSIS_MAX_LENGTH:
        raise ValueError(
            f"sequence too long for autocorrelation: length {n} exceeds maximum {ANALYSIS_MAX_LENGTH}"
        )
    sums = _cyclic_lag_sums(seq.value, n)
    if conv.mapping == "bipolar":
        # -1/+1 symbols: agreements minus disagreements, n - 4m + 4*S_k for m ones
        base = n - 4 * sums[0]
        sums = [base + 4 * s for s in sums]
    # exact integers divided once, bit-identical to a double loop over symbols
    values = [s / n for s in sums]
    if conv.normalization == "by-peak":
        peak = values[0]
        if peak == 0:
            raise ValueError("cannot normalize by peak: lag-0 value is zero")
        values = [v / peak for v in values]
    return CorrelationSeries(tuple(values), conv)


def randomness_measure(corr: CorrelationSeries) -> float:
    """1 minus the mean absolute off-peak correlation; 1 is ideal, 0 fully structured."""
    if corr.n < 2:
        raise ValueError(f"series too short: length {corr.n}")
    r = 1.0 - math.fsum(abs(v) for v in corr.values[1:]) / (corr.n - 1)
    # |c| <= 1 under every convention, so r is in [0, 1] bar the last ulp
    return min(1.0, max(0.0, r))


def off_peak_stats(corr: CorrelationSeries) -> tuple[float, float]:
    """(max, mean) of |c(k)| over the off-peak lags 1..N-1."""
    if corr.n < 2:
        raise ValueError(f"series too short: length {corr.n}")
    mags = [abs(v) for v in corr.values[1:]]
    mx = max(mags)
    # exact summation, then clamp: rounding must not push the mean past the max
    return mx, min(math.fsum(mags) / len(mags), mx)


def balance(seq: BitSequence) -> float:
    """Fraction of ones; 0.5 is ideal for keystream material."""
    return seq.value.bit_count() / seq.length


def analyze(seq: BitSequence, conv: CorrelationConvention = DEFAULT_CONVENTION) -> AnalysisReport:
    """Single-pass report: randomness measure, off-peak stats and balance."""
    corr = autocorrelation(seq, conv)
    max_off, mean_off = off_peak_stats(corr)
    return AnalysisReport(
        randomness=randomness_measure(corr),
        max_offpeak=max_off,
        mean_offpeak=mean_off,
        ones_fraction=balance(seq),
        correlation=corr,
        sequence_label=seq.label,
    )
