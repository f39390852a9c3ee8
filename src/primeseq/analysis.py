"""Cyclic autocorrelation and the derived randomness and balance statistics.

Every statistic is computed under an explicit convention (symbol mapping plus
normalization) so that any published number can be chased under a declared
setting. The default is bipolar/by-n: bits map to -1/+1 and each lag sum is
divided by the sequence length, which pins the lag-0 peak at exactly 1.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .sequences import BitSequence

MAPPINGS = ("raw01", "bipolar")
NORMALIZATIONS = ("by-n", "by-peak")
# Longest sequence autocorrelation accepts: on a 2-vCPU Xeon the transform
# lag-sum kernel takes about 1.3 s at this length and CLI `analyze --out` about
# 2.8 s (100 MB peak RSS), where the popcount loop would take minutes.
ANALYSIS_MAX_LENGTH = 1 << 20
# Shortest sequence whose lag sums come from one decimal product rather than
# one popcount per lag up to n/2; on a 2-vCPU Xeon (medians of 15) the two
# paths cost the same near 6700 bits, and the product is 1.2x faster at 7500,
# 1.3x at 8000 and 2x at 16000.
LAG_SUM_TRANSFORM_MIN_LENGTH = 7000


class CorrelationConvention(namedtuple("CorrelationConvention", "mapping normalization")):
    __slots__ = ()

    def __new__(cls, mapping: str = "bipolar", normalization: str = "by-n"):
        if mapping not in MAPPINGS:
            raise ValueError(f"mapping must be one of {MAPPINGS}, got {mapping!r}")
        if normalization not in NORMALIZATIONS:
            raise ValueError(
                f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}"
            )
        return super().__new__(cls, mapping, normalization)

    def as_dict(self) -> dict[str, str]:
        return {"mapping": self.mapping, "normalization": self.normalization}


DEFAULT_CONVENTION = CorrelationConvention("bipolar", "by-n")


def all_conventions() -> tuple[CorrelationConvention, ...]:
    return tuple(
        CorrelationConvention(m, n) for m in MAPPINGS for n in NORMALIZATIONS
    )


class CorrelationSeries(namedtuple("CorrelationSeries", "values convention")):
    """Cyclic autocorrelation values at lags 0..N-1 under a declared convention."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.values)


class AnalysisReport(namedtuple(
    "AnalysisReport",
    "randomness max_offpeak mean_offpeak ones_fraction correlation sequence_label",
)):
    __slots__ = ()

    def __repr__(self) -> str:
        # the correlation series holds one value per lag, too many to print
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields if f != "correlation")
        return f"AnalysisReport({shown})"

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
    # 0/1 lag sums S_k = popcount(x & rot_k(x)) of the n-bit word x; S_0 is
    # the number of ones m. Both paths find S_0..S_(n//2) and mirror them,
    # since S_k = S_(n-k).
    if n < LAG_SUM_TRANSFORM_MIN_LENGTH:
        # x has n bits, so the AND drops the high half of the doubled word
        doubled = x | (x << n)
        half = [(x & (doubled >> k)).bit_count() for k in range(n // 2 + 1)]
    else:
        # Kronecker substitution: each bit is one d-digit slot of a decimal
        # integer, and x times its reversal holds every linear lag sum in a
        # slot of its own. No sum exceeds m < 10^d, so no slot carries, and
        # adding the high n slots to the low n slots wraps the linear sums into
        # the cyclic ones, which read S_0, S_(n-1), ..., S_1 from the left.
        # libmpdec multiplies operands this long with a number-theoretic
        # transform. Each intermediate is dropped once the next exists, to keep
        # the peak near the popcount path's.
        import decimal

        d = len(str(x.bit_count()))
        pad = "0" * (d - 1)
        bits = format(x, f"0{n}b")
        a = decimal.Decimal(pad + pad.join(bits))
        b = decimal.Decimal(pad + pad.join(bits[::-1]))
        del bits
        ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
        digits = str(ctx.multiply(a, b))
        del a, b
        w = n * d
        folded = ctx.add(decimal.Decimal(digits[:-w] or 0), decimal.Decimal(digits[-w:]))
        del digits
        text = str(folded).zfill(w)
        del folded
        half = [int(text[i:i + d]) for i in range(0, (n // 2 + 1) * d, d)]
    return half + half[n - n // 2 - 1:0:-1]


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
    # the mapped lag sum is base + scale*S_k: raw 0/1 symbols give S_k itself,
    # -1/+1 symbols agreements minus disagreements, n - 4m + 4*S_k for m ones.
    # Exact integers divided once, bit-identical to a double loop over symbols.
    # A sequence has only about sqrt(n) distinct lag sums, so each is divided
    # once and equal lags share one float.
    base, scale = (n - 4 * sums[0], 4) if conv.mapping == "bipolar" else (0, 1)
    if conv.normalization == "by-n":
        value_of = {s: (base + scale * s) / n for s in set(sums)}
    else:
        peak = (base + scale * sums[0]) / n
        if peak == 0:
            raise ValueError("cannot normalize by peak: lag-0 value is zero")
        value_of = {s: (base + scale * s) / n / peak for s in set(sums)}
    return CorrelationSeries(tuple(map(value_of.__getitem__, sums)), conv)


def _off_peak_summary(corr: CorrelationSeries) -> tuple[float, float, float]:
    # (max, mean, R) of |c(k)| over the off-peak lags 1..N-1 from one exact sum
    if corr.n < 2:
        raise ValueError(f"series too short: length {corr.n}")
    off = corr.values[1:]
    mx = max(map(abs, off))
    mean = math.fsum(map(abs, off)) / len(off)
    # rounding must not push the mean past the max; |c| <= 1 under every
    # convention, so R = 1 - mean is in [0, 1] bar the last ulp
    return mx, min(mean, mx), min(1.0, max(0.0, 1.0 - mean))


def randomness_measure(corr: CorrelationSeries) -> float:
    """1 minus the mean absolute off-peak correlation; 1 is ideal, 0 fully structured."""
    return _off_peak_summary(corr)[2]


def off_peak_stats(corr: CorrelationSeries) -> tuple[float, float]:
    """(max, mean) of |c(k)| over the off-peak lags 1..N-1."""
    return _off_peak_summary(corr)[:2]


def balance(seq: BitSequence) -> float:
    """Fraction of ones; 0.5 is ideal for keystream material."""
    return seq.value.bit_count() / seq.length


def analyze(seq: BitSequence, conv: CorrelationConvention = DEFAULT_CONVENTION) -> AnalysisReport:
    """Single-pass report: randomness measure, off-peak stats and balance."""
    corr = autocorrelation(seq, conv)
    max_off, mean_off, randomness = _off_peak_summary(corr)
    return AnalysisReport(
        randomness=randomness,
        max_offpeak=max_off,
        mean_offpeak=mean_off,
        ones_fraction=balance(seq),
        correlation=corr,
        sequence_label=seq.label,
    )
