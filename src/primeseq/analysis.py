"""Cyclic autocorrelation and the derived randomness and balance statistics.

Every statistic is computed under an explicit convention (symbol mapping plus
normalization) so that any published number can be chased under a declared
setting. The default is bipolar/by-n: bits map to -1/+1 and each lag sum is
divided by the sequence length, which pins the lag-0 peak at exactly 1.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from itertools import chain

from .sequences import BitSequence

MAPPINGS = ("raw01", "bipolar")
NORMALIZATIONS = ("by-n", "by-peak")
# Longest sequence autocorrelation accepts: on a 2-vCPU Xeon the transform
# lag-sum kernel takes about 0.65 s at this length and CLI `analyze --out`
# about 1.1 s (53 MB peak RSS, 58 MB when 10^6 ones need 7-digit slots), where
# the popcount loop would take minutes.
ANALYSIS_MAX_LENGTH = 1 << 20
# Shortest sequence whose lag sums come from one decimal product rather than
# one popcount per lag up to n/2; on a 2-vCPU Xeon (random words, calls
# interleaved, medians of 45) the two paths cost the same near 3650 bits
# (popcount/product 1.94/2.01 ms at 3600, 2.07/1.79 ms at 3700), and the
# product is 1.4x faster at 4000, 1.8x at 7000 and 2.4x at 8000.
LAG_SUM_TRANSFORM_MIN_LENGTH = 3650


class CorrelationConvention(namedtuple("CorrelationConvention", "mapping normalization")):
    __slots__ = ()
    # _replace builds through _make, so both run the checks of __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, mapping: str = "bipolar", normalization: str = "by-n"):
        if mapping not in MAPPINGS:
            raise ValueError(f"mapping must be one of {MAPPINGS}, got {mapping!r}")
        if normalization not in NORMALIZATIONS:
            raise ValueError(
                f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}"
            )
        return super().__new__(cls, mapping, normalization)


DEFAULT_CONVENTION = CorrelationConvention()


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

    def as_dict(self) -> dict[str, object]:
        return {
            "randomness": self.randomness,
            "max_offpeak": self.max_offpeak,
            "mean_offpeak": self.mean_offpeak,
            "ones_fraction": self.ones_fraction,
            "convention": self.correlation.convention._asdict(),
            "sequence_label": self.sequence_label,
        }


def _cyclic_lag_sums(x: int, n: int) -> list[int]:
    # 0/1 lag sums S_0..S_(n//2), S_k = popcount(x & rot_k(x)), of the n-bit
    # word x; S_0 is the number of ones m, and the rest follow from S_k = S_(n-k).
    if n < LAG_SUM_TRANSFORM_MIN_LENGTH:
        # x has n bits, so the AND drops the high half of the doubled word
        doubled = x | (x << n)
        return [(x & (doubled >> k)).bit_count() for k in range(n // 2 + 1)]
    # Kronecker substitution: each bit is one d-digit slot of a decimal
    # integer, and x times its reversal holds every linear lag sum in a slot of
    # its own. No sum exceeds m < 10^d, so no slot carries, and adding the high
    # n slots to the low n slots wraps the linear sums into the cyclic ones,
    # which read S_0, S_(n-1), ..., S_1 from the left. libmpdec multiplies
    # operands this long with a number-theoretic transform. Each intermediate
    # is dropped once the next exists, to keep the peak near the popcount
    # path's. Every step below runs in C: the Python loop is over the d <= 7
    # digits of a slot, not over the slots.
    import decimal
    from array import array

    d = len(str(x.bit_count()))
    w, h = n * d, n // 2 + 1
    bits = format(x, f"0{n}b").encode()
    slots = bytearray(b"0") * w
    slots[d - 1::d] = bits
    a = decimal.Decimal(slots.decode())
    slots[d - 1::d] = bits[::-1]
    b = decimal.Decimal(slots.decode())
    del bits, slots
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    product = ctx.multiply(a, b)
    del a, b
    # The fold, in decimal: high + (product - high * 10^w) for the high n
    # slots `high`; then only its first h slots, S_0..S_(n//2), become text.
    high = product.scaleb(-w, ctx).to_integral_value(decimal.ROUND_DOWN, ctx)
    product = ctx.add(ctx.subtract(product, high.scaleb(w, ctx)), high)
    del high
    hd = h * d
    digits = str(product.scaleb(hd - w, ctx).to_integral_value(decimal.ROUND_DOWN, ctx))
    del product
    # S_0 = m fills its slot, so only x = 0 lacks leading zeros here
    digits = digits.encode().rjust(hd, b"0")
    digits = digits.translate(bytes.maketrans(b"0123456789", bytes(range(10))))
    # Digit plane j of each slot goes into the low byte of a 4-byte
    # little-endian word, so one integer holds the plane for all h slots;
    # summing the planes times powers of ten rebuilds every slot at once. A
    # slot holds S_k <= m <= 2^20 < 2^32, so no word carries into the next.
    words = bytearray(4 * h)
    total = 0
    for j in range(d):
        words[::4] = digits[j::d]
        total = total * 10 + int.from_bytes(words, "little")
    del digits, words
    half = array("I", total.to_bytes(4 * h, "little"))
    del total
    if sys.byteorder == "big":
        half.byteswap()
    return half.tolist()


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
    value_of = {s: (base + scale * s) / n for s in set(sums)}
    if conv.normalization == "by-peak":
        peak = value_of[sums[0]]
        if peak == 0:
            raise ValueError("cannot normalize by peak: lag-0 value is zero")
        value_of = {s: v / peak for s, v in value_of.items()}
    # the sums cover lags 0..n//2, and c(k) = c(n-k) gives the rest
    half = tuple(map(value_of.__getitem__, sums))
    return CorrelationSeries(half + half[n - n // 2 - 1:0:-1], conv)


def _off_peak_summary(corr: CorrelationSeries) -> tuple[float, float, float]:
    # (max, mean, R) of |c(k)| over the off-peak lags 1..N-1 from one exact sum
    n = corr.n
    if n < 2:
        raise ValueError(f"series too short: length {n}")
    values = corr.values
    paired = values[1:(n + 1) // 2]
    if paired != values[:n // 2:-1]:
        raise ValueError("not a cyclic autocorrelation: c(k) differs from c(n-k)")
    # c(k) = c(n-k), so each lag 1..(n-1)//2 stands for two lags; the middle
    # lag of even n stands for one, and enters the doubled sum halved (odd n
    # has none: 0.0). Above the subnormal range halving and doubling are
    # exact, so the sum is the same correctly rounded float as over all n-1 lags.
    middle = abs(values[n // 2]) if n % 2 == 0 else 0.0
    mx = max(chain(map(abs, paired), (middle,)))
    total = 2 * math.fsum(chain(map(abs, paired), (middle / 2,)))
    mean = total / (n - 1)
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
