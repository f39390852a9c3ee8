import math
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from primeseq import (
    BitSequence,
    CorrelationConvention,
    CorrelationSeries,
    DEFAULT_CONVENTION,
    all_conventions,
    analyze,
    autocorrelation,
    balance,
    binary_primes_sequence,
    d_sequence,
    harden,
    off_peak_stats,
    randomness_measure,
)
from primeseq import analysis
from primeseq.analysis import ANALYSIS_MAX_LENGTH, LAG_SUM_TRANSFORM_MIN_LENGTH
from conftest import (
    bits_of,
    oracle_autocorrelation,
    oracle_offpeak,
    oracle_randomness,
    seq_of,
)

bits_st = st.lists(st.sampled_from((0, 1)), min_size=2, max_size=64).map(tuple)


def _hardened_bits(q, shifts):
    pn = d_sequence(q, q)
    return bits_of(harden(pn, binary_primes_sequence(q, shifts)))


# a length the kernel runs at in the reproduce targets and the CLI, far past
# the 64-bit Hypothesis strategy
HARDENED_1009 = _hardened_bits(1009, (0, 11, 77, 111))


def test_convention_validation():
    assert DEFAULT_CONVENTION == CorrelationConvention("bipolar", "by-n")
    assert len(all_conventions()) == 4
    with pytest.raises(ValueError):
        CorrelationConvention("signed", "by-n")
    with pytest.raises(ValueError):
        CorrelationConvention("bipolar", "by-two")


def test_autocorrelation_alternating():
    seq = seq_of((1, 0, 1, 0))
    assert autocorrelation(seq).values == (1.0, -1.0, 1.0, -1.0)


def test_autocorrelation_all_ones():
    seq = seq_of((1,) * 8)
    assert autocorrelation(seq).values == (1.0,) * 8


def test_autocorrelation_table_sum_row():
    seq = seq_of((0, 1, 0, 1, 1, 1, 1, 1, 0, 0))
    corr = autocorrelation(seq)
    assert corr.values == tuple(oracle_autocorrelation(bits_of(seq)))
    assert corr.values[1] == pytest.approx(0.2)
    assert corr.values == (1.0, 0.2, 0.2, -0.2, -0.2, -0.6, -0.2, -0.2, 0.2, 0.2)


def test_autocorrelation_length_bound(monkeypatch):
    def kernel(x, n):
        raise AssertionError("lag sums computed past the length bound")

    monkeypatch.setattr(analysis, "_cyclic_lag_sums", kernel)
    seq = BitSequence(ANALYSIS_MAX_LENGTH + 1, 1)
    for run in (autocorrelation, analyze):
        with pytest.raises(ValueError, match=f"exceeds maximum {ANALYSIS_MAX_LENGTH}"):
            run(seq)


def test_autocorrelation_too_short():
    with pytest.raises(ValueError):
        autocorrelation(seq_of((1,)))


def test_by_peak_zero_peak_rejected():
    zeros = seq_of((0, 0, 0, 0))
    with pytest.raises(ValueError):
        autocorrelation(zeros, CorrelationConvention("raw01", "by-peak"))
    # bipolar maps zeros to -1 symbols, whose peak is 1
    corr = autocorrelation(zeros, CorrelationConvention("bipolar", "by-peak"))
    assert corr.values[0] == 1.0


def _lag_sums(x, n, transform_min_length):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "LAG_SUM_TRANSFORM_MIN_LENGTH", transform_min_length)
        return analysis._cyclic_lag_sums(x, n)


def _transform_sums(x, n):
    return _lag_sums(x, n, 2)


def _popcount_sums(x, n):
    return _lag_sums(x, n, n + 1)


def _assert_all_conventions_match_oracle(bits):
    # once with the kernel path the length selects, once with the crossover
    # at 2, so the transform path meets the oracle at these lengths too
    for conv in all_conventions():
        if conv.normalization == "by-peak" and conv.mapping == "raw01" and not any(bits):
            continue  # zero peak, refused: see test_by_peak_zero_peak_rejected
        oracle = oracle_autocorrelation(bits, conv.mapping, conv.normalization)
        assert list(autocorrelation(seq_of(bits), conv).values) == oracle
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "LAG_SUM_TRANSFORM_MIN_LENGTH", 2)
            assert list(autocorrelation(seq_of(bits), conv).values) == oracle


@given(bits=bits_st)
@settings(max_examples=150)
def test_fast_path_is_bit_identical_to_double_loop(bits):
    _assert_all_conventions_match_oracle(bits)


def test_fast_path_is_bit_identical_to_double_loop_at_1009():
    # the double loop over 1009 bits takes longer than Hypothesis's deadline,
    # so this length runs outside @given
    _assert_all_conventions_match_oracle(HARDENED_1009)


def _direct_lag_sums(x, n):
    # one full rotation and popcount per lag 0..n//2, the half the kernel
    # returns; the rest follow from S_k = S_(n-k)
    mask = (1 << n) - 1
    return [(x & ((x >> k | x << (n - k)) & mask)).bit_count() for k in range(n // 2 + 1)]


# lengths where len(str(n)), the widest slot an all-ones input needs, changes
DIGIT_WIDTH_LENGTHS = (9, 10, 11, 99, 100, 101, 9999, 10000, 10001)


@pytest.mark.parametrize("n", DIGIT_WIDTH_LENGTHS)
def test_transform_lag_sums_at_digit_width_boundaries(n):
    h = n // 2 + 1
    assert _transform_sums(0, n) == [0] * h
    assert _transform_sums((1 << n) - 1, n) == [n] * h
    for x in (1, 1 << (n - 1), 1 << (n // 2)):
        assert _transform_sums(x, n) == [1] + [0] * (h - 1)
    for x in (0, (1 << n) - 1, 1, 1 << (n - 1), 1 << (n // 2)):
        assert _transform_sums(x, n) == _direct_lag_sums(x, n)
    if n <= 101:
        for bits in ((0,) * n, (1,) * n, (1,) + (0,) * (n - 1)):
            _assert_all_conventions_match_oracle(bits)


def _word_with_ones(n, ones):
    return sum(1 << k for k in random.Random(ones).sample(range(n), ones))


@pytest.mark.parametrize("ones", DIGIT_WIDTH_LENGTHS)
def test_transform_lag_sums_at_slot_width_boundaries(ones):
    # the slot width follows the number of ones m, the largest lag sum
    n = 10007
    x = _word_with_ones(n, ones)
    sums = _transform_sums(x, n)
    assert sums[0] == ones
    assert sums == _popcount_sums(x, n) == _direct_lag_sums(x, n)


# the fold adds the high n slots to the low n slots: m = 10^d - 1 ones fill
# every digit of the lag-0 slot, and m = 10^d ones need one digit more; the
# two lengths are the crossover, even, and the odd length past it
@pytest.mark.parametrize("n", [LAG_SUM_TRANSFORM_MIN_LENGTH, LAG_SUM_TRANSFORM_MIN_LENGTH + 1])
@pytest.mark.parametrize("ones", [9, 10, 99, 100, 999, 1000])
def test_transform_fold_at_full_slots(n, ones):
    assert n == 3650 + n % 2
    x = _word_with_ones(n, ones)
    sums = analysis._cyclic_lag_sums(x, n)
    assert len(sums) == n // 2 + 1 and sums[0] == ones
    assert sums == _popcount_sums(x, n) == _direct_lag_sums(x, n)


@pytest.mark.parametrize("q", [10007, 31607, 100003])
def test_transform_lag_sums_equal_popcount(q):
    x = seq_of(_hardened_bits(q, (0, 11, 77, 111))).value
    assert _transform_sums(x, q) == _popcount_sums(x, q) == _direct_lag_sums(x, q)


def _assert_lag_sum_invariants(x, n, sums):
    # no oracle runs this far; check the identities every lag-sum vector obeys
    m = x.bit_count()
    assert len(sums) == n // 2 + 1
    assert sums[0] == m
    assert sum(sums + sums[n - n // 2 - 1:0:-1]) == m * m
    mask = (1 << n) - 1
    for k in random.Random(n).sample(range(1, n // 2 + 1), 8):
        assert sums[k] == (x & ((x >> k | x << (n - k)) & mask)).bit_count()


def test_lag_sum_invariants_at_length_cap():
    n = ANALYSIS_MAX_LENGTH
    assert n == 1 << 20
    pn = d_sequence(1048573, n)
    x = harden(pn, binary_primes_sequence(n, (0, 5, 1000, 77777))).value
    _assert_lag_sum_invariants(x, n, analysis._cyclic_lag_sums(x, n))


def test_lag_sum_invariants_at_widest_slot():
    # m >= 10^6 ones need 7-digit slots, the widest any accepted length has;
    # about 31/32 of the bits are ones
    n = ANALYSIS_MAX_LENGTH
    rng = random.Random(n)
    x = 0
    for _ in range(5):
        x |= rng.getrandbits(n)
    assert len(str(x.bit_count())) == 7
    # libmpdec allocates through the Python allocator, so tracemalloc sees
    # the transform. Folding the product in decimal and reading back h slots
    # keeps the peak near 30 bytes per bit; turning the whole 2w-digit
    # product into text took it to 40.
    tracemalloc.start()
    try:
        sums = analysis._cyclic_lag_sums(x, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 33 * n
    _assert_lag_sum_invariants(x, n, sums)


# the popcount path's smallest lengths and one even and one odd just below
# the crossover, far past the 64-bit Hypothesis strategy
@pytest.mark.parametrize(
    "n", [2, 3, 4, 5, LAG_SUM_TRANSFORM_MIN_LENGTH - 2, LAG_SUM_TRANSFORM_MIN_LENGTH - 1]
)
def test_popcount_lag_sums_match_direct_loop(n):
    assert n < LAG_SUM_TRANSFORM_MIN_LENGTH
    if n <= 5:
        words = range(1 << n)
    else:
        rng = random.Random(n)
        words = [0, 1, 1 << (n - 1), (1 << n) - 1] + [rng.getrandbits(n) for _ in range(3)]
    for x in words:
        sums = analysis._cyclic_lag_sums(x, n)
        assert sums == _direct_lag_sums(x, n)
        if n <= 5:
            bits = [int(c) for c in format(x, f"0{n}b")]
            assert sums == [
                sum(bits[i] & bits[(i + k) % n] for i in range(n)) for k in range(n // 2 + 1)
            ]


@given(bits=bits_st)
def test_cyclic_symmetry(bits):
    for conv in all_conventions():
        if conv.normalization == "by-peak" and conv.mapping == "raw01":
            assume(any(bits))
        values = autocorrelation(seq_of(bits), conv).values
        n = len(values)
        for k in range(1, n):
            assert values[k] == values[n - k]


@given(bits=bits_st, rotation=st.integers(min_value=0, max_value=63))
def test_rotation_invariance(bits, rotation):
    r = rotation % len(bits)
    rotated = bits[r:] + bits[:r]
    assert (
        autocorrelation(seq_of(rotated)).values
        == autocorrelation(seq_of(bits)).values
    )


@given(bits=bits_st)
def test_complement_invariance_bipolar(bits):
    flipped = tuple(1 - b for b in bits)
    assert (
        autocorrelation(seq_of(flipped)).values
        == autocorrelation(seq_of(bits)).values
    )


@given(bits=bits_st)
def test_bipolar_by_n_bounds(bits):
    corr = autocorrelation(seq_of(bits))
    assert corr.values[0] == 1.0
    assert all(abs(v) <= 1.0 for v in corr.values)
    r = randomness_measure(corr)
    assert 0.0 <= r <= 1.0
    max_off, mean_off = off_peak_stats(corr)
    assert 0.0 <= mean_off <= max_off <= 1.0


def test_randomness_fully_structured_inputs():
    assert randomness_measure(autocorrelation(seq_of((1,) * 8))) == 0.0
    assert randomness_measure(autocorrelation(seq_of((1, 0, 1, 0)))) == 0.0


def test_randomness_199_published_set():
    # regression value from the double-loop oracle; the published reference
    # figure 0.9949 for this sequence is not attained under any convention
    seq = binary_primes_sequence(199, (0, 7, 11, 22))
    r = randomness_measure(autocorrelation(seq))
    assert r == pytest.approx(0.9259428455408355, abs=1e-12)
    assert r == pytest.approx(oracle_randomness(oracle_autocorrelation(bits_of(seq))), abs=1e-12)


def test_randomness_grows_with_length():
    shift_set = (0, 7, 11, 22)
    r = {
        n: randomness_measure(autocorrelation(binary_primes_sequence(n, shift_set)))
        for n in (50, 199)
    }
    assert r[199] > r[50]


def test_off_peak_stats_examples():
    assert off_peak_stats(autocorrelation(seq_of((1, 0, 1, 0)))) == (1.0, 1.0)
    seq = seq_of((0, 1, 0, 1, 1, 1, 1, 1, 0, 0))
    oracle_max, oracle_mean = oracle_offpeak(oracle_autocorrelation(bits_of(seq)))
    max_off, mean_off = off_peak_stats(autocorrelation(seq))
    assert max_off == oracle_max
    assert mean_off == pytest.approx(oracle_mean, abs=1e-12)
    b997 = binary_primes_sequence(997, (0, 11, 77, 111))
    max_off, mean_off = off_peak_stats(autocorrelation(b997))
    assert 0.0 < mean_off < max_off < 1.0


def test_balance_examples():
    assert balance(seq_of((0, 1, 0, 1, 1, 1, 1, 1, 0, 0))) == 0.6
    assert balance(seq_of((0, 0, 0))) == 0.0
    raw = binary_primes_sequence(1000, (0,))
    assert balance(raw) == 0.168


def test_analyze_all_ones():
    report = analyze(seq_of((1,) * 16, label="ones"))
    assert report.randomness == 0.0
    assert report.max_offpeak == 1.0
    assert report.ones_fraction == 1.0
    assert report.sequence_label == "ones"
    assert report.correlation.convention == DEFAULT_CONVENTION


def test_analyze_matches_oracle_on_d13():
    from primeseq import d_sequence

    seq = d_sequence(13, 12)
    report = analyze(seq)
    oracle = oracle_autocorrelation(bits_of(seq))
    max_off, mean_off = oracle_offpeak(oracle)
    assert report.randomness == pytest.approx(oracle_randomness(oracle), abs=1e-12)
    assert report.max_offpeak == pytest.approx(max_off, abs=1e-12)
    assert report.mean_offpeak == pytest.approx(mean_off, abs=1e-12)
    assert report.ones_fraction == 0.5


def _full_range_summary(corr):
    # written out over all n-1 off-peak lags, mirror included: the max, the
    # mean clamped to the max, and 1 - the unclamped mean clamped to [0, 1]
    off = [abs(v) for v in corr.values[1:]]
    mean = math.fsum(off) / len(off)
    return max(off), min(mean, max(off)), min(1.0, max(0.0, 1.0 - mean))


# one length on each lag-sum kernel path
@pytest.mark.parametrize("q", [997, 10007])
@pytest.mark.parametrize("conv", all_conventions(), ids=lambda c: f"{c.mapping}-{c.normalization}")
def test_analyze_fields_equal_public_functions(q, conv):
    assert (q < LAG_SUM_TRANSFORM_MIN_LENGTH) == (q == 997)
    seq = seq_of(_hardened_bits(q, (0, 11, 77, 111)))
    report = analyze(seq, conv)
    corr = report.correlation
    assert corr.values == autocorrelation(seq, conv).values
    got = (report.max_offpeak, report.mean_offpeak, report.randomness)
    public = (*off_peak_stats(corr), randomness_measure(corr))
    inline = _full_range_summary(corr)
    assert [v.hex() for v in got] == [v.hex() for v in public] == [v.hex() for v in inline]


def _hex_summary(corr):
    return [v.hex() for v in (*off_peak_stats(corr), randomness_measure(corr))]


# every small length, odd and even, and one on each lag-sum kernel path
@pytest.mark.parametrize("n", [*range(2, 41), 997, 10007])
def test_off_peak_summary_over_half_the_lags_equals_full_range(n):
    # the low bit keeps the raw01 peak above zero
    seq = BitSequence(n, random.Random(n).getrandbits(n) | 1)
    for conv in all_conventions():
        corr = autocorrelation(seq, conv)
        assert _hex_summary(corr) == [v.hex() for v in _full_range_summary(corr)]


def test_off_peak_summary_refuses_asymmetric_series():
    # c(k) != c(n-k), so no cyclic autocorrelation has these values
    for values in ((1.0, 0.5, 0.25, 0.125, 0.9), (1.0, 0.5, 0.25, -0.125, 0.9, 0.5)):
        corr = CorrelationSeries(values, DEFAULT_CONVENTION)
        for summary in (off_peak_stats, randomness_measure):
            with pytest.raises(ValueError) as exc:
                summary(corr)
            assert str(exc.value) == "not a cyclic autocorrelation: c(k) differs from c(n-k)"


def test_analyze_report_dict_shape():
    payload = analyze(seq_of((1, 0, 1, 1))).as_dict()
    assert sorted(payload) == [
        "convention",
        "max_offpeak",
        "mean_offpeak",
        "ones_fraction",
        "randomness",
        "sequence_label",
    ]
    assert payload["convention"] == {"mapping": "bipolar", "normalization": "by-n"}


def test_random_corpus_oracle_equivalence():
    rng = random.Random(20260808)
    for _ in range(50):
        n = rng.randint(2, 64)
        bits = tuple(rng.randint(0, 1) for _ in range(n))
        got = autocorrelation(seq_of(bits)).values
        assert list(got) == oracle_autocorrelation(bits)
