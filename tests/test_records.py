"""The record types are immutable named tuples that validate on construction.

Pins what README promises of every record: fields cannot be assigned, equal
fields give equal records with equal hashes, a record equals the plain tuple
of its fields, the constructor's messages are fixed, and ``repr`` leaves out
the prime bitmap and the correlation series. A shift set is a plain tuple, so
its messages come from ``binary_primes_sequence``, the one function taking it.
"""
from pathlib import Path

import pytest

from primeseq import (
    AnalysisReport,
    AttackResult,
    BitSequence,
    CorrelationConvention,
    CorrelationSeries,
    DEFAULT_CONVENTION,
    PrimeTable,
    analyze,
    binary_primes_sequence,
    sieve_primes,
)
from primeseq.reproduce import ReproductionTarget

RECORDS = {
    "PrimeTable": lambda: PrimeTable(10, bytes(sieve_primes(10).is_prime)),
    "BitSequence": lambda: BitSequence(4, 0b0110, "demo"),
    "CorrelationConvention": lambda: CorrelationConvention("raw01", "by-peak"),
    "CorrelationSeries": lambda: CorrelationSeries((1.0, -0.2, 0.6), DEFAULT_CONVENTION),
    "AnalysisReport": lambda: analyze(BitSequence(10, 0b0101111100, "sum")),
    "AttackResult": lambda: AttackResult(((11, (0, 1)),), 36),
    "ReproductionTarget": lambda: ReproductionTarget("fig1", Path("fig1.csv")),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records_and_hashes(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a == tuple(a)


def test_bit_sequence_len_is_its_field_count():
    seq = BitSequence(100, 0)
    assert len(seq) == 3 and seq.length == 100
    assert list(seq) == [100, 0, ""]


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: PrimeTable(1, b"\0\0"), "prime table limit must be >= 2, got 1"),
        (lambda: PrimeTable(3, b"\0\0\1"), "bitmap length must be limit + 1"),
        (lambda: PrimeTable(2, b"\0\1\1"), "0 and 1 are not prime"),
        (lambda: BitSequence(0, 0), "sequence must have at least one bit"),
        (lambda: BitSequence(3, 8), "value does not fit in 3 bits"),
        (lambda: BitSequence(3, -1), "value does not fit in 3 bits"),
        (lambda: binary_primes_sequence(10, (0, 1, 1)), "duplicate shift offsets in (0, 1, 1)"),
        (lambda: binary_primes_sequence(10, [3, 0, -1]),
         "shift offsets must be non-negative, got [3, 0, -1]"),
        (lambda: binary_primes_sequence(10, (1, 2)), "shift set must contain the unshifted offset 0"),
        (lambda: binary_primes_sequence(10, ()), "shift set must contain the unshifted offset 0"),
        (lambda: CorrelationConvention("signed"),
         "mapping must be one of ('raw01', 'bipolar'), got 'signed'"),
        (lambda: CorrelationConvention("bipolar", "by-two"),
         "normalization must be one of ('by-n', 'by-peak'), got 'by-two'"),
    ],
)
def test_record_validation_messages(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


# a bad _replace and a bad _make for each record that validates, with the
# message its constructor gives each
BAD_REBUILDS = {
    "PrimeTable": ({"limit": 1}, (3, b"\0\1\1\0"),
                   ("prime table limit must be >= 2, got 1", "0 and 1 are not prime")),
    "BitSequence": ({"length": 0}, (2, 99, ""),
                    ("sequence must have at least one bit", "value does not fit in 2 bits")),
    "CorrelationConvention": ({"mapping": "signed"}, ("bipolar", "by-two"),
                              ("mapping must be one of ('raw01', 'bipolar'), got 'signed'",
                               "normalization must be one of ('by-n', 'by-peak'), got 'by-two'")),
}


@pytest.mark.parametrize("name", sorted(BAD_REBUILDS))
def test_replace_and_make_run_the_constructor_checks(name):
    bad_replace, bad_make, (replace_message, make_message) = BAD_REBUILDS[name]
    record = RECORDS[name]()
    cls = type(record)
    with pytest.raises(ValueError) as exc:
        record._replace(**bad_replace)
    assert str(exc.value) == replace_message
    with pytest.raises(ValueError) as exc:
        cls._make(bad_make)
    assert str(exc.value) == make_message
    same = record._replace()
    assert type(same) is cls and same == record
    assert type(cls._make(record)) is cls


def test_keyword_and_default_construction():
    assert BitSequence(length=4, value=6) == BitSequence(4, 6, "")
    assert CorrelationConvention() == DEFAULT_CONVENTION == ("bipolar", "by-n")


def test_repr_omits_prime_bitmap_and_correlation_series():
    assert repr(sieve_primes(1000)) == "PrimeTable(limit=1000)"
    report = analyze(BitSequence(4, 0b0110, "demo"))
    assert repr(report) == (
        "AnalysisReport(randomness=0.6666666666666667, max_offpeak=1.0, "
        "mean_offpeak=0.3333333333333333, ones_fraction=0.5, sequence_label='demo')"
    )
    assert repr(BitSequence(4, 0b0110, "demo")) == "BitSequence(length=4, value=6, label='demo')"
