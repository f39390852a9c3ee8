import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from primeseq import (
    BitSequence,
    balance,
    binary_primes_sequence,
    d_sequence,
    format_sequence,
    harden,
    parse_sequence,
    recommended_shift_count,
    select_shifts,
)
from primeseq import sequences
from primeseq.sequences import D_SEQUENCE_MAX_MODULUS
from conftest import (
    bits_of,
    oracle_bps_bits,
    oracle_d_bits,
    oracle_is_prime,
    oracle_primes_upto,
    seq_of,
)

bits_st = st.lists(st.sampled_from((0, 1)), min_size=1, max_size=64).map(tuple)


# --- BitSequence / shift set / d_sequence arguments -----------------------

def test_bit_sequence_validation():
    seq = seq_of((0, 1, 1))
    assert seq.length == 3 and seq.to01() == "011"
    assert BitSequence(3, 0b011, label="x") == BitSequence(3, 0b011, label="x")


def test_from_int_range_checked():
    assert BitSequence(4, 0b0110) == seq_of((0, 1, 1, 0))
    with pytest.raises(ValueError):
        BitSequence(4, -1)
    with pytest.raises(ValueError):
        BitSequence(4, 1 << 4)
    with pytest.raises(ValueError):
        BitSequence(0, 0)


def test_shift_set_normalizes_and_validates():
    # binary_primes_sequence takes the offsets in any order and as a list,
    # and checks them before the length
    assert binary_primes_sequence(199, (11, 0, 7, 22)) == binary_primes_sequence(199, (0, 7, 11, 22))
    assert binary_primes_sequence(10, [1, 0]) == binary_primes_sequence(10, (0, 1))
    with pytest.raises(ValueError, match=r"^duplicate shift offsets in \(0, 0\)$"):
        binary_primes_sequence(1, (0, 0))


def test_d_sequence_spec_validation():
    with pytest.raises(ValueError):
        d_sequence(2, 4)
    with pytest.raises(ValueError):
        d_sequence(4, 4)
    with pytest.raises(ValueError):
        d_sequence(13, 0)


# --- D-sequences -----------------------------------------------------------

@pytest.mark.parametrize(
    "q, length, expected",
    [
        (13, 12, "000100111011"),
        (7, 6, "001001"),
        (3, 4, "0101"),
    ],
)
def test_d_sequence_frozen_examples(q, length, expected):
    seq = d_sequence(q, length)
    assert seq.to01() == expected
    assert [int(c) for c in expected] == oracle_d_bits(q, length)


def test_d_sequence_rejects_composite_odd_modulus():
    with pytest.raises(ValueError):
        d_sequence(9, 4)


def test_d_sequence_modulus_above_sieve_cap():
    # d_sequence settles q by trial division, so a modulus past the sieve's 2^24 cap works
    q = 16777259  # the smallest prime above 2^24
    seq = d_sequence(q, 40)
    assert list(bits_of(seq)) == oracle_d_bits(q, 40)


def test_d_sequence_length_capped_at_sieve_limit():
    with pytest.raises(ValueError, match="exceeds supported maximum 16777216"):
        d_sequence(3, (1 << 24) + 1)
    assert d_sequence(3, 1 << 24).length == 1 << 24


def test_generated_sequences_carry_no_label():
    pn = d_sequence(13, 10)
    bps = binary_primes_sequence(10, (0, 1))
    assert pn.label == bps.label == harden(pn, bps).label == ""


def test_d_sequence_modulus_cap_refuses_before_trial_division(monkeypatch):
    q = 1099511627791  # the smallest prime above the 2^40 cap
    assert q > D_SEQUENCE_MAX_MODULUS == 1 << 40
    assert oracle_is_prime(q)
    assert not any(oracle_is_prime(k) for k in range(D_SEQUENCE_MAX_MODULUS + 1, q))

    def trial_division(n):
        raise AssertionError("primality tested past the modulus cap")

    monkeypatch.setattr(sequences, "is_prime", trial_division)
    with pytest.raises(ValueError, match=f"exceeds supported maximum {D_SEQUENCE_MAX_MODULUS}"):
        d_sequence(q, 64)


# --- binary primes sequences ------------------------------------------------

def test_bps_table1_sum_row():
    seq = binary_primes_sequence(10, (0, 1))
    assert seq.to01() == "0101111100"
    assert sum(bits_of(seq)) == 6


def test_bps_identity_shift_set():
    seq = binary_primes_sequence(10, (0,))
    assert seq.to01() == "0110101000"


def test_bps_two_added_shifts_from_xor_oracle():
    prime_set = set(oracle_primes_upto(10))
    expected = oracle_bps_bits(10, (0, 1, 2), prime_set)
    seq = binary_primes_sequence(10, (0, 1, 2))
    assert list(bits_of(seq)) == expected
    assert seq.to01() == "0100010110"
    assert sum(bits_of(seq)) == 4


@given(
    n=st.integers(min_value=2, max_value=300),
    data=st.data(),
)
@settings(max_examples=60)
def test_bps_matches_oracle(n, data):
    added = data.draw(
        st.lists(st.integers(min_value=1, max_value=n - 1), min_size=0, max_size=4, unique=True)
    )
    shift_set = (0, *added)
    prime_set = set(oracle_primes_upto(n))
    assert list(bits_of(binary_primes_sequence(n, shift_set))) == oracle_bps_bits(
        n, shift_set, prime_set
    )


@pytest.fixture(scope="module")
def oracle_prime_set():
    return set(oracle_primes_upto(65537))


@pytest.mark.parametrize("n", [*range(2, 201), 65535, 65536, 65537])
def test_bps_matches_oracle_with_each_shift_rule(n, oracle_prime_set):
    # every residue of n mod 8 starts each odd residue plane at every bit
    # offset; the last three n sit on either side of 2^16 positions
    for shifts in ((0,), select_shifts(n), select_shifts(n, 1)):
        seq = binary_primes_sequence(n, shifts)
        assert list(bits_of(seq)) == oracle_bps_bits(n, shifts, oracle_prime_set), shifts


def test_bps_errors():
    with pytest.raises(ValueError):
        binary_primes_sequence(10, (0, 10))
    with pytest.raises(ValueError, match="^length must be >= 2, got 1$"):
        binary_primes_sequence(1, (0,))
    # the length rule d_sequence and select_shifts share, not the sieve's wording
    with pytest.raises(ValueError, match="^length 16777217 exceeds supported maximum 16777216$"):
        binary_primes_sequence((1 << 24) + 1, (0,))


@given(
    data=st.data(),
    n=st.integers(min_value=8, max_value=128),
)
@settings(max_examples=60)
def test_bps_gf2_linearity(data, n):
    # B over a union of disjoint offset sets is the XOR of B over each part;
    # the mandatory offset 0 sits in both parts, so its row cancels there
    offsets = data.draw(
        st.lists(st.integers(min_value=1, max_value=n - 1), min_size=2, max_size=6, unique=True)
    )
    split = data.draw(st.integers(min_value=1, max_value=len(offsets) - 1))
    s1, s2 = offsets[:split], offsets[split:]
    combined = binary_primes_sequence(n, (0, *offsets))
    left = binary_primes_sequence(n, (0, *s1))
    right = binary_primes_sequence(n, (0, *s2))
    base = binary_primes_sequence(n, (0,))
    assert combined.value == left.value ^ right.value ^ base.value


def test_bps_zero_fill_prefix():
    # a row shifted by s is zero through position s + 1 (nothing below the
    # first prime at position 2 can contribute): B over (0, s) agrees with the
    # unshifted row there
    base = bits_of(binary_primes_sequence(50, (0,)))
    for s in (1, 3, 7):
        row = bits_of(binary_primes_sequence(50, (0, s)))
        assert row[: s + 1] == base[: s + 1]
        assert row[s + 1] != base[s + 1]


@given(data=st.data())
@settings(max_examples=40)
def test_bps_first_position_always_zero(data):
    n = data.draw(st.integers(min_value=2, max_value=64))
    added = data.draw(
        st.lists(st.integers(min_value=1, max_value=n - 1), min_size=0, max_size=3, unique=True)
    )
    seq = binary_primes_sequence(n, (0, *added))
    assert bits_of(seq)[0] == 0


# --- hardening ---------------------------------------------------------------

def test_harden_example():
    pn = seq_of((0, 0, 0, 1, 0, 0, 1, 1, 1, 0))
    bps = binary_primes_sequence(10, (0, 1))
    assert harden(pn, bps).to01() == "0100110010"


@given(x=bits_st, y=bits_st)
def test_harden_involution(x, y):
    if len(x) != len(y):
        with pytest.raises(ValueError):
            harden(seq_of(x), seq_of(y))
        return
    a, b = seq_of(x), seq_of(y)
    assert bits_of(harden(harden(a, b), b)) == bits_of(a)
    assert bits_of(harden(a, seq_of((0,) * len(x)))) == bits_of(a)
    assert bits_of(harden(a, a)) == (0,) * len(x)


# --- shift selection ---------------------------------------------------------

def test_select_shifts_evenly_spaced_midpoint():
    assert select_shifts(10) == (0, 5)


def test_select_shifts_evenly_spaced_properties():
    # i*n/(l+1) rounded half up, with no collision to step past
    for n in range(2, 5001):
        l = recommended_shift_count(n)
        s = select_shifts(n)
        assert s == tuple((2 * i * n + l + 1) // (2 * (l + 1)) for i in range(l + 1))
        assert len(s) == l + 1 and s[0] == 0 and s[-1] < n
        assert all(a < b for a, b in zip(s, s[1:]))


def test_select_shifts_uniform_random_deterministic():
    a = select_shifts(100, seed=7)
    assert a == select_shifts(100, seed=7) == tuple(sorted(a))
    assert len(set(a)) == recommended_shift_count(100) + 1 == 3
    assert a[0] == 0 and a[-1] < 100
    assert select_shifts(100, 7) == a


def test_select_shifts_bounds():
    with pytest.raises(ValueError, match="^length must be >= 2, got 1$"):
        select_shifts(1)
    # n past the sieve cap is refused before random.sample, which would
    # raise OverflowError on a range this long
    with pytest.raises(ValueError, match="exceeds supported maximum 16777216"):
        select_shifts(2**63 + 10, seed=1)
    with pytest.raises(ValueError, match="exceeds supported maximum 16777216"):
        select_shifts((1 << 24) + 1)
    assert max(select_shifts(1 << 24, seed=1)) < 1 << 24


# --- balancing claim ---------------------------------------------------------

def test_balance_improvement_at_recommended_shifts():
    # raw indicator rows are heavily zero-biased; the XOR of evenly spaced
    # shifted copies always improves the ones fraction, though not always
    # into a tight band (even offsets keep prime positions aligned on odd
    # slots, so some of the XOR cancels)
    for n in (100, 199, 500, 997, 2000):
        raw = binary_primes_sequence(n, (0,))
        raw_frac = sum(bits_of(raw)) / n
        assert raw_frac < 0.3
        mixed = binary_primes_sequence(n, select_shifts(n))
        assert sum(bits_of(mixed)) / n > raw_frac


def test_balance_of_published_shift_sets():
    b199 = binary_primes_sequence(199, (0, 7, 11, 22))
    b997 = binary_primes_sequence(997, (0, 11, 77, 111))
    assert 0.35 <= sum(bits_of(b199)) / 199 <= 0.65
    assert 0.35 <= sum(bits_of(b997)) / 997 <= 0.65


# --- text format -------------------------------------------------------------

def test_format_and_parse_round_trip():
    seq = seq_of((0, 1, 1, 0, 1), label="demo run")
    text = format_sequence(seq, {"kind": "bps", "n": 5})
    assert text.startswith("# kind=bps\n# n=5\n# label=demo run\n")
    assert parse_sequence(text) == seq


@pytest.mark.parametrize("n", [*range(1, 201), 65535, 65536, 65537, 131073, 131135])
@pytest.mark.parametrize(
    "metadata, label, header, parsed_label",
    [(None, "", [], ""),
     ({"kind": "bps", "q": 13}, "", ["# kind=bps", "# q=13"], "kind=bps q=13"),
     (None, "demo run", ["# label=demo run"], "demo run")],
    ids=["bare", "metadata", "label"],
)
def test_format_matches_per_line_reference_at_block_edges(n, metadata, label, header, parsed_label):
    # the body is built per 1024-line block of 64-symbol lines from whole
    # bytes; these n sit on either side of the line and block edges and cut
    # every count of pad bits from the last byte
    seq = BitSequence(n, random.Random(n).getrandbits(n), label)
    body = seq.to01()
    reference = "\n".join([*header, *(body[i : i + 64] for i in range(0, n, 64))]) + "\n"
    text = format_sequence(seq, metadata)
    # split on "\n" loses nothing; a failing list compare names the first bad
    # line instead of diffing 2^17 symbols
    assert text.split("\n") == reference.split("\n")
    assert parse_sequence(text) == BitSequence(n, seq.value, parsed_label)


def test_parse_ignores_newlines_and_plain_comments():
    seq = parse_sequence("# just a note\n0101\n11\n\n00\n")
    assert seq.to01() == "01011100"
    assert seq.label == ""


def test_parse_error_names_line():
    with pytest.raises(ValueError, match="line 3"):
        parse_sequence("# n=4\n0101\n01x1\n")


_LINES_100 = ("01" * 32 + "\n") * 100


# the body is checked in bulk; the line walk that names the bad line must
# still count comment lines and read \r\n text as one break per line
@pytest.mark.parametrize("text, line, char", [
    ("# n=12\n0101\n# between=1\n0101\n01x1\n", 5, "x"),
    ("0101\n#\n\n# a=b\n1 01\n", 5, " "),
    ("# n=8\r\n0101\r\n# c\r\n01 1\r\n", 4, " "),
    (_LINES_100 + " 01\n", 101, " "),
    (_LINES_100 + "0121\n", 101, "2"),
    ("# n=200\n" + _LINES_100 + "# tail\n012\n", 103, "2"),
])
def test_parse_error_names_line_and_character(text, line, char):
    with pytest.raises(ValueError, match=re.escape(f"line {line}: invalid character {char!r} ")):
        parse_sequence(text)


def test_parse_reads_comments_between_body_lines_and_crlf():
    seq = parse_sequence("# a=1\r\n0101\r\n# b=2\r\n11\r\n# a=3\r\n")
    assert seq.to01() == "010111"
    assert seq.label == "a=3 b=2"
    assert parse_sequence("# label=x\r\n0101\r\n11\r\n") == BitSequence(6, 0b010111, "x")


@pytest.mark.parametrize("body", ["0b0101", "01_01", " 0101", "0101 ", "+0101"])
def test_parse_rejects_int_literal_syntax(body):
    with pytest.raises(ValueError, match="line 2: invalid character"):
        parse_sequence(f"# n=4\n{body}\n")


def test_parse_empty_body():
    with pytest.raises(ValueError, match="no sequence data"):
        parse_sequence("# n=4\n")


label_st = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=30,
)


@given(bits=bits_st, label=label_st)
@settings(max_examples=80)
def test_round_trip_property(bits, label):
    seq = seq_of(bits, label=label)
    assert parse_sequence(format_sequence(seq)) == seq


def test_metadata_value_kept_verbatim_and_key_refused_with_equals():
    # the value is everything after the key's first '=', trailing spaces too
    seq = BitSequence(4, 6, "abc ")
    assert parse_sequence(format_sequence(seq)) == seq
    assert parse_sequence(format_sequence(seq_of((1,)), {"a": "b=1 "})).label == "a=b=1 "
    # parsing strips a key, so " k " would read back as "k" and " label " as the label
    for key, problem in (("a=b", "contains '='"), (" k ", "has surrounding whitespace"),
                         (" label ", "has surrounding whitespace")):
        with pytest.raises(ValueError, match=f"metadata key {key!r} {problem}"):
            format_sequence(seq_of((1,)), {key: 1})


@pytest.mark.parametrize("brk", ["\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"])
def test_format_rejects_line_breaks_in_metadata(brk):
    with pytest.raises(ValueError, match="line break"):
        format_sequence(seq_of((1,), label=f"x{brk}0110"))
    with pytest.raises(ValueError, match="line break"):
        format_sequence(seq_of((1,)), {f"k{brk}": 1})
    with pytest.raises(ValueError, match="line break"):
        format_sequence(seq_of((1,)), {"k": f"v{brk}"})


# --- packed paths at a size spanning many int digits ---------------------------

N_LARGE = 10007


def test_d_sequence_large_matches_oracle():
    seq = d_sequence(N_LARGE, N_LARGE)
    assert list(bits_of(seq)) == oracle_d_bits(N_LARGE, N_LARGE)


def test_large_sequence_paths_match_oracle():
    shifts = select_shifts(N_LARGE, seed=3)
    assert len(shifts) == 6  # the recommended 5 added offsets
    bps = binary_primes_sequence(N_LARGE, shifts)
    assert list(bits_of(bps)) == oracle_bps_bits(N_LARGE, shifts, set(oracle_primes_upto(N_LARGE)))
    pn = d_sequence(N_LARGE, N_LARGE)
    hardened = harden(pn, bps)
    assert bits_of(hardened) == tuple(a ^ b for a, b in zip(bits_of(pn), bits_of(bps)))
    assert bits_of(harden(hardened, bps)) == bits_of(pn)
    assert parse_sequence(format_sequence(hardened)) == hardened
    assert balance(hardened) == sum(bits_of(hardened)) / N_LARGE
