"""Sequence generation: D-sequences, shifted prime-indicator sums and hardened keystreams.

All sequences are finite binary strings over positions 1..N, packed into one
integer with position 1 as the most significant bit. Shifting is non-cyclic
right shift with zero fill (a shifted row starts with zeros), which in the
packed form is a plain ``>>``; cyclic wraparound happens only inside
autocorrelation.
"""
from __future__ import annotations

import random
from collections import namedtuple

from .primes import DEFAULT_SIEVE_LIMIT, is_prime, recommended_shift_count, sieve_primes

# Largest D-sequence modulus accepted: its trial-division primality check takes
# about 0.05 s here on a 2-vCPU Xeon and grows with sqrt(q) beyond.
D_SEQUENCE_MAX_MODULUS = 1 << 40


class BitSequence(namedtuple("BitSequence", "length value label")):
    """A finite 0/1 sequence packed into ``value``, with a free-form provenance label.

    Position 1 is the most significant of the ``length`` bits, so the binary
    digits of ``value`` padded to ``length`` are the sequence itself.
    """

    __slots__ = ()
    # _replace builds through _make, so both run the checks of __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, length: int, value: int, label: str = ""):
        if length < 1:
            raise ValueError("sequence must have at least one bit")
        if value < 0 or value >> length:
            raise ValueError(f"value does not fit in {length} bits")
        return super().__new__(cls, length, value, label)

    def to01(self) -> str:
        return format(self.value, f"0{self.length}b")


def d_sequence(q: int, length: int) -> BitSequence:
    """Parity trace of the powers of two modulo q: bit i is (2^i mod q) mod 2.

    For odd q that parity is the i-th binary digit of 1/q, so the first
    ``length`` bits are floor(2^length / q). The result is periodic with
    period ord_q(2). ``length`` is capped at the sieve's DEFAULT_SIEVE_LIMIT,
    the most a binary primes sequence it is hardened with can have.
    """
    # the size cap comes first, so no trial division runs past it
    if q > D_SEQUENCE_MAX_MODULUS:
        raise ValueError(f"modulus {q} exceeds supported maximum {D_SEQUENCE_MAX_MODULUS}")
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ValueError(f"modulus must be an odd prime, got {q}")
    _check_length(length, 1)
    return BitSequence(length, (1 << length) // q)


def _check_length(length: int, least: int) -> None:
    if length < least:
        raise ValueError(f"length must be >= {least}, got {length}")
    if length > DEFAULT_SIEVE_LIMIT:
        raise ValueError(f"length {length} exceeds supported maximum {DEFAULT_SIEVE_LIMIT}")


def binary_primes_sequence(n: int, shifts: tuple[int, ...]) -> BitSequence:
    """XOR of zero-fill-shifted copies of the prime indicator row over positions 1..n.

    ``shifts`` holds distinct non-negative offsets below n, the unshifted 0
    among them, in any order. Bit k is the GF(2) sum over the offsets of "is
    k - a prime", where terms with k - a < 2 contribute nothing. With the
    single offset 0 this is the raw indicator row itself. The primes up to n
    come from ``sieve_primes(n)``, so n is capped at its DEFAULT_SIEVE_LIMIT.
    """
    # the offsets are checked before n, so a bad set is reported whatever n is
    if len(set(shifts)) != len(shifts):
        raise ValueError(f"duplicate shift offsets in {shifts}")
    if any(s < 0 for s in shifts):
        raise ValueError(f"shift offsets must be non-negative, got {shifts}")
    if 0 not in shifts:
        raise ValueError("shift set must contain the unshifted offset 0")
    _check_length(n, 2)
    if max(shifts) >= n:
        raise ValueError(f"shift {max(shifts)} out of range for length {n}")
    # position k is bit n - k of the row, and 2 is its only even prime; the
    # flags of positions r, r + 8, ... read as one big-endian int sit in the
    # low bit of each byte, so a shift by (n - r) % 8 puts each k at bit n - k
    flags = sieve_primes(n).is_prime
    row = 1 << (n - 2)
    for r in (1, 3, 5, 7):
        row |= int.from_bytes(flags[r::8], "big") << (n - r) % 8
    value = 0
    for a in shifts:
        value ^= row >> a
    return BitSequence(n, value)


def harden(pn: BitSequence, bps: BitSequence) -> BitSequence:
    """Positionwise XOR of a pseudorandom sequence with a binary primes sequence.

    An involution: hardening twice with the same bps recovers the input bits.
    """
    if pn.length != bps.length:
        raise ValueError(f"length mismatch: {pn.length} != {bps.length}")
    return BitSequence(pn.length, pn.value ^ bps.value)


def select_shifts(n: int, seed: int | None = None) -> tuple[int, ...]:
    """The sorted shift set for length n: 0 plus l = recommended_shift_count(n) offsets.

    Without a seed the offsets are evenly spaced, i*n/(l+1) rounded half up
    for i=1..l; those points are at least 1 apart, so the offsets are distinct
    and lie in 1..n-1. With a seed they are l distinct draws from 1..n-1,
    reproducible for that seed. n is capped at the sieve's DEFAULT_SIEVE_LIMIT,
    the longest binary primes sequence the set can shift.
    """
    _check_length(n, 2)
    l = recommended_shift_count(n)
    if seed is not None:
        return (0, *sorted(random.Random(seed).sample(range(1, n), l)))
    return tuple((2 * i * n + l + 1) // (2 * (l + 1)) for i in range(l + 1))


# --- sequence text format -------------------------------------------------
#
# Optional leading '#' comment lines carry key=value metadata; the body is
# ASCII '0'/'1' with newlines ignored.

_BODY_WIDTH = 64
# value bytes per body block of 1024 lines: the text is built a block at a
# time, so no whole-body string exists beside the returned one
_BODY_BLOCK = 1024 * _BODY_WIDTH // 8
# bytes.translate tables for bit pairs 7-6, 5-4, 3-2 and 1-0: each maps a
# byte to one holding that pair as two nibbles, which bytes.hex spells as two
# '0'/'1' symbols; byte b takes entry b >> s & 3, so the table is runs of 2**s
_BIT_PAIRS = tuple(
    b"".join(bytes([v]) * (1 << s) for v in b"\x00\x01\x10\x11") * (64 >> s) for s in (6, 4, 2, 0)
)


def format_sequence(seq: BitSequence, metadata: dict[str, object] | None = None) -> str:
    """Render a sequence in the text format, preserving the label as metadata.

    Raises ValueError for a metadata key or value (the label included) that
    holds a line break, since it would spill into the body on parsing, and
    for a key that holds '=' or surrounding whitespace, since parsing splits
    at the first '=' and strips the key. The body is built per 1024-line block
    from the value's bytes, padded to whole bytes: translate tables spread
    each bit into a nibble, ``bytes.hex`` spells the 64-symbol lines and the
    padding is cut from the last line. The peak is about two copies of the
    text, the blocks and the returned string, near 2.1 bytes per bit.
    """
    lines = []
    metadata = dict(metadata or {})
    if seq.label and "label" not in metadata:
        metadata["label"] = seq.label
    for key, value in metadata.items():
        line = f"# {key}={value}"
        if line.splitlines() != [line]:
            raise ValueError(f"metadata {key!r} contains a line break")
        if "=" in str(key):
            raise ValueError(f"metadata key {key!r} contains '='")
        if str(key) != str(key).strip():
            raise ValueError(f"metadata key {key!r} has surrounding whitespace")
        lines.append(line)
    pad = -seq.length % 8
    data = (seq.value << pad).to_bytes((seq.length + pad) // 8, "big")
    for start in range(0, len(data), _BODY_BLOCK):
        chunk = data[start : start + _BODY_BLOCK]
        spread = bytearray(4 * len(chunk))
        for j, table in enumerate(_BIT_PAIRS):
            spread[j::4] = chunk.translate(table)
        lines.append(spread.hex("\n", -(_BODY_WIDTH // 2)))
    del data  # before the final join, which is the peak
    if pad:
        lines[-1] = lines[-1][:-pad]
    lines.append("")  # the closing newline, without a '+ "\n"' copy of the text
    return "\n".join(lines)


def parse_sequence(text: str) -> BitSequence:
    """Parse the text format back into a BitSequence.

    Raises ValueError naming the offending line for any body character other
    than '0' or '1'.
    """
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    digits = "".join([line for line in lines if not line.startswith("#")])
    if digits.count("0") + digits.count("1") != len(digits):
        # name the first offending line; comment lines count in the numbering
        for lineno, line in enumerate(lines, start=1):
            if not line.startswith("#") and (bad := line.lstrip("01")):
                raise ValueError(f"line {lineno}: invalid character {bad[0]!r} in sequence body")
    if not digits:
        raise ValueError("no sequence data found")
    metadata: dict[str, str] = {}
    for line in comments:
        key, eq, value = line[1:].partition("=")
        if eq:
            metadata[key.strip()] = value
    label = metadata.get("label")
    if label is None:
        label = " ".join(f"{k}={v}" for k, v in metadata.items())
    return BitSequence(len(digits), int(digits, 2), label=label)
