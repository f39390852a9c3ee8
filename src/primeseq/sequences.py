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

# bytes.translate table mapping a prime-table byte to ASCII: zero to '0', nonzero to '1'
_INDICATOR_TO01 = b"0" + b"1" * 255


class BitSequence(namedtuple("BitSequence", "length value label")):
    """A finite 0/1 sequence packed into ``value``, with a free-form provenance label.

    Position 1 is the most significant of the ``length`` bits, so the binary
    digits of ``value`` padded to ``length`` are the sequence itself.
    """

    __slots__ = ()

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
    _check_modulus(q)
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if length > DEFAULT_SIEVE_LIMIT:
        raise ValueError(f"length {length} exceeds supported maximum {DEFAULT_SIEVE_LIMIT}")
    return BitSequence(length, (1 << length) // q)


def _check_modulus(q: int) -> None:
    # the size cap comes first, so no trial division runs past it
    if q > D_SEQUENCE_MAX_MODULUS:
        raise ValueError(f"modulus {q} exceeds supported maximum {D_SEQUENCE_MAX_MODULUS}")
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ValueError(f"modulus must be an odd prime, got {q}")


def binary_primes_sequence(n: int, shifts: tuple[int, ...]) -> BitSequence:
    """XOR of zero-fill-shifted copies of the prime indicator row over positions 1..n.

    ``shifts`` holds distinct non-negative offsets below n, the unshifted 0
    among them, in any order. Bit k is the GF(2) sum over the offsets of "is
    k - a prime", where terms with k - a < 2 contribute nothing. With the
    single offset 0 this is the raw indicator row itself. The primes up to n
    come from ``sieve_primes(n)``, whose cap bounds n.
    """
    # the offsets are checked before n, so a bad set is reported whatever n is
    if len(set(shifts)) != len(shifts):
        raise ValueError(f"duplicate shift offsets in {shifts}")
    if any(s < 0 for s in shifts):
        raise ValueError(f"shift offsets must be non-negative, got {shifts}")
    if 0 not in shifts:
        raise ValueError("shift set must contain the unshifted offset 0")
    if n < 2:
        raise ValueError(f"sequence length must be >= 2, got {n}")
    if max(shifts) >= n:
        raise ValueError(f"shift {max(shifts)} out of range for length {n}")
    # position 0 is never prime, so its leading '0' leaves the row unchanged
    row = int(sieve_primes(n).is_prime.translate(_INDICATOR_TO01), 2)
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
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n > DEFAULT_SIEVE_LIMIT:
        raise ValueError(f"n {n} exceeds supported maximum {DEFAULT_SIEVE_LIMIT}")
    l = recommended_shift_count(n)
    if seed is not None:
        return (0, *sorted(random.Random(seed).sample(range(1, n), l)))
    return tuple((2 * i * n + l + 1) // (2 * (l + 1)) for i in range(l + 1))


# --- sequence text format -------------------------------------------------
#
# Optional leading '#' comment lines carry key=value metadata; the body is
# ASCII '0'/'1' with newlines ignored.

_BODY_WIDTH = 64
# symbols per body block: 1024 lines are sliced and joined at a time, so no
# list of every line exists at once
_BODY_BLOCK = 1024 * _BODY_WIDTH


def format_sequence(seq: BitSequence, metadata: dict[str, object] | None = None) -> str:
    """Render a sequence in the text format, preserving the label as metadata.

    Raises ValueError for a metadata key or value (the label included) that
    holds a line break, since it would spill into the body on parsing. The
    body is joined per 1024-line block, so the peak is about two copies of
    the text: the blocks and the returned string, near 2.2 bytes per bit.
    """
    lines = []
    metadata = dict(metadata or {})
    if seq.label and "label" not in metadata:
        metadata["label"] = seq.label
    for key, value in metadata.items():
        line = f"# {key}={value}"
        if line.splitlines() != [line]:
            raise ValueError(f"metadata {key!r} contains a line break")
        lines.append(line)
    body = seq.to01()
    for start in range(0, len(body), _BODY_BLOCK):
        block = body[start : start + _BODY_BLOCK]
        lines.append("\n".join([block[i : i + _BODY_WIDTH] for i in range(0, len(block), _BODY_WIDTH)]))
    del body
    lines.append("")  # the closing newline, without a '+ "\n"' copy of the text
    return "\n".join(lines)


def parse_sequence(text: str) -> BitSequence:
    """Parse the text format back into a BitSequence.

    Raises ValueError naming the offending line for any body character other
    than '0' or '1'.
    """
    body: list[str] = []
    metadata: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            comment = line[1:].strip()
            if "=" in comment:
                key, _, value = comment.partition("=")
                metadata[key.strip()] = value
            continue
        bad = line.lstrip("01")
        if bad:
            raise ValueError(f"line {lineno}: invalid character {bad[0]!r} in sequence body")
        body.append(line)
    digits = "".join(body)
    if not digits:
        raise ValueError("no sequence data found")
    label = metadata.get("label")
    if label is None:
        label = " ".join(f"{k}={v}" for k, v in metadata.items())
    return BitSequence(len(digits), int(digits, 2), label=label)
