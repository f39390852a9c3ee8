"""Seeded inputs and independent output checks for the four benchmark workloads.

Every input is built from the seed by the benchmark's own generator, and every
check recomputes what it needs from first principles: its own sieve,
``pow(2, i, q)``, direct O(n) lag sums and recorded digests. Nothing here
imports primeseq, so a defect in the package cannot hide from its own check.

A workload hands out its operations in cycles. One cycle covers every input
stratum once, and the benchmark runs whole cycles only, so every run weights
the strata alike whatever the seed.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from array import array
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_reproduce.json")

CONVENTIONS = (
    ("bipolar", "by-n"),
    ("bipolar", "by-peak"),
    ("raw01", "by-n"),
    ("raw01", "by-peak"),
)
REPRODUCE_TARGETS = ("table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6")

_BODY_WIDTH = 64
_TO01 = bytes.maketrans(b"\x00\x01", b"01")


class CheckFailed(Exception):
    """An operation's output disagrees with the benchmark's own recomputation."""


@dataclass
class Call:
    """What one in-process CLI call returned and printed."""

    rc: object
    stdout: str
    stderr: str


@dataclass
class Op:
    """One closed-loop operation: one or more CLI calls timed together."""

    calls: list[list[str]]
    bits: int
    expect: dict = field(default_factory=dict)
    files: tuple[str, ...] = ()


# --- the benchmark's own arithmetic ---------------------------------------


def prime_flags(limit: int) -> bytearray:
    """flags[k] == 1 iff k is prime, for 0 <= k <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def shift_count(n: int) -> int:
    """The documented shifter-count rule: (1/2) ln n rounded half up, at least one."""
    return max(1, math.floor(0.5 * math.log(n) + 0.5))


def evenly_spaced_shifts(n: int, l: int) -> tuple[int, ...]:
    """The documented evenly spaced set: round(i*n/(l+1)), probing right past collisions."""
    used = {0}
    for i in range(1, l + 1):
        c = (2 * i * n + l + 1) // (2 * (l + 1))
        while c in used:
            c = c + 1 if c + 1 < n else 1
        used.add(c)
    return tuple(sorted(used))


def hardened_bits(q: int, n: int, shifts: tuple[int, ...], flags: bytearray) -> str:
    """Positions 1..n of D-sequence(q) XOR the zero-filled shifted prime indicator rows."""
    # As an integer, position 1 is the top bit, so a shift right by a positions
    # is a right shift by a bits and zero fill comes for free.
    row = int(flags[1 : n + 1].translate(_TO01), 2)
    acc = 0
    for a in shifts:
        acc ^= row >> a
    d = bytearray(n)
    r = 1
    for i in range(n):
        r = r * 2 % q
        d[i] = 48 + (r & 1)
    return format(acc ^ int(d, 2), f"0{n}b")


def bit_at(i: int, q: int, shifts: tuple[int, ...], flags: bytearray) -> int:
    """Position i of the hardened keystream, from pow(2, i, q) and the prime flags."""
    bit = pow(2, i, q) & 1
    for a in shifts:
        if i - a >= 0:
            bit ^= flags[i - a]
    return bit


def direct_lag_sum(bits: str, k: int, mapping: str) -> int:
    """Cyclic lag-k sum by a direct O(n) pass over the symbols."""
    rotated = bits[k:] + bits[:k]
    if mapping == "bipolar":
        return len(bits) - 2 * sum(map(str.__ne__, bits, rotated))
    return sum(1 for a, b in zip(bits, rotated) if a == b == "1")


def write_sequence(path: Path, bits: str, meta: dict[str, object]) -> str:
    """Write bits in the package's text format and return the label line's value."""
    label = " ".join(f"{k}={v}" for k, v in meta.items())
    lines = [f"# {k}={v}" for k, v in meta.items()] + [f"# label={label}"]
    lines += [bits[i : i + _BODY_WIDTH] for i in range(0, len(bits), _BODY_WIDTH)]
    path.write_text("\n".join(lines) + "\n")
    return label


def read_sequence(path: Path) -> tuple[dict[str, str], str]:
    meta: dict[str, str] = {}
    body: list[str] = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                meta[key.strip()] = value
        else:
            body.append(line)
    bits = "".join(body)
    if bits.strip("01"):
        raise CheckFailed(f"{path.name}: body holds characters other than 0 and 1")
    return meta, bits


def _one_call(calls: list[Call]) -> Call:
    (call,) = calls
    if call.rc != 0:
        raise CheckFailed(f"exit code {call.rc}: {call.stderr.strip()[-300:]}")
    return call


def _log_grid(lo_exp: float, hi_exp: float, points: int) -> list[float]:
    return [10 ** (lo_exp + (hi_exp - lo_exp) * k / (points - 1)) for k in range(points)]


def _spread(ops: list[Op]) -> list[Op]:
    """Reorder ops by bit-reversed index, so that neighbours in size run far apart in time.

    The ops near any latency percentile then sample the machine at several
    moments of the run rather than one.
    """
    width = max(1, (len(ops) - 1).bit_length())
    return [ops[i] for i in sorted(range(len(ops)), key=lambda i: format(i, f"0{width}b")[::-1])]


def _prime_at_or_below(target: int, flags: bytearray, used: set[int]) -> int:
    p = target
    while not flags[p] or p in used:
        p -= 1
    used.add(p)
    return p


# --- workloads ------------------------------------------------------------


class Workload:
    """Seeded operations, handed out one cycle at a time, and their checks."""

    name = ""
    # seconds one cycle takes at the benchmark's defining commit; sizes the traced run
    nominal_cycle_s = 1.0
    # The highest of the percentiles 50, 65, 75, 90, 99 and 99.9 that leaves at
    # least ten operations above it in a run at the defining commit. It stays
    # fixed, so a faster commit, running more operations, is not measured
    # deeper in its tail.
    tail_percentile = 50.0

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir

    def cycle(self, c: int) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, calls: list[Call]) -> None:
        raise NotImplementedError

    def cleanup(self, ops: list[Op]) -> None:
        for op in ops:
            for name in op.files:
                (self.workdir / name).unlink(missing_ok=True)


class CorrLarge(Workload):
    """`analyze` on hardened keystreams of prime length, log-spaced over 10^4..10^5."""

    name = "corr_large"
    nominal_cycle_s = 12.4
    tail_percentile = 65.0  # 32 operations
    POINTS = 16

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        super().__init__(seed, workdir, small)
        self.lo, self.hi = (2.0, 2.5) if small else (4.0, 5.0)
        self.flags = prime_flags(int(10**self.hi))
        self.used: set[int] = set()

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for k, size in enumerate(_log_grid(self.lo, self.hi, self.POINTS)):
            n = _prime_at_or_below(int(size * (1 - 0.02 * self.rng.random())), self.flags, self.used)
            shifts = (0, *sorted(self.rng.sample(range(1, n), shift_count(n))))
            bits = hardened_bits(n, n, shifts, self.flags)
            seq_file = f"corr-{c}-{k}.txt"
            label = write_sequence(
                self.workdir / seq_file, bits,
                {"kind": "hardened", "q": n, "n": n, "shifts": ",".join(map(str, shifts))},
            )
            # every other point writes the CSV, so each cycle has the same mix
            # whatever the number of cycles; the conventions rotate by cycle
            mapping, norm = CONVENTIONS[(k // 2 + c) % 4]
            argv = ["analyze", seq_file, "--convention", mapping, "--normalize", norm]
            csv_file = f"corr-{c}-{k}.csv" if k % 2 else None
            if csv_file:
                argv += ["--out", csv_file]
            expect = {"bits": bits, "label": label, "mapping": mapping, "norm": norm,
                      "csv": csv_file, "lags": self.rng.sample(range(1, n), 3)}
            ops.append(Op([argv], n, expect, (seq_file,) + ((csv_file,) if csv_file else ())))
        return _spread(ops)

    def check(self, op: Op, calls: list[Call]) -> None:
        report = json.loads(_one_call(calls).stdout)
        e = op.expect
        bits, mapping, norm = e["bits"], e["mapping"], e["norm"]
        n, w = len(bits), bits.count("1")
        if report["ones_fraction"] != w / n:
            raise CheckFailed(f"ones_fraction {report['ones_fraction']} != {w}/{n}")
        if report["convention"] != {"mapping": mapping, "normalization": norm}:
            raise CheckFailed(f"convention echoed as {report['convention']}")
        if report["sequence_label"] != e["label"]:
            raise CheckFailed("sequence_label differs from the file's label")
        mx, mean, r = report["max_offpeak"], report["mean_offpeak"], report["randomness"]
        if not 0 <= mean <= mx <= 1:
            raise CheckFailed(f"off-peak statistics out of order: mean {mean}, max {mx}")
        if abs(r - (1 - mean)) > 1e-12:
            raise CheckFailed(f"randomness {r} != 1 - mean off-peak {mean}")
        # exact lag-0 sum, and the divisor that turns lag sums into printed values
        peak = n if mapping == "bipolar" else w
        denom = n if norm == "by-n" else peak
        direct = {k: direct_lag_sum(bits, k, mapping) for k in e["lags"]}
        for k, s in direct.items():
            if abs(s) / denom > mx * (1 + 1e-12):
                raise CheckFailed(f"lag {k}: direct |c| {abs(s) / denom} exceeds max_offpeak {mx}")
        if e["csv"] is not None:
            self._check_csv(self.workdir / e["csv"], n, w, peak, denom, mapping, direct, mx, mean)

    @staticmethod
    def _check_csv(path, n, w, peak, denom, mapping, direct, mx, mean) -> None:
        sums = array("q")
        with open(path) as fh:
            if fh.readline() != "lag,c\n":
                raise CheckFailed("CSV header is not 'lag,c'")
            for lag, line in enumerate(fh):
                lag_text, _, c_text = line.rstrip("\n").partition(",")
                if int(lag_text) != lag:
                    raise CheckFailed(f"CSV row {lag} is labelled lag {lag_text}")
                x = float(c_text) * denom
                s = round(x)
                if abs(x - s) > 1e-3:
                    raise CheckFailed(f"lag {lag}: c*{denom} = {x} is not an integer lag sum")
                sums.append(s)
        if len(sums) != n:
            raise CheckFailed(f"CSV has {len(sums)} lags, expected {n}")
        if sums[0] != peak:
            raise CheckFailed(f"lag-0 sum {sums[0]} != {peak}")
        total = (n - 2 * w) ** 2 if mapping == "bipolar" else w * w
        if sum(sums) != total:
            raise CheckFailed(f"lag sums add to {sum(sums)}, expected {total}")
        if any(sums[k] != sums[n - k] for k in range(1, n)):
            raise CheckFailed("c(k) != c(n-k)")
        for k, s in direct.items():
            if sums[k] != s:
                raise CheckFailed(f"lag {k}: CSV sum {sums[k]} != direct sum {s}")
        csv_max = max(abs(s) for s in sums[1:]) / denom
        csv_mean = math.fsum(abs(s) for s in sums[1:]) / denom / (n - 1)
        if abs(csv_max - mx) > 1e-9 or abs(csv_mean - mean) > 1e-9:
            raise CheckFailed(f"CSV gives max {csv_max}, mean {csv_mean}; report {mx}, {mean}")


class KeystreamGen(Workload):
    """`gen hardened --q p --out f` on distinct primes p log-spaced over 10^5..10^6."""

    name = "keystream_gen"
    nominal_cycle_s = 7.0
    tail_percentile = 75.0  # 48 or 64 operations
    POINTS = 8
    SAMPLES = 256

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        super().__init__(seed, workdir, small)
        self.lo, self.hi = (3.0, 3.5) if small else (5.0, 6.0)
        self.flags = prime_flags(int(10**self.hi))
        self.used: set[int] = set()

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for k, size in enumerate(_log_grid(self.lo, self.hi, self.POINTS)):
            for seeded in (False, True):
                q = _prime_at_or_below(int(size * (1 - 0.02 * self.rng.random())), self.flags, self.used)
                out = f"gen-{c}-{k}-{int(seeded)}.txt"
                argv = ["gen", "hardened", "--q", str(q), "--out", out]
                l = shift_count(q)
                if seeded:
                    shift_seed = self.rng.randrange(2**31)
                    argv += ["--seed", str(shift_seed)]
                    shifts = (0, *sorted(random.Random(shift_seed).sample(range(1, q), l)))
                else:
                    shifts = evenly_spaced_shifts(q, l)
                # the ends and where each shifted row's zero fill stops, plus seeded positions
                edges = {1, 2, 3, q - 1, q} | {a + d for a in shifts for d in (1, 2, 3) if a + d <= q}
                positions = sorted(edges | set(self.rng.sample(range(1, q + 1), self.SAMPLES)))
                ops.append(Op([argv], q, {"q": q, "shifts": shifts, "out": out,
                                          "positions": positions}, (out,)))
        return _spread(ops)

    def check(self, op: Op, calls: list[Call]) -> None:
        _one_call(calls)
        e = op.expect
        q, shifts = e["q"], e["shifts"]
        meta, bits = read_sequence(self.workdir / e["out"])
        want = {"kind": "hardened", "q": str(q), "n": str(q), "shifts": ",".join(map(str, shifts))}
        for key, value in want.items():
            if meta.get(key) != value:
                raise CheckFailed(f"metadata {key}={meta.get(key)!r}, expected {value!r}")
        if len(bits) != q:
            raise CheckFailed(f"file holds {len(bits)} bits, expected {q}")
        for i in e["positions"]:
            if int(bits[i - 1]) != bit_at(i, q, shifts, self.flags):
                raise CheckFailed(f"bit {i} of q={q} differs from pow(2,i,q)&1 XOR prime parity")


class PaperRepro(Workload):
    """All eight `reproduce` targets in fixed order, checked against recorded digests."""

    name = "paper_repro"
    nominal_cycle_s = 0.1
    tail_percentile = 90.0  # about 180 operations

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        super().__init__(seed, workdir, small)
        self.golden = json.loads(GOLDEN_PATH.read_text())["targets"]
        self.bits = self.sequence_bits()

    @staticmethod
    def sequence_bits() -> int:
        """Total length of the sequences one pass builds, from the targets' fixed parameters."""
        flags = prime_flags(650)
        fig6 = sum(3 * p for p in range(40, 651) if flags[p])  # bps, D-sequence, hardened
        tables = 3 * 10 + 4 * 10  # the shifted rows and their sum
        fig2, fig3 = 997, 53 + 101 + 199 + 401 + 797 + 997 + 199
        fig4, fig5 = 3 * 199, 3 * 997
        return tables + fig2 + fig3 + fig4 + fig5 + fig6

    def cycle(self, c: int) -> list[Op]:
        calls = [["reproduce", "--fig", t, "--out", f"{t}.csv"] for t in REPRODUCE_TARGETS]
        return [Op(calls, self.bits, {}, tuple(f"{t}.csv" for t in REPRODUCE_TARGETS))]

    def check(self, op: Op, calls: list[Call]) -> None:
        for target, call in zip(REPRODUCE_TARGETS, calls):
            _one_call([call])
            want = self.golden[target]
            if hashlib.sha256(call.stdout.encode()).hexdigest() != want["stdout_sha256"]:
                raise CheckFailed(f"{target}: JSON summary differs from the recorded digest")
            data = (self.workdir / f"{target}.csv").read_bytes()
            if hashlib.sha256(data).hexdigest() != want["csv_sha256"]:
                raise CheckFailed(f"{target}: CSV differs from the recorded digest")


class AttackToy(Workload):
    """`attack --l-max L` on planted instances, n in 16..24 and L in 1..3."""

    name = "attack_toy"
    nominal_cycle_s = 0.1
    tail_percentile = 99.0  # about 6000 operations

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        super().__init__(seed, workdir, small)
        self.lengths = range(16, 18) if small else range(16, 25)
        self.l_maxes = range(1, 3) if small else range(1, 4)
        self.flags = prime_flags(200)

    def candidates(self, n: int) -> list[int]:
        """The attack's moduli: pi(n) primes, starting at the first prime >= n."""
        want = sum(self.flags[: n + 1])
        return [q for q in range(n, len(self.flags)) if self.flags[q]][:want]

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for n in self.lengths:
            for l_max in self.l_maxes:
                q = self.rng.choice(self.candidates(n))
                added = sorted(self.rng.sample(range(1, n), self.rng.randint(1, l_max)))
                shifts = (0, *added)
                bits = hardened_bits(q, n, shifts, self.flags)
                name = f"attack-{c}-{n}-{l_max}.txt"
                write_sequence(self.workdir / name, bits,
                               {"kind": "hardened", "q": q, "n": n, "shifts": ",".join(map(str, shifts))})
                ops.append(Op([["attack", name, "--l-max", str(l_max)]], n,
                              {"bits": bits, "q": q, "shifts": list(shifts), "l_max": l_max}, (name,)))
        return ops

    def check(self, op: Op, calls: list[Call]) -> None:
        report = json.loads(_one_call(calls).stdout)
        e = op.expect
        bits, l_max = e["bits"], e["l_max"]
        n = len(bits)
        tested = sum(self.flags[: n + 1]) * sum(math.comb(n - 1, l) for l in range(1, l_max + 1))
        if report["hypotheses_tested"] != tested:
            raise CheckFailed(f"hypotheses_tested {report['hypotheses_tested']} != pi(n)*sum C = {tested}")
        hypotheses = report["consistent_hypotheses"]
        if {"q": e["q"], "shifts": e["shifts"], "matched": True} not in hypotheses:
            raise CheckFailed(f"planted q={e['q']} shifts={e['shifts']} not among the consistent hypotheses")
        for h in hypotheses:
            shifts = tuple(h["shifts"])
            if (h["matched"] is not True or shifts[0] != 0 or len(shifts) - 1 > l_max
                    or hardened_bits(h["q"], n, shifts, self.flags) != bits):
                raise CheckFailed(f"hypothesis {h} does not regenerate the observed sequence")


WORKLOADS = {w.name: w for w in (CorrLarge, KeystreamGen, PaperRepro, AttackToy)}
