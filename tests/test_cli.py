import csv
import hashlib
import json
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import primeseq
from primeseq import (
    BitSequence,
    CorrelationConvention,
    CorrelationSeries,
    DEFAULT_CONVENTION,
    all_conventions,
    autocorrelation,
    binary_primes_sequence,
    brute_force_attack,
    d_sequence,
    estimate_search_space,
    exact_hypothesis_count,
    format_sequence,
    harden,
    off_peak_stats,
    parse_sequence,
    primes,
    reproduce,
    select_shifts,
)
from primeseq.analysis import ANALYSIS_MAX_LENGTH
from primeseq.cli import main
from primeseq.reproduce import _CSV_BLOCK

from conftest import oracle_d_bits


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sieve_limits(monkeypatch):
    """Record the limit of every sieve_primes call, under every name the package binds it to."""
    limits = []
    real = primes.sieve_primes

    def recording(limit):
        limits.append(limit)
        return real(limit)

    for name, module in list(sys.modules.items()):
        if name == "primeseq" or name.startswith("primeseq."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, recording)
    return limits


# --- gen -----------------------------------------------------------------------

def test_gen_dseq_body(capsys):
    code, out, err = run_cli(capsys, "gen", "dseq", "--q", "13", "--len", "12")
    assert code == 0 and err == ""
    assert "000100111011" in out.splitlines()
    assert out.startswith("# kind=dseq")


@pytest.mark.parametrize(
    "shifts, body",
    [("0,1", "0101111100"), ("0", "0110101000"), ("1", "0101111100")],
)
def test_gen_bps_bodies(capsys, shifts, body):
    # "--shifts 1" exercises the implicit prepend of the unshifted offset
    code, out, err = run_cli(capsys, "gen", "bps", "--n", "10", "--shifts", shifts)
    assert code == 0
    assert body in out.splitlines()


def test_gen_writes_file_and_reparses(tmp_path, capsys):
    out_path = tmp_path / "seq.txt"
    code, _, _ = run_cli(
        capsys, "gen", "hardened", "--q", "13", "--len", "10", "--shifts", "0,1",
        "--out", str(out_path)
    )
    assert code == 0
    seq = parse_sequence(out_path.read_text())
    assert seq.to01() == "0100110010"
    assert "kind=hardened" in seq.label


def test_gen_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli(capsys, "gen", "bps", "--n", "199", "--shifts", "0,7,11,22", "--out", str(a))
    run_cli(capsys, "gen", "bps", "--n", "199", "--shifts", "0,7,11,22", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_without_shifts_picks_evenly_spaced(capsys):
    # recommended count for n=100 is 2; evenly spaced lands on 33 and 67
    code, out, _ = run_cli(capsys, "gen", "bps", "--n", "100")
    assert code == 0
    assert "# shifts=0,33,67" in out.splitlines()


@pytest.mark.parametrize(
    "head, unsorted, ordered, shown",
    [(("bps", "--n", "10"), "7,0,3", "0,3,7", "# shifts=0,3,7"),
     (("hardened", "--q", "13", "--len", "10"), "3,1", "0,1,3", "# shifts=0,1,3")],
)
def test_gen_shows_shifts_sorted(capsys, head, unsorted, ordered, shown):
    code, out, err = run_cli(capsys, "gen", *head, "--shifts", unsorted)
    assert code == 0 and err == ""
    assert shown in out.splitlines()
    assert run_cli(capsys, "gen", *head, "--shifts", ordered) == (0, out, "")


def test_gen_shift_refusals_echo_the_given_order(capsys):
    code, out, err = run_cli(capsys, "gen", "bps", "--n", "10", "--shifts", "3,1,1")
    assert (code, out, err) == (3, "", "error: duplicate shift offsets in (0, 3, 1, 1)\n")
    code, out, err = run_cli(capsys, "gen", "hardened", "--q", "13", "--len", "10", "--shifts", "4,-2")
    assert (code, out, err) == (3, "", "error: shift offsets must be non-negative, got (0, 4, -2)\n")


def test_gen_seeded_random_shifts_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli(capsys, "gen", "bps", "--n", "100", "--seed", "11", "--out", str(a))
    run_cli(capsys, "gen", "bps", "--n", "100", "--seed", "11", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert "# shifts=0," in a.read_text()


def test_gen_domain_errors(capsys):
    code, _, err = run_cli(capsys, "gen", "dseq", "--q", "9", "--len", "5")
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    code, _, err = run_cli(capsys, "gen", "bps", "--n", "10", "--shifts", "0,10")
    assert code == 3
    code, _, err = run_cli(capsys, "gen", "bps", "--shifts", "0,1")
    assert code == 3
    code, _, err = run_cli(capsys, "gen", "bps", "--n", "10", "--shifts", "0,x")
    assert code == 3
    code, _, err = run_cli(capsys, "gen", "dseq", "--len", "5")
    assert code == 3


@pytest.mark.parametrize("argv, option", [
    (("dseq", "--q", "13", "--shifts", "0,1"), "--shifts"),
    (("dseq", "--q", "13", "--seed", "5"), "--seed"),
    (("bps", "--n", "10", "--q", "13"), "--q"),
    (("bps", "--n", "10", "--shifts", "0,1", "--seed", "5"), "--seed with --shifts"),
    (("hardened", "--q", "13", "--shifts", "0,1", "--seed", "5"), "--seed with --shifts"),
], ids=["dseq-shifts", "dseq-seed", "bps-q", "bps-shifts-seed", "hardened-shifts-seed"])
def test_gen_refuses_options_its_kind_ignores(capsys, sieve_limits, argv, option):
    code, out, err = run_cli(capsys, "gen", *argv)
    assert (code, out, err) == (3, "", f"error: gen {argv[0]} takes no {option}\n")
    assert sieve_limits == []


@pytest.mark.parametrize("kind", ["dseq", "hardened"])
def test_gen_n_and_len_are_one_option(capsys, kind):
    code, out, err = run_cli(capsys, "gen", kind, "--q", "13", "--n", "5")
    assert (code, err) == (0, "")
    assert "# n=5" in out.splitlines()
    assert len(out.splitlines()[-1]) == 5
    assert run_cli(capsys, "gen", kind, "--q", "13", "--len", "5") == (0, out, "")


def test_gen_dseq_length_bound(capsys, sieve_limits):
    # one length rule: every kind and shift mode refuses a length with one
    # line per bound, before any sieve; dseq takes no shift options, and
    # bps and hardened need two positions for their shifted rows
    for kind, q, least, modes in (
        ("bps", (), 2, ((), ("--seed", "1"), ("--shifts", "0"))),
        ("dseq", ("--q", "13"), 1, ((),)),
        ("hardened", ("--q", "13"), 2, ((), ("--seed", "1"), ("--shifts", "0"))),
    ):
        for n, line in ((least - 1, f"length must be >= {least}, got {least - 1}"),
                        (16777217, "length 16777217 exceeds supported maximum 16777216")):
            for mode in modes:
                argv = ("gen", kind, *q, "--n", str(n), *mode)
                assert run_cli(capsys, *argv) == (3, "", f"error: {line}\n"), argv
    assert sieve_limits == []


def test_gen_hardened_reports_the_modulus_before_the_shifts(capsys):
    code, out, err = run_cli(capsys, "gen", "hardened", "--q", "15", "--shifts", "x")
    assert (code, out, err) == (3, "", "error: modulus must be an odd prime, got 15\n")


def test_gen_bps_stdout_is_pinned(capsys):
    code, out, err = run_cli(capsys, "gen", "bps", "--n", "10", "--shifts", "0,1")
    assert (code, err) == (0, "")
    assert out == "# kind=bps\n# n=10\n# shifts=0,1\n# label=kind=bps n=10 shifts=0,1\n0101111100\n"


def test_gen_dseq_modulus_above_sieve_cap(capsys):
    # the CLI takes d_sequence's own 2^40 cap on q, not the sieve's 2^24
    code, out, err = run_cli(capsys, "gen", "dseq", "--q", "16777259", "--len", "64")
    assert code == 0 and err == ""
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert body == ["".join(map(str, oracle_d_bits(16777259, 64)))]


@pytest.mark.parametrize("argv", [
    ("gen", "bps", "--n", "1000000000000000000000", "--seed", "1"),
    ("gen", "hardened", "--q", "13", "--len", "1000000000000000000000", "--seed", "1"),
], ids=["bps", "hardened"])
def test_gen_refuses_oversized_length_before_sieving(capsys, sieve_limits, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert "exceeds supported maximum 16777216" in err
    assert sieve_limits == []


def test_gen_sieves_only_the_bps_length(capsys, sieve_limits):
    # the D-sequence modulus is checked by trial division, never sieved
    code, _, _ = run_cli(capsys, "gen", "dseq", "--q", "16777213", "--len", "1000")
    assert code == 0 and sieve_limits == []
    code, _, _ = run_cli(capsys, "gen", "hardened", "--q", "1009", "--len", "500")
    assert code == 0 and sieve_limits == [500]


def test_gen_peak_memory_is_about_two_copies_of_the_text(tmp_path):
    # the body is joined per 1024-line block, so format_sequence and gen hold
    # about two copies of the text: about 2.2 and 2.4 bytes per bit
    q = 1048573
    seq = harden(d_sequence(q, q), binary_primes_sequence(q, select_shifts(q)))
    out = tmp_path / "hardened.txt"
    # one small call first, so first-call imports and caches stay out of the peak
    assert main(["gen", "hardened", "--q", "13", "--out", str(out)]) == 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        format_sequence(seq, {"kind": "hardened"})
        format_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert main(["gen", "hardened", "--q", str(q), "--out", str(out)]) == 0
        gen_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert format_peak <= 2.5 * q
    assert gen_peak <= 2.5 * q
    parsed = parse_sequence(out.read_text())
    assert (parsed.length, parsed.value) == (seq.length, seq.value)


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "nonsense"])
    assert exc.value.code == 2


# --- analyze ----------------------------------------------------------------------

def test_analyze_round_trip(tmp_path, capsys):
    seq_path = tmp_path / "b199.txt"
    csv_path = tmp_path / "corr.csv"
    run_cli(capsys, "gen", "bps", "--n", "199", "--shifts", "0,7,11,22", "--out", str(seq_path))
    code, out, _ = run_cli(capsys, "analyze", str(seq_path), "--out", str(csv_path))
    assert code == 0
    report = json.loads(out)
    assert report["randomness"] == pytest.approx(0.9259428455408355, abs=1e-12)
    assert report["convention"] == {"mapping": "bipolar", "normalization": "by-n"}
    assert report["sequence_label"].startswith("kind=bps")
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "lag,c"
    assert len(rows) == 200
    assert rows[1] == "0,1"


def test_analyze_all_ones(tmp_path, capsys):
    path = tmp_path / "ones.txt"
    path.write_text("1111111111\n")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["randomness"] == 0.0
    assert report["ones_fraction"] == 1.0


@pytest.mark.parametrize(
    "mapping, normalization", [(c.mapping, c.normalization) for c in all_conventions()]
)
def test_analyze_convention_flags(tmp_path, capsys, mapping, normalization):
    seq_path, csv_path = tmp_path / "seq.txt", tmp_path / "corr.csv"
    run_cli(capsys, "gen", "hardened", "--q", "199", "--shifts", "0,7,11,22", "--out", str(seq_path))
    code, out, _ = run_cli(
        capsys, "analyze", str(seq_path), "--convention", mapping, "--normalize", normalization,
        "--out", str(csv_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["convention"] == {"mapping": mapping, "normalization": normalization}
    series = autocorrelation(
        parse_sequence(seq_path.read_text()), CorrelationConvention(mapping, normalization)
    )
    expected = ["lag,c"] + [f"{lag},{format(v, '.10g')}" for lag, v in enumerate(series.values)]
    assert csv_path.read_text().splitlines() == expected
    assert (report["max_offpeak"], report["mean_offpeak"]) == off_peak_stats(series)


# SHA-256 of `analyze` stdout and of its --out CSV for `gen hardened --q q`
# files: q = 997 runs the popcount lag-sum kernel, q = 10007 the transform
ANALYZE_DIGESTS = {
    (997, "bipolar", "by-n"): (
        "b257e0b6a153a7c56a5e562ac3e412e2cd3839d0e19f71f91bbab2aade9b3e42",
        "26b11f9bc275c6c7fe7a8da9c463ef5635250871196fd1942a5c61421a8c54f4",
    ),
    (997, "bipolar", "by-peak"): (
        "4d6d5e7838068106b19b944fa2df276f298cbfeab426f3ee06ac2718a2501e8d",
        "26b11f9bc275c6c7fe7a8da9c463ef5635250871196fd1942a5c61421a8c54f4",
    ),
    (997, "raw01", "by-n"): (
        "ffc6d4e9bbba9ab276aa0e1395a8f615286ac49d6340f18d804b91743083dde4",
        "0bdb9f34c93439e90eed42441516bd5bae02c1eb4dc8839e0506ee5af0aa91f7",
    ),
    (997, "raw01", "by-peak"): (
        "5be797a136a52a3a7b4d11e78c556fb5948cace23f21941036e89c633a95edbb",
        "091a7efa71b38949cdfd5e1c2eeb5d5714dbae5a75811a53c13d0245c798a797",
    ),
    (10007, "bipolar", "by-n"): (
        "3955b7c527d5471f236bedda7504d5a4864613de66a7c32deb3375971a47d97f",
        "3002b0c46c251340a6f79a0af49e25a5e3a647239984805bb68eb8c7a2cc98d7",
    ),
    (10007, "bipolar", "by-peak"): (
        "8d24399329c978136fb3057fbafe80eb68fef438513b5361151e4798ee74ca93",
        "3002b0c46c251340a6f79a0af49e25a5e3a647239984805bb68eb8c7a2cc98d7",
    ),
    (10007, "raw01", "by-n"): (
        "92ab16b4e3dc648f4c01ced6b15f0f55287dea53d2a3f705fa166e82ff01f0b9",
        "59936982a3a2eca6bd104d2fa78fdc3dc504a8879210b5982896210b7769dbd9",
    ),
    (10007, "raw01", "by-peak"): (
        "e2cc2fb9c55fbdf56ab2b63ddafddd15d837241e9e0fe8887a0574b3aaa78ef9",
        "72cc5778c0f29a57f360ef6da64c361e82be8a748c6c292f5bb4440791b1afcc",
    ),
}


@pytest.mark.parametrize("q, mapping, normalization", list(ANALYZE_DIGESTS))
def test_analyze_output_digests(tmp_path, capsys, q, mapping, normalization):
    seq_path, csv_path = tmp_path / "seq.txt", tmp_path / "corr.csv"
    assert run_cli(capsys, "gen", "hardened", "--q", str(q), "--out", str(seq_path))[0] == 0
    code, out, err = run_cli(
        capsys, "analyze", str(seq_path), "--convention", mapping, "--normalize", normalization,
        "--out", str(csv_path),
    )
    assert code == 0 and err == ""
    digests = (hashlib.sha256(out.encode()).hexdigest(),
               hashlib.sha256(csv_path.read_bytes()).hexdigest())
    assert digests == ANALYZE_DIGESTS[q, mapping, normalization]


def _per_lag_csv(series):
    return ("lag,c\n" + "".join(
        f"{lag},{format(v, '.10g')}\n" for lag, v in enumerate(series.values)
    )).encode()


# the CSV goes out in blocks of _CSV_BLOCK = 1000 lines, whose lag texts
# share the prefix str(start // 1000): each side of the first and second
# block ends, lengths past them, and a short fourth and eleventh block
@pytest.mark.parametrize("n", [2, 3, 10, 199, 997, 999, 1000, 1001, 1024, 1025,
                               1999, 2000, 2001, 3079, 7001, 10007])
def test_correlation_csv_matches_per_lag_reference(tmp_path, n):
    # the low bit keeps the raw01 peak above zero
    seq = BitSequence(n, random.Random(n).getrandbits(n) | 1)
    for conv in all_conventions():
        series = autocorrelation(seq, conv)
        reproduce.write_correlation_csv(tmp_path / "c.csv", series)
        assert (tmp_path / "c.csv").read_bytes() == _per_lag_csv(series)


def test_correlation_csv_keeps_signed_zeros_and_nan(tmp_path):
    # 0.0 == -0.0 and nan != nan, yet each prints as itself; equal values
    # appear both as one object and as separate objects
    nan = float("nan")
    values = (1.0, 0.0, -0.0, nan, 0.25, -0.25, 0.25, -0.0, 0.0, nan, float("nan"),
              -nan, float("0.25"), 1 / 3, 1 / 3, -0.0)
    series = CorrelationSeries(values, DEFAULT_CONVENTION)
    reproduce.write_correlation_csv(tmp_path / "c.csv", series)
    data = (tmp_path / "c.csv").read_bytes()
    assert data == _per_lag_csv(series)
    assert b"\n1,0\n2,-0\n3,nan\n" in data and data.endswith(b"\n15,-0\n")
    # the same values again in every block after the first, which holds no zero
    later = CorrelationSeries((0.5,) * _CSV_BLOCK + values * (_CSV_BLOCK // 8), DEFAULT_CONVENTION)
    reproduce.write_correlation_csv(tmp_path / "c.csv", later)
    data = (tmp_path / "c.csv").read_bytes()
    assert data == _per_lag_csv(later)
    assert f"\n{_CSV_BLOCK + 1},0\n{_CSV_BLOCK + 2},-0\n{_CSV_BLOCK + 3},nan\n".encode() in data


def test_correlation_csv_signed_zeros_and_nan_at_block_edges(tmp_path):
    # zeros of both signs and NaNs on the first and last line of blocks 0, 1
    # and 2; -0.0 comes first, so the shared dict text of the zeros is "-0"
    assert _CSV_BLOCK == 1000
    values = [0.5] * 2500
    for lag, v in ((0, -0.0), (1, 0.0), (998, float("nan")), (999, 0.0), (1000, -0.0),
                   (1001, float("nan")), (1999, -0.0), (2000, 0.0), (2001, -0.0),
                   (2499, float("nan"))):
        values[lag] = v
    series = CorrelationSeries(tuple(values), DEFAULT_CONVENTION)
    reproduce.write_correlation_csv(tmp_path / "c.csv", series)
    data = (tmp_path / "c.csv").read_bytes()
    assert data == _per_lag_csv(series)
    assert data.startswith(b"lag,c\n0,-0\n1,0\n2,0.5\n")
    assert b"\n998,nan\n999,0\n1000,-0\n1001,nan\n1002,0.5\n" in data
    assert b"\n1999,-0\n2000,0\n2001,-0\n2002,0.5\n" in data and data.endswith(b"\n2499,nan\n")


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("# n=8\n0101\n01o1\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 3
    assert "line 3" in err


def test_analyze_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.txt"))
    assert code == 4


def test_analyze_length_bound(tmp_path, capsys):
    path = tmp_path / "long.txt"
    path.write_text("1" + "0" * ANALYSIS_MAX_LENGTH + "\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 3 and out == ""
    assert f"length {ANALYSIS_MAX_LENGTH + 1} exceeds maximum {ANALYSIS_MAX_LENGTH}" in err


def test_analyze_above_former_length_cap(tmp_path, capsys):
    # 2^18 + 3 bits, past the old 2^18 cap and inside 2^20
    q = 262147
    seq_path, csv_path = tmp_path / "seq.txt", tmp_path / "corr.csv"
    assert run_cli(capsys, "gen", "hardened", "--q", str(q), "--out", str(seq_path))[0] == 0
    code, out, err = run_cli(
        capsys, "analyze", str(seq_path), "--convention", "raw01", "--out", str(csv_path)
    )
    assert code == 0 and err == ""
    x = parse_sequence(seq_path.read_text()).value
    m = x.bit_count()
    assert json.loads(out)["ones_fraction"] == m / q
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lag", "c"] and len(rows) == q + 1
    # raw01/by-n writes S_k / n to 10 significant digits, so S_k rounds back exactly
    sums = [round(float(c) * q) for _, c in rows[1:]]
    assert sums[0] == m
    assert sum(sums) == m * m
    assert all(sums[k] == sums[q - k] for k in range(1, q))
    doubled = x | (x << q)
    for k in (1, 2, 1000, q // 2):
        assert sums[k] == (x & (doubled >> k)).bit_count()


# --- complexity / attack ------------------------------------------------------------

def test_complexity_small_n(capsys):
    code, out, _ = run_cli(capsys, "complexity", "--n", "10", "--l-max", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_count"] == 180
    assert payload["log10_paper_formula"] == pytest.approx(5.6797, abs=1e-3)
    assert payload["log10_consistent_formula"] == pytest.approx(1.8503, abs=1e-3)


def test_complexity_default_l_max_is_the_library_s(capsys):
    code, out, err = run_cli(capsys, "complexity", "--n", "10")
    assert (code, out, err) == (0, json.dumps(estimate_search_space(10)) + "\n", "")


def test_complexity_large_n_drops_exact_count(capsys):
    code, out, _ = run_cli(capsys, "complexity", "--n", "1000000")
    payload = json.loads(out)
    assert code == 0
    assert "exact_count" not in payload
    assert payload["log10_paper_formula"] == pytest.approx(434305.04, abs=0.5)


def test_complexity_below_domain(capsys):
    code, _, err = run_cli(capsys, "complexity", "--n", "2")
    assert code == 3


def test_complexity_refuses_n_whose_square_overflows_a_double(capsys):
    # n = 2^511 keeps its output; from just below 2^512, n^2 no longer
    # converts to a float, and the figures are refused instead of crashing
    code, out, _ = run_cli(capsys, "complexity", "--n", str(2**511))
    assert code == 0
    assert out == '{"log10_paper_formula": 2.911468499196366e+153, "log10_consistent_formula": 27396.03021737969}\n'
    for n in (2**512 - 1, 2**512):
        code, out, err = run_cli(capsys, "complexity", "--n", str(n))
        assert code == 3 and out == ""
        assert "exceeds supported maximum" in err


@pytest.mark.parametrize("n", ["10", "1000"])
def test_complexity_refuses_l_max_below_one(capsys, n):
    # one message on both sides of the exact-count cutoff at n = 24
    for l_max in ("0", "-5"):
        code, out, err = run_cli(capsys, "complexity", "--n", n, "--l-max", l_max)
        assert code == 3 and out == ""
        assert err == f"error: l_max must be >= 1, got {l_max}\n"


def test_complexity_clamps_l_max_above_n_minus_one(capsys):
    code, out, _ = run_cli(capsys, "complexity", "--n", "5", "--l-max", "9")
    assert code == 0
    assert out == (
        '{"log10_paper_formula": 3.061708195033197, '
        '"log10_consistent_formula": 0.9604144209883457, "exact_count": 45}\n'
    )


def test_attack_planted_instance(tmp_path, capsys):
    target = tmp_path / "obs.txt"
    run_cli(capsys, "gen", "hardened", "--q", "13", "--len", "10", "--shifts", "0,1",
            "--out", str(target))
    code, out, _ = run_cli(capsys, "attack", str(target), "--l-max", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["hypotheses_tested"] == 36
    assert {"q": 13, "shifts": [0, 1], "matched": True} in payload["consistent_hypotheses"]


def test_attack_rejects_long_sequences(tmp_path, capsys):
    target = tmp_path / "long.txt"
    target.write_text("0" * 30 + "\n")
    code, _, err = run_cli(capsys, "attack", str(target))
    assert code == 3
    assert "n <= 24" in err


def test_attack_checks_size_before_sieving(tmp_path, capsys, sieve_limits):
    target = tmp_path / "long.txt"
    target.write_text("0" * 25 + "\n")
    code, _, err = run_cli(capsys, "attack", str(target))
    assert code == 3 and "n <= 24" in err
    assert sieve_limits == []


def test_attack_sieves_once_to_n(tmp_path, capsys, sieve_limits):
    # the base row is the only sieve; the candidate moduli above n are found
    # by trial division, so no sieve reaches past n
    target = tmp_path / "obs.txt"
    run_cli(capsys, "gen", "hardened", "--q", "23", "--len", "20", "--shifts", "0,3",
            "--out", str(target))
    sieve_limits.clear()
    code, _, _ = run_cli(capsys, "attack", str(target), "--l-max", "2")
    assert code == 0 and sieve_limits == [20]


@pytest.mark.parametrize("n, l_max", [(2, 1), (3, 3), (10, 0), (10, -5)])
def test_adversary_domain_is_checked_once(n, l_max, sieve_limits):
    # the count and the attack share one (n, l_max) check, run before any sieve
    messages = []
    for call in (lambda: exact_hypothesis_count(n, l_max),
                 lambda: brute_force_attack(BitSequence(n, 1), l_max)):
        with pytest.raises(ValueError) as exc:
            call()
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert sieve_limits == []


def test_attack_and_complexity_refuse_l_max_zero(tmp_path, capsys):
    target = tmp_path / "obs.txt"
    target.write_text("0" * 10 + "\n")
    # attack enforces the shift-set count's 1..n-1 rule; complexity clamps
    # l_max above n - 1, so it refuses only below 1
    for argv, line in ((("attack", str(target), "--l-max", "0"), "l_max must be in 1..9, got 0"),
                       (("complexity", "--n", "10", "--l-max", "0"), "l_max must be >= 1, got 0")):
        assert run_cli(capsys, *argv) == (3, "", f"error: {line}\n")


# --- reproduce ------------------------------------------------------------------------

def test_reproduce_table1(tmp_path, capsys):
    out_path = tmp_path / "table1.csv"
    code, out, _ = run_cli(capsys, "reproduce", "--fig", "table1", "--out", str(out_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["rows_matching_published"] == 3
    assert summary["mismatches"] == []
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["computed_bits"] for r in rows] == ["0110101000", "0011010100", "0101111100"]
    assert [r["computed_ones"] for r in rows] == ["4", "4", "6"]
    assert all(r["match_paper"] == "True" for r in rows)


def test_reproduce_table2_flags_single_mismatch(tmp_path, capsys):
    out_path = tmp_path / "table2.csv"
    code, out, _ = run_cli(capsys, "reproduce", "--fig", "table2", "--out", str(out_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["rows_matching_published"] == 3
    assert len(summary["mismatches"]) == 1
    mismatch = summary["mismatches"][0]
    assert mismatch["row"] == "sum"
    assert mismatch["positions"] == [9]
    assert mismatch["computed_ones"] == 4
    assert mismatch["published_ones"] == 3


@pytest.mark.parametrize("fig, header", [
    ("fig1", "n,l"),
    ("fig2", "lag,c"),
    ("fig3", "n,randomness"),
    ("fig4", "lag,c"),
    ("fig5", "lag,c"),
    ("fig6", "prime,mean_offpeak_b,mean_offpeak_p,shifts"),
])
def test_reproduce_figures_emit_csv(tmp_path, capsys, fig, header):
    out_path = tmp_path / f"{fig}.csv"
    code, out, _ = run_cli(capsys, "reproduce", "--fig", fig, "--out", str(out_path))
    assert code == 0
    assert json.loads(out)["target"] == fig
    assert out_path.read_text().splitlines()[0] == header


def test_reproduce_fig3_records_all_conventions(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--fig", "fig3",
                           "--out", str(tmp_path / "fig3.csv"))
    summary = json.loads(out)
    assert summary["reference_randomness"] == 0.9949
    assert len(summary["randomness_199_by_convention"]) == 4
    assert all("delta_to_reference" in rec for rec in summary["randomness_199_by_convention"])


def test_reproduce_fig2_reports_offpeak_deltas(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--fig", "fig2",
                           "--out", str(tmp_path / "fig2.csv"))
    summary = json.loads(out)
    assert summary["reference_offpeak"] == 0.3133
    assert len(summary["offpeak_by_convention"]) == 4


@pytest.mark.parametrize(
    "prime_range, first, last",
    [
        pytest.param((40, 650), 41, 647, id="40-650"),
        # the last hardened mean (0.0610) is above the first (0.0545), yet the
        # least-squares slope over all 73 primes is negative
        pytest.param((160, 601), 163, 601, id="160-601"),
    ],
)
def test_reproduce_fig6_trend(tmp_path, capsys, monkeypatch, prime_range, first, last):
    monkeypatch.setattr(reproduce, "FIG6_PRIME_RANGE", prime_range)
    code, out, _ = run_cli(capsys, "reproduce", "--fig", "fig6",
                           "--out", str(tmp_path / "fig6.csv"))
    summary = json.loads(out)
    assert summary["first_prime"] == first
    assert summary["last_prime"] == last
    assert summary["trend"] == "off-peak decreases with p"


GOLDEN_REPRODUCE = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden_reproduce.json").read_text()
)["targets"]


@pytest.mark.parametrize("target", reproduce.TARGET_IDS)
def test_reproduce_matches_golden_digests(tmp_path, capsys, monkeypatch, target):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "reproduce", "--fig", target, "--out", f"{target}.csv")
    assert (code, err) == (0, "")
    digests = {"csv_sha256": hashlib.sha256((tmp_path / f"{target}.csv").read_bytes()).hexdigest(),
               "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
    assert digests == GOLDEN_REPRODUCE[target]
    keys = list(json.loads(out))
    assert (keys[0], keys[-1]) == ("target", "output")


def test_reproduce_unwritable_output(tmp_path, capsys):
    code, _, err = run_cli(capsys, "reproduce", "--fig", "table1",
                           "--out", str(tmp_path / "missing" / "t.csv"))
    assert code == 4


def test_reproduce_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "reproduce", "--fig", "fig3", "--out", str(a))
    run_cli(capsys, "reproduce", "--fig", "fig3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "primeseq", "complexity", "--n", "10"],
        capture_output=True, text=True,
        # `-m` puts the working directory first on sys.path, so the child
        # imports the same package as the tests, installed or not
        cwd=Path(primeseq.__file__).parents[1],
    )
    assert proc.returncode == 0
    assert "log10_paper_formula" in proc.stdout
