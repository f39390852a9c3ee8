"""Command-line surface: generate, analyze, harden, count and reproduce.

The CLI only parses, dispatches and prints: every size limit and every JSON
payload comes from the library function that owns it.

Exit codes: 0 success, 2 usage error, 3 domain error (bad modulus, bad
shifts, malformed sequence file, a size the library refuses), 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .adversary import DEFAULT_L_MAX, brute_force_attack, estimate_search_space
from .analysis import DEFAULT_CONVENTION, MAPPINGS, NORMALIZATIONS, CorrelationConvention, analyze
from .reproduce import TARGET_IDS, make_target, run_target, write_correlation_csv
from .sequences import (
    binary_primes_sequence,
    d_sequence,
    format_sequence,
    harden,
    parse_sequence,
    select_shifts,
)

EXIT_OK = 0
EXIT_DOMAIN = 3
EXIT_IO = 4


def _shifts(n: int, text: str | None, seed: int | None) -> tuple[int, ...]:
    # explicit offsets, 0 prepended, checked only by binary_primes_sequence;
    # otherwise select_shifts' recommended-count set, random when seeded
    if text is None:
        return select_shifts(n, seed)
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"shifts must be comma-separated integers, got {text!r}")
    return values if 0 in values else (0, *values)


def _cmd_gen(args: argparse.Namespace) -> None:
    # an option the kind would ignore is refused before any sequence is built
    for option in {"bps": ("q",), "dseq": ("shifts", "seed"), "hardened": ()}[args.kind]:
        if getattr(args, option) is not None:
            raise ValueError(f"gen {args.kind} takes no --{option}")
    if args.shifts is not None and args.seed is not None:
        raise ValueError(f"gen {args.kind} takes no --seed with --shifts")
    if args.kind == "bps":
        if args.n is None:
            raise ValueError("gen bps requires --n")
        shifts = _shifts(args.n, args.shifts, args.seed)
        seq = binary_primes_sequence(args.n, shifts)
        meta = {"kind": "bps", "n": args.n}
    else:  # dseq or hardened
        if args.q is None:
            raise ValueError(f"gen {args.kind} requires --q")
        length = args.n if args.n is not None else args.q
        meta = {"kind": args.kind, "q": args.q, "n": length}
        # d_sequence runs first, so a modulus it refuses is reported whatever --shifts holds
        seq = d_sequence(args.q, length)
        if args.kind == "hardened":
            shifts = _shifts(length, args.shifts, args.seed)
            seq = harden(seq, binary_primes_sequence(length, shifts))
    if args.kind != "dseq":
        meta["shifts"] = ",".join(map(str, sorted(shifts)))
    meta["label"] = " ".join(f"{k}={v}" for k, v in meta.items())
    text = format_sequence(seq, meta)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


def _cmd_analyze(args: argparse.Namespace) -> None:
    seq = parse_sequence(Path(args.input).read_text())
    conv = CorrelationConvention(args.convention, args.normalize)
    report = analyze(seq, conv)
    print(json.dumps(report.as_dict()))
    if args.out is not None:
        write_correlation_csv(args.out, report.correlation)


def _cmd_reproduce(args: argparse.Namespace) -> None:
    target = make_target(args.fig, args.out)
    summary = run_target(target)
    print(json.dumps(summary))


def _cmd_complexity(args: argparse.Namespace) -> None:
    print(json.dumps(estimate_search_space(args.n, args.l_max)))


def _cmd_attack(args: argparse.Namespace) -> None:
    result = brute_force_attack(parse_sequence(Path(args.input).read_text()), args.l_max)
    print(json.dumps(result.as_dict()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primeseq",
        description="Binary primes sequences, D-sequences, hardened keystreams "
        "and their autocorrelation analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a sequence in the text format")
    p_gen.add_argument("kind", choices=("dseq", "bps", "hardened"))
    p_gen.add_argument("--q", type=int, help="odd prime modulus for dseq/hardened")
    p_gen.add_argument("--n", "--len", type=int,
                       help="sequence length: required for bps, defaults to q for dseq/hardened")
    p_gen.add_argument(
        "--shifts",
        help="comma-separated shift offsets; the unshifted 0 is prepended "
        "implicitly when not listed. Without --shifts, a recommended-count "
        "set is chosen: evenly spaced, or uniform random when --seed is given",
    )
    p_gen.add_argument("--seed", type=int, help="seed for random shift selection")
    p_gen.add_argument("--out", help="output file (default stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    p_an = sub.add_parser("analyze", help="report randomness and off-peak statistics")
    p_an.add_argument("input", help="sequence file in the text format")
    p_an.add_argument("--convention", choices=sorted(MAPPINGS), default=DEFAULT_CONVENTION.mapping)
    p_an.add_argument("--normalize", choices=NORMALIZATIONS, default=DEFAULT_CONVENTION.normalization)
    p_an.add_argument("--out", help="also write the lag,c CSV here")
    p_an.set_defaults(func=_cmd_analyze)

    p_rep = sub.add_parser("reproduce", help="regenerate a published table or figure trace")
    p_rep.add_argument("--fig", choices=TARGET_IDS, required=True)
    p_rep.add_argument("--out", help="output CSV path (default <id>.csv)")
    p_rep.set_defaults(func=_cmd_reproduce)

    p_cx = sub.add_parser("complexity", help="attacker search-space figures")
    p_cx.add_argument("--n", type=int, required=True)
    p_cx.add_argument("--l-max", type=int, default=DEFAULT_L_MAX, dest="l_max")
    p_cx.set_defaults(func=_cmd_complexity)

    p_at = sub.add_parser("attack", help="toy brute-force key search on a short sequence")
    p_at.add_argument("input", help="observed sequence file in the text format")
    p_at.add_argument("--l-max", type=int, default=1, dest="l_max")
    p_at.set_defaults(func=_cmd_attack)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
