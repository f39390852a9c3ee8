"""primeseq benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload corr_large --seed 1 --seconds 20 --trace 0

One client in one process runs the workload's operations back to back, each
a call of the public entry ``primeseq.cli.main(argv)`` with stdout captured,
so argument parsing, file I/O and JSON output are paid as a user pays them.
Whole cycles of operations run until --seconds of operation time has passed.
Every output is checked; a failed check or error counts as a failed
operation.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json. --trace 1
runs a fixed list of whole cycles twice, untraced and then with spans around
every public function of each package module, and reports the per-layer
metrics and the tracing overhead. The last line of stdout is the result
object; the line before it stamps the run. Both, and the spans of a traced
run, are also written under .bench_work/results/.

The package is imported from src/ of the checkout; without it the run stops
with exit code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import REPRODUCE_TARGETS, WORKLOADS, Call, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 21
# A fresh interpreter (-I ignores the environment) times its own import and parser build.
_SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import primeseq.cli\n"
    "primeseq.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    ok_bits: int = 0
    cycles: int = 0
    first_failure: str | None = None


def setup_once() -> float:
    """Seconds a fresh process takes to import primeseq.cli and build its parser."""
    done = subprocess.run([sys.executable, "-I", "-c", _SETUP_PROBE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def import_cli():
    sys.path.insert(0, str(SRC))
    import primeseq.cli

    if not Path(primeseq.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: primeseq was imported from {primeseq.cli.__file__}, not {SRC}")
    return primeseq.cli


def run_op(cli, op: Op) -> tuple[float, list[Call]]:
    """Run the operation's CLI calls in-process; return their total wall time and output."""
    elapsed, calls = 0.0, []
    for argv in op.calls:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the operation fails; the loop goes on
            rc = f"raised {exc!r}"
        elapsed += perf_counter() - t0
        calls.append(Call(rc, out.getvalue(), err.getvalue()))
    return elapsed, calls


def run_cycles(workload: Workload, cli, tally: Tally, cycles, after_op=None) -> None:
    """Run each cycle of ops in turn, timing every op and checking its output.

    ``after_op(workload, op, calls)`` runs untimed between an op and its check.
    The self-test uses it to corrupt outputs before they are checked.
    """
    for ops in cycles:
        for op in ops:
            elapsed, calls = run_op(cli, op)
            tally.latencies.append(elapsed)
            tally.busy_s += elapsed
            tally.attempted += 1
            if after_op is not None:
                after_op(workload, op, calls)
            try:
                workload.check(op, calls)
            except Exception as exc:  # malformed output can break a check anywhere
                tally.failed += 1
                if tally.first_failure is None:
                    tally.first_failure = f"{op.calls[0]}: {type(exc).__name__}: {exc}"
            else:
                tally.ok_bits += op.bits
        tally.cycles += 1


def timed_cycles(workload: Workload, tally: Tally, seconds: float):
    """Fresh cycles until ``seconds`` of operation time is spent; a started cycle ends."""
    c = 0
    while c == 0 or tally.busy_s < seconds:
        ops = workload.cycle(c)
        yield ops
        workload.cleanup(ops)
        c += 1


def quantile(sorted_values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the order statistics.

    Each weight is the Beta(p(n+1), (1-p)(n+1)) density at the rank's midpoint.
    The estimate averages the neighbouring ranks, so one operation that ran
    while the machine was busy moves it less than it moves a single order
    statistic.
    """
    n = len(sorted_values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n) for i in range(n)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return math.fsum(w * v for w, v in zip(weights, sorted_values)) / math.fsum(weights)


def end_to_end(tally: Tally, setup: list[float], tail_percentile: float) -> tuple[dict[str, float], dict[str, object]]:
    lat = sorted(tally.latencies)
    n = len(lat)
    rank = max(1, math.ceil(tail_percentile / 100 * n))  # nearest rank, for the count beyond it
    ok = tally.attempted - tally.failed
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ok / tally.busy_s,
        "bits_per_s": tally.ok_bits / tally.busy_s,
        "latency_p50_s": quantile(lat, 0.5),
        "latency_tail_s": quantile(lat, tail_percentile / 100),
        "ok_fraction": ok / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "samples": {"setup_s": len(setup), "ops_per_s": n, "bits_per_s": n, "latency_p50_s": n,
                    "latency_tail_s": n, "ok_fraction": tally.attempted, "peak_rss_mb": 1},
        "latency_tail_percentile": tail_percentile,
        "latency_tail_samples_beyond": n - rank,
        "failed_fraction": tally.failed / tally.attempted,
    }
    return values, notes


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "primeseq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "primeseq" / "cli.py").is_file():
        print(f"error: no primeseq package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    setup: list[float] = []
    if not args.trace:
        setup_once()  # may compile bytecode, so it is not a sample
    cli = import_cli()
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir.mkdir()
    os.chdir(workdir)  # relative paths keep the reproduce summaries byte-identical
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally()
        if args.trace:
            spans = results / f"spans-{args.workload}-seed{args.seed}.jsonl"
            values, notes = traced_run(workload, cli, tally, args.seconds, spans)
        else:
            def sample_setup(*_) -> None:
                # spread the samples over the run, so they meet the machine the ops meet
                while len(setup) < SETUP_SAMPLES * min(1.0, tally.busy_s / args.seconds):
                    setup.append(setup_once())

            run_cycles(workload, cli, tally, timed_cycles(workload, tally, args.seconds), sample_setup)
            while len(setup) < SETUP_SAMPLES:
                setup.append(setup_once())
            values, notes = end_to_end(tally, setup, workload.tail_percentile)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 2
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "git_sha": git_sha(), "source_sha256": source_sha256(),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(), "client": "closed loop, 1 client, in-process",
        "cycles": tally.cycles, "measured_s": tally.busy_s, "first_failure": tally.first_failure, **notes,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"stamp": stamp, "result": result}, indent=1) + "\n")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


def traced_run(workload: Workload, cli, tally: Tally, seconds: float, spans_path: Path):
    """Run each op of a fixed list of whole cycles untraced and traced, in alternating order.

    The traced runs go into ``tally``. Pairing every op, and swapping which run
    goes first, keeps warm-up out of the tracing overhead. The list depends on
    the seed and --seconds only, so the work counts repeat exactly.
    """
    count = max(1, round(seconds / 2 / workload.nominal_cycle_s))
    cycles = [workload.cycle(c) for c in range(count)]
    untraced = Tally()
    tracer = Tracer()
    i = 0
    for ops in cycles:
        for op in ops:
            for traced in ((False, True), (True, False))[i % 2]:
                if traced:
                    tracer.install()
                    tracer.op = i
                try:
                    run_cycles(workload, cli, tally if traced else untraced, [[op]])
                finally:
                    tracer.uninstall()
            i += 1
        workload.cleanup(ops)
    tally.cycles = untraced.cycles = len(cycles)
    tracer.write_spans(spans_path)
    values = dict.fromkeys(tracer.metric_names(REPRODUCE_TARGETS), 0.0)
    values.update(tracer.metrics())
    values["trace.overhead_ratio"] = tally.busy_s / untraced.busy_s
    tally.attempted += untraced.attempted
    tally.failed += untraced.failed
    tally.first_failure = tally.first_failure or untraced.first_failure
    notes = {"samples": {"traced_ops": len(tally.latencies), "untraced_ops": untraced.attempted,
                         "spans": len(tracer.spans)},
             "untraced_s": untraced.busy_s, "traced_s": tally.busy_s,
             "tracing_overhead_fraction": tally.busy_s / untraced.busy_s - 1}
    return values, notes


if __name__ == "__main__":
    sys.exit(main())
