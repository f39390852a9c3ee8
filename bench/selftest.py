"""Self-test of the benchmark at its smallest sizes, with no timing gate.

    python3 bench/selftest.py

For every workload it runs one small cycle and requires every check to pass.
It then corrupts outputs before they reach each checker and requires every
corrupted operation, and no other, to be counted in failed_fraction. Last, a
traced pass must report every per-layer metric that BENCHMARK.json declares.
Prints one line per case and exits 1 if any case fails.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

from run import ROOT, WORK, Tally, end_to_end, import_cli, run_cycles, traced_run
from workloads import WORKLOADS


def _edit_report(calls, edit) -> bool:
    report = json.loads(calls[0].stdout)
    edit(report)
    calls[0].stdout = json.dumps(report)
    return True


def _rewrite(path, edit) -> bool:
    path.write_text(edit(path.read_text()))
    return True


def _flip_first_body_bit(text: str) -> str:
    lines = text.split("\n")
    i = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[i] = ("1" if lines[i][0] == "0" else "0") + lines[i][1:]
    return "\n".join(lines)


def _drop_planted(report, op) -> None:
    planted = {"q": op.expect["q"], "shifts": op.expect["shifts"], "matched": True}
    report["consistent_hypotheses"] = [h for h in report["consistent_hypotheses"] if h != planted]


def _nonzero_exit(w, op, calls) -> bool:
    calls[0].rc = 3
    return True


# workload -> (case name, tamper(workload, op, calls) -> True when it corrupted the op)
TAMPERS = {
    "corr_large": [
        ("ones_fraction off", lambda w, op, calls: _edit_report(
            calls, lambda r: r.update(ones_fraction=r["ones_fraction"] + 1e-6))),
        ("CSV last lag dropped", lambda w, op, calls: op.expect["csv"] is not None and _rewrite(
            w.workdir / op.expect["csv"], lambda t: t[: t.rstrip("\n").rfind("\n") + 1])),
        ("report max disagrees with CSV", lambda w, op, calls: op.expect["csv"] is not None and _edit_report(
            calls, lambda r: r.update(max_offpeak=r["max_offpeak"] * 1.01))),
    ],
    "keystream_gen": [
        ("first bit flipped", lambda w, op, calls: _rewrite(w.workdir / op.expect["out"], _flip_first_body_bit)),
        ("last line dropped", lambda w, op, calls: _rewrite(
            w.workdir / op.expect["out"], lambda t: t[: t.rstrip("\n").rfind("\n") + 1])),
    ],
    "paper_repro": [
        ("fig6 CSV extended", lambda w, op, calls: _rewrite(w.workdir / "fig6.csv", lambda t: t + "\n")),
        ("table1 summary changed", lambda w, op, calls: _edit_report(calls, lambda r: r.update(rows=0))),
    ],
    "attack_toy": [
        ("hypothesis count off", lambda w, op, calls: _edit_report(
            calls, lambda r: r.update(hypotheses_tested=r["hypotheses_tested"] + 1))),
        ("planted key dropped", lambda w, op, calls: _edit_report(calls, lambda r: _drop_planted(r, op))),
    ],
}
# A traced pass over each workload must count work in these layers.
TRACED_WORK = {
    "corr_large": "analysis.autocorrelation.bit_pairs",
    "keystream_gen": "sequences.d_sequence.bits",
    "paper_repro": "reproduce.run_target.fig6.s",
    "attack_toy": "adversary.hypotheses_tested",
}


def main() -> int:
    cli = import_cli()
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    workdir = WORK / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    failures = 0

    def report(case: str, ok: bool, detail: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {case}: {detail}")

    try:
        for name, cls in WORKLOADS.items():
            for seed in (1, 2):
                w = cls(seed, workdir, small=True)
                ops = w.cycle(0)
                tally = Tally()
                run_cycles(w, cli, tally, [ops])
                report(f"{name} seed {seed} clean", tally.failed == 0 and tally.attempted == len(ops),
                       f"{tally.failed}/{tally.attempted} failed; {tally.first_failure}")
            for case, tamper in TAMPERS[name] + [("nonzero exit code", _nonzero_exit)]:
                touched = []
                tally = Tally()
                run_cycles(w, cli, tally, [ops], lambda w, op, calls: touched.append(bool(tamper(w, op, calls))))
                _, notes = end_to_end(tally, [1.0], w.tail_percentile)
                want = sum(touched) / tally.attempted
                report(f"{name} {case}", sum(touched) > 0 and notes["failed_fraction"] == want,
                       f"failed_fraction {notes['failed_fraction']:.3f}, corrupted {want:.3f}")
            w.cleanup(ops)
            values, _ = traced_run(w, cli, Tally(), 0, workdir / "spans.jsonl")
            missing = [m for m in declared if m not in values]
            counted = values.get(TRACED_WORK[name], 0)
            report(f"{name} traced", not missing and counted > 0,
                   f"{TRACED_WORK[name]} = {counted}; missing {missing}")
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest:", "all passed" if failures == 0 else f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
