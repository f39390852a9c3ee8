"""Smoke test of the benchmark harness: its self-test must pass at the smallest sizes."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    # covers every workload's output checks and the golden reproduce digests
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: all passed" in proc.stdout
