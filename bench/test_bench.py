"""Smoke test of the benchmark: every workload and every check at tiny
sizes, with no timing gate.

    python -m pytest bench/test_bench.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("matrix", "abort_scan", "long_scan", "verify_large")


def test_smoke_runs_every_workload_and_check():
    result = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] is True, result.stderr
    # every failed operation is a known fault named in the output
    named = [int(m.group(1)) for m in (re.search(r"^known fault .*: failed (\d+) of", line)
                                       for line in lines) if m]
    assert summary["failed"] == sum(named)
    for workload in WORKLOADS:
        assert f"{workload}.trace_overhead_s" in summary["metrics"]
        assert summary["metrics"][f"{workload}.repcore.density_exceeds_calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run([sys.executable, "bench/run.py", "--workload", "matrix", "--seconds", "1"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert result.returncode != 0
    assert result.stdout == ""
