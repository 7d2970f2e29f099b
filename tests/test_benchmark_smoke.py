"""Smoke test of the benchmark in ``benchmarks/``: each workload runs at
tiny scale on a copy of this checkout and must report a correct result
with no failed operations, so a change under ``src/`` that breaks the
benchmark (its tracer wraps every public function) fails here."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, trace", [("toy-dual-train", 1), ("mid-basic-train", 0)])
def test_tiny_run_is_correct(tmp_path, workload, trace):
    # The copy keeps the run's reports out of the working tree.
    for part in ("src", "benchmarks"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "bench.py"), "--workload", workload,
         "--scale", "tiny", "--seconds", "1", "--seed", "1", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
