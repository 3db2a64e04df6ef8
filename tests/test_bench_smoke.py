"""Short runs of each of the benchmark's workloads, so the script cannot rot.
`failed == 0` on `corpus` also guards the lom provenance fix: with provenance
keyed by rendered text, its probe seeds fail."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["roundtrip", "correct", "corpus"])
def test_bench_workload_runs_clean(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
