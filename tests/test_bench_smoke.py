"""Short runs of each of the benchmark's workloads, so the script cannot rot.
`failed == 0` on `corpus` also guards the lom provenance fix: with provenance
keyed by rendered text, its probe seeds fail.

Each run works on a copy of the sources, the benchmark and the fixtures in a
temporary directory, so it writes that copy's `.bench_out/`, never the
working tree's, where a benchmark run may be going on."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["roundtrip", "correct", "corpus"])
def test_bench_workload_runs_clean(workload, tmp_path):
    for part in ("src", "bench", "tests/fixtures"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert (tmp_path / ".bench_out" / workload).is_dir()
