"""The benchmark's own check: one checked cycle of every workload, and
every planted fault caught by the oracles (``bench/run.py --quick``)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_quick_check_catches_every_planted_fault():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--quick"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "quick check passed" in proc.stdout
