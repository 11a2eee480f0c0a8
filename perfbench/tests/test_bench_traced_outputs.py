"""With tracing on, every operation's output still passes the oracle.

Runs ``run.py --trace 1`` on each workload (one untraced and two traced
operations each, about three minutes in all) and requires a correct result.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_passes_the_oracle(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] == 3
