"""The benchmark's own output checks: every workload, at full size, in a fresh interpreter.

perfbench/child.py runs a workload's items and checks each output
against its reference; a wrong answer counts as a failed item there.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ATTEMPTED = {"grid": 1296, "tmscan": 1, "bigfield": 4, "machines": 88}


@pytest.mark.parametrize("workload", ATTEMPTED)
def test_benchmark_workload_passes_its_output_checks(workload):
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload]
    argv += ["--seed", "1", "--mode", "timed", "--spawned-at", repr(time.monotonic())]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["attempted"], result["failed"]) == (ATTEMPTED[workload], 0), result["errors"]
