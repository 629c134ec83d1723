"""The benchmark's own output checks: every workload, at full size, in a fresh interpreter.

perfbench/child.py runs a workload's items and checks each output
against its reference; a wrong answer counts as a failed item there.
The grid's and the machines workload's inputs are also checked here
against the test suite's normal-form verifier.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from autorec.recurrence import Recurrence, synthesize, verify
from conftest import verify_by_normal_forms

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


def test_benchmark_inputs_verify_as_the_normal_form_oracle(monkeypatch):
    # the workloads check their recurrences with verify itself, so the oracle that
    # decides each term by a normal form on the full machine rereads the grid's and
    # the machines workload's inputs, with each recurrence and its C_0 + 1 perturbation
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    grid = [item.run.__defaults__ for item in workloads.build_grid(1, False)]
    machines = [item.run.__defaults__ for item in workloads.build_machines(1, False)]
    assert (len(grid), len(machines)) == (ATTEMPTED["grid"], ATTEMPTED["machines"])
    cases = [(x, workloads.GRID_N_MAX) for x in grid] + [(x, workloads.MACHINE_N_MAX) for x in machines]
    verdicts = set()
    for (a, root), n_max in cases:
        rec = synthesize(a, root)
        coeffs = list(rec.coefficients)
        coeffs[0] = coeffs[0] + 1
        for cand in (rec, Recurrence(rec.k, root, coeffs, "perturbed")):
            want = verify_by_normal_forms(cand, a, n_max).to_json_dict()
            assert verify(cand, a, n_max).to_json_dict() == want, (a, root, cand.provenance)
            verdicts.add(want["all_zero"])
    assert verdicts == {True, False}
