"""The library calls that the benchmark in ``perfbench/`` makes still work.

The benchmark imports names that the library keeps only for it (for example
``fit_model(energy_fraction=)``, ``SolverConfig``,
``data.build_generalized_network``, ``db.instance_edges`` and
``truncated_svd_basis`` on a ``StateMatrix``), so one short traced run per
workload checks its outputs and the tracer's list of missing targets.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# tracer targets that no longer exist in the library
ABSENT = {
    f"subnetmine.evaluation.{name}"
    for name in (
        "build_generalized_network",
        "_affinity_pair",
        "build_affinities",
        "fit_spectral",
        "_subset_network",
        "_make_context",
        "run_cv",
        "_fit_subset",
        "_fit_and_score",
        "build_constraint_matrix",
    )
}


@pytest.mark.parametrize("workload", ["desk-nested", "tall-sweep", "wide-mine"])
def test_benchmark_runs_against_the_library(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0, run.stderr
    prefix, suffix = "trace: ", " is absent"
    absent = {
        line[len(prefix) : -len(suffix)]
        for line in run.stderr.splitlines()
        if line.startswith(prefix) and line.endswith(suffix)
    }
    assert absent == ABSENT
