"""Self-test of the benchmark's traced run: counts repeat exactly.

Two traced runs of a workload with the same seed must give identical
per-layer counts (*.calls, *.cells, *.elements, *.levels, *.entries,
*.intervals, limit hits and skipped checks).  Each run here makes one untraced and one traced pass
of the workload's request list, so the whole file takes about two
minutes.  Run from the root of a checkout::

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat(workload):
    runs = [run.run_workload(workload, run.DEFAULT_SEED, 0.0, True)[2]
            for _ in range(2)]
    counts = [name for name, unit in LAYER_METRICS.items() if unit == "count"]
    for name in counts:
        assert runs[0][name] == runs[1][name], name
    assert any(runs[0][name]["value"] for name in counts)


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.make(workload, 7) == workloads.make(workload, 7)
        assert workloads.make(workload, 7) != workloads.make(workload, 8)
