"""The engine keeps the calling contract the benchmark harness wraps.

`benchmark/workloads.py` traces the engine by replacing module attributes
(`sim.decide`, `sim.resolve_contention`, `sim.observer_update`,
`stats.integrate`, ...) and reading what they return, and its two-step
workload passes `quad=` a `stats.QuadratureSpec`; a traced run checks its
outputs against the untraced ones and against independent oracles.  Running
it briefly here makes a dropped name, keyword or changed return type fail
the test suite rather than the benchmark.  The engine's workloads must also
count calls to every wrapped name the engine feeds, so that an engine which
stops calling one fails here instead of leaving its metric at 0.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the call counts of the wrapped names the engine calls on every run
ENGINE_COUNTS = ("estimation.observer_calls", "control.law_calls", "control.riccati_calls",
                 "model.psd_sqrt_calls", "model.stream_calls")
ENGINE_WORKLOADS = ("flood", "innovation_dump", "paired_halfline")


@pytest.mark.parametrize("workload", ["flood", "innovation_dump", "paired_halfline",
                                      "two_step_silent"])
def test_traced_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    if workload in ENGINE_WORKLOADS:
        for name in ENGINE_COUNTS:
            assert result["metrics"][name]["value"] > 0, name
