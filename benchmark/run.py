"""Benchmark launcher for macloops.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: flood, innovation_dump, paired_halfline, two_step_silent (see
README.md).  Each run starts the workload in a fresh single-threaded process
with the BLAS thread count pinned to 1.  The work is fixed before the run:
S seconds times the workload's reference rate, in whole items, so the
timed region lasts about S seconds on the reference machine and wall time and
throughput both move with the program's speed.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics wall_s, items_per_s, peak_rss_mb and setup_s; set-up is
measured in SETUP_PROBES processes that stop at the first timed item, and
the median is reported.  With --trace 1 the workload runs half the items twice, in
alternating plain batches and batches with wrappers around each layer's
public functions, and the per-layer metrics are reported; spans go to
benchmark/out/.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"
OUT_DIR = HERE / "out"

# Items per second, rounded down, on the reference machine (README); they
# size a run so that its timed region lasts about --seconds there.
RATES = {
    "flood": 45.0,
    "innovation_dump": 45.0,
    "paired_halfline": 600.0,
    "two_step_silent": 1.2,
}
BATCHES = 20
SETUP_PROBES = 9
DEADLINE_S = 170.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    pass


def plan(workload: str, seconds: int, trace: bool) -> tuple[int, int]:
    """Items and batches for one run.

    The engine workloads split their items into BATCHES equal batches of at
    least two episodes, so that each batch has a standard error; a two-step
    batch is one solve.  The traced run does half the items twice.
    """
    items = seconds * RATES[workload] / (2 if trace else 1)
    if workload == "two_step_silent":
        items = max(1, round(items))
        return items, items
    per_batch = max(2, round(items / BATCHES))
    return per_batch * BATCHES, BATCHES


def spawn(args: list[str], deadline: float) -> dict:
    """Run the worker to completion and return its last JSON line."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a worker")
    spawned_at = time.perf_counter()
    cmd = [sys.executable, str(WORKER), *args, "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed no result")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    import speed  # imports numpy, so only after main() has pinned its threads

    items, batches = plan(workload, seconds, trace)
    base = ["--workload", workload, "--seed", str(seed), "--items", str(items),
            "--batches", str(batches)]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload}-s{seed}.csv"
        res = spawn(base + ["--trace", "--spans", str(spans)], deadline)
        return {"failures": res["failures"], "attempted": res["items"],
                "metrics": res["metrics"]}

    # Set-up is measured in processes that stop at the first timed item, each
    # between two interpreter start-ups that put it in reference seconds.
    setups = []
    before = speed.startup_s()
    for _ in range(SETUP_PROBES):
        setup = spawn(base + ["--setup-only"], deadline)["setup_s"]
        after = speed.startup_s()
        setups.append(speed.normalized("startup", setup, before, after))
        before = after
    res = spawn(base, deadline)
    # Batches hold equal work, so the median batch time times the batch
    # count is the timed region's time with short slow spells filtered out.
    wall_s = statistics.median(res["batch_s"]) * batches
    metrics = {
        "wall_s": (wall_s, "s"),
        "items_per_s": (items / wall_s, "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return {"failures": res["failures"], "attempted": items,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main() -> int:
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RATES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Pinned here, this process and every worker it starts run BLAS on one thread.
    os.environ.update(dict.fromkeys(PINNED_THREADS, "1"))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "macloops" / "__init__.py").is_file():
        print(f"no macloops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  start + DEADLINE_S)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for failure in res["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    correct = not res["failures"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": 0,
                      "metrics": res["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
