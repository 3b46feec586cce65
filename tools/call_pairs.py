"""Alternating parent/change timings of the engine's call shapes, in process.

    python3 tools/call_pairs.py --out CALLS.json [--parent HEAD~1] [--change HEAD] \\
        [--rounds 10] [--best-of 30]

Each side runs from its own copy of its commit's tree, unpacked with
`git archive` as `tools/bench_pairs.py` does.  Round i starts one child
process per side, the parent first in even rounds and the change first in
odd ones.  A child imports `macloops` and `benchmark.workloads` from its
tree and times each call shape, best of `--best-of` calls after one warm-up
call:
- `_layout`, and `_layout` then `_plan`, on `flood`, `example3` and the
  half-line loop of `paired_halfline`;
- a 34-episode `monte_carlo` on `flood`, the benchmark's call shape;
- a 450-pair `dual_effect_experiment` on the half-line loop, likewise.
Per call shape the file holds each side's median over the rounds, the
change's median over the parent's, the median of the per-round
parent/change time ratios (above 1 when the change is faster) and the
change's wins, a tie being a win for neither side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import unpack  # noqa: E402

SHAPES = ["layout:flood", "layout:example3", "layout:halfline",
          "layout_plan:flood", "layout_plan:example3", "layout_plan:halfline",
          "monte_carlo:flood:34", "dual_effect:halfline:450"]


def child(best_of: int) -> dict:
    """The best time in ms of each call shape, in this process."""
    from benchmark.workloads import flood_doc, halfline_doc
    from macloops import cli, sim

    scenarios = {name: cli.parse_scenario_doc(doc).scenario for name, doc in
                 (("flood", flood_doc()), ("example3", "example3"), ("halfline", halfline_doc()))}
    calls = {}
    for name, scn in scenarios.items():
        calls[f"layout:{name}"] = lambda scn=scn: sim._layout(scn)
        calls[f"layout_plan:{name}"] = lambda scn=scn: sim._plan(sim._layout(scn))
    calls["monte_carlo:flood:34"] = lambda: sim.monte_carlo(scenarios["flood"], 1, 34)
    calls["dual_effect:halfline:450"] = lambda: sim.dual_effect_experiment(
        scenarios["halfline"], sim.ce_law, sim.zero_law, 1, 450)
    out = {}
    for shape in SHAPES:
        calls[shape]()
        best = float("inf")
        for _ in range(best_of):
            start = time.perf_counter()
            calls[shape]()
            best = min(best, time.perf_counter() - start)
        out[shape] = round(best * 1e3, 5)
    return out


def summarize(rounds: dict) -> dict:
    """Per call shape, statistics of the per-round times in ms
    {"parent": [{shape: ms}, ...], "change": [...]}, listed round by round."""
    out = {}
    for shape in rounds["parent"][0]:
        parent, change = ([r[shape] for r in rounds[side]] for side in ("parent", "change"))
        p, c = statistics.median(parent), statistics.median(change)
        out[shape] = {
            "parent_ms": round(p, 5), "change_ms": round(c, 5),
            "change_over_parent": round(c / p, 4),
            "median_pair_speedup": round(statistics.median(a / b for a, b in zip(parent, change)),
                                         4),
            "change_wins": f"{sum(b < a for a, b in zip(parent, change))}/{len(parent)}",
            "parent_runs": parent, "change_runs": change,
        }
    return out


def run_child(tree: Path, best_of: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree)]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--child", str(best_of)], cwd=tree, env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--best-of", type=int, default=30)
    ap.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child is not None:
        print(json.dumps(child(args.child)))
        return 0
    if args.out is None:
        ap.error("--out is required")
    if args.rounds < 1 or args.best_of < 1:
        ap.error("--rounds and --best-of must be at least 1")
    with tempfile.TemporaryDirectory(prefix="call-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: unpack(rev, trees[side])
                   for side, rev in (("parent", args.parent), ("change", args.change))}
        rounds = {"parent": [], "change": []}
        for i in range(args.rounds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                rounds[side].append(run_child(trees[side], args.best_of))
            print(f"round {i + 1}/{args.rounds}", file=sys.stderr)
    doc = {
        "command": f"python3 tools/call_pairs.py --rounds {args.rounds} "
                   f"--best-of {args.best_of}",
        "machine": f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
                   f"Python {platform.python_version()}, BLAS threads pinned to 1",
        "parent_commit": commits["parent"], "change_commit": commits["change"],
        "method": "one child process per side per round, alternating which runs first; "
                  "each times every call shape best of k after one warm-up call",
        "shapes": summarize(rounds),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
