"""Alternating parent/change runs of the benchmark, written as a BENCH file.

    python3 tools/bench_pairs.py --out BENCH_<n>.json --seed 1 --pairs 10 \\
        [--workloads W ...] [--section workloads] [--parent HEAD~1] [--change HEAD] \\
        [--traced] [--claim WORKLOAD:METRIC:TARGET] [--what TEXT]

Each side runs from its own copy of its commit's tree, unpacked with
`git archive` into a temporary directory, so uncommitted files take no part
and nothing is left behind in the repository.  For every workload, pair i
runs `python3 benchmark/run.py --workload W --seed S` once per side, at
the benchmark's default run length, the parent first in even pairs and the change first in odd ones.
Per side and end-to-end metric the file holds the median and quartiles
(inclusive method) and every run; per metric the change's wins, the ratio
of the medians, the median of the per-pair change/parent ratios, the
parent's interquartile range and `within_bound`, which compares the
change's median with the parent's against the metric's bound in
BENCHMARK.json.  A slow spell of the machine hits both runs of a pair, so
the per-pair ratio is less moved by it than the ratio of the medians.

The results go under `--section` (default "workloads"); an existing output
file is read first, so a second run can add a held-out seed under another
section.  `--traced` also runs `--trace 1 --seed 0 --seconds 2` once per side
and workload, under "trace_seed0".  `--claim` summarizes one workload's
metric over every section of the file, under "claim".

The machine note records whether PYTHONDONTWRITEBYTECODE is set: with it,
every benchmark process compiles macloops from source, so `peak_rss_mb` and
`setup_s` move with the size of `src/`.  So the file also records each
side's `src_lines`, the line count of `src/macloops/*.py` in its tree, and
under "import_rss_mb" of each section the peak RSS of a child that only
imports `macloops.cli` from that tree, taken before every benchmark run:
a `peak_rss_mb` change then splits into what the import holds and what
the run adds.  Per workload and side, "run_rss_mb" holds the latter: each
run's `peak_rss_mb` minus the probe taken just before it, with the median
and quartiles.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["flood", "innovation_dump", "paired_halfline", "two_step_silent"]


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def unpack(rev: str, into: Path) -> str:
    """Unpack the tree of `rev` into `into`; returns its short commit id."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(into, filter="data")
    return git("rev-parse", "--short", f"{rev}^{{commit}}").decode().strip()


def src_lines(tree: Path) -> int:
    """The lines of `src/macloops/*.py` in `tree`, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src/macloops").glob("*.py"))


# run by a fresh launcher, whose RUSAGE_CHILDREN then reads the import child alone
IMPORT_PROBE = ("import resource, subprocess, sys; "
                "subprocess.run([sys.executable, '-c', 'import macloops.cli'], check=True); "
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)")


def import_rss_mb(tree: Path) -> float:
    """The peak RSS in MB of a child that imports `macloops.cli` from `tree`'s
    `src`, in the environment the benchmark runs in."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=tree, env=env, check=True,
                          capture_output=True, text=True)
    return round(float(proc.stdout), 3)


def bench(tree: Path, workload: str, seed: int, *flags: str) -> dict:
    """One benchmark run in `tree`: its exit code and its last JSON line."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           *flags]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    result["exit"] = proc.returncode
    if proc.returncode not in (0, 1):
        print(f"{tree.name} {workload}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}",
              file=sys.stderr)
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5)}


def summarize(runs: dict, bounds: dict) -> dict:
    """Per-workload statistics of the runs {"parent": [...], "change": [...]},
    listed pair by pair.  A metric's change wins are counted over the pairs
    where both runs gave it, and a tie is a win for neither side."""
    failed = {side: sum(1 for r in rs if r["exit"] != 0 or not r.get("correct"))
              for side, rs in runs.items()}
    out = {"pairs": len(runs["change"]), "all_correct": not any(failed.values()),
           "failed": failed["change"], "parent_failed": failed["parent"], "metrics": {}}
    for name, (unit, better, bound) in bounds.items():
        # per run its value, or None if it gave none; a pair counts only if
        # both of its runs gave one
        values = {side: [r["metrics"][name]["value"] if name in r["metrics"] else None
                         for r in rs] for side, rs in runs.items()}
        pairs = [(a, b) for a, b in zip(values["parent"], values["change"])
                 if a is not None and b is not None]
        parent, change = ([v for v in values[side] if v is not None]
                          for side in ("parent", "change"))
        if len(parent) < 2 or len(change) < 2:
            continue
        higher = better == "higher"
        p, c = statistics.median(parent), statistics.median(change)
        p_spread = spread(parent)
        wins = sum(1 for a, b in pairs if (b > a if higher else b < a))
        ratios = [b / a for a, b in pairs if a]
        out["metrics"][name] = {
            "unit": unit, "better": better, "parent": p_spread, "change": spread(change),
            "change_wins": f"{wins}/{len(pairs)}",
            "median_change_over_parent": round(c / p, 4) if p else None,
            "median_pair_ratio": round(statistics.median(ratios), 4) if ratios else None,
            "parent_iqr": round(p_spread["q3"] - p_spread["q1"], 5),
            "within_bound": c >= p * (1 - bound) if higher else c <= p * (1 + bound),
            "parent_runs": [round(v, 5) for v in parent],
            "change_runs": [round(v, 5) for v in change],
        }
    return out


def run_rss(runs: dict, probes: dict) -> dict:
    """Per side, what each run held beyond the import of macloops: its
    `peak_rss_mb` minus the `import_rss_mb` probe taken just before it, with
    the median and quartiles.  A run that gave no peak is left out."""
    out = {}
    for side, rs in runs.items():
        values = [round(r["metrics"]["peak_rss_mb"]["value"] - probe, 3)
                  for r, probe in zip(rs, probes[side], strict=True)
                  if "peak_rss_mb" in r["metrics"]]
        out[side] = {**(spread(values) if len(values) > 1 else {}), "runs": values}
    return out


def claim_summary(doc: dict, workload: str, metric: str, target: str) -> dict:
    claim = {"metric": metric, "workload": workload, "target": target}
    for section, results in doc.items():
        entry = results.get(workload, {}).get("metrics", {}).get(metric) \
            if isinstance(results, dict) else None
        if not isinstance(entry, dict) or "parent_iqr" not in entry:
            continue
        claim[section] = {
            "median_change_over_parent": entry["median_change_over_parent"],
            "median_pair_ratio": entry.get("median_pair_ratio"),
            "change_wins": entry["change_wins"],
            "median_gap": round(abs(entry["change"]["median"] - entry["parent"]["median"]), 5),
            "parent_iqr": entry["parent_iqr"],
        }
    return claim


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    ap.add_argument("--section", default="workloads")
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC:TARGET, e.g. "
                    "paired_halfline:items_per_s:'>= 1.5x'")
    ap.add_argument("--what", default=None)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: unpack(rev, trees[side])
                   for side, rev in (("parent", args.parent), ("change", args.change))}
        no_bytecode = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
        doc.update({
            "what": args.what or doc.get("what", ""),
            "command": "python3 benchmark/run.py --workload W --seed S (default --seconds "
                       "15), run by tools/bench_pairs.py",
            "machine": f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
                       f"Python {platform.python_version()}, numpy {numpy.__version__}, "
                       f"BLAS threads pinned to 1 by run.py, PYTHONDONTWRITEBYTECODE "
                       f"{'set' if no_bytecode else 'unset'}",
            "pythondontwritebytecode": no_bytecode,
            "parent_commit": commits["parent"],
            "change_commit": commits["change"],
            "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
            "method": "alternating parent/change pairs per workload (even pairs parent "
                      "first), each side run from a git archive of its commit; median and "
                      "quartiles (inclusive method) per side; within_bound compares the "
                      "change's median with the parent's against the BENCHMARK.json bound",
        })
        section = doc.setdefault(args.section, {})
        section["seed"] = args.seed
        imports = {"parent": [], "change": []}
        for workload in args.workloads:
            runs, probes = {"parent": [], "change": []}, {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    probes[side].append(import_rss_mb(trees[side]))
                    runs[side].append(bench(trees[side], workload, args.seed))
                print(f"{workload} pair {i + 1}/{args.pairs}", file=sys.stderr)
            section[workload] = summarize(runs, bounds)
            section[workload]["run_rss_mb"] = run_rss(runs, probes)
            for side, values in probes.items():
                imports[side] += values
            section["import_rss_mb"] = {side: {**spread(values), "runs": values}
                                        for side, values in imports.items()}
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
        if args.traced:
            traced = doc.setdefault("trace_seed0", {})
            for workload in args.workloads:
                entry = {"command": f"python3 benchmark/run.py --workload {workload} "
                                    "--seed 0 --seconds 2 --trace 1"}
                for side in ("parent", "change"):
                    res = bench(trees[side], workload, 0, "--seconds", "2", "--trace", "1")
                    entry[side] = {"correct": res.get("correct"), "exit": res["exit"],
                                   **{k: v["value"] for k, v in res["metrics"].items()}}
                traced[workload] = entry
    if args.claim:
        workload, metric, target = args.claim.split(":", 2)
        doc["claim"] = claim_summary(doc, workload, metric, target)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
