"""Command-line surface: scenario ingestion, experiment subcommands and CSV
emission.

Scenarios are JSON documents with a strict schema (unknown keys are
rejected); two presets, ``example1`` (heterogeneous network with a
state-threshold scheduler) and ``example3`` (homogeneous network with the
innovation-threshold scheduler), are compiled in, plus the always-transmit
baseline ``example1-baseline``.  `simulate` and `sweep` write their outputs
next to a JSON manifest carrying the resolved scenario hash, seed and tool
version; CSV outputs are byte-identical across reruns with equal hash and seed.  The
trace and event dumps are written a chunk of episodes at a time, as CSV
lines formatted straight from the engine's arrays: one `.tolist()` per
column per loop per chunk, `repr` for floats and a `%` template per row.
An event row is a row of the chunk's `sim.EventTable`, its result code
written as the result's name.  No `repr` holds a comma, a quote or a line
break, so the lines are the bytes `csv.writer` would write.  A `simulate`
run that raises deletes the dumps and the summary it had written.

Exit codes: 0 success, 2 usage, 3 validation error, 4 numerical failure,
5 file-system (I/O) error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import sys
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .control import (
    _two_step,
    riccati_backward,
    ce_u0,
    two_step_stationarity_residual,
    two_step_u0_optimal,
    two_step_u1,
)
from .errors import ConfigurationError, NumericalError
from .estimation import two_step_posterior
from .model import LoopConfig, NetworkScenario, PlantModel, _integer, as_matrix
from .network import RESULTS, CrmConfig, TrafficSource
from .scheduling import THRESHOLD_KINDS, SchedulerPolicy
from .sim import (EventTable, MonteCarloResult, _check_run, ce_law, monte_carlo,
                  sweep_threshold, zero_law)
from .stats import TruncatedGaussian, conditional_moments_compound, truncated_moments

OUT_DIR_ENV = "MACLOOPS_OUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5

# simulate formats and writes a chunk's trace lines this many episodes at a
# time, so the dump's memory does not grow with the engine's chunk length
DUMP_EPISODES = 64


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _example1_doc(always: bool = False) -> dict:
    sched = {"kind": "always"} if always else {"kind": "state", "eps": 2.5}
    types = [
        (6, 1.0, 1.0, 10),
        (7, 0.75, 1.5, 20),
        (7, 0.5, 2.0, 25),
    ]
    return {
        "name": "example1-baseline" if always else "example1",
        "episodes": 1000,
        "seed": 1,
        "crm": {"persistence": [1.0, 0.75, 0.5], "max_attempts": 3,
                "slots_per_sample": 10},
        "sources": [],
        "loops": [
            {
                "count": count,
                "plant": {"A": a, "B": 1.0, "Rw": rw, "R0": 1.0,
                          "x0_mean": 0.0, "period": period},
                "scheduler": dict(sched),
                "horizon": 10,
                "weights": {"Q0": 1.0, "Q1": 1.0, "Q2": 1.0},
                "net_penalty": 0.0,
            }
            for count, a, rw, period in types
        ],
    }


def _example3_doc() -> dict:
    return {
        "name": "example3",
        "episodes": 1000,
        "seed": 1,
        "crm": {"persistence": [1.0, 0.75, 0.5], "max_attempts": 3,
                "slots_per_sample": 10},
        "sources": [],
        "loops": [
            {
                "count": 20,
                "phase_step": 5,
                "plant": {"A": 1.0, "B": 1.0, "Rw": 1.0, "R0": 1.0,
                          "x0_mean": 0.0, "period": 10},
                "scheduler": {"kind": "innovation", "eps": 3.5},
                "horizon": 10,
                "weights": {"Q0": 1.0, "Q1": 1.0, "Q2": 1.0},
                "net_penalty": 0.0,
            }
        ],
    }


def presets() -> dict:
    return {
        "example1": _example1_doc(always=False),
        "example1-baseline": _example1_doc(always=True),
        "example3": _example3_doc(),
    }


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

_REQUIRED = object()

# Field tables: key -> default, with _REQUIRED for keys a file must give.
# Parsing checks and fills each block from its table; emit_scenario writes
# the canonical document back out from the same tables.
_PLANT = {"A": _REQUIRED, "B": _REQUIRED, "Rw": _REQUIRED, "R0": _REQUIRED,
          "x0_mean": None, "period": 1, "phase": 0}
_WEIGHTS = {"Q0": _REQUIRED, "Q1": _REQUIRED, "Q2": _REQUIRED}
_CRM = {"persistence": _REQUIRED, "max_attempts": 0, "slots_per_sample": 0}
_SCHEDULERS = {
    "always": {},
    "state": {"eps": 0.0},
    "innovation": {"eps": 0.0},
    "halfline": {"threshold": 0.5, "direction": "ge"},
}
_SOURCES = {"bernoulli": {"rate": 0.0}, "markov": {"p_on": 0.0, "p_off": 0.0}}
_LOOP = {"horizon": _REQUIRED, "net_penalty": 0.0}
# a loop block also holds the nested blocks, and count/phase_step, which
# expand it into copies and are not emitted
_LOOP_BLOCK = {"plant": _REQUIRED, "scheduler": _REQUIRED, "weights": _REQUIRED,
               **_LOOP, "count": 1, "phase_step": 0}
_RUN = {"name": "scenario", "episodes": 1000, "seed": 1}
_SCENARIO = {"loops": _REQUIRED, "crm": _REQUIRED, "sources": (), **_RUN}

_MATRIX_FIELDS = frozenset({"A", "B", "Rw", "R0", "x0_mean", "Q0", "Q1", "Q2"})


def _fields(obj: dict, path: str, table: dict) -> dict:
    """Check a block's keys against its table and fill in the defaults.

    The configuration types check the values and name the field at fault;
    `count`, `phase_step`, `episodes` and `seed`, which no type holds, are
    checked where they are read.
    """
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path}: expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise ConfigurationError(f"{path}: unknown keys {unknown}")
    missing = sorted(k for k, d in table.items() if d is _REQUIRED and k not in obj)
    if missing:
        raise ConfigurationError(f"{path}: missing keys {missing}")
    return {key: obj.get(key, default) for key, default in table.items()}


def _kind_fields(obj: dict, path: str, tables: dict, what: str) -> tuple[str, dict]:
    """The kind of a scheduler or source block and the fields that kind uses."""
    any_kind = {key: None for table in tables.values() for key in table}
    kind = _fields(obj, path, {"kind": _REQUIRED, **any_kind})["kind"]
    if not isinstance(kind, str) or kind not in tables:
        raise ConfigurationError(f"{path}.kind: unknown {what} kind {kind!r}")
    fields = _fields(obj, path, {"kind": _REQUIRED, **tables[kind]})
    del fields["kind"]
    return kind, fields


@contextmanager
def _at(path: str, block: str = "", keys=()):
    """Prefix a configuration type's validation errors with the document
    path of the field at fault: the block's path, then the error's field,
    which lives in the sub-block `block` if it is one of `keys`."""
    try:
        yield
    except ConfigurationError as exc:
        field = f"{block}.{exc.field}" if exc.field in keys else exc.field
        where = path if field is None else f"{path}.{field}"
        raise ConfigurationError(f"{where}: {exc}") from exc


def _parse_loop(d: dict, path: str) -> list[LoopConfig]:
    """Build the loop block, expanding `count` copies.

    `phase_step` staggers the copies' sampling phases by that many ticks
    (modulo the period) from the block's own phase, which must lie in
    [0, period).  Copies of one phase share one `LoopConfig`, which is
    immutable, so each distinct phase is built and validated once.
    """
    fields = _fields(d, path, _LOOP_BLOCK)
    with _at(path):
        count = _integer(fields["count"], "count", "an integer >= 1", 1)
        phase_step = _integer(fields["phase_step"], "phase_step", "an integer", -math.inf)
    plant = _fields(fields["plant"], f"{path}.plant", _PLANT)
    kind, sched = _kind_fields(fields["scheduler"], f"{path}.scheduler", _SCHEDULERS,
                               "scheduler")
    weights = _fields(fields["weights"], f"{path}.weights", _WEIGHTS)
    with _at(f"{path}.plant"):
        first = PlantModel(**plant)
    with _at(f"{path}.scheduler"):
        scheduler = SchedulerPolicy(kind=kind, **sched)
    loops, built = [], {}
    for i in range(count):
        phase = (first.phase + i * phase_step) % first.period
        if phase not in built:
            with _at(path, "weights", _WEIGHTS):
                built[phase] = LoopConfig(
                    plant=first if phase == first.phase else replace(first, phase=phase),
                    scheduler=scheduler,
                    horizon=fields["horizon"],
                    net_penalty=fields["net_penalty"],
                    **weights,
                )
        loops.append(built[phase])
    return loops


@dataclass(eq=False)
class ScenarioDoc:
    """A parsed scenario file: the scenario plus run defaults and grouping."""

    name: str
    scenario: NetworkScenario
    episodes: int
    seed: int
    groups: tuple[int, ...]   # loop index -> index of its block in the file


def parse_scenario_doc(source: Union[str, Path, dict]) -> ScenarioDoc:
    """Resolve a preset name, a JSON file path, or an in-memory document."""
    if isinstance(source, dict):
        doc = source
    else:
        name, table = str(source), presets()
        if name in table:
            doc = table[name]
        else:
            path = Path(name)
            if not path.exists():
                raise ConfigurationError(
                    f"scenario {name!r} is neither a preset "
                    f"({', '.join(sorted(table))}) nor a readable file"
                )
            try:
                doc = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
                ) from exc
            if not isinstance(doc, dict):
                raise ConfigurationError(f"{path}: top level must be an object")

    top = _fields(doc, "scenario", _SCENARIO)
    with _at("scenario"):
        seed, episodes = _check_run(top["seed"], top["episodes"])
    crm = _fields(top["crm"], "crm", _CRM)
    if not isinstance(top["loops"], list) or not top["loops"]:
        raise ConfigurationError("scenario.loops: must be a non-empty array")
    loops, groups = [], []
    for bi, block in enumerate(top["loops"]):
        expanded = _parse_loop(block, f"loops[{bi}]")
        loops.extend(expanded)
        groups.extend([bi] * len(expanded))
    with _at("crm"):
        crm = CrmConfig(**crm)
    if not isinstance(top["sources"], (list, tuple)):
        raise ConfigurationError("scenario.sources: must be an array")
    sources = []
    for si, sd in enumerate(top["sources"]):
        kind, fields = _kind_fields(sd, f"sources[{si}]", _SOURCES, "source")
        with _at(f"sources[{si}]"):
            sources.append(TrafficSource(kind=kind, **fields))
    scenario = NetworkScenario(loops=loops, crm=crm, sources=sources)
    return ScenarioDoc(
        name=str(top["name"]),
        scenario=scenario,
        episodes=episodes,
        seed=seed,
        groups=tuple(groups),
    )


def _emit(obj, table: dict) -> dict:
    """The fields of `table` read off a configuration object, as JSON values."""
    out = {}
    for key in table:
        value = getattr(obj, key)
        if key in _MATRIX_FIELDS:
            arr = np.asarray(value)
            value = float(arr.reshape(-1)[0]) if arr.size == 1 else arr.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def emit_scenario(doc: ScenarioDoc) -> dict:
    """Canonical JSON form of a parsed scenario (loops fully expanded).

    parse_scenario_doc(emit_scenario(doc)) rebuilds an identical scenario, which
    is also what the manifest hash is computed over.
    """
    scn = doc.scenario
    loops = [
        {
            **_emit(lc, _LOOP),
            "plant": _emit(lc.plant, _PLANT),
            "scheduler": {"kind": lc.scheduler.kind,
                          **_emit(lc.scheduler, _SCHEDULERS[lc.scheduler.kind])},
            "weights": _emit(lc, _WEIGHTS),
        }
        for lc in scn.loops
    ]
    return {
        **_emit(doc, _RUN),
        "crm": _emit(scn.crm, _CRM),
        "sources": [{"kind": src.kind, **_emit(src, _SOURCES[src.kind])}
                    for src in scn.sources],
        "loops": loops,
    }


def scenario_hash(doc: ScenarioDoc) -> str:
    canonical = json.dumps(emit_scenario(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _open_csv(stack: ExitStack, path: Path, header: list[str]):
    """`path` opened for CSV text, with `header` written; `stack` closes it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    out = stack.enter_context(open(path, "w", newline=""))
    csv.writer(out).writerow(header)
    return out


def _write_csv(path: Path, header: list[str], rows) -> None:
    with ExitStack() as stack:
        csv.writer(_open_csv(stack, path, header)).writerows(rows)


def write_manifest(prefix: Path, doc: ScenarioDoc, seed: int, outputs: list[Path],
                   argv: Sequence[str], wall_s: float) -> Path:
    """Record what ran: the scenario, the seed, the command line, the
    versions and the run's wall time in seconds; the draws, and so the
    output bytes, come from numpy's samplers."""
    manifest = {
        "scenario": doc.name,
        "scenario_hash": scenario_hash(doc),
        "seed": seed,
        "argv": list(argv),
        "tool_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_s": wall_s,
        "outputs": [str(p) for p in outputs],
    }
    path = prefix.with_name(prefix.name + "_manifest.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


SUMMARY_HEADER = [
    "loop", "group", "period", "scheduler", "eps", "episodes",
    "j_mean", "j_se", "j_lambda_mean", "j_dp", "tx_mean",
    "request_rate", "success_rate", "drop_rate", "bound_prob",
]

TRACE_HEADER = [
    "episode", "loop", "k", "tick", "x", "u", "gamma", "delta", "attempts",
    "xhat", "err", "pred_err_sq", "tau", "d", "cost_term",
]

EVENT_HEADER = ["episode", "tick", "slot", "contender", "attempt", "result"]

SWEEP_HEADER = [
    "eps", "j_mean", "j_se", "bound_prob",
    "request_rate", "success_rate", "drop_rate",
]


def summary_rows(result: MonteCarloResult, doc: ScenarioDoc):
    rows = []
    for stats in result.per_loop:
        lc = doc.scenario.loops[stats.loop]
        sched = lc.scheduler
        eps = sched.eps if sched.kind in THRESHOLD_KINDS else float("nan")
        rep = stats.report
        rows.append([
            stats.loop, doc.groups[stats.loop], lc.plant.period, sched.kind,
            eps, rep.episodes, rep.j_mean, rep.j_se, rep.j_lambda_mean, rep.j_dp,
            rep.tx_mean, stats.request_rate, stats.success_rate, stats.drop_rate,
            stats.bound_prob,
        ])
    return rows


def _cells(arr: np.ndarray) -> list:
    """One cell per vector along the last axis of `arr`, in C order, from
    one `.tolist()`: the float itself for a 1-vector, else the `repr`s of
    the entries joined by ";".  A float's `str` is its `repr`, so `%s`
    writes either kind of cell."""
    if arr.shape[-1] == 1:
        return arr.reshape(-1).tolist()
    return [";".join(map(repr, row)) for row in arr.reshape(-1, arr.shape[-1]).tolist()]


def trace_rows(episodes: range, traces) -> list[str]:
    """The CSV lines of a chunk's trace: for each episode, each loop's step
    rows and then its terminal row, which holds the state and the terminal
    cost only.

    `traces` are the chunk traces, one per loop with a leading episode
    axis.  Each column is one `.tolist()` per loop, a vector's entries
    joined by ";"; each line is one `%` template.
    """
    blocks = []
    for tr in traces:
        steps = tr.ks.size
        # the (loop, k, tick) cells do not depend on the episode
        heads = [f"{tr.loop},{k},{tick}" for k, tick in zip(tr.ks.tolist(), tr.ticks.tolist())]
        cols = (
            _cells(tr.xs[:, :-1]), _cells(tr.us), tr.gammas.ravel().tolist(),
            tr.deltas.ravel().tolist(), tr.attempts.ravel().tolist(), _cells(tr.xhats),
            _cells(tr.errs), tr.pred_err_sq.ravel().tolist(), tr.taus.ravel().tolist(),
            tr.delays.ravel().tolist(), tr.cost_terms.ravel().tolist(),
        )
        lines = list(map("%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\r\n".__mod__, zip(
            [ep for ep in episodes for _ in range(steps)], heads * len(episodes), *cols)))
        end = f"{tr.loop},{steps},{tr.phase + tr.period * steps}"
        ends = list(map(("%s," + end + ",%s" + "," * 10 + "%s\r\n").__mod__, zip(
            episodes, _cells(tr.xs[:, -1]), tr.terminal_cost.tolist())))
        blocks.append((steps, lines, ends))
    rows = []
    for e in range(len(episodes)):
        for steps, lines, ends in blocks:
            rows += lines[e * steps:(e + 1) * steps]
            rows.append(ends[e])
    return rows


def _write_trace(out, chunk: range, traces) -> None:
    """Write a chunk's trace lines, DUMP_EPISODES episodes at a time."""
    for lo in range(0, len(chunk), DUMP_EPISODES):
        part = slice(lo, lo + DUMP_EPISODES)
        out.writelines(trace_rows(chunk[part], [tr.part(part) for tr in traces]))


def event_rows(episodes: range, events: EventTable) -> list[str]:
    """The CSV lines of a chunk's event table, one per event, each result
    written as its name; the table carries each event's episode."""
    episode, tick, slot, contender, attempt, result = (col.tolist() for col in events)
    return list(map("%s,%s,%s,%s,%s,%s\r\n".__mod__, zip(
        episode, tick, slot, contender, attempt, map(RESULTS.__getitem__, result))))


def _out_prefix(args, command: str, label: str) -> Path:
    if args.out:
        return Path(args.out)
    out_dir = Path(os.environ.get(OUT_DIR_ENV, "."))
    return out_dir / f"{command}-{label}-s{args.seed if args.seed is not None else 'default'}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_settings(args) -> tuple[ScenarioDoc, int, int]:
    """The scenario, seed and episode count of a run; the flags override
    the scenario's own values."""
    if args.seed is not None and args.seed < 0:
        raise ConfigurationError(f"--seed: must be >= 0, got {args.seed}")
    if args.episodes is not None and args.episodes < 1:
        raise ConfigurationError(f"--episodes: must be >= 1, got {args.episodes}")
    doc = parse_scenario_doc(args.scenario)
    seed = doc.seed if args.seed is None else args.seed
    episodes = doc.episodes if args.episodes is None else args.episodes
    return doc, seed, episodes


def _check_finite(args, *names: str) -> None:
    """Reject a NaN or infinite value of the named float flags."""
    for name in names:
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            flag = "--" + name.replace("_", "-")
            raise ConfigurationError(f"{flag}: must be a finite number, got {value}")


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    doc, seed, episodes = _run_settings(args)
    law = zero_law if args.law == "zero" else ce_law
    prefix = _out_prefix(args, "simulate", doc.name)
    outputs: list[Path] = []
    hooks = {}
    # each chunk's lines go out as they are formatted; the hooks look
    # trace_rows and event_rows up in this module as they run
    try:
        with ExitStack() as stack:
            if args.dump_trace:
                path = prefix.with_name(prefix.name + "_trace.csv")
                trace = _open_csv(stack, path, TRACE_HEADER)
                outputs.append(path)
                hooks["trace_hook"] = lambda chunk, traces: _write_trace(trace, chunk, traces)
            if args.dump_events:
                path = prefix.with_name(prefix.name + "_events.csv")
                events = _open_csv(stack, path, EVENT_HEADER)
                outputs.append(path)
                hooks["event_hook"] = lambda chunk, table: events.writelines(
                    event_rows(chunk, table))
            result = monte_carlo(doc.scenario, seed, episodes, law, **hooks)
        summary_path = prefix.with_name(prefix.name + "_summary.csv")
        _write_csv(summary_path, SUMMARY_HEADER, summary_rows(result, doc))
        outputs.insert(0, summary_path)
        write_manifest(prefix, doc, seed, outputs, args.argv, time.perf_counter() - started)
    except BaseException:
        # a failed run leaves no dump or summary without its manifest
        for path in outputs:
            path.unlink(missing_ok=True)
        raise
    print(f"simulate {doc.name}: episodes={episodes} seed={seed} "
          f"mean cost {result.j_mean:.4f} +/- {result.j_se:.4f}")
    print(f"wrote {summary_path}")
    return EXIT_OK


def _grid_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigurationError(f"--eps-grid: {text!r} is not a finite number")
    return value


def _parse_eps_grid(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError("--eps-grid: must be start:stop:step or a comma list")
        start, stop, step = (_grid_value(p) for p in parts)
        # a step below the bounds' resolution would never advance the grid
        if step <= math.ulp(max(abs(start), abs(stop))) or stop < start:
            raise ConfigurationError(f"--eps-grid: bad grid {text!r}")
        values = []
        v = start
        while v <= stop + 1e-9:
            values.append(round(v, 12))
            v += step
    else:
        values = [_grid_value(p) for p in text.split(",") if p]
    if not values:
        raise ConfigurationError("--eps-grid: must hold at least one value")
    if min(values) < 0.0:
        raise ConfigurationError(f"--eps-grid: thresholds must be >= 0, got {min(values)}")
    return values


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    grid = _parse_eps_grid(args.eps_grid)
    doc, seed, episodes = _run_settings(args)
    result = sweep_threshold(doc.scenario, grid, seed, episodes)
    prefix = _out_prefix(args, "sweep", doc.name)
    sweep_path = prefix.with_name(prefix.name + "_sweep.csv")
    # the header names the result's columns
    rows = zip(*(getattr(result, name).tolist() for name in SWEEP_HEADER))
    _write_csv(sweep_path, SWEEP_HEADER, rows)
    write_manifest(prefix, doc, seed, [sweep_path], args.argv, time.perf_counter() - started)
    best = int(np.argmin(result.j_mean))
    print(f"sweep {doc.name}: best eps={result.eps[best]} "
          f"cost {result.j_mean[best]:.4f} +/- {result.j_se[best]:.4f}")
    print(f"wrote {sweep_path}")
    return EXIT_OK


def _json_value(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{flag}: cannot parse value {text!r}: {exc.msg}") from exc


def _flagged(flags: dict, fn, *args):
    """fn(*args), with a ConfigurationError whose field is a key of `flags`
    reported under that flag."""
    try:
        return fn(*args)
    except ConfigurationError as exc:
        if exc.field not in flags:
            raise
        raise ConfigurationError(f"{flags[exc.field]}: {exc}") from None


def cmd_riccati(args) -> int:
    flags = {name: f"--{name.lower()}" for name in ("A", "B", "Q0", "Q1", "Q2", "horizon")}
    values = [_json_value(getattr(args, name.lower()), flags[name]) for name in list(flags)[:5]]
    # the command solves one problem: each value is a scalar or a matrix
    matrices = [_flagged(flags, as_matrix, value, name) for name, value in zip(flags, values)]
    sol = _flagged(flags, riccati_backward, *matrices, args.horizon)
    out = Path(args.out) if args.out else Path(
        os.environ.get(OUT_DIR_ENV, ".")) / f"riccati-n{args.horizon}"
    path = out.with_name(out.name + ".csv")
    values = _cells(np.reshape(sol.S, (args.horizon + 1, -1)))
    gains = _cells(np.reshape(sol.L, (args.horizon, -1))) + [""]
    _write_csv(path, ["k", "s", "l"], zip(range(args.horizon + 1), values, gains))
    print(f"riccati horizon={args.horizon}: S0={values[0]} L0={gains[0]}")
    print(f"wrote {path}")
    return EXIT_OK


def _parse_branch(text: str) -> int:
    t = text.strip().lower().replace(" ", "")
    if t in ("delta0=1", "1"):
        return 1
    if t in ("delta0=0", "0"):
        return 0
    raise ConfigurationError(f"branch must be delta0=0 or delta0=1, got {text!r}")


def cmd_two_step(args) -> int:
    delta0 = _parse_branch(args.branch)
    _check_finite(args, "x0", "a", "b", "q0", "q1", "q2", "threshold")
    if delta0 and args.x0 is None:
        raise ConfigurationError("--x0 is required for the delta0=1 branch")
    flags = dict(q0="--q0", q1="--q1", q2="--q2", x0_or_xhat="--x0", upper="--threshold")
    problem = _flagged(flags, _two_step, args.a, args.b, args.q0, args.q1, args.q2, delta0,
                       args.x0 if delta0 else 0.0, args.threshold)
    a, b, q0, q1, q2, _, x0, threshold, s1, _, xhat00, *_, base = problem
    u0_ce = ce_u0(a, b, s1, q2, xhat00)
    # solved before the residual at u0_ce: it raises NumericalError if u0_ce is not finite
    u0_opt = two_step_u0_optimal(*problem[:8])
    residual_ce = two_step_stationarity_residual(*problem[:7], u0_ce, threshold)
    try:
        post = two_step_posterior(a, b, u0_opt, delta0, 0, x0=x0, threshold=threshold)
    except ConfigurationError as exc:
        # delta0=1: the step-1 noise bound is built from the flags, not one of them
        if not delta0 or exc.field != "upper":
            raise
        bound = base - b * u0_opt
        raise ConfigurationError(
            f"--threshold: the delta1 = 0 event has probability 0: its noise bound "
            f"threshold - a*x0 - b*u0 = {bound} keeps no probability mass") from None
    u1 = two_step_u1(a, b, q0, q2, post.xhat11)
    out = Path(args.out) if args.out else Path(
        os.environ.get(OUT_DIR_ENV, ".")) / f"two-step-d{delta0}"
    path = out.with_name(out.name + ".csv")
    header = ["delta0", "x0", "xhat00", "s1", "ce_u0", "residual_at_ce",
              "optimal_u0", "gap", "u1_at_optimal"]
    _write_csv(path, header, [[
        delta0, float("nan") if args.x0 is None else args.x0, xhat00, s1, u0_ce,
        residual_ce, u0_opt, u0_opt - u0_ce, u1,
    ]])
    print(f"two-step delta0={delta0}: CE u0 = {u0_ce:.6f}, optimal u0 = {u0_opt:.6f}")
    print(f"stationarity residual at the CE point: {residual_ce:.6f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_moments(args) -> int:
    _check_finite(args, "mu", "var", "upper", "a", "noise_var", "cond_upper")
    if not args.noise_var > 0.0:
        raise ConfigurationError(f"--noise-var: must be > 0, got {args.noise_var}")
    tg = _flagged({"mean": "--mu", "var": "--var", "upper": "--upper"},
                  TruncatedGaussian, args.mu, args.var, args.upper)
    mean, var = truncated_moments(tg)
    rows = [["truncated_mean", mean], ["truncated_var", var]]
    print(f"truncated moments (mu={args.mu}, var={args.var}, upper={args.upper}): "
          f"mean={mean:.9f} var={var:.9f}")
    if args.cond_upper is not None:
        cmean, cvar = conditional_moments_compound(args.a, tg, args.noise_var,
                                                   args.cond_upper)
        rows += [["compound_cond_mean", cmean], ["compound_cond_var", cvar]]
        print(f"compound conditional moments (a={args.a}, noise_var={args.noise_var}, "
              f"upper={args.cond_upper}): mean={cmean:.9f} var={cvar:.9f}")
    if args.out:
        path = Path(args.out + ".csv")
        _write_csv(path, ["quantity", "value"], rows)
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macloops",
        description="Simulate networks of control loops over a contention-based sensor link.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo run of one scenario")
    sim.add_argument("--scenario", required=True,
                     help="preset name or path to a scenario JSON file")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--episodes", type=int, default=None)
    sim.add_argument("--out", default=None, help="output path prefix")
    sim.add_argument("--law", choices=["ce", "zero"], default="ce")
    sim.add_argument("--dump-trace", action="store_true",
                     help="write the per-step trace CSV for every episode")
    sim.add_argument("--dump-events", action="store_true",
                     help="write the per-mini-slot contention event CSV")
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser("sweep", help="cost versus scheduler threshold")
    swp.add_argument("--scenario", required=True)
    swp.add_argument("--eps-grid", required=True,
                     help="start:stop:step or a comma-separated list")
    swp.add_argument("--seed", type=int, default=None)
    swp.add_argument("--episodes", type=int, default=None)
    swp.add_argument("--out", default=None)
    swp.set_defaults(func=cmd_sweep)

    ric = sub.add_parser("riccati", help="backward Riccati sequences as CSV")
    ric.add_argument("--a", default="1.0", help="state matrix (JSON scalar or nested list)")
    ric.add_argument("--b", default="1.0")
    ric.add_argument("--q0", default="1.0")
    ric.add_argument("--q1", default="1.0")
    ric.add_argument("--q2", default="1.0")
    ric.add_argument("--horizon", type=int, required=True)
    ric.add_argument("--out", default=None)
    ric.set_defaults(func=cmd_riccati)

    two = sub.add_parser("two-step", help="two-step probing vs CE first input")
    two.add_argument("--branch", required=True, help="delta0=0 or delta0=1")
    two.add_argument("--x0", type=float, default=None)
    two.add_argument("--a", type=float, default=1.0)
    two.add_argument("--b", type=float, default=1.0)
    two.add_argument("--q0", type=float, default=1.0)
    two.add_argument("--q1", type=float, default=1.0)
    two.add_argument("--q2", type=float, default=1.0)
    two.add_argument("--threshold", type=float, default=0.5)
    two.add_argument("--out", default=None)
    two.set_defaults(func=cmd_two_step)

    mom = sub.add_parser("moments", help="truncated/compound moment spot checks")
    mom.add_argument("--mu", type=float, default=0.0)
    mom.add_argument("--var", type=float, default=1.0)
    mom.add_argument("--upper", type=float, required=True)
    mom.add_argument("--a", type=float, default=0.0,
                     help="source coefficient for the compound conditioning")
    mom.add_argument("--noise-var", type=float, default=1.0)
    mom.add_argument("--cond-upper", type=float, default=None)
    mom.add_argument("--out", default=None)
    mom.set_defaults(func=cmd_moments)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    args.argv = argv
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
