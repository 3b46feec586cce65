"""Command-line surface: scenario ingestion, experiment subcommands and CSV
emission.

Scenarios are JSON documents with a strict schema (unknown keys are
rejected); two presets, ``example1`` (heterogeneous network with a
state-threshold scheduler) and ``example3`` (homogeneous network with the
innovation-threshold scheduler), are compiled in, plus the always-transmit
baseline ``example1-baseline``.  Every run writes its outputs next to a JSON
manifest carrying the resolved scenario hash, seed and tool version; CSV
outputs are byte-identical across reruns with equal hash and seed.  The
trace rows are built column by column, from one `.tolist()` per trace array,
and an event row is the (episode, tick) pair followed by the `SlotEvent`.

Exit codes: 0 success, 2 usage, 3 validation error, 4 numerical failure,
5 file-system (I/O) error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import numbers
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .control import (
    riccati_backward,
    ce_u0,
    two_step_s1,
    two_step_stationarity_residual,
    two_step_u0_optimal,
    two_step_u1,
)
from .errors import ConfigurationError, NumericalError
from .estimation import two_step_posterior
from .model import LoopConfig, NetworkScenario, PlantModel, as_vector
from .network import CrmConfig, TrafficSource
from .scheduling import SchedulerPolicy
from .sim import MonteCarloResult, ce_law, monte_carlo, sweep_threshold, zero_law
from .stats import TruncatedGaussian, conditional_moments_compound, truncated_moments

OUT_DIR_ENV = "MACLOOPS_OUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5


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
_SCENARIO = {"loops": _REQUIRED, "crm": _REQUIRED, "sources": (), "global_horizon": None,
             **_RUN}

_INTEGER_FIELDS = frozenset({
    "count", "phase_step", "period", "phase", "horizon", "max_attempts",
    "slots_per_sample", "episodes", "seed", "global_horizon",
})
# lower bounds of the integer fields no configuration type checks
_MINIMUM = {"count": 1, "episodes": 1, "seed": 0}
_MATRIX_FIELDS = frozenset({"A", "B", "Rw", "R0", "x0_mean", "Q0", "Q1", "Q2"})


def _number(value, path: str, kind: type):
    """A number field; an integer field must hold an integral value."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or math.isnan(value)
            or (kind is int and (math.isinf(value) or value != int(value)))):
        what = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{path}: must be {what}, got {value!r}")
    return kind(value)


def _fields(obj: dict, path: str, table: dict) -> dict:
    """Check a block's keys against its table and fill in the defaults.

    Integer fields and fields with a float default are checked as numbers;
    matrices and strings are left to the configuration types.
    """
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path}: expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise ConfigurationError(f"{path}: unknown keys {unknown}")
    missing = sorted(k for k, d in table.items() if d is _REQUIRED and k not in obj)
    if missing:
        raise ConfigurationError(f"{path}: missing keys {missing}")
    out = {}
    for key, default in table.items():
        value = obj.get(key, default)
        if key in _INTEGER_FIELDS and value is not None:
            value = _number(value, f"{path}.{key}", int)
            if key in _MINIMUM and value < _MINIMUM[key]:
                raise ConfigurationError(
                    f"{path}.{key}: must be >= {_MINIMUM[key]}, got {value}")
        elif isinstance(default, float):
            value = _number(value, f"{path}.{key}", float)
        out[key] = value
    return out


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
def _at(path: str):
    """Prefix a configuration type's validation errors with the block's path."""
    try:
        yield
    except ConfigurationError as exc:
        where = path if exc.field is None else f"{path}.{exc.field}"
        raise ConfigurationError(f"{where}: {exc}") from exc


def _parse_loop(d: dict, path: str) -> list[LoopConfig]:
    """Build the loop block, expanding `count` copies.

    `phase_step` staggers the copies' sampling phases by that many ticks
    (modulo the period); without it all copies share the block's phase.
    """
    fields = _fields(d, path, _LOOP_BLOCK)
    plant = _fields(fields["plant"], f"{path}.plant", _PLANT)
    kind, sched = _kind_fields(fields["scheduler"], f"{path}.scheduler", _SCHEDULERS,
                               "scheduler")
    weights = _fields(fields["weights"], f"{path}.weights", _WEIGHTS)
    loops = []
    for i in range(fields["count"]):
        phase = plant["phase"] + i * fields["phase_step"]
        with _at(path):
            loops.append(LoopConfig(
                plant=PlantModel(**{**plant, "phase": phase % max(plant["period"], 1)}),
                scheduler=SchedulerPolicy(kind=kind, **sched),
                horizon=fields["horizon"],
                net_penalty=fields["net_penalty"],
                **weights,
            ))
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
        name = str(source)
        if name in presets():
            doc = presets()[name]
        else:
            path = Path(name)
            if not path.exists():
                raise ConfigurationError(
                    f"scenario {name!r} is neither a preset "
                    f"({', '.join(sorted(presets()))}) nor a readable file"
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
    crm = _fields(top["crm"], "crm", _CRM)
    crm["persistence"] = tuple(as_vector(crm["persistence"], "crm.persistence"))
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
    scenario = NetworkScenario(
        loops=tuple(loops),
        crm=crm,
        sources=tuple(sources),
        global_horizon=top["global_horizon"],
    )
    return ScenarioDoc(
        name=str(top["name"]),
        scenario=scenario,
        episodes=top["episodes"],
        seed=top["seed"],
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
        "global_horizon": scn.global_horizon,
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

def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _vec(v: np.ndarray) -> str:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    return ";".join(repr(float(c)) for c in arr)


def write_manifest(prefix: Path, doc: ScenarioDoc, seed: int, outputs: list[Path]) -> Path:
    manifest = {
        "scenario": doc.name,
        "scenario_hash": scenario_hash(doc),
        "seed": seed,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
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
        eps = sched.eps if sched.kind in ("state", "innovation") else float("nan")
        rep = stats.report
        rows.append([
            stats.loop, doc.groups[stats.loop], lc.plant.period, sched.kind,
            _fmt(eps), rep.episodes, _fmt(rep.j_mean), _fmt(rep.j_se),
            _fmt(rep.j_lambda_mean), _fmt(rep.j_dp), _fmt(rep.tx_mean),
            _fmt(stats.request_rate), _fmt(stats.success_rate),
            _fmt(stats.drop_rate), _fmt(stats.bound_prob),
        ])
    return rows


def _cells(arr: np.ndarray) -> list[str]:
    """One `_vec` cell per row of a 2-D array, from one `.tolist()`."""
    if arr.shape[1] == 1:
        return list(map(repr, arr[:, 0].tolist()))
    return [";".join(map(repr, row)) for row in arr.tolist()]


def trace_rows(episode: int, traces):
    """One row per loop step plus each loop's terminal row.

    The rows are built column by column: one `.tolist()` per trace array and
    `repr` over the Python floats, with the bytes `_vec` and `_fmt` give.
    """
    rows = []
    for tr in traces:
        steps = tr.ks.size
        xs = _cells(tr.xs)
        rows += zip(
            repeat(episode), repeat(tr.loop), tr.ks.tolist(), tr.ticks.tolist(),
            xs, _cells(tr.us), tr.gammas.tolist(), tr.deltas.tolist(),
            tr.attempts.tolist(), _cells(tr.xhats), _cells(tr.errs),
            map(repr, tr.pred_err_sq.tolist()), tr.taus.tolist(), tr.delays.tolist(),
            map(repr, tr.cost_terms.tolist()),
        )
        # terminal row: state and terminal cost only
        rows.append([
            episode, tr.loop, steps, int(tr.phase + tr.period * steps),
            xs[-1], "", "", "", "", "", "", "", "", "", _fmt(tr.terminal_cost),
        ])
    return rows


def event_rows(episode: int, event_log):
    rows = []
    for tick, outcome in event_log:
        head = (episode, tick)
        rows += [head + ev for ev in outcome.events]
    return rows


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
    doc, seed, episodes = _run_settings(args)
    law = zero_law if args.law == "zero" else ce_law
    prefix = _out_prefix(args, "simulate", doc.name)
    outputs: list[Path] = []

    trace_path = prefix.with_name(prefix.name + "_trace.csv")
    event_path = prefix.with_name(prefix.name + "_events.csv")
    trace_sink = event_sink = None
    trace_fh = event_fh = None
    if args.dump_trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_fh = open(trace_path, "w", newline="")
        trace_writer = csv.writer(trace_fh)
        trace_writer.writerow(TRACE_HEADER)
        trace_sink = lambda ep, traces: trace_writer.writerows(trace_rows(ep, traces))
        outputs.append(trace_path)
    if args.dump_events:
        event_path.parent.mkdir(parents=True, exist_ok=True)
        event_fh = open(event_path, "w", newline="")
        event_writer = csv.writer(event_fh)
        event_writer.writerow(EVENT_HEADER)
        event_sink = lambda ep, log: event_writer.writerows(event_rows(ep, log))
        outputs.append(event_path)
    try:
        result = monte_carlo(doc.scenario, seed, episodes, law,
                             trace_hook=trace_sink, event_hook=event_sink)
    finally:
        if trace_fh:
            trace_fh.close()
        if event_fh:
            event_fh.close()

    summary_path = prefix.with_name(prefix.name + "_summary.csv")
    _write_csv(summary_path, SUMMARY_HEADER, summary_rows(result, doc))
    outputs.insert(0, summary_path)
    write_manifest(prefix, doc, seed, outputs)
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
    grid = _parse_eps_grid(args.eps_grid)
    doc, seed, episodes = _run_settings(args)
    result = sweep_threshold(doc.scenario, grid, seed, episodes)
    prefix = _out_prefix(args, "sweep", doc.name)
    sweep_path = prefix.with_name(prefix.name + "_sweep.csv")
    rows = [
        [_fmt(float(result.eps[i])), _fmt(float(result.j_mean[i])),
         _fmt(float(result.j_se[i])), _fmt(float(result.bound_prob[i])),
         _fmt(float(result.request_rate[i])), _fmt(float(result.success_rate[i])),
         _fmt(float(result.drop_rate[i]))]
        for i in range(result.eps.size)
    ]
    _write_csv(sweep_path, SWEEP_HEADER, rows)
    write_manifest(prefix, doc, seed, [sweep_path])
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


def cmd_riccati(args) -> int:
    try:
        sol = riccati_backward(
            _json_value(args.a, "--a"), _json_value(args.b, "--b"),
            _json_value(args.q0, "--q0"), _json_value(args.q1, "--q1"),
            _json_value(args.q2, "--q2"), args.horizon,
        )
    except ConfigurationError as exc:
        if exc.field is None:
            raise
        raise ConfigurationError(f"--{exc.field.lower()}: {exc}") from None
    out = Path(args.out) if args.out else Path(
        os.environ.get(OUT_DIR_ENV, ".")) / f"riccati-n{args.horizon}"
    path = out.with_name(out.name + ".csv")
    rows = []
    for k in range(sol.horizon + 1):
        gain = _vec(sol.L[k].reshape(-1)) if k < sol.horizon else ""
        rows.append([k, _vec(sol.S[k].reshape(-1)), gain])
    _write_csv(path, ["k", "s", "l"], rows)
    print(f"riccati horizon={args.horizon}: S0={_vec(sol.S[0].reshape(-1))} "
          f"L0={_vec(sol.L[0].reshape(-1))}")
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
    a, b = args.a, args.b
    q0, q1, q2 = args.q0, args.q1, args.q2
    if delta0 and args.x0 is None:
        raise ConfigurationError("--x0 is required for the delta0=1 branch")
    s1 = two_step_s1(a, b, q0, q1, q2)
    if delta0:
        xhat00 = args.x0
    else:
        xhat00, _ = truncated_moments(TruncatedGaussian(0.0, 1.0, args.threshold))
    u0_ce = ce_u0(a, b, s1, q2, xhat00)
    residual_ce = two_step_stationarity_residual(
        a, b, q0, q1, q2, delta0, xhat00 if delta0 else 0.0, u0_ce,
        threshold=args.threshold,
    )
    u0_opt = two_step_u0_optimal(
        a, b, q0, q1, q2, delta0, xhat00 if delta0 else 0.0,
        threshold=args.threshold,
    )
    post = two_step_posterior(a, b, u0_opt, delta0, 0,
                              x0=args.x0 if delta0 else None,
                              threshold=args.threshold)
    u1 = two_step_u1(a, b, q0, q2, post.xhat11)
    out = Path(args.out) if args.out else Path(
        os.environ.get(OUT_DIR_ENV, ".")) / f"two-step-d{delta0}"
    path = out.with_name(out.name + ".csv")
    header = ["delta0", "x0", "xhat00", "s1", "ce_u0", "residual_at_ce",
              "optimal_u0", "gap", "u1_at_optimal"]
    _write_csv(path, header, [[
        delta0, _fmt(float(args.x0) if args.x0 is not None else float("nan")),
        _fmt(float(xhat00)), _fmt(s1), _fmt(u0_ce), _fmt(residual_ce),
        _fmt(u0_opt), _fmt(u0_opt - u0_ce), _fmt(u1),
    ]])
    print(f"two-step delta0={delta0}: CE u0 = {u0_ce:.6f}, optimal u0 = {u0_opt:.6f}")
    print(f"stationarity residual at the CE point: {residual_ce:.6f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_moments(args) -> int:
    _check_finite(args, "mu", "var", "upper", "a", "noise_var", "cond_upper")
    tg = TruncatedGaussian(args.mu, args.var, args.upper)
    mean, var = truncated_moments(tg)
    rows = [["truncated_mean", _fmt(mean)], ["truncated_var", _fmt(var)]]
    print(f"truncated moments (mu={args.mu}, var={args.var}, upper={args.upper}): "
          f"mean={mean:.9f} var={var:.9f}")
    if args.cond_upper is not None:
        cmean, cvar = conditional_moments_compound(args.a, tg, args.noise_var,
                                                   args.cond_upper)
        rows += [["compound_cond_mean", _fmt(cmean)], ["compound_cond_var", _fmt(cvar)]]
        print(f"compound conditional moments (a={args.a}, noise_var={args.noise_var}, "
              f"upper={args.cond_upper}): mean={cmean:.9f} var={cvar:.9f}")
    if args.out:
        path = Path(args.out).with_suffix(".csv")
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
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
