"""One benchmark workload in its own process.

    python3 benchmark/workloads.py --workload NAME --seed N --items K \
        --batches B --spawned-at T [--trace] [--setup-only] [--spans PATH]

`run.py` launches this script; it is not meant to be called by hand.  The
process imports macloops from the checkout's ``src`` directory, builds the
workload's inputs from the seed, runs K items in B equal batches, checks
the outputs against ``oracles`` and prints one JSON object as its last line
of standard output.  `--spawned-at` is the launcher's ``time.perf_counter()``
just before the process was started (CLOCK_MONOTONIC is shared by all
processes), so set-up time covers interpreter start-up and imports.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402

try:
    import macloops  # noqa: E402
    from macloops import cli, control, model, sim, stats  # noqa: E402
except ImportError as exc:
    sys.exit(f"cannot import macloops from {ROOT / 'src'}: {exc}")
if not Path(macloops.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
    sys.exit(f"macloops was imported from {macloops.__file__}, not from {ROOT / 'src'}")

OUT_DIR = HERE / "out"

# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------

# The example1-baseline network (20 heterogeneous loops, every sample
# requested) with exogenous Bernoulli sources added to the channel.
FLOOD_SOURCES = 4
FLOOD_RATE = 0.25
FLOOD_TYPES = [  # count, A, Rw, period
    (6, 1.0, 1.0, 10),
    (7, 0.75, 1.5, 20),
    (7, 0.5, 2.0, 25),
]
FLOOD_CRM = {"persistence": [1.0, 0.75, 0.5], "max_attempts": 3, "slots_per_sample": 10}
HORIZON = 10


def flood_doc() -> dict:
    return {
        "name": "flood",
        "crm": dict(FLOOD_CRM),
        "sources": [{"kind": "bernoulli", "rate": FLOOD_RATE}] * FLOOD_SOURCES,
        "loops": [
            {
                "count": count,
                "plant": {"A": a, "B": 1.0, "Rw": rw, "R0": 1.0, "x0_mean": 0.0,
                          "period": period},
                "scheduler": {"kind": "always"},
                "horizon": HORIZON,
                "weights": {"Q0": 1.0, "Q1": 1.0, "Q2": 1.0},
            }
            for count, a, rw, period in FLOOD_TYPES
        ],
    }


# Acceptance criterion 8: one scalar loop, half-line scheduler x >= 0.5,
# a single contender that always wins the channel.
HALFLINE_THRESHOLD = 0.5


def halfline_doc() -> dict:
    return {
        "name": "paired-halfline",
        "crm": {"persistence": [1.0]},
        "loops": [{
            "plant": {"A": 1.0, "B": 1.0, "Rw": 1.0, "R0": 1.0, "x0_mean": 0.0, "period": 1},
            "scheduler": {"kind": "halfline", "threshold": HALFLINE_THRESHOLD,
                          "direction": "ge"},
            "horizon": HORIZON,
            "weights": {"Q0": 1.0, "Q1": 1.0, "Q2": 1.0},
        }],
    }


# The two-step problem of acceptance criterion 6, a = b = q0 = q1 = q2 = 1
# and threshold 0.5; the seed moves a by a factor and the threshold and x0
# by an offset of at most JITTER / 2 for each solve.  Every solve is then
# about equally costly, so the median solve time is a stable statistic.
SILENT_A = 1.0
SILENT_THRESHOLD = 0.5
JITTER = 0.01
SILENT_HALF_WIDTH = 0.25      # bracket: CE input +/- this
SILENT_ROOT_TOL = 1e-7
SILENT_QUAD_TOL = 1e-5
# At this quadrature tolerance the solved u0 lay within 0.2 x tolerance /
# slope of the closed-form root on every solve tried; the allowance is 5x.
SILENT_QUAD_FACTOR = 5.0
DELIVERED_X0 = [-2.0, -1.0, 0.0, 1.0, 2.0]
DELIVERED_TOL = 1e-8


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def batch_seed(seed: int, batch: int) -> int:
    """The program seed of one batch, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed % 2 ** 63, batch]).generate_state(1)[0])


def pooled(means, ses, counts):
    """Mean and standard error of batches pooled by their sample counts."""
    total = sum(counts)
    mean = sum(n * m for n, m in zip(counts, means)) / total
    se = math.sqrt(sum((n * s) ** 2 for n, s in zip(counts, ses))) / total
    return mean, se


class Flood:
    """In-process monte_carlo on the flooded example1-baseline network."""

    def __init__(self, seed: int):
        self.seed = seed
        self.doc = flood_doc()
        self.parsed = cli.parse_scenario_doc(self.doc)

    def reparse(self):
        cli.parse_scenario_doc(self.doc)

    def run_batch(self, batch: int, items: int, law):
        return sim.monte_carlo(self.parsed.scenario, batch_seed(self.seed, batch), items, law)

    def summary(self, res) -> list:
        return [res.j_mean, res.j_se] + [[s.report.j_mean, s.success_rate] for s in res.per_loop]

    def check(self, results) -> list[str]:
        scn = self.parsed.scenario
        loops = [(lc.plant.period, lc.plant.phase, lc.horizon) for lc in scn.loops]
        expected = oracles.loop_success_rates(
            loops, scn.crm.persistence, scn.crm.slots_per_sample, FLOOD_SOURCES, FLOOD_RATE)
        rows = []
        for i, lc in enumerate(scn.loops):
            stats_i = [res.per_loop[i] for res in results]
            steps = [res.episodes * lc.horizon for res in results]
            requests = [s.request_rate * n for s, n in zip(stats_i, steps)]
            counts = [res.episodes for res in results]
            j_mean, j_se = pooled([s.report.j_mean for s in stats_i],
                                  [s.report.j_se for s in stats_i], counts)
            j_dp, _ = pooled([s.report.j_dp for s in stats_i], [0.0] * len(counts), counts)
            rows.append({
                "request_rate": sum(requests) / sum(steps),
                "success_rate": sum(s.success_rate * r for s, r in zip(stats_i, requests))
                / sum(requests),
                "requests": sum(requests),
                "j_mean": j_mean, "j_se": j_se, "j_dp": j_dp,
            })
        return checks.check_flood(rows, expected)


class InnovationDump:
    """`macloops simulate --scenario example3 --dump-trace --dump-events`."""

    def __init__(self, seed: int):
        self.seed = seed
        self.parsed = cli.parse_scenario_doc("example3")
        OUT_DIR.mkdir(exist_ok=True)

    def reparse(self):
        pass  # the CLI parses inside the timed region

    def run_batch(self, batch: int, items: int, law):
        out = Path(tempfile.mkdtemp(prefix="innovation_dump-", dir=OUT_DIR))
        argv = ["simulate", "--scenario", "example3", "--seed",
                str(batch_seed(self.seed, batch)), "--episodes", str(items),
                "--out", str(out / "run"), "--dump-trace", "--dump-events"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"macloops {' '.join(argv)} exited {code}")
        return out, items

    def summary(self, res) -> str:
        return (res[0] / "run_summary.csv").read_text()

    def check(self, results) -> list[str]:
        failures = []
        summaries = []
        for out, items in results:
            try:
                summary = checks.read_csv(out / "run_summary.csv")
                failures += checks.check_innovation_dump(
                    summary, checks.read_csv(out / "run_trace.csv"),
                    checks.read_csv(out / "run_events.csv"),
                    items, self.parsed.scenario.crm.max_attempts)
                summaries.append((items, summary))
            finally:
                shutil.rmtree(out, ignore_errors=True)
        counts = [items for items, _ in summaries]
        for i in range(len(self.parsed.scenario.loops)):
            rows = [summary[i] for _, summary in summaries]
            j_mean, j_se = pooled([float(r["j_mean"]) for r in rows],
                                  [float(r["j_se"]) for r in rows], counts)
            j_dp, _ = pooled([float(r["j_dp"]) for r in rows], [0.0] * len(rows), counts)
            failures += checks.cost_check(f"innovation_dump loop {i}", j_mean, j_se, j_dp)
        return failures


class PairedHalfline:
    """dual_effect_experiment(ce_law, zero_law) under the half-line scheduler."""

    def __init__(self, seed: int):
        self.seed = seed
        self.doc = halfline_doc()
        self.parsed = cli.parse_scenario_doc(self.doc)

    def reparse(self):
        cli.parse_scenario_doc(self.doc)

    def run_batch(self, batch: int, items: int, law):
        laws = law if isinstance(law, tuple) else (sim.ce_law, sim.zero_law)
        return sim.dual_effect_experiment(self.parsed.scenario, laws[0], laws[1],
                                          batch_seed(self.seed, batch), items)

    def summary(self, rep) -> list:
        return [rep.mse_diff, rep.first_divergence_ticks.tolist()]

    def check(self, reports) -> list[str]:
        lc = self.parsed.scenario.loops[0]
        a, b = float(lc.plant.A[0, 0]), float(lc.plant.B[0, 0])
        gain0 = oracles.scalar_first_gain(a, b, float(lc.Q0[0, 0]), float(lc.Q1[0, 0]),
                                          float(lc.Q2[0, 0]), lc.horizon)
        p1 = oracles.first_step_divergence_probability(
            a, b, float(lc.plant.Rw[0, 0]), float(lc.plant.R0[0, 0]), gain0,
            lc.scheduler.threshold)
        counts = [rep.episodes for rep in reports]
        mse_diff, mse_diff_se = pooled([rep.mse_diff for rep in reports],
                                       [rep.mse_diff_se for rep in reports], counts)
        ticks = [int(t) for rep in reports for t in rep.first_divergence_ticks]
        return checks.check_paired(sum(counts),
                                   sum(rep.gamma_identical_episodes for rep in reports),
                                   ticks, mse_diff, mse_diff_se, p1)


class TwoStepSilent:
    """Silent-branch solves of the optimal first input, plus delta0 = 1 solves.

    One batch is one silent-branch solve and the delta0 = 1 solves of the
    same problem.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.quad = stats.QuadratureSpec(tol=SILENT_QUAD_TOL)
        self.silent_residual_evals = 0
        self.residual_count = None

    def problem(self, r: int):
        rng = np.random.default_rng([self.seed % 2 ** 63, r])
        ja, jc, jx = rng.random(3) - 0.5
        a = SILENT_A * (1.0 + JITTER * ja)
        c = SILENT_THRESHOLD + JITTER * jc
        s1 = control.two_step_s1(a, 1.0, 1.0, 1.0, 1.0)
        xhat00, _ = stats.truncated_moments(stats.TruncatedGaussian(0.0, 1.0, c))
        u_ce = control.ce_u0(a, 1.0, s1, 1.0, xhat00)
        x0s = [x + JITTER * jx for x in DELIVERED_X0]
        return a, c, (u_ce - SILENT_HALF_WIDTH, u_ce + SILENT_HALF_WIDTH), x0s

    def reparse(self):
        pass

    def run_batch(self, batch: int, items: int, law):
        a, c, bracket, x0s = self.problem(batch)
        # residual_count, set by the traced run, reads the residual-call
        # count so that the silent solve's evaluations can be told apart.
        before = self.residual_count() if self.residual_count else 0
        u0 = control.two_step_u0_optimal(
            a, 1.0, 1.0, 1.0, 1.0, 0, 0.0, threshold=c, quad=self.quad,
            scan=bracket, scan_points=2, tol=SILENT_ROOT_TOL)
        if self.residual_count:
            self.silent_residual_evals += self.residual_count() - before
        delivered = [control.two_step_u0_optimal(a, 1.0, 1.0, 1.0, 1.0, 1, x0, threshold=c)
                     for x0 in x0s]
        return a, c, bracket, u0, x0s, delivered

    def summary(self, solve) -> list:
        return [solve[3], solve[5]]

    def check(self, solves) -> list[str]:
        failures = []
        for r, (a, c, bracket, u0, x0s, delivered) in enumerate(solves):
            root, slope = oracles.silent_root(a, 1.0, 1.0, 1.0, 1.0, c, *bracket)
            allowance = SILENT_ROOT_TOL + SILENT_QUAD_FACTOR * SILENT_QUAD_TOL / abs(slope)
            failures += checks.check_silent_solve(f"solve {r} (a={a:.4f}, c={c:.4f})",
                                                  u0, root, allowance)
            for x0, u in zip(x0s, delivered):
                roots = oracles.delivered_roots(a, 1.0, 1.0, 1.0, 1.0, c, x0)
                failures += checks.check_delivered_solve(f"solve {r} delta0=1 x0={x0:.4f}",
                                                         u, roots, DELIVERED_TOL)
        return failures


WORKLOADS = {
    "flood": Flood,
    "innovation_dump": InnovationDump,
    "paired_halfline": PairedHalfline,
    "two_step_silent": TwoStepSilent,
}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def install_tracer(tracer, name: str):
    """Wrap the public functions each layer is entered through.

    Returns the control law(s) to pass in place of the defaults, wrapped.
    """
    counts = tracer.counts

    def contention_done(outcome, args, kwargs):
        counts["network.contenders"] += len(outcome.delta)
        counts["network.successes"] += sum(outcome.delta.values())
        counts["network.collisions"] += len({ev.slot for ev in outcome.events
                                             if ev.result == "collided"})
        counts["network.drops"] += sum(1 for ev in outcome.events if ev.result == "dropped")

    def decided(result, args, kwargs):
        counts["scheduling.requests"] += result

    def rows(counter_name, fn):
        def counted(*args):
            result = fn(*args)
            counts[counter_name] += len(result)
            return result
        return counted

    p = tracer.patch
    p(sim, "resolve_contention", tracer.wrap("network.contention", sim.resolve_contention,
                                             contention_done))
    p(sim, "traffic_step", tracer.wrap("network.traffic", sim.traffic_step, keep_spans=False))
    p(model.RngStream, "generator", tracer.wrap("model.stream", model.RngStream.generator))
    p(sim, "psd_sqrt", tracer.wrap("model.psd_sqrt", sim.psd_sqrt))
    p(sim, "decide", tracer.wrap("scheduling.decide", sim.decide, decided))
    p(sim, "observer_update", tracer.wrap("estimation.observer", sim.observer_update))
    p(sim, "riccati_backward", tracer.wrap("control.riccati", sim.riccati_backward))
    p(sim, "run_episode", tracer.wrap("sim.run_episode", sim.run_episode))
    traced_mc = tracer.wrap("sim.aggregate", sim.monte_carlo)
    p(sim, "monte_carlo", traced_mc)
    p(sim, "dual_effect_experiment", tracer.wrap("sim.aggregate", sim.dual_effect_experiment))

    def cli_monte_carlo(scenario, seed, episodes, control_law=sim.ce_law,
                        trace_hook=None, event_hook=None):
        if trace_hook is not None:
            trace_hook = tracer.wrap("cli.dump", trace_hook)
        if event_hook is not None:
            event_hook = tracer.wrap("cli.dump", event_hook)
        return traced_mc(scenario, seed, episodes, control_law,
                         trace_hook=trace_hook, event_hook=event_hook)

    p(cli, "monte_carlo", cli_monte_carlo)
    p(cli, "parse_scenario_doc", tracer.wrap("cli.parse", cli.parse_scenario_doc))
    p(cli, "trace_rows", rows("cli.trace_rows", cli.trace_rows))
    p(cli, "event_rows", rows("cli.event_rows", cli.event_rows))
    ce = tracer.wrap("control.law", sim.ce_law)
    zero = tracer.wrap("control.law", sim.zero_law)
    p(cli, "ce_law", ce)
    p(cli, "zero_law", zero)

    p(control, "two_step_u0_optimal", tracer.wrap("control.u0_optimal",
                                                  control.two_step_u0_optimal))
    p(control, "two_step_stationarity_residual",
      tracer.wrap("control.residual", control.two_step_stationarity_residual))
    p(control, "find_root", tracer.wrap("stats.find_root", control.find_root))
    p(control, "conditional_moments_compound",
      tracer.wrap("stats.compound_moments", control.conditional_moments_compound))
    for mod in (control, stats):
        p(mod, "compound_density", tracer.wrap("stats.compound_density",
                                               mod.compound_density, keep_spans=False))
        p(mod, "truncated_moments", tracer.wrap("stats.truncated_moments",
                                                mod.truncated_moments, keep_spans=False))
    traced_integrate = tracer.wrap("stats.integrate", stats.integrate, keep_spans=False)

    def integrate(f, lo, hi, spec=stats.DEFAULT_QUAD):
        return traced_integrate(tracer.counter("stats.integrand_evals", f), lo, hi, spec)

    p(stats, "integrate", integrate)
    if name == "paired_halfline":
        return (ce, zero)
    return ce


def layer_metrics(tracer, items: int, bytes_written: int, residual_evals: int,
                  untraced_s: float, traced_s: float) -> dict:
    """Every per-layer metric; `residual_evals` counts silent-solve residual
    evaluations over `items` solves."""
    c, s, n = tracer.calls, tracer.self_s, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "network.rounds": (c["network.contention"], "count"),
        "network.contenders": (n["network.contenders"], "count"),
        "network.successes": (n["network.successes"], "count"),
        "network.collisions": (n["network.collisions"], "count"),
        "network.drops": (n["network.drops"], "count"),
        "network.success_ratio": (ratio(n["network.successes"], n["network.contenders"]),
                                  "ratio"),
        "network.contention_s": (s["network.contention"], "s"),
        "network.traffic_calls": (c["network.traffic"], "count"),
        "network.traffic_s": (s["network.traffic"], "s"),
        "model.stream_calls": (c["model.stream"], "count"),
        "model.stream_s": (s["model.stream"], "s"),
        "model.psd_sqrt_calls": (c["model.psd_sqrt"], "count"),
        "model.psd_sqrt_s": (s["model.psd_sqrt"], "s"),
        "scheduling.decide_calls": (c["scheduling.decide"], "count"),
        "scheduling.decide_s": (s["scheduling.decide"], "s"),
        "scheduling.request_ratio": (ratio(n["scheduling.requests"], c["scheduling.decide"]),
                                     "ratio"),
        "estimation.observer_calls": (c["estimation.observer"], "count"),
        "estimation.observer_s": (s["estimation.observer"], "s"),
        "control.law_calls": (c["control.law"], "count"),
        "control.law_s": (s["control.law"], "s"),
        "sim.episodes": (c["sim.run_episode"], "count"),
        "sim.run_episode_s": (s["sim.run_episode"], "s"),
        "sim.aggregate_s": (s["sim.aggregate"], "s"),
        "cli.parse_s": (s["cli.parse"], "s"),
        "cli.dump_s": (s["cli.dump"], "s"),
        "cli.trace_rows": (n["cli.trace_rows"], "count"),
        "cli.event_rows": (n["cli.event_rows"], "count"),
        "cli.bytes_written": (bytes_written, "bytes"),
        "control.riccati_calls": (c["control.riccati"], "count"),
        "control.riccati_s": (s["control.riccati"], "s"),
        "control.residual_evals": (ratio(residual_evals, items), "count"),
        "control.residual_s": (s["control.residual"], "s"),
        "stats.compound_moments_calls": (c["stats.compound_moments"], "count"),
        "stats.compound_moments_s": (s["stats.compound_moments"], "s"),
        "stats.compound_density_calls": (c["stats.compound_density"], "count"),
        "stats.compound_density_s": (s["stats.compound_density"], "s"),
        "stats.integrate_calls": (c["stats.integrate"], "count"),
        "stats.integrate_s": (s["stats.integrate"], "s"),
        "stats.integrand_evals": (n["stats.integrand_evals"], "count"),
        "stats.truncated_moments_calls": (c["stats.truncated_moments"], "count"),
        "stats.find_root_s": (s["stats.find_root"], "s"),
        "trace.overhead": (ratio(traced_s, untraced_s), "ratio"),
        "trace.traced_wall_s": (traced_s, "s"),
        "trace.untraced_wall_s": (untraced_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_batches(work, kind: str, items: int, batches: int, law):
    """The timed region: `batches` equal batches of `items` items in all.

    Returns the batch outputs and each batch's time in reference-machine
    seconds against the `kind` calibration loop (``speed``).
    """
    per_batch = items // batches
    outputs, times = [], []
    calib = speed.calibration_s(kind)
    for j in range(batches):
        t0 = time.perf_counter()
        outputs.append(work.run_batch(j, per_batch, law))
        elapsed = time.perf_counter() - t0
        calib_after = speed.calibration_s(kind)
        times.append(speed.normalized(kind, elapsed, calib, calib_after))
        calib = calib_after
    return outputs, times


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--items", type=int, required=True)
    ap.add_argument("--batches", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    if args.items < args.batches or args.items % args.batches:
        ap.error("--items must be a positive multiple of --batches")

    work = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - args.spawned_at}))
        return 0

    if not args.trace:
        outputs, times = run_batches(work, speed.WORKLOAD_LOOP[args.workload],
                                     args.items, args.batches, sim.ce_law)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"failures": work.check(outputs), "items": args.items,
                          "batch_s": times, "peak_rss_mb": peak_rss_mb}))
        return 0

    from tracer import Tracer

    # Plain and traced batches alternate, so that slow spells of the machine
    # fall on both sides of the overhead ratio alike.
    tracer = Tracer()
    per_batch = args.items // args.batches
    base_out, traced_out = [], []
    untraced_s = traced_s = 0.0
    for j in range(args.batches):
        t0 = time.perf_counter()
        base_out.append(work.run_batch(j, per_batch, sim.ce_law))
        untraced_s += time.perf_counter() - t0
        law = install_tracer(tracer, args.workload)
        if args.workload == "two_step_silent":
            work.residual_count = lambda: tracer.calls["control.residual"]
        try:
            if j == 0:
                work.reparse()
            t0 = time.perf_counter()
            traced_out.append(work.run_batch(j, per_batch, law))
            traced_s += time.perf_counter() - t0
        finally:
            tracer.uninstall()
            work.residual_count = None

    bytes_written = 0
    if args.workload == "innovation_dump":
        bytes_written = sum(f.stat().st_size for out, _ in traced_out for f in out.iterdir())
    failures = []
    if [work.summary(o) for o in traced_out] != [work.summary(o) for o in base_out]:
        failures.append("the traced run's outputs differ from the untraced run's")
    failures += work.check(base_out) + work.check(traced_out)
    if args.spans:
        tracer.write_spans(args.spans)
    metrics = layer_metrics(tracer, args.items, bytes_written,
                            getattr(work, "silent_residual_evals", 0), untraced_s, traced_s)
    print(json.dumps({"failures": failures, "items": 2 * args.items, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
