"""Closed-loop episode engine over M loops and N exogenous sources, with
Monte Carlo aggregation, the threshold sweep, and the paired-control-law
experiment that exhibits (or rules out) the scheduler's control dependence.

Within a tick the order is fixed: sample/schedule, contend, deliver with
instant ACK, estimate, control, step the plants.  Loops live on a global
integer tick grid and act only at their own sampling instants (phase +
multiples of the period); between samples nothing is simulated.  All
randomness is drawn from three streams per episode, keyed by the master
seed, the episode and the role, in the order `_Layout` states.  So a (seed,
episode, scenario) triple fully determines every trace, and a contender
meets the same draws under every control law.

There is one engine, and it runs a chunk of up to CHUNK_EPISODES episodes
at once: each loop's state, estimate and input are (episodes, n) arrays,
and every tick does the prediction, observer update, control law and plant
step once per sampling loop for the whole chunk; the residuals, errors and
cost terms then follow from the stored steps, all steps at once.  A control
law therefore takes the gain L_k and an (E, n) array of estimates and
returns an (E, m) array of inputs, or one (m,) input that holds for every
episode.  Products over the plant dimensions are elementwise multiply-adds
in index order (`_sum_products`), so an episode's bits do not depend on the
chunk it ran in.  The channel runs on the chunk too.  At each tick every
sampling loop takes its scheduler decision for all episodes in one array
expression (`_requests`, the rule of `scheduling.decide`), and one
array round (`network.contend`) resolves the contention of every episode
with a request: its columns are the tick's contenders in id order, and each
row meets that episode's own draws.  The per-episode (tick, SlotOutcome)
records of the event dump are rebuilt from the round's per-slot masks, and
only when the dump asks for them.  Each source's activity comes from its
row of the episode's traffic table (`network.traffic_activity`).
`decide`, `resolve_contention` and `traffic_step` stay as the per-episode,
per-round and per-tick references the array forms are tested against.

One driver, `_run_arms`, draws each chunk once and runs every arm on it:
an arm is a (scenario variant, control law) pair.  `monte_carlo` and
`run_episode` run one arm, `dual_effect_experiment` one per control law and
`sweep_threshold` one per threshold, so the arms they compare meet the same
noise, traffic and contention draws.  Each call derives the loops' Riccati
gains once for every distinct loop (`_loop_constants`) and the layout once
(`_layout`); nothing is kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .control import CostReport, RiccatiSolution, jdp_closed_form, riccati_backward
from .errors import ConfigurationError
from .estimation import ObserverState, observer_update
from .model import NetworkScenario, RngStream, psd_sqrt
from .network import contend, traffic_activity
# The per-round, per-tick and per-episode reference rules the engine's array
# forms reproduce; benchmark/workloads.py wraps these names here.
from .network import resolve_contention, traffic_step  # noqa: F401
from .scheduling import THRESHOLD_KINDS, SchedulerPolicy, is_symmetric_control_free
from .scheduling import decide  # noqa: F401

_ROLE_NOISE = 0
_ROLE_TRAFFIC = 1
_ROLE_CONTENTION = 2
# contender ids: loops use their index, sources are offset out of the way
SOURCE_CONTENDER_BASE = 1 << 16
# episodes advanced together by the engine
CHUNK_EPISODES = 64

ControlLaw = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _sum_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a[..., j] * b[..., j], broadcast over the leading axes.

    The terms are rounded products added in index order to +0 (as numpy's
    `@` does, so a sum of zeros is +0), and each entry has the same bits
    however many rows are stacked around it; BLAS (`@`) does not promise
    that.  `M x` for every row of X is `_sum_products(M, X[..., None, :])`.
    """
    terms = a * b
    out = 0.0 + terms[..., 0]
    for j in range(1, terms.shape[-1]):
        out = out + terms[..., j]
    return out


def _quad(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """x' Q x for every row x of X, evaluated as (x' Q) x."""
    return _sum_products(_sum_products(Q.T, X[..., None, :]), X)


def ce_law(L_k: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """Certainty-equivalent input -L_k xhat, for every row of xhat."""
    return -_sum_products(L_k, xhat[..., None, :])


def zero_law(L_k: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    return np.zeros(L_k.shape[0])


@dataclass(eq=False)
class LoopTrace:
    """Everything one loop did in one episode, one row per sampling step.

    Inside the engine the same record holds a whole chunk: every per-step
    array and the three costs then carry a leading episode axis.
    """

    loop: int
    episode: int
    period: int
    phase: int
    ks: np.ndarray
    ticks: np.ndarray
    xs: np.ndarray          # (N+1, n): states including the terminal one
    us: np.ndarray          # (N, m)
    gammas: np.ndarray
    deltas: np.ndarray
    attempts: np.ndarray
    xhats: np.ndarray       # (N, n): filtered estimates
    errs: np.ndarray        # (N, n): x - xhat
    pred_err_sq: np.ndarray  # ||x - prediction||^2 at decision time
    taus: np.ndarray
    delays: np.ndarray
    cost_terms: np.ndarray
    terminal_cost: float
    j: float
    j_lambda: float


_PER_STEP = ("xs", "us", "gammas", "deltas", "attempts", "xhats", "errs",
             "pred_err_sq", "taus", "delays", "cost_terms")


def _episode_trace(batch: LoopTrace, e: int, episode: int) -> LoopTrace:
    """Episode e of a chunk trace, as views into its arrays."""
    return LoopTrace(
        batch.loop, episode, batch.period, batch.phase, batch.ks, batch.ticks,
        *(getattr(batch, name)[e] for name in _PER_STEP),
        float(batch.terminal_cost[e]), float(batch.j[e]), float(batch.j_lambda[e]),
    )


def _loop_constants(scenario: NetworkScenario) -> list[RiccatiSolution]:
    """Each loop's Riccati solution, in loop order.

    One solution is derived for all loops with equal horizon, dynamics and
    weights.  Loops share it, so its arrays are read-only.
    """
    solved, table = {}, []
    for lc in scenario.loops:
        plant = lc.plant
        args = (plant.A, plant.B, lc.Q0, lc.Q1, lc.Q2)
        key = (lc.horizon, plant.n, plant.m, *(a.tobytes() for a in args))
        if key not in solved:
            sol = solved[key] = riccati_backward(*args, lc.horizon)
            for arr in (*sol.S, *sol.L):
                arr.flags.writeable = False
        table.append(solved[key])
    return table


@dataclass(eq=False)
class _Layout:
    """Where an episode's draws go and when the loops sample, for one
    scenario; `_run_arms` derives it once per call.

    An episode draws from three streams, keyed by the master seed:
    - noise, keyed (episode, 0, noise): one `standard_normal` row of the
      loops' blocks in loop order, each the loop's n draws for x0 and then
      its N x n process-noise draws, turned into noise by its `roots`;
    - traffic, keyed (episode, SOURCE_CONTENDER_BASE, traffic): one
      `random((sources, last sampling tick + 1))` table, row j for source j,
      read at the sampling ticks; none without sources;
    - contention, keyed (episode, contention): a (rows, slots_per_sample)
      table, drawn only if some persistence lies strictly between 0 and 1,
      whose rows go contender by contender: each loop's sampling steps in
      loop order, then each source at every sampling tick.
    The noise and traffic keys are those of the first loop and the first
    source.  Appending a loop or a source moves no earlier block or row, and
    a contender's draws depend only on (seed, episode, contender, tick), so
    every control law and threshold meets the same ones.  The entries are
    the contention rows in tick order, and within a tick in contender-id
    order: the sampling loops, then every source.
    """

    roots: list[tuple[np.ndarray, np.ndarray]]  # per loop, (sqrt R0, sqrt Rw)
    sizes: list[int]       # per loop, its n (N + 1) draws of the noise row
    ticks: np.ndarray      # the sampling ticks, ascending
    starts: list[int]      # tick t's entries are starts[t] to starts[t + 1]
    contenders: list[int]  # per entry, the loop index or the source's id
    steps: list[int]       # per entry, the loop's step or the tick's index
    rows: np.ndarray       # per entry, its row of the contention table


def _layout(scenario: NetworkScenario) -> _Layout:
    """The scenario's layout; one pair of noise roots is derived for all
    loops with equal R0 and Rw."""
    loops, n_src = scenario.loops, len(scenario.sources)
    memo, roots = {}, []
    for lc in loops:
        key = (lc.plant.R0.tobytes(), lc.plant.Rw.tobytes())
        if key not in memo:
            memo[key] = (psd_sqrt(lc.plant.R0), psd_sqrt(lc.plant.Rw))
        roots.append(memo[key])
    # every entry in the contention table's order, then sorted by tick
    loop_ticks = [lc.plant.phase + lc.plant.period * np.arange(lc.horizon) for lc in loops]
    ticks, per_tick = np.unique(np.concatenate(loop_ticks), return_counts=True)
    at = np.concatenate(loop_ticks + [np.tile(ticks, n_src)])
    source_ids = SOURCE_CONTENDER_BASE + np.arange(n_src)
    contenders = np.concatenate([np.full(lc.horizon, i) for i, lc in enumerate(loops)]
                                + [np.repeat(source_ids, ticks.size)])
    steps = np.concatenate([np.arange(lc.horizon) for lc in loops]
                           + [np.tile(np.arange(ticks.size), n_src)])
    rows = np.argsort(at, kind="stable")
    starts = np.concatenate(([0], np.cumsum(per_tick + n_src)))
    return _Layout(roots, [lc.plant.n * (lc.horizon + 1) for lc in loops], ticks,
                   starts.tolist(), contenders[rows].tolist(), steps[rows].tolist(), rows)


@dataclass(eq=False)
class _ChunkDraws:
    """Every random input of a chunk of episodes; any control law may run on it."""

    episodes: range
    x0: list[np.ndarray]              # per loop, (E, n)
    noise: list[np.ndarray]           # per loop, (E, N, n)
    active: np.ndarray                # (E, sampling ticks, sources) bool
    tables: Optional[np.ndarray]      # (E, rows, slots) draws, or None


def _draw_chunk(scenario: NetworkScenario, layout: _Layout, seed: int,
                episodes: range) -> _ChunkDraws:
    """Draw the noise, the traffic and the contention tables of a chunk.

    Each episode draws exactly as it would alone, in the order of `_Layout`.
    The roots multiply the noise blocks by `_sum_products`, so an episode's
    bits do not depend on its chunk.
    """
    n_ep = len(episodes)
    z = np.empty((n_ep, sum(layout.sizes)))
    for e, ep in enumerate(episodes):
        RngStream(int(seed), (int(ep), 0, _ROLE_NOISE)).generator().standard_normal(out=z[e])
    x0, noise, start = [], [], 0
    for lc, (sqrt_r0, sqrt_rw), size in zip(scenario.loops, layout.roots, layout.sizes):
        n = lc.plant.n
        block = z[:, start:start + size]
        start += size
        x0.append(lc.plant.x0_mean + _sum_products(sqrt_r0, block[:, None, :n]))
        noise.append(_sum_products(sqrt_rw, block[:, n:].reshape(n_ep, lc.horizon, 1, n)))
    ticks, sources = layout.ticks, scenario.sources
    active = np.zeros((n_ep, ticks.size, len(sources)), dtype=bool)
    if sources:
        for e, ep in enumerate(episodes):
            u = RngStream(int(seed), (int(ep), SOURCE_CONTENDER_BASE, _ROLE_TRAFFIC)
                          ).generator().random((len(sources), ticks[-1] + 1))
            for j, src in enumerate(sources):
                active[e, :, j] = traffic_activity(src, u[j])[ticks]
    tables = None
    if any(0.0 < p < 1.0 for p in scenario.crm.persistence):
        tables = np.empty((n_ep, layout.rows.size, scenario.crm.slots_per_sample))
        for e, ep in enumerate(episodes):
            RngStream(int(seed), (int(ep), _ROLE_CONTENTION)).generator().random(out=tables[e])
    return _ChunkDraws(episodes, x0, noise, active, tables)


def _requests(policy: SchedulerPolicy, x: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """The scheduler's request for every row of the states x and predictions
    pred, as a bool array: the rule of `decide`, with its squared norms
    taken by `_sum_products` as the trace's `pred_err_sq` is."""
    if policy.kind == "always":
        return np.ones(x.shape[0], dtype=bool)
    if policy.kind == "state":
        return _sum_products(x, x) > policy.eps
    if policy.kind == "innovation":
        r = x - pred
        return _sum_products(r, r) > policy.eps
    if policy.direction == "ge":
        return x[:, 0] >= policy.threshold
    return x[:, 0] <= policy.threshold


def _empty_batch(lc, idx: int, episodes: range) -> LoopTrace:
    """A chunk trace whose per-step arrays the engine fills in place."""
    n_ep, n_steps, n, m = len(episodes), lc.horizon, lc.plant.n, lc.plant.m
    ks = np.arange(n_steps)

    def ints():
        return np.zeros((n_ep, n_steps), dtype=int)

    return LoopTrace(
        loop=idx, episode=episodes[0], period=lc.plant.period, phase=lc.plant.phase,
        ks=ks, ticks=lc.plant.phase + lc.plant.period * ks,
        xs=np.empty((n_ep, n_steps + 1, n)), us=np.empty((n_ep, n_steps, m)),
        gammas=ints(), deltas=ints(), attempts=ints(),
        xhats=np.empty((n_ep, n_steps, n)), errs=None, pred_err_sq=None,
        taus=ints(), delays=None, cost_terms=None,
        terminal_cost=None, j=None, j_lambda=None,
    )


def _run_chunk(
    scenario: NetworkScenario,
    layout: _Layout,
    draws: _ChunkDraws,
    control_law: ControlLaw,
    solutions: Sequence[RiccatiSolution],
    event_logs: Optional[list[list]] = None,
) -> list[LoopTrace]:
    """Run one control law on a chunk's draws; one chunk trace per loop.

    If `event_logs` is given it holds one list per episode, which receives
    (tick, SlotOutcome) pairs for every contention round of that episode.
    """
    loops = scenario.loops
    n_ep = len(draws.episodes)
    batch = [_empty_batch(lc, i, draws.episodes) for i, lc in enumerate(loops)]
    preds = [np.empty_like(tr.xhats) for tr in batch]
    for tr, x0 in zip(batch, draws.x0):
        tr.xs[:, 0] = x0
    observers = [ObserverState(xhat=np.tile(lc.plant.x0_mean, (n_ep, 1)),
                               tau=np.full(n_ep, -1), k=-1) for lc in loops]
    # B u of the input last applied, shared by the plant step and the next prediction
    bu_prev = [_sum_products(lc.plant.B, np.zeros((n_ep, 1, lc.plant.m))) for lc in loops]

    n_src = len(scenario.sources)
    keep_slots = event_logs is not None

    for t, tick in enumerate(layout.ticks.tolist()):
        # the tick's entries: its sampling loops, then every source
        lo, hi = layout.starts[t], layout.starts[t + 1]
        sampling = list(zip(layout.contenders[lo:hi - n_src], layout.steps[lo:hi - n_src]))
        # schedule: one decision per sampling loop for the whole chunk
        wants, step_preds = [], []
        for i, k in sampling:
            tr = batch[i]
            pred = _sum_products(loops[i].plant.A, observers[i].xhat[:, None, :]) + bu_prev[i]
            preds[i][:, k] = pred
            step_preds.append(pred)
            want = _requests(loops[i].scheduler, tr.xs[:, k], pred)
            tr.gammas[:, k] = want
            wants.append(want)

        # contend: one round per episode with a loop's request, all at once;
        # the columns are the tick's entries
        wants = np.stack(wants, axis=1)
        asking = np.flatnonzero(wants.any(axis=1))
        if asking.size:
            ids = layout.contenders[lo:hi]
            table = None
            if draws.tables is not None:
                table = draws.tables[np.ix_(asking, layout.rows[lo:hi])]
            rounds = contend(np.concatenate((wants[asking], draws.active[asking, t]), axis=1),
                             scenario.crm, table, keep_slots)
            for col, (i, k) in enumerate(sampling):
                batch[i].deltas[asking, k] = rounds.delta[:, col]
                batch[i].attempts[asking, k] = rounds.used[:, col]
            if keep_slots:
                for e, outcome in zip(asking.tolist(), rounds.outcomes(ids)):
                    event_logs[e].append((tick, outcome))

        # deliver, estimate, control, step
        for (i, k), pred in zip(sampling, step_preds):
            plant, tr = loops[i].plant, batch[i]
            x = tr.xs[:, k]
            delta = tr.deltas[:, k]
            obs = observer_update(observers[i], delta, x if delta.any() else None, pred)
            observers[i] = obs
            u = control_law(solutions[i].L[k], obs.xhat)
            tr.us[:, k] = u
            tr.xhats[:, k] = obs.xhat
            tr.taus[:, k] = obs.tau
            bu = bu_prev[i] = _sum_products(plant.B, u[..., None, :])
            tr.xs[:, k + 1] = _sum_products(plant.A, x[:, None, :]) + bu + draws.noise[i][:, k]

    # what follows from the stored steps, for all steps at once
    for lc, tr, pred in zip(loops, batch, preds):
        xs = tr.xs[:, :-1]
        resid = xs - pred
        tr.errs = xs - tr.xhats
        tr.pred_err_sq = _sum_products(resid, resid)
        tr.delays = tr.ks - tr.taus
        tr.cost_terms = _quad(lc.Q1, xs) + _quad(lc.Q2, tr.us)
        tr.terminal_cost = _quad(lc.Q0, tr.xs[:, -1])
        # cumsum adds in step order, not numpy's pairwise sum
        tr.j = np.cumsum(tr.cost_terms, axis=1)[:, -1] + tr.terminal_cost
        tr.j_lambda = tr.j + lc.net_penalty * tr.deltas.sum(axis=1)
    return batch


_Arm = tuple[NetworkScenario, ControlLaw]


def _run_arms(arms: Sequence[_Arm], solutions: Sequence[RiccatiSolution], seed: int,
              episodes: range, event_logs: bool = False):
    """Run every arm on each chunk of `episodes`, drawing the chunk once.

    The chunks hold up to CHUNK_EPISODES episodes, in episode order.  The
    layout is derived once, from the first arm's scenario, and every chunk
    is drawn on it; every arm runs on the one list of loop Riccati
    `solutions`.  So the arms may differ in schedulers and control laws,
    which neither depends on, but must not differ in plants, weights or
    horizons, the channel or the sources.  Yields (chunk, one chunk trace
    per arm, one event log list per arm), where an arm's list holds one log
    per episode if `event_logs` is set, else None.
    """
    layout = _layout(arms[0][0])
    for start in range(episodes.start, episodes.stop, CHUNK_EPISODES):
        chunk = range(start, min(start + CHUNK_EPISODES, episodes.stop))
        draws = _draw_chunk(arms[0][0], layout, seed, chunk)
        logs = [[[] for _ in chunk] if event_logs else None for _ in arms]
        batches = [_run_chunk(scn, layout, draws, law, solutions, log)
                   for (scn, law), log in zip(arms, logs)]
        yield chunk, batches, logs


def run_episode(
    scenario: NetworkScenario,
    seed: int,
    episode: int,
    control_law: ControlLaw = ce_law,
    event_log: Optional[list] = None,
) -> list[LoopTrace]:
    """Simulate one episode and return one trace per loop.

    If `event_log` is a list it receives (tick, SlotOutcome) pairs for every
    contention round.
    """
    episode = int(episode)
    _, (batch,), logs = next(_run_arms([(scenario, control_law)], _loop_constants(scenario),
                                       seed, range(episode, episode + 1),
                                       event_log is not None))
    if event_log is not None:
        event_log += logs[0][0]
    return [_episode_trace(tr, 0, episode) for tr in batch]


@dataclass(eq=False)
class LoopStats:
    """Monte Carlo summary for one loop."""

    loop: int
    report: CostReport
    request_rate: float
    success_rate: float
    drop_rate: float
    mean_attempts: float
    bound_prob: float
    p_seq: np.ndarray       # (N, n, n) empirical filtered error covariances
    costs: np.ndarray       # per-episode costs


@dataclass
class MonteCarloResult:
    seed: int
    episodes: int
    per_loop: list[LoopStats]
    j_mean: float
    j_se: float


def _se(values: np.ndarray) -> float:
    if values.size < 2:
        return float("nan")
    return float(values.std(ddof=1) / math.sqrt(values.size))


class _Tally:
    """monte_carlo's per-loop sums over one scenario's episodes, chunk by chunk."""

    def __init__(self, scenario: NetworkScenario, episodes: int):
        if episodes < 1:
            raise ConfigurationError("episodes must be >= 1")
        self.scenario = scenario
        # per episode and loop: the cost, the cost with the network penalty
        # and the transmissions
        self.per_episode = np.zeros((3, episodes, len(scenario.loops)))
        # per loop: requests, attempts used, and prediction errors in the bound
        self.counts = np.zeros((3, len(scenario.loops)))
        self.p_sums = [np.zeros((lc.horizon, lc.plant.n, lc.plant.n)) for lc in scenario.loops]

    def add(self, chunk: range, batch: list[LoopTrace]) -> None:
        rows = slice(chunk.start, chunk.stop)
        for i, (lc, tr) in enumerate(zip(self.scenario.loops, batch)):
            self.per_episode[:, rows, i] = tr.j, tr.j_lambda, tr.deltas.sum(axis=1)
            hits = (tr.pred_err_sq <= lc.scheduler.eps).sum()
            self.counts[:, i] += tr.gammas.sum(), tr.attempts.sum(), hits
            for outer in np.einsum("eki,ekj->ekij", tr.errs, tr.errs):
                self.p_sums[i] += outer   # in episode order

    def result(self, seed: int, solutions: Sequence[RiccatiSolution]) -> MonteCarloResult:
        costs, costs_lambda, tx = self.per_episode
        episodes = costs.shape[0]
        per_loop = []
        for i, (lc, solution) in enumerate(zip(self.scenario.loops, solutions)):
            p_seq = self.p_sums[i] / episodes
            j_dp = jdp_closed_form(
                solution, lc.plant.x0_mean, lc.plant.R0, lc.plant.Rw, list(p_seq)
            )
            report = CostReport(
                episodes=episodes,
                j_mean=float(costs[:, i].mean()),
                j_se=_se(costs[:, i]),
                tx_mean=float(tx[:, i].mean()),
                net_penalty=lc.net_penalty,
                j_lambda_mean=float(costs_lambda[:, i].mean()),
                j_dp=j_dp,
            )
            req, attempts, hits = self.counts[:, i]
            successes, steps = tx[:, i].sum(), episodes * lc.horizon
            per_loop.append(
                LoopStats(
                    loop=i,
                    report=report,
                    request_rate=float(req / steps),
                    success_rate=float(successes / req) if req else float("nan"),
                    drop_rate=float((req - successes) / req) if req else float("nan"),
                    mean_attempts=float(attempts / req) if req else 0.0,
                    bound_prob=(float(hits / steps) if lc.scheduler.kind in THRESHOLD_KINDS
                                else float("nan")),
                    p_seq=p_seq,
                    costs=costs[:, i].copy(),
                )
            )
        episode_means = costs.mean(axis=1)
        return MonteCarloResult(
            seed=seed,
            episodes=episodes,
            per_loop=per_loop,
            j_mean=float(episode_means.mean()),
            j_se=_se(episode_means),
        )


def monte_carlo(
    scenario: NetworkScenario,
    seed: int,
    episodes: int,
    control_law: ControlLaw = ce_law,
    trace_hook: Optional[Callable[[int, list], None]] = None,
    event_hook: Optional[Callable[[int, list], None]] = None,
) -> MonteCarloResult:
    """Run `episodes` independent episodes and aggregate per-loop statistics.

    The aggregate j_mean/j_se track the across-loop average cost per episode.
    Each loop's report also carries the closed-form predicted cost evaluated
    at the empirically averaged error covariances.  The optional hooks
    receive (episode, traces) and (episode, contention event log) once per
    episode, in episode order, as each chunk of episodes completes; they
    exist for CSV dumping.
    """
    tally = _Tally(scenario, episodes)
    solutions = _loop_constants(scenario)
    for chunk, (batch,), logs in _run_arms([(scenario, control_law)], solutions, seed,
                                           range(episodes), event_hook is not None):
        for e, ep in enumerate(chunk):
            if trace_hook is not None:
                trace_hook(ep, [_episode_trace(tr, e, ep) for tr in batch])
            if event_hook is not None:
                event_hook(ep, logs[0][e])
        tally.add(chunk, batch)
    return tally.result(seed, solutions)


@dataclass(eq=False)
class SweepResult:
    eps: np.ndarray
    j_mean: np.ndarray
    j_se: np.ndarray
    bound_prob: np.ndarray
    request_rate: np.ndarray
    success_rate: np.ndarray
    drop_rate: np.ndarray


def sweep_threshold(
    scenario: NetworkScenario,
    eps_grid: Sequence[float],
    seed: int,
    episodes: int,
    control_law: ControlLaw = ce_law,
) -> SweepResult:
    """Run the scenario across scheduler thresholds on common draws.

    Every loop must carry a threshold scheduler (state or innovation); its
    eps is replaced by each grid value, and every value runs on each chunk's
    draws as `monte_carlo` would run it alone.
    """
    eps_grid = list(eps_grid)
    if not eps_grid:
        raise ConfigurationError("eps grid must not be empty")
    for lc in scenario.loops:
        if lc.scheduler.kind not in THRESHOLD_KINDS:
            raise ConfigurationError(
                "threshold sweep needs state or innovation schedulers, "
                f"got {lc.scheduler.kind!r}"
            )
    arms = [(replace(scenario, loops=tuple(
                replace(lc, scheduler=replace(lc.scheduler, eps=float(eps)))
                for lc in scenario.loops)), control_law) for eps in eps_grid]
    tallies = [_Tally(scn, episodes) for scn, _ in arms]
    solutions = _loop_constants(scenario)
    for chunk, batches, _ in _run_arms(arms, solutions, seed, range(episodes)):
        for tally, batch in zip(tallies, batches):
            tally.add(chunk, batch)
    cols = {name: [] for name in
            ("j_mean", "j_se", "bound_prob", "request_rate", "success_rate", "drop_rate")}
    for tally in tallies:
        res = tally.result(seed, solutions)
        cols["j_mean"].append(res.j_mean)
        cols["j_se"].append(res.j_se)
        # each rate averaged over the loops where it is defined
        for name in ("bound_prob", "request_rate", "success_rate", "drop_rate"):
            rates = [getattr(s, name) for s in res.per_loop]
            rates = [r for r in rates if not math.isnan(r)]
            cols[name].append(float(np.mean(rates)) if rates else float("nan"))
    return SweepResult(eps=np.array(eps_grid, dtype=float),
                       **{name: np.array(col) for name, col in cols.items()})


@dataclass(eq=False)
class DualEffectReport:
    """Paired comparison of two control laws on common random numbers."""

    episodes: int
    control_free: bool
    gamma_identical_episodes: int
    divergence_fraction: float
    first_divergence_ticks: np.ndarray
    mse_a: float
    mse_a_se: float
    mse_b: float
    mse_b_se: float
    mse_diff: float
    mse_diff_se: float


def _mean_sq_err(batch: list[LoopTrace]) -> np.ndarray:
    """Each episode's squared filtered error, averaged over steps, then loops."""
    per_loop = [(tr.errs ** 2).sum(axis=2).mean(axis=1) for tr in batch]
    return np.stack(per_loop, axis=1).mean(axis=1)


def dual_effect_experiment(
    scenario: NetworkScenario,
    law_a: ControlLaw,
    law_b: ControlLaw,
    seed: int,
    episodes: int,
) -> DualEffectReport:
    """Run both laws on identical noise/traffic draws and compare.

    Under a control-free scheduler the request sequences must be bit-identical
    across laws; under a control-dependent one they diverge with positive
    probability and drag the empirical error statistics apart.  The squared
    filtered estimation error is averaged per episode and compared as a
    paired difference.  Each chunk's noise, traffic and contention draws are
    drawn once and both laws run on them.
    """
    if law_a is law_b:
        raise ConfigurationError("the two control laws must differ")
    if episodes < 1:
        raise ConfigurationError("episodes must be >= 1")
    control_free = all(is_symmetric_control_free(lc.scheduler) for lc in scenario.loops)
    identical = 0
    div_ticks = []
    mse_a = np.zeros(episodes)
    mse_b = np.zeros(episodes)
    never = np.iinfo(int).max
    arms = [(scenario, law_a), (scenario, law_b)]
    for chunk, (batch_a, batch_b), _ in _run_arms(arms, _loop_constants(scenario), seed,
                                                  range(episodes)):
        first = np.full(len(chunk), never)
        for ta, tb in zip(batch_a, batch_b):
            diff = ta.gammas != tb.gammas
            first = np.where(diff.any(axis=1),
                             np.minimum(first, ta.ticks[diff.argmax(axis=1)]), first)
        identical += int((first == never).sum())
        div_ticks += first[first != never].tolist()
        rows = slice(chunk.start, chunk.stop)
        mse_a[rows] = _mean_sq_err(batch_a)
        mse_b[rows] = _mean_sq_err(batch_b)
    diff = mse_a - mse_b
    return DualEffectReport(
        episodes=episodes,
        control_free=control_free,
        gamma_identical_episodes=identical,
        divergence_fraction=1.0 - identical / episodes,
        first_divergence_ticks=np.array(div_ticks, dtype=int),
        mse_a=float(mse_a.mean()),
        mse_a_se=_se(mse_a),
        mse_b=float(mse_b.mean()),
        mse_b_se=_se(mse_b),
        mse_diff=float(diff.mean()),
        mse_diff_se=_se(diff),
    )
