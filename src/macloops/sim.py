"""Closed-loop episode engine over M loops and N exogenous sources, with
Monte Carlo aggregation, the threshold sweep, and the paired-control-law
experiment that exhibits (or rules out) the scheduler's control dependence.

Within a tick the order is fixed: sample/schedule, contend, deliver with
instant ACK, estimate, control, step the plants.  Loops live on a global
integer tick grid and act only at their own sampling instants (phase +
multiples of the period); between samples nothing is simulated.  All
randomness is drawn from streams keyed by the master seed and the episode:
noise and traffic per (entity, role), contention per role, with its draws
laid out contender by contender (`_contention_index`).  So a (seed,
episode, scenario) triple fully determines every trace, and a contender
meets the same contention draws under every control law.

There is one engine, and it runs a chunk of up to CHUNK_EPISODES episodes
at once: each loop's state, estimate and input are (episodes, n) arrays,
and every tick does the prediction, observer update, control law and plant
step once per sampling loop for the whole chunk; the residuals, errors and
cost terms then follow from the stored steps, all steps at once.
`run_episode` is the chunk of one episode.  A control law therefore takes
the gain L_k and an (E, n) array of estimates and returns an (E, m) array
of inputs, or one (m,) input that holds for every episode.  Products over
the plant dimensions are elementwise multiply-adds in index order
(`_sum_products`), so an episode's bits do not depend on the chunk it ran
in.  The scheduler decision (`decide`) stays one call per episode and
sample, and contention (`resolve_contention`) one call per episode and
round: both branch on each episode's own values, and a round's outcome is
a small record per contender that the event dump and the channel
statistics read.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from itertools import compress
from typing import Callable, Optional, Sequence

import numpy as np

from .control import CostReport, RiccatiSolution, jdp_closed_form, riccati_backward
from .errors import ConfigurationError
from .estimation import ObserverState, observer_update
from .model import NetworkScenario, RngStream, psd_sqrt
from .network import resolve_contention, traffic_step
from .scheduling import decide, is_symmetric_control_free

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


NoiseFactors = tuple[np.ndarray, np.ndarray]


def _noise_factors(scenario: NetworkScenario) -> list[NoiseFactors]:
    """The square roots of every loop's R0 and Rw, in loop order."""
    return [(psd_sqrt(lc.plant.R0), psd_sqrt(lc.plant.Rw)) for lc in scenario.loops]


def _noise_for_loop(scenario: NetworkScenario, seed: int, episode: int, idx: int,
                    factors: NoiseFactors):
    """Initial state and the whole process-noise panel for one loop."""
    plant = scenario.loops[idx].plant
    sqrt_r0, sqrt_rw = factors
    gen = RngStream(int(seed), (int(episode), idx, _ROLE_NOISE)).generator()
    x0 = plant.x0_mean + sqrt_r0 @ gen.standard_normal(plant.n)
    n_steps = scenario.loops[idx].horizon
    w = gen.standard_normal((n_steps, plant.n)) @ sqrt_rw.T
    return x0, w


# Riccati solutions per scenario object: a scenario is immutable and hashed
# by identity, and weak keys let the solutions go with it.
_SOLUTIONS = weakref.WeakKeyDictionary()


def _riccati_solutions(scenario: NetworkScenario) -> tuple[RiccatiSolution, ...]:
    """The backward Riccati solution of every loop, in loop order.

    Solved once per scenario object; the memo's arrays are read-only, as
    every caller shares them.
    """
    solutions = _SOLUTIONS.get(scenario)
    if solutions is None:
        solutions = tuple(
            riccati_backward(lc.plant.A, lc.plant.B, lc.Q0, lc.Q1, lc.Q2, lc.horizon)
            for lc in scenario.loops
        )
        for sol in solutions:
            for arr in (*sol.S, *sol.L):
                arr.flags.writeable = False
        _SOLUTIONS[scenario] = solutions
    return solutions


def _schedule(scenario: NetworkScenario) -> dict[int, list[tuple[int, int]]]:
    """The loops sampling at each tick, in loop order, with their step index."""
    schedule: dict[int, list[tuple[int, int]]] = {}
    for i, lc in enumerate(scenario.loops):
        for k in range(lc.horizon):
            schedule.setdefault(lc.plant.phase + lc.plant.period * k, []).append((i, k))
    return dict(sorted(schedule.items()))


def _contention_index(scenario: NetworkScenario,
                      schedule: dict[int, list[tuple[int, int]]]) -> dict[tuple[int, int], int]:
    """The row of each (tick, contender) in an episode's contention table.

    The rows go contender by contender: each loop's sampling steps, in loop
    order, then each source at every sampling tick.  A contender's row is
    fixed by the scenario alone, whoever else contends, and sources come
    last, so adding one leaves every loop's rows where they were.
    """
    keys = [(lc.plant.phase + lc.plant.period * k, i)
            for i, lc in enumerate(scenario.loops) for k in range(lc.horizon)]
    keys += [(tick, SOURCE_CONTENDER_BASE + j)
             for j in range(len(scenario.sources)) for tick in schedule]
    return {key: row for row, key in enumerate(keys)}


@dataclass(eq=False)
class _ChunkDraws:
    """Every random input of a chunk of episodes; any control law may run on it."""

    episodes: range
    schedule: dict[int, list[tuple[int, int]]]
    x0: list[np.ndarray]              # per loop, (E, n)
    noise: list[np.ndarray]           # per loop, (E, N, n)
    active: list[dict[int, list[int]]]  # per episode: tick -> active source ids
    rows: dict[tuple[int, int], int]  # (tick, contender) -> row of a contention table
    tables: list[Optional[np.ndarray]]  # per episode: (rows, slots) draws, or None


def _draw_chunk(scenario: NetworkScenario, seed: int, episodes: range,
                factors: Sequence[NoiseFactors]) -> _ChunkDraws:
    """Draw the noise, the traffic and the contention tables of a chunk.

    Each episode draws from its own streams exactly as it would alone: one
    noise generator per loop, one traffic generator per source, and one
    contention stream, keyed by (episode, role), whose draws fill the
    episode's (rows, slots_per_sample) table in the order of
    `_contention_index`.  In a given scenario a contender's draws thus
    depend only on (seed, episode, contender, tick): every control law and
    threshold meets the same ones.  The table is drawn only if some
    persistence lies strictly between 0 and 1; otherwise no contention draw
    is ever made.
    """
    schedule = _schedule(scenario)
    x0, noise = [], []
    for i in range(len(scenario.loops)):
        drawn = [_noise_for_loop(scenario, seed, ep, i, factors[i]) for ep in episodes]
        x0.append(np.array([x for x, _ in drawn]))
        noise.append(np.array([w for _, w in drawn]))
    rows = _contention_index(scenario, schedule)
    uncertain = any(0.0 < p < 1.0 for p in scenario.crm.persistence)
    shape = (len(rows), scenario.crm.slots_per_sample)
    # Traffic does not depend on the loops, so every source runs up to the
    # last sampling tick first; its contender ids are kept at the sampling ticks.
    active, tables = [], []
    for ep in episodes:
        gens = [RngStream(int(seed), (int(ep), SOURCE_CONTENDER_BASE + j, _ROLE_TRAFFIC))
                .generator() for j in range(len(scenario.sources))]
        state = [0] * len(scenario.sources)
        on_at: dict[int, list[int]] = {}
        for tick in range(max(schedule) + 1):
            for j, src in enumerate(scenario.sources):
                state[j] = traffic_step(src, gens[j], state[j])
            if tick in schedule:
                on_at[tick] = [SOURCE_CONTENDER_BASE + j for j, on in enumerate(state) if on]
        active.append(on_at)
        tables.append(RngStream(int(seed), (int(ep), _ROLE_CONTENTION)).generator()
                      .random(shape) if uncertain else None)
    return _ChunkDraws(episodes, schedule, x0, noise, active, rows, tables)


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
    # each episode's (states, predictions) views, for the per-episode decisions
    episode_rows = [list(zip(tr.xs, pred)) for tr, pred in zip(batch, preds)]
    for tr, x0 in zip(batch, draws.x0):
        tr.xs[:, 0] = x0
    observers = [ObserverState(xhat=np.tile(lc.plant.x0_mean, (n_ep, 1)),
                               tau=np.full(n_ep, -1), k=-1) for lc in loops]
    # B u of the input last applied, shared by the plant step and the next prediction
    bu_prev = [_sum_products(lc.plant.B, np.zeros((n_ep, 1, lc.plant.m))) for lc in loops]
    everyone = range(n_ep)

    for tick, sampling in draws.schedule.items():
        # schedule: one decision per episode and sampling loop
        requests, step_preds = {}, []
        for i, k in sampling:
            tr = batch[i]
            pred = _sum_products(loops[i].plant.A, observers[i].xhat[:, None, :]) + bu_prev[i]
            preds[i][:, k] = pred
            step_preds.append(pred)
            sched = loops[i].scheduler
            gammas = [decide(sched, xs[k], ps[k]) for xs, ps in episode_rows[i]]
            tr.gammas[:, k] = gammas
            for e in compress(everyone, gammas):
                requests.setdefault(e, []).append(i)

        # contend: one round per episode with a request
        delivered = set()
        for e, req in requests.items():
            table = draws.tables[e]
            outcome = resolve_contention(req + draws.active[e][tick], scenario.crm,
                                         lambda c: table[draws.rows[tick, c]].tolist())
            for i, k in sampling:
                if i in outcome.delta:
                    batch[i].deltas[e, k] = outcome.delta[i]
                    batch[i].attempts[e, k] = outcome.attempts_used[i]
                    if outcome.delta[i]:
                        delivered.add(i)
            if event_logs is not None:
                event_logs[e].append((tick, outcome))

        # deliver, estimate, control, step
        for (i, k), pred in zip(sampling, step_preds):
            plant, tr = loops[i].plant, batch[i]
            x = tr.xs[:, k]
            obs = observer_update(observers[i], tr.deltas[:, k],
                                  x if i in delivered else None, pred)
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


def _chunks(episodes: int):
    """The episode ranges the engine runs together, in episode order."""
    for start in range(0, episodes, CHUNK_EPISODES):
        yield range(start, min(start + CHUNK_EPISODES, episodes))


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
    draws = _draw_chunk(scenario, seed, range(episode, episode + 1),
                        _noise_factors(scenario))
    batch = _run_chunk(scenario, draws, control_law, _riccati_solutions(scenario),
                       None if event_log is None else [event_log])
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
    if episodes < 1:
        raise ConfigurationError("episodes must be >= 1")
    loops = scenario.loops
    solutions = _riccati_solutions(scenario)
    factors = _noise_factors(scenario)
    n_loops = len(loops)
    costs = np.zeros((episodes, n_loops))
    costs_lambda = np.zeros((episodes, n_loops))
    tx = np.zeros((episodes, n_loops))
    requests = np.zeros(n_loops)
    successes = np.zeros(n_loops)
    bound_hits = np.zeros(n_loops)
    steps = np.zeros(n_loops)
    attempts_sum = np.zeros(n_loops)
    p_sums = [np.zeros((lc.horizon, lc.plant.n, lc.plant.n)) for lc in loops]

    for chunk in _chunks(episodes):
        logs = [[] for _ in chunk] if event_hook is not None else None
        batch = _run_chunk(scenario, _draw_chunk(scenario, seed, chunk, factors),
                           control_law, solutions, logs)
        if trace_hook is not None or event_hook is not None:
            for e, ep in enumerate(chunk):
                if trace_hook is not None:
                    trace_hook(ep, [_episode_trace(tr, e, ep) for tr in batch])
                if event_hook is not None:
                    event_hook(ep, logs[e])
        rows = slice(chunk.start, chunk.stop)
        for i, tr in enumerate(batch):
            costs[rows, i] = tr.j
            costs_lambda[rows, i] = tr.j_lambda
            tx[rows, i] = tr.deltas.sum(axis=1)
            requests[i] += tr.gammas.sum()
            successes[i] += tr.deltas.sum()
            attempts_sum[i] += tr.attempts.sum()
            steps[i] += tr.gammas.size
            sched = loops[i].scheduler
            if sched.kind in ("state", "innovation"):
                bound_hits[i] += (tr.pred_err_sq <= sched.eps).sum()
            else:
                bound_hits[i] = float("nan")
            for outer in np.einsum("eki,ekj->ekij", tr.errs, tr.errs):
                p_sums[i] += outer   # in episode order

    per_loop = []
    for i, lc in enumerate(loops):
        p_seq = p_sums[i] / episodes
        j_dp = jdp_closed_form(
            solutions[i], lc.plant.x0_mean, lc.plant.R0, lc.plant.Rw, list(p_seq)
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
        req = requests[i]
        per_loop.append(
            LoopStats(
                loop=i,
                report=report,
                request_rate=float(req / steps[i]),
                success_rate=float(successes[i] / req) if req else float("nan"),
                drop_rate=float((req - successes[i]) / req) if req else float("nan"),
                mean_attempts=float(attempts_sum[i] / req) if req else 0.0,
                bound_prob=float(bound_hits[i] / steps[i]),
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
    """Re-run the scenario across scheduler thresholds with common seeds.

    Every loop must carry a threshold scheduler (state or innovation); its
    eps is replaced by each grid value in turn.
    """
    eps_grid = list(eps_grid)
    if not eps_grid:
        raise ConfigurationError("eps grid must not be empty")
    for lc in scenario.loops:
        if lc.scheduler.kind not in ("state", "innovation"):
            raise ConfigurationError(
                "threshold sweep needs state or innovation schedulers, "
                f"got {lc.scheduler.kind!r}"
            )
    cols = {name: [] for name in
            ("j_mean", "j_se", "bound_prob", "request_rate", "success_rate", "drop_rate")}
    for eps in eps_grid:
        loops = tuple(
            replace(lc, scheduler=replace(lc.scheduler, eps=float(eps)))
            for lc in scenario.loops
        )
        scn = replace(scenario, loops=loops)
        res = monte_carlo(scn, seed, episodes, control_law)
        stats = res.per_loop
        cols["j_mean"].append(res.j_mean)
        cols["j_se"].append(res.j_se)
        cols["bound_prob"].append(float(np.mean([s.bound_prob for s in stats])))
        cols["request_rate"].append(float(np.mean([s.request_rate for s in stats])))
        rates = [s.success_rate for s in stats if not math.isnan(s.success_rate)]
        cols["success_rate"].append(float(np.mean(rates)) if rates else float("nan"))
        drops = [s.drop_rate for s in stats if not math.isnan(s.drop_rate)]
        cols["drop_rate"].append(float(np.mean(drops)) if drops else float("nan"))
    return SweepResult(
        eps=np.array(eps_grid, dtype=float),
        j_mean=np.array(cols["j_mean"]),
        j_se=np.array(cols["j_se"]),
        bound_prob=np.array(cols["bound_prob"]),
        request_rate=np.array(cols["request_rate"]),
        success_rate=np.array(cols["success_rate"]),
        drop_rate=np.array(cols["drop_rate"]),
    )


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
    loops = scenario.loops
    solutions = _riccati_solutions(scenario)
    factors = _noise_factors(scenario)
    control_free = all(is_symmetric_control_free(lc.scheduler) for lc in loops)
    identical = 0
    div_ticks = []
    mse_a = np.zeros(episodes)
    mse_b = np.zeros(episodes)
    never = np.iinfo(int).max
    for chunk in _chunks(episodes):
        draws = _draw_chunk(scenario, seed, chunk, factors)
        batch_a = _run_chunk(scenario, draws, law_a, solutions)
        batch_b = _run_chunk(scenario, draws, law_b, solutions)
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
