"""Closed-loop episode engine over M loops and N exogenous sources, with
Monte Carlo aggregation, the threshold sweep, and the paired-control-law
experiment that exhibits (or rules out) the scheduler's control dependence.

Within a tick the order is fixed: sample/schedule, contend, deliver with
instant ACK, estimate, control, step the plants.  Loops live on a global
integer tick grid and act only at their own sampling instants (phase +
multiples of the period); between samples nothing is simulated.  All
randomness is drawn from streams keyed by (master seed, episode, entity,
role), so a (seed, episode, scenario) triple fully determines every trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
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

ControlLaw = Callable[[np.ndarray, np.ndarray], np.ndarray]


def ce_law(L_k: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """Certainty-equivalent input -L_k xhat."""
    return -(L_k @ xhat)


def zero_law(L_k: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    return np.zeros(L_k.shape[0])


@dataclass(eq=False)
class LoopTrace:
    """Everything one loop did in one episode, one row per sampling step."""

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


def _contention_rows(stream: RngStream, keys: list[tuple[int, int]], count: int):
    """Look up the uniform row of a (tick, contender) key of one episode.

    The table holds every key the episode may contend with and is built in
    one pass at the first lookup; an episode whose rounds are all certain
    never builds it.
    """
    table, index = None, {}

    def row(tick: int, contender: int) -> list[float]:
        nonlocal table
        if table is None:
            table = stream.uniforms(keys, count)
            index.update(zip(keys, range(len(keys))))
        return table[index[(tick, contender)]].tolist()

    return row


def _riccati_solutions(scenario: NetworkScenario) -> list[RiccatiSolution]:
    """The backward Riccati solution of every loop, in loop order."""
    return [
        riccati_backward(lc.plant.A, lc.plant.B, lc.Q0, lc.Q1, lc.Q2, lc.horizon)
        for lc in scenario.loops
    ]


def _empty_trace(lc, idx: int, episode: int) -> LoopTrace:
    """A trace whose per-step arrays the engine fills in place."""
    n_steps, n, m = lc.horizon, lc.plant.n, lc.plant.m
    ks = np.arange(n_steps)
    return LoopTrace(
        loop=idx, episode=episode, period=lc.plant.period, phase=lc.plant.phase,
        ks=ks, ticks=lc.plant.phase + lc.plant.period * ks,
        xs=np.empty((n_steps + 1, n)), us=np.empty((n_steps, m)),
        gammas=np.empty(n_steps, dtype=int), deltas=np.empty(n_steps, dtype=int),
        attempts=np.empty(n_steps, dtype=int),
        xhats=np.empty((n_steps, n)), errs=np.empty((n_steps, n)),
        pred_err_sq=np.empty(n_steps),
        taus=np.empty(n_steps, dtype=int), delays=np.empty(n_steps, dtype=int),
        cost_terms=np.empty(n_steps), terminal_cost=0.0, j=0.0, j_lambda=0.0,
    )


def run_episode(
    scenario: NetworkScenario,
    seed: int,
    episode: int,
    control_law: ControlLaw = ce_law,
    solutions: Optional[Sequence[RiccatiSolution]] = None,
    noise_factors: Optional[Sequence[NoiseFactors]] = None,
    event_log: Optional[list] = None,
) -> list[LoopTrace]:
    """Simulate one episode and return one trace per loop.

    `solutions` and `noise_factors` may carry the precomputed Riccati
    solutions and noise square roots (one per loop) to avoid recomputing
    them across episodes.  If `event_log` is a list it receives
    (tick, SlotOutcome) pairs for every contention round.
    """
    loops = scenario.loops
    if solutions is None:
        solutions = _riccati_solutions(scenario)
    if noise_factors is None:
        noise_factors = _noise_factors(scenario)
    traces = [_empty_trace(lc, i, episode) for i, lc in enumerate(loops)]
    noises = []
    for i, tr in enumerate(traces):
        x0, w = _noise_for_loop(scenario, seed, episode, i, noise_factors[i])
        tr.xs[0] = x0
        noises.append(w)
    # the loops sampling at each tick, in loop order, with their step index
    schedule: dict[int, list[tuple[int, int]]] = {}
    for i, tr in enumerate(traces):
        for k, tick in enumerate(tr.ticks.tolist()):
            schedule.setdefault(tick, []).append((i, k))

    # Traffic does not depend on the loops, so every source runs through the
    # whole episode first; its contender ids are kept at the sampling ticks.
    traffic_gens = [
        RngStream(int(seed), (int(episode), SOURCE_CONTENDER_BASE + j, _ROLE_TRAFFIC)).generator()
        for j in range(len(scenario.sources))
    ]
    traffic_state = [0] * len(scenario.sources)
    active: dict[int, list[int]] = {}
    for tick in range(scenario.global_horizon + 1):
        for j, src in enumerate(scenario.sources):
            traffic_state[j] = traffic_step(src, traffic_gens[j], traffic_state[j])
        if tick in schedule:
            active[tick] = [SOURCE_CONTENDER_BASE + j
                            for j, on in enumerate(traffic_state) if on]
    ticks = sorted(schedule)
    draws = _contention_rows(
        RngStream(int(seed), (int(episode), _ROLE_CONTENTION)),
        [(tick, c) for tick in ticks for c in [i for i, _ in schedule[tick]] + active[tick]],
        scenario.crm.slots_per_sample,
    )
    observers = [ObserverState.initial(lc.plant) for lc in loops]
    u_prev = [np.zeros(lc.plant.m) for lc in loops]

    for tick in ticks:
        sampling = schedule[tick]

        # schedule
        preds, requests = [], []
        for i, k in sampling:
            plant = loops[i].plant
            pred = plant.A @ observers[i].xhat + plant.B @ u_prev[i]
            preds.append(pred)
            gamma = decide(loops[i].scheduler, traces[i].xs[k], pred)
            traces[i].gammas[k] = gamma
            if gamma:
                requests.append(i)

        # contend
        outcome = None
        if requests:
            outcome = resolve_contention(requests + active[tick], scenario.crm,
                                         partial(draws, tick))
            if event_log is not None:
                event_log.append((tick, outcome))

        # deliver, estimate, control, step
        for (i, k), pred in zip(sampling, preds):
            lc, tr = loops[i], traces[i]
            x = tr.xs[k]
            delta = outcome.delta.get(i, 0) if outcome is not None else 0
            obs = observer_update(observers[i], delta, x if delta else None, pred)
            observers[i] = obs
            u = control_law(solutions[i].L[k], obs.xhat)
            resid = x - pred
            tr.us[k] = u
            tr.deltas[k] = delta
            tr.attempts[k] = outcome.attempts_used.get(i, 0) if outcome is not None else 0
            tr.xhats[k] = obs.xhat
            tr.errs[k] = x - obs.xhat
            tr.pred_err_sq[k] = float(resid @ resid)
            tr.taus[k] = obs.tau
            tr.delays[k] = obs.delay
            tr.cost_terms[k] = float(x @ lc.Q1 @ x) + float(u @ lc.Q2 @ u)
            tr.xs[k + 1] = lc.plant.A @ x + lc.plant.B @ u + noises[i][k]
            u_prev[i] = u

    for lc, tr in zip(loops, traces):
        terminal = tr.xs[-1]
        tr.terminal_cost = float(terminal @ lc.Q0 @ terminal)
        j = 0.0
        for cost in tr.cost_terms.tolist():   # in step order, not numpy's pairwise sum
            j += cost
        tr.j = j + tr.terminal_cost
        tr.j_lambda = tr.j + lc.net_penalty * float(tr.deltas.sum())
    return traces


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
    receive (episode, traces) and (episode, contention event log) as each
    episode completes; they exist for CSV dumping.
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

    for ep in range(episodes):
        event_log = [] if event_hook is not None else None
        traces = run_episode(scenario, seed, ep, control_law, solutions, factors, event_log)
        if trace_hook is not None:
            trace_hook(ep, traces)
        if event_hook is not None:
            event_hook(ep, event_log)
        for i, tr in enumerate(traces):
            costs[ep, i] = tr.j
            costs_lambda[ep, i] = tr.j_lambda
            tx[ep, i] = tr.deltas.sum()
            requests[i] += tr.gammas.sum()
            successes[i] += tr.deltas.sum()
            attempts_sum[i] += tr.attempts.sum()
            steps[i] += tr.ks.size
            sched = loops[i].scheduler
            if sched.kind in ("state", "innovation"):
                bound_hits[i] += (tr.pred_err_sq <= sched.eps).sum()
            else:
                bound_hits[i] = float("nan")
            p_sums[i] += np.einsum("ki,kj->kij", tr.errs, tr.errs)

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
    paired difference.
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
    for ep in range(episodes):
        tr_a = run_episode(scenario, seed, ep, law_a, solutions, factors)
        tr_b = run_episode(scenario, seed, ep, law_b, solutions, factors)
        same = True
        first_tick = None
        for ta, tb in zip(tr_a, tr_b):
            diff = ta.gammas != tb.gammas
            if diff.any():
                same = False
                tick = int(ta.ticks[int(np.argmax(diff))])
                first_tick = tick if first_tick is None else min(first_tick, tick)
        if same:
            identical += 1
        else:
            div_ticks.append(first_tick)
        mse_a[ep] = np.mean([float((ta.errs ** 2).sum(axis=1).mean()) for ta in tr_a])
        mse_b[ep] = np.mean([float((tb.errs ** 2).sum(axis=1).mean()) for tb in tr_b])
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
