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
meets the same draws under every control law.  A chunk's streams of one
role are seeded in one pass (`_streams`, `model.pcg64_states`) and drawn
from one reused generator, whose first state is checked against the
reference `RngStream.generator` once per chunk and role.

There is one engine, and it runs a chunk of episodes at once.  A chunk
holds as many episodes as fit in CHUNK_CELLS array cells, and at least
one: an episode's cells are its draws (the noise row, the traffic table,
and the contention table if it is drawn) and its stacks' step arrays
(`_Layout.cells`), so a small network runs in long chunks and a large one
in short ones.  The loops of equal (n, m, horizon) form a stack
(`_Stack`), whose states, estimates and inputs are (episodes, loops, n)
arrays and whose matrices and gains the plan's steps (`_Step`) index, and
every tick does the prediction, scheduler decision, observer update,
control law and plant step once per stack, for its sampling loops and the
whole chunk; the residuals, errors, delivery ages and cost terms then
follow from the stored steps, all steps at once, and each loop's trace is
a view into its stack's arrays.  A control law therefore takes the
(l, m, n) gains L_k of a stack's l sampling loops and an (E, l, n) array
of their estimates, and returns an (E, l, m) array of inputs or any shape
that broadcasts to it, such as one (m,) input for every episode and loop.
Products over the plant dimensions are elementwise multiply-adds in index
order (`_sum_products`), so an episode's bits do not depend on the chunk
it ran in, nor a loop's on its stack.  The channel runs on the chunk too.  At
each tick every stack takes its sampling loops' scheduler decisions for
all episodes in one array expression (`_requests`, the rule of
`scheduling.decide`), and one array round (`network.contend`) resolves
the contention of every episode with a request: its columns are the
tick's contenders in id order, and each row meets that episode's own
draws.  Only when the event dump asks for them, each round also derives
its events from its per-slot masks, and the chunk's events become one
`EventTable` of int columns (the rounds' `Round.events`, then one stable
sort by episode), which `monte_carlo` hands to its event hook once per
chunk, as it hands the chunk traces to its trace hook.  That table is the
engine's one form of its events; `run_episode` returns traces only.  Each
source's activity comes from its row of the episode's traffic table
(`network.traffic_activity`).
`decide`, `resolve_contention` and `traffic_step` stay as the per-episode,
per-round and per-tick references the array forms are tested against.

One driver, `_run_arms`, draws each chunk once and runs every arm on it:
an arm is a (scenario variant, control law) pair.  `monte_carlo` and
`run_episode` run one arm, `dual_effect_experiment` one per control law and
`sweep_threshold` one per threshold, so the arms they compare meet the same
noise, traffic and contention draws.  Each call derives everything it
needs from its scenario once, in `_layout`: one Riccati solution for all
loops with equal dynamics, weights and horizon, one pair of noise roots for
all with equal R0 and Rw, and the stacks with their members' matrices,
roots and solutions stacked.  `_run_arms` derives from it the plan of what
every tick does (`_plan`), once per call; a draw alone needs no plan.
Every arm, chunk and tally reads that layout; nothing is kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .control import CostReport, jdp_stack, riccati_backward
from .errors import ConfigurationError, NumericalError
from .estimation import last_delivery, observer_update
from .model import NetworkScenario, RngStream, _integer, pcg64_states, psd_sqrt
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
# the array cells of a chunk of episodes, which sets its length (`_run_arms`)
CHUNK_CELLS = 1 << 19

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
    """x' Q x for every row x of X, evaluated as (x' Q) x; Q may carry
    leading axes that broadcast against those of X."""
    return _sum_products(_sum_products(np.swapaxes(Q, -1, -2), X[..., None, :]), X)


def ce_law(L_k: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """Certainty-equivalent input -L_k xhat: each loop's gain in the (l, m, n)
    L_k times its estimates in the (E, l, n) xhat, for every episode."""
    return -_sum_products(L_k, xhat[..., None, :])


def zero_law(L_k: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """No input: an (l, m) array of zeros, which holds for every episode."""
    return np.zeros(L_k.shape[:-1])


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

    def part(self, episodes: slice) -> LoopTrace:
        """The given episodes of a chunk trace, as views into its arrays."""
        return replace(self, **{name: getattr(self, name)[episodes]
                                for name in (*_PER_STEP, "terminal_cost", "j", "j_lambda")})


_PER_STEP = ("xs", "us", "gammas", "deltas", "attempts", "xhats", "errs",
             "pred_err_sq", "taus", "delays", "cost_terms")


def _episode_trace(batch: LoopTrace, e: int, episode: int) -> LoopTrace:
    """Episode e of a chunk trace, as views into its arrays."""
    return LoopTrace(
        batch.loop, episode, batch.period, batch.phase, batch.ks, batch.ticks,
        *(getattr(batch, name)[e] for name in _PER_STEP),
        float(batch.terminal_cost[e]), float(batch.j[e]), float(batch.j_lambda[e]),
    )


class EventTable(NamedTuple):
    """A chunk's contention events, one entry per contender and mini-slot,
    as equal-length int arrays.  A result is its code in `network.RESULTS`.
    The entries run by episode, then tick, then in the order the tick's
    round emits them, as `network.resolve_contention` does."""

    episode: np.ndarray
    tick: np.ndarray
    slot: np.ndarray
    contender: np.ndarray
    attempt: np.ndarray
    result: np.ndarray


@dataclass(eq=False)
class _Stack:
    """The loops of one (n, m, horizon), in loop order, with their matrices,
    noise roots and Riccati solutions stacked along a loop axis.  A chunk
    holds their steps in (E, L_s, ...) arrays, and each tick runs their
    sampling loops as one array step."""

    loops: list[int]       # loop indices, ascending
    horizon: int
    block: np.ndarray      # (L_s, n (N + 1)): the members' indices in the noise row
    x0_mean: np.ndarray    # (L_s, n)
    R0: np.ndarray         # (L_s, n, n)
    Rw: np.ndarray         # (L_s, n, n)
    sqrt_r0: np.ndarray    # (L_s, n, n)
    sqrt_rw: np.ndarray    # (L_s, 1, n, n), one per process-noise step
    A: np.ndarray          # (L_s, n, n)
    B: np.ndarray          # (L_s, n, m)
    Q0: np.ndarray         # (L_s, n, n)
    Q1: np.ndarray         # (L_s, 1, n, n), one per step
    Q2: np.ndarray         # (L_s, 1, m, m), one per step
    S: np.ndarray          # (L_s, N + 1, n, n): the Riccati value matrices
    L: np.ndarray          # (L_s, N, m, n): the gains
    W: np.ndarray          # (L_s, N, n, n): the error weights of the predicted cost
    net_penalty: np.ndarray  # (L_s,)
    ticks: list[np.ndarray]  # per member, its sampling ticks


def _stack(loops, members: list[int], solutions, roots, loop_ticks,
           offsets: np.ndarray) -> _Stack:
    lcs = [loops[i] for i in members]
    size = int(offsets[members[0] + 1] - offsets[members[0]])

    def stacked(values):
        return np.stack(list(values))

    return _Stack(
        loops=members, horizon=lcs[0].horizon,
        block=offsets[members][:, None] + np.arange(size),
        x0_mean=stacked(lc.plant.x0_mean for lc in lcs),
        R0=stacked(lc.plant.R0 for lc in lcs), Rw=stacked(lc.plant.Rw for lc in lcs),
        sqrt_r0=stacked(roots[i][0] for i in members),
        sqrt_rw=stacked(roots[i][1] for i in members)[:, None],
        A=stacked(lc.plant.A for lc in lcs), B=stacked(lc.plant.B for lc in lcs),
        Q0=stacked(lc.Q0 for lc in lcs), Q1=stacked(lc.Q1 for lc in lcs)[:, None],
        Q2=stacked(lc.Q2 for lc in lcs)[:, None],
        S=stacked(solutions[i].S for i in members), L=stacked(solutions[i].L for i in members),
        W=stacked(solutions[i].W for i in members),
        net_penalty=np.array([lc.net_penalty for lc in lcs], dtype=float),
        ticks=[loop_ticks[i] for i in members],
    )


@dataclass(eq=False)
class _Step:
    """One stack's sampling loops at one tick, as indices into the stack:
    their matrices are `A[slots]` and `B[slots]` and their gains
    `L[slots, k]` of the stack's arrays.

    `slots` and `k` are a slice and an int when the loops are consecutive
    members at one step, so that the stack's arrays are read and written
    by basic indexing; otherwise both are index arrays.
    """

    stack: int
    slots: slice | np.ndarray   # the loops' slots in the stack
    k: int | np.ndarray         # their steps
    cols: slice | np.ndarray    # their columns of the tick's contention round


@dataclass(eq=False)
class _Tick:
    tick: int
    rows: np.ndarray    # the contention-table rows of the tick's entries
    ids: np.ndarray     # its contenders: the sampling loops, then every source
    n_loops: int        # its sampling loops
    steps: list[_Step]


@dataclass(eq=False)
class _Layout:
    """Everything a call derives from its scenario: where an episode's draws
    go, when the loops sample and their stacks, but not what every tick does
    (`_plan`).  Each call derives it once, and every arm, chunk and tally reads it.

    An episode draws from three streams, keyed by the master seed:
    - noise, keyed (episode, 0, noise): one `standard_normal` row of the
      loops' blocks in loop order, each the loop's n draws for x0 and then
      its N x n process-noise draws, turned into noise by its stack's roots;
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
    every control law and threshold meets the same ones.  Each tick of the
    plan reads its contention rows in contender-id order: the sampling
    loops, then every source.  The loops are grouped in stacks of equal
    (n, m, horizon), in order of their first loop; a stack's noise is drawn
    straight into its stacked arrays, and a tick's steps index them.
    """

    width: int             # the draws of the noise row
    rows: int              # the contention table's rows: the loops' steps, then the sources'
    slots: int             # the contention table's columns, 0 if it is not drawn
    cells: int             # one episode's noise row, tables and stack step arrays
    ticks: np.ndarray      # the sampling ticks, ascending
    sources: int           # the exogenous sources
    stacks: list[_Stack]


def _layout(scenario: NetworkScenario) -> _Layout:
    """The scenario's layout.  One Riccati solution is derived for all loops
    with equal horizon, dynamics and weights, and one pair of noise roots
    for all loops with equal R0 and Rw."""
    loops, n_src = scenario.loops, len(scenario.sources)
    solved, rooted, solutions, roots, members = {}, {}, [], [], {}
    for i, lc in enumerate(loops):
        plant = lc.plant
        args = (plant.A, plant.B, lc.Q0, lc.Q1, lc.Q2)
        key = (lc.horizon, plant.n, plant.m, *(a.tobytes() for a in args))
        if key not in solved:
            solved[key] = riccati_backward(*args, lc.horizon)
        solutions.append(solved[key])
        key = (plant.R0.tobytes(), plant.Rw.tobytes())
        if key not in rooted:
            rooted[key] = (psd_sqrt(plant.R0), psd_sqrt(plant.Rw))
        roots.append(rooted[key])
        members.setdefault((plant.n, plant.m, lc.horizon), []).append(i)
    loop_ticks = [lc.plant.phase + lc.plant.period * np.arange(lc.horizon) for lc in loops]
    ticks = np.unique(np.concatenate(loop_ticks))
    offsets = np.cumsum([0] + [lc.plant.n * (lc.horizon + 1) for lc in loops])
    stacks = [_stack(loops, group, solutions, roots, loop_ticks, offsets)
              for group in members.values()]
    rows = sum(lc.horizon for lc in loops) + n_src * ticks.size
    crm = scenario.crm
    slots = crm.slots_per_sample if any(0.0 < p < 1.0 for p in crm.persistence) else 0
    # a loop's arrays in `_StackSteps`: xs and xhats hold N + 1 steps, us,
    # preds and the three int arrays N, and bu one
    step_cells = sum((lc.horizon + 1) * 2 * lc.plant.n
                     + lc.horizon * (lc.plant.n + lc.plant.m + 3) + lc.plant.n for lc in loops)
    cells = int(offsets[-1]) + n_src * int(ticks[-1] + 1) + rows * slots + step_cells
    return _Layout(int(offsets[-1]), rows, slots, cells, ticks, n_src, stacks)


def _plan(layout: _Layout) -> list[_Tick]:
    """Per sampling tick, what it does: its contention-table rows and
    contenders, in contender-id order, and a step per stack that samples."""
    stacks, ticks, n_src = layout.stacks, layout.ticks, layout.sources
    where = {i: (s, slot) for s, st in enumerate(stacks) for slot, i in enumerate(st.loops)}
    loop_ticks = [stacks[s].ticks[slot] for _, (s, slot) in sorted(where.items())]
    # every entry in the contention table's order, then sorted by tick
    at = np.concatenate(loop_ticks + [np.tile(ticks, n_src)])
    source_ids = SOURCE_CONTENDER_BASE + np.arange(n_src)
    contenders = np.concatenate([np.full(t.size, i) for i, t in enumerate(loop_ticks)]
                                + [np.repeat(source_ids, ticks.size)])
    steps = np.concatenate([np.arange(t.size) for t in loop_ticks]
                           + [np.tile(np.arange(ticks.size), n_src)])
    rows = np.argsort(at, kind="stable")
    contenders, steps = contenders[rows], steps[rows].tolist()
    starts = np.searchsorted(at[rows], ticks).tolist() + [rows.size]
    plan = []
    for t, tick in enumerate(ticks.tolist()):
        lo, hi = starts[t], starts[t + 1]
        groups = {}
        for col, (i, k) in enumerate(zip(contenders[lo:hi - n_src].tolist(),
                                         steps[lo:hi - n_src])):
            s, slot = where[i]
            groups.setdefault(s, []).append((col, slot, k))
        tick_steps = []
        for s, entries in groups.items():
            cols, slots, ks = (list(v) for v in zip(*entries))
            sel, k = _index(slots), ks[0]
            if isinstance(sel, np.ndarray) or ks != [k] * len(ks):
                sel, k = np.array(slots), np.array(ks)
            tick_steps.append(_Step(s, sel, k, _index(cols)))
        plan.append(_Tick(tick, rows[lo:hi], contenders[lo:hi], hi - lo - n_src, tick_steps))
    return plan


def _index(values: list[int]) -> slice | np.ndarray:
    """values as a slice if they run up by one, else as an index array."""
    if values == list(range(values[0], values[0] + len(values))):
        return slice(values[0], values[0] + len(values))
    return np.array(values)


@dataclass(eq=False)
class _ChunkDraws:
    """Every random input of a chunk of episodes; any control law may run on it."""

    episodes: range
    stack_x0: list[np.ndarray]        # per stack, (E, L_s, n)
    stack_noise: list[np.ndarray]     # per stack, (E, L_s, N, n)
    active: np.ndarray                # (E, sampling ticks, sources) bool
    tables: Optional[np.ndarray]      # (E, rows, slots) draws, or None


def _streams(seed: int, episodes: range, *key: int):
    """Yield, for each episode in turn, a generator at the start of the
    stream `RngStream(seed, (episode, *key))`.

    It is one generator, reused: built once as that reference for the first
    episode, then set to each episode's state from `pcg64_states` before it
    is yielded.  The first state must equal the reference's, or numpy seeds
    its streams in some other way than `pcg64_states` computes.
    """
    try:
        first = np.arange(episodes.start, episodes.stop, dtype=np.int64)
    except OverflowError:
        first = np.array(episodes, dtype=object)
    keys = np.empty((len(episodes), 1 + len(key)), dtype=first.dtype)
    keys[:, 0], keys[:, 1:] = first, key
    gen = RngStream(seed, (episodes[0], *key)).generator()
    states = pcg64_states(seed, keys)
    bitgen = gen.bit_generator
    # the fresh state: has_uint32 and uinteger are 0
    state = bitgen.state
    if state["state"] != {"state": states[0][0], "inc": states[0][1]}:
        raise NumericalError(
            f"batched seeding of stream {(episodes[0], *key)} of seed {seed} disagrees "
            f"with SeedSequence and PCG64 of numpy {np.__version__}")
    for start, inc in states:
        state["state"] = {"state": start, "inc": inc}
        bitgen.state = state
        yield gen


def _draw_chunk(scenario: NetworkScenario, layout: _Layout, seed: int,
                episodes: range) -> _ChunkDraws:
    """Draw the noise, the traffic and the contention tables of a chunk,
    each role in one pass over the chunk's episodes.

    Each episode draws exactly as it would alone, in the order of `_Layout`,
    from its stream of each role, which `_streams` seeds for the whole
    chunk at once.  The roots multiply the noise blocks by `_sum_products`,
    so an episode's bits do not depend on its chunk.
    """
    n_ep = len(episodes)
    z = np.empty((n_ep, layout.width))
    for e, gen in enumerate(_streams(seed, episodes, 0, _ROLE_NOISE)):
        gen.standard_normal(out=z[e])
    stack_x0, stack_noise = [], []
    for st in layout.stacks:
        n_loops, n = st.x0_mean.shape
        block = z[:, st.block]
        stack_x0.append(st.x0_mean + _sum_products(st.sqrt_r0, block[..., None, :n]))
        stack_noise.append(_sum_products(
            st.sqrt_rw, block[..., n:].reshape(n_ep, n_loops, st.horizon, 1, n)))
    ticks, sources = layout.ticks, scenario.sources
    active = np.zeros((n_ep, ticks.size, len(sources)), dtype=bool)
    if sources:
        # each episode's (sources, last sampling tick + 1) traffic table
        u = np.empty((n_ep, len(sources), ticks[-1] + 1))
        for row, gen in zip(u, _streams(seed, episodes, SOURCE_CONTENDER_BASE, _ROLE_TRAFFIC)):
            gen.random(out=row)
        for j, src in enumerate(sources):
            active[:, :, j] = traffic_activity(src, u[:, j])[:, ticks]
    tables = None
    if layout.slots:
        tables = np.empty((n_ep, layout.rows, layout.slots))
        for e, gen in enumerate(_streams(seed, episodes, _ROLE_CONTENTION)):
            gen.random(out=tables[e])
    return _ChunkDraws(episodes, stack_x0, stack_noise, active, tables)


@dataclass(eq=False)
class _Rule:
    """One arm's scheduler rule for one stack: the rule kinds its members
    use, each with the mask of the members that use it, and each member's
    eps, or its threshold under a half-line rule."""

    kinds: list[tuple[str, np.ndarray]]   # "always", "state", "innovation", "ge", "le"
    param: np.ndarray                     # (L_s,)


def _rules(scenario: NetworkScenario, layout: _Layout) -> list[_Rule]:
    """The scenario's request rule for each stack of the layout."""
    rules = []
    for st in layout.stacks:
        policies = [scenario.loops[i].scheduler for i in st.loops]
        kinds = np.array([p.direction if p.kind == "halfline" else p.kind for p in policies])
        param = np.array([p.threshold if p.kind == "halfline" else p.eps for p in policies])
        rules.append(_Rule([(kind, kinds == kind) for kind in dict.fromkeys(kinds.tolist())],
                           param))
    return rules


def _requests(rule: _Rule, slots, x: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """The scheduler's request of the stack's loops at `slots` for every row
    of the (E, l, n) states x and predictions pred, as a bool array: the
    rule of `decide`, with its squared norms taken by `_sum_products` as
    the trace's `pred_err_sq` is."""
    want = np.zeros(x.shape[:-1], dtype=bool)
    for kind, members in rule.kinds:
        if kind == "always":
            hit = True
        elif kind == "state":
            hit = _sum_products(x, x) > rule.param[slots]
        elif kind == "innovation":
            r = x - pred
            hit = _sum_products(r, r) > rule.param[slots]
        elif kind == "ge":
            hit = x[..., 0] >= rule.param[slots]
        else:
            hit = x[..., 0] <= rule.param[slots]
        want |= hit & members[slots]
    return want


@dataclass(eq=False)
class _StackSteps:
    """A chunk's steps of one stack, as (E, L_s, ...) arrays that the engine
    fills in place.  xhats holds the observer's prior in step slot 0, so
    the estimate after step k sits in slot k + 1."""

    xs: np.ndarray          # (E, L_s, N + 1, n)
    us: np.ndarray          # (E, L_s, N, m)
    gammas: np.ndarray
    deltas: np.ndarray
    attempts: np.ndarray
    xhats: np.ndarray       # (E, L_s, N + 1, n)
    preds: np.ndarray       # (E, L_s, N, n)
    bu: np.ndarray          # (E, L_s, n): B u of the input last applied


def _stack_steps(st: _Stack, x0: np.ndarray, n_ep: int) -> _StackSteps:
    n_loops, n = st.x0_mean.shape
    shape = (n_ep, n_loops, st.horizon)
    xs = np.empty((n_ep, n_loops, st.horizon + 1, n))
    xs[:, :, 0] = x0
    xhats = np.empty((n_ep, n_loops, st.horizon + 1, n))
    xhats[:, :, 0] = st.x0_mean
    return _StackSteps(
        xs=xs, us=np.empty(shape + (st.B.shape[-1],)), gammas=np.zeros(shape, dtype=int),
        deltas=np.zeros(shape, dtype=int), attempts=np.zeros(shape, dtype=int),
        xhats=xhats, preds=np.empty(shape + (n,)),
        bu=np.zeros((n_ep, n_loops, n)),
    )


def _breakdown(scenario: NetworkScenario, chunk: range, stacks: Sequence[_Stack],
               bad: Sequence[np.ndarray], what: str) -> NumericalError:
    """The NumericalError that names the first (episode, tick, loop), in
    that order, where a stack's (E, L_s, steps) mask in `bad` holds; a
    loop's step k is at tick phase + period * k."""
    found = []
    for st, mask in zip(stacks, bad):
        k = mask.argmax(axis=-1)
        for e, slot in zip(*np.nonzero(mask.any(axis=-1))):
            plant = scenario.loops[st.loops[slot]].plant
            found.append((int(e), plant.phase + plant.period * int(k[e, slot]), st.loops[slot]))
    e, tick, loop = min(found)
    return NumericalError(f"{what} of loop {loop} is not finite at tick {tick} "
                          f"of episode {chunk[e]}")


# an overflow is reported as a NumericalError that says where it happened,
# not as numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def _run_chunk(
    scenario: NetworkScenario,
    rules: Sequence[_Rule],
    draws: _ChunkDraws,
    control_law: ControlLaw,
    layout: _Layout,
    plan: Sequence[_Tick],
    rounds_log: Optional[list] = None,
    tally: Optional[_Tally] = None,
) -> list[LoopTrace]:
    """Run one control law on a chunk's draws; one chunk trace per loop.

    `rules` holds the request rule of each stack, and `plan` what each
    sampling tick of the layout does (`_plan`).  The observer's estimate
    is the delivered state or the prediction (`observer_update`); each
    step's delivery age follows from the deltas once the ticks are done.
    If `rounds_log` is a list it receives (tick, asking, events) for every
    tick with a contention round: the chunk rows of the episodes that
    contended, and the round's `Round.events`.  A `tally` takes each
    stack's steps as they stand.  A state or a cost that is not finite
    raises a NumericalError naming its episode, loop and tick.
    """
    stacks = layout.stacks
    n_ep = len(draws.episodes)
    runs = [_stack_steps(st, x0, n_ep) for st, x0 in zip(stacks, draws.stack_x0)]

    for t, tick in enumerate(plan):
        # schedule: one decision per stack for its sampling loops, whole chunk
        preds, wants = [], np.empty((n_ep, tick.n_loops), dtype=bool)
        for step in tick.steps:
            st, run, j, k = stacks[step.stack], runs[step.stack], step.slots, step.k
            pred = _sum_products(st.A[j], run.xhats[:, j, k][..., None, :]) + run.bu[:, j]
            run.preds[:, j, k] = pred
            want = _requests(rules[step.stack], j, run.xs[:, j, k], pred)
            run.gammas[:, j, k] = wants[:, step.cols] = want
            preds.append(pred)

        # contend: one round per episode with a loop's request, all at once;
        # the columns are the tick's entries
        asking = np.flatnonzero(wants.any(axis=1))
        if asking.size:
            table = None
            if draws.tables is not None:
                table = draws.tables[np.ix_(asking, tick.rows)]
            rnd = contend(np.concatenate((wants[asking], draws.active[asking, t]), axis=1),
                          scenario.crm, table, None if rounds_log is None else tick.ids)
            for step in tick.steps:
                run = runs[step.stack]
                # with index-array slots and steps, the rows must broadcast as a column
                rows = asking if isinstance(step.slots, slice) else asking[:, None]
                run.deltas[rows, step.slots, step.k] = rnd.delta[:, step.cols]
                run.attempts[rows, step.slots, step.k] = rnd.used[:, step.cols]
            if rounds_log is not None:
                rounds_log.append((tick.tick, asking, rnd.events))

        # deliver, estimate, control, step
        for step, pred in zip(tick.steps, preds):
            st, run, j, k = stacks[step.stack], runs[step.stack], step.slots, step.k
            x = run.xs[:, j, k]
            xhat = observer_update(run.deltas[:, j, k], x, pred)
            u = control_law(st.L[j, k], xhat)
            run.us[:, j, k] = u
            run.xhats[:, j, k + 1] = xhat
            bu = run.bu[:, j] = _sum_products(st.B[j], u[..., None, :])
            run.xs[:, j, k + 1] = (_sum_products(st.A[j], x[..., None, :]) + bu
                                   + draws.stack_noise[step.stack][:, j, k])

    if not all(np.isfinite(run.xs).all() for run in runs):
        raise _breakdown(scenario, draws.episodes, stacks,
                         [~np.isfinite(run.xs).all(axis=-1) for run in runs], "the state")

    # what follows from the stored steps, for all steps at once; each loop's
    # trace is a view into its stack's arrays
    traces = [None] * len(scenario.loops)
    for s, (st, run) in enumerate(zip(stacks, runs)):
        ks = np.arange(st.horizon)
        xs, xhats = run.xs[:, :, :-1], run.xhats[:, :, 1:]
        taus = last_delivery(run.deltas)
        resid = xs - run.preds
        per_step = dict(
            xs=run.xs, us=run.us, gammas=run.gammas, deltas=run.deltas,
            attempts=run.attempts, xhats=xhats, errs=xs - xhats,
            pred_err_sq=_sum_products(resid, resid), taus=taus, delays=ks - taus,
            cost_terms=_quad(st.Q1, xs) + _quad(st.Q2, run.us),
        )
        terminal = _quad(st.Q0, run.xs[:, :, -1])
        # cumsum adds in step order, not numpy's pairwise sum
        j = np.cumsum(per_step["cost_terms"], axis=-1)[..., -1] + terminal
        if not np.isfinite(j).all():
            costs = np.concatenate((per_step["cost_terms"], terminal[..., None]), axis=-1)
            raise _breakdown(scenario, draws.episodes, [st], [~np.isfinite(costs)], "the cost")
        j_lambda = j + st.net_penalty * run.deltas.sum(axis=-1)
        if tally is not None:
            tally.add(draws.episodes, s, per_step, j, j_lambda)
        for slot, i in enumerate(st.loops):
            plant = scenario.loops[i].plant
            traces[i] = LoopTrace(
                i, draws.episodes[0], plant.period, plant.phase, ks, st.ticks[slot],
                **{name: arr[:, slot] for name, arr in per_step.items()},
                terminal_cost=terminal[:, slot], j=j[:, slot], j_lambda=j_lambda[:, slot],
            )
    return traces


_Arm = tuple[NetworkScenario, ControlLaw]


def _run_arms(arms: Sequence[_Arm], layout: _Layout, seed: int, episodes: range,
              keep_rounds: bool = False, tallies: Optional[Sequence[_Tally]] = None):
    """Run every arm on each chunk of `episodes`, drawing the chunk once.

    The chunks run in episode order.  Each holds CHUNK_CELLS // cells
    episodes, and at least one, where cells are one episode's noise row,
    traffic and contention tables and stack step arrays (`_Layout.cells`);
    the last may hold fewer.  Every chunk is drawn on the one `layout`, the
    first arm's, and every arm runs on it by the one plan derived from it.
    So the arms may differ in schedulers and control laws, which the layout
    does not depend on, but must not differ in plants, weights or horizons,
    the channel or the sources.
    Yields (chunk, one chunk trace per arm, one rounds log per arm), where
    an arm's log is the list `_run_chunk` fills if `keep_rounds` is set,
    else None.  Given `tallies`, one per arm, each arm's chunk is added to
    its tally before the chunk is yielded.
    """
    scenario, plan = arms[0][0], _plan(layout)
    rules = [_rules(scn, layout) for scn, _ in arms]
    tallies = tallies or [None] * len(arms)
    size = max(1, CHUNK_CELLS // layout.cells)
    for start in range(episodes.start, episodes.stop, size):
        chunk = range(start, min(start + size, episodes.stop))
        draws = _draw_chunk(scenario, layout, seed, chunk)
        logs = [[] if keep_rounds else None for _ in arms]
        batches = [_run_chunk(scn, rule, draws, law, layout, plan, log, tally)
                   for (scn, law), rule, log, tally in zip(arms, rules, logs, tallies)]
        # the traces do not refer to the draws: free them while the caller
        # reads the chunk, and hold no chunk while the next one runs
        del draws
        yield chunk, batches, logs
        del batches, logs


def run_episode(
    scenario: NetworkScenario,
    seed: int,
    episode: int,
    control_law: ControlLaw = ce_law,
) -> list[LoopTrace]:
    """Simulate one episode and return one trace per loop, as views into
    the arrays of its one-episode chunk.  Its contention events are its rows
    of the `EventTable` that `monte_carlo`'s event hook gets for the same
    seed."""
    seed = _integer(seed, "seed", "an integer >= 0", 0)
    episode = _integer(episode, "episode", "an integer >= 0", 0)
    _, (batch,), _ = next(_run_arms([(scenario, control_law)], _layout(scenario), seed,
                                    range(episode, episode + 1)))
    return [_episode_trace(tr, 0, episode) for tr in batch]


def _event_table(chunk: range, rounds_log: list) -> EventTable:
    """The event table of a chunk from its rounds log: each round's events
    in tick order, then one stable sort by episode."""
    parts = []
    for tick, asking, (row, *columns) in rounds_log:
        parts.append((asking[row], np.full(row.size, tick), *columns))
    if not parts:
        return EventTable(*(np.zeros(0, dtype=int),) * 6)
    episode, *columns = (np.concatenate(col) for col in zip(*parts))
    order = np.argsort(episode, kind="stable")
    return EventTable(episode[order] + chunk.start, *(col[order] for col in columns))


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


def _check_run(seed: int, episodes: int) -> tuple[int, int]:
    """The seed and the episode count as ints.  A seed that is not an
    integer >= 0, or a count that is not an integer >= 1, is rejected
    before anything is derived."""
    return (_integer(seed, "seed", "an integer >= 0", 0),
            _integer(episodes, "episodes", "an integer >= 1", 1))


def _se(values: np.ndarray) -> float:
    if values.size < 2:
        return float("nan")
    return float(values.std(ddof=1) / math.sqrt(values.size))


class _Tally:
    """monte_carlo's per-loop sums over one scenario's episodes, chunk by
    chunk, taken a stack at a time."""

    def __init__(self, scenario: NetworkScenario, layout: _Layout, episodes: int):
        self.scenario, self.stacks = scenario, layout.stacks
        # per episode and loop: the cost, the cost with the network penalty
        # and the transmissions
        self.per_episode = np.zeros((3, episodes, len(scenario.loops)))
        # per loop: requests, attempts used, and prediction errors in the bound
        self.counts = np.zeros((3, len(scenario.loops)))
        # per stack: its members' eps, and their sums of error outer products
        self.eps = [np.array([scenario.loops[i].scheduler.eps for i in st.loops])[:, None]
                    for st in self.stacks]
        self.p_sums = [np.zeros(st.W.shape) for st in self.stacks]

    def add(self, chunk: range, s: int, steps: dict, j: np.ndarray, j_lambda: np.ndarray):
        """Add the chunk's steps of stack s: `steps` holds its per-step
        arrays under their `LoopTrace` names, and j and j_lambda its costs,
        each with (episode, member) leading axes."""
        members = self.stacks[s].loops
        self.per_episode[:, chunk.start:chunk.stop, members] = (
            j, j_lambda, steps["deltas"].sum(axis=-1))
        hits = steps["pred_err_sq"] <= self.eps[s]
        self.counts[:, members] += (steps["gammas"].sum(axis=(0, 2)),
                                    steps["attempts"].sum(axis=(0, 2)), hits.sum(axis=(0, 2)))
        errs = steps["errs"]
        outer = np.einsum("elki,elkj->elkij", errs, errs)
        # cumsum adds in episode order, onto the sum so far
        self.p_sums[s] = np.cumsum(np.concatenate((self.p_sums[s][None], outer)), axis=0)[-1]

    def result(self, seed: int) -> MonteCarloResult:
        costs, costs_lambda, tx = self.per_episode
        episodes = costs.shape[0]
        loops = self.scenario.loops
        p_seqs, j_dps = [None] * len(loops), np.empty(len(loops))
        for st, p_sums in zip(self.stacks, self.p_sums):
            p_seq = p_sums / episodes
            j_dps[st.loops] = jdp_stack(st.S, st.W, st.x0_mean, st.R0, st.Rw, p_seq)
            for slot, i in enumerate(st.loops):
                p_seqs[i] = p_seq[slot]
        per_loop = []
        for i, lc in enumerate(loops):
            report = CostReport(
                episodes=episodes,
                j_mean=float(costs[:, i].mean()),
                j_se=_se(costs[:, i]),
                tx_mean=float(tx[:, i].mean()),
                net_penalty=lc.net_penalty,
                j_lambda_mean=float(costs_lambda[:, i].mean()),
                j_dp=float(j_dps[i]),
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
                    p_seq=p_seqs[i],
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
    trace_hook: Optional[Callable[[range, list[LoopTrace]], None]] = None,
    event_hook: Optional[Callable[[range, EventTable], None]] = None,
) -> MonteCarloResult:
    """Run `episodes` independent episodes and aggregate per-loop statistics.

    The aggregate j_mean/j_se track the across-loop average cost per episode.
    Each loop's report also carries the closed-form predicted cost evaluated
    at the empirically averaged error covariances.  The optional hooks run
    once per chunk, in episode order, as the chunk completes, with the
    chunk's `range` of episodes: `trace_hook` gets the chunk traces, one
    per loop with a leading episode axis, and `event_hook` gets the chunk's
    `EventTable`.  They exist for CSV dumping; the traces are views into
    the engine's arrays.
    """
    seed, episodes = _check_run(seed, episodes)
    layout = _layout(scenario)
    tally = _Tally(scenario, layout, episodes)
    for chunk, (batch,), (log,) in _run_arms([(scenario, control_law)], layout, seed,
                                             range(episodes), event_hook is not None, [tally]):
        if trace_hook is not None:
            trace_hook(chunk, batch)
        if event_hook is not None:
            event_hook(chunk, _event_table(chunk, log))
        del batch, log
    return tally.result(seed)


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
) -> SweepResult:
    """Run the scenario across scheduler thresholds on common draws.

    Every loop must carry a threshold scheduler (state or innovation); its
    eps is replaced by each grid value, and every value runs on each chunk's
    draws as `monte_carlo` would run it alone, under the CE law.
    """
    seed, episodes = _check_run(seed, episodes)
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
                replace(lc, scheduler=replace(lc.scheduler, eps=eps))
                for lc in scenario.loops)), ce_law) for eps in eps_grid]
    layout = _layout(scenario)
    tallies = [_Tally(scn, layout, episodes) for scn, _ in arms]
    for _ in _run_arms(arms, layout, seed, range(episodes), tallies=tallies):
        pass
    cols = {name: [] for name in
            ("j_mean", "j_se", "bound_prob", "request_rate", "success_rate", "drop_rate")}
    for tally in tallies:
        res = tally.result(seed)
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
    seed, episodes = _check_run(seed, episodes)
    control_free = all(is_symmetric_control_free(lc.scheduler) for lc in scenario.loops)
    identical = 0
    div_ticks = []
    mse_a = np.zeros(episodes)
    mse_b = np.zeros(episodes)
    never = np.iinfo(int).max
    arms = [(scenario, law_a), (scenario, law_b)]
    for chunk, (batch_a, batch_b), _ in _run_arms(arms, _layout(scenario), seed,
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
