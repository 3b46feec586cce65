"""Closed-loop episode engine over M loops and N exogenous sources, with
Monte Carlo aggregation, the threshold sweep, and the paired-control-law
experiment that exhibits (or rules out) the scheduler's control dependence.

Loops live on a global integer tick grid and act only at their own
sampling instants (phase + multiples of the period); between samples
nothing is simulated.  A loop's step depends only on its own previous
step and its tick's contention round, so the engine runs by dependency
level (`_levels`), not by tick, and within a level the order is fixed:
sample/schedule, contend, deliver with instant ACK, estimate, control, step
the plants.  All randomness is drawn from three streams per episode, keyed
by the master seed, the episode and the role, in the order `_Layout`
states.  So a (seed, episode, scenario) triple fully determines every
trace, and a contender meets the same draws under every control law.  A
chunk's streams of all three roles are seeded in one pass (`_streams`,
`model.pcg64_states`), and each role's are drawn from one reused
generator, whose first state is checked against the reference
`RngStream.generator` once per chunk and role.

There is one engine, and it runs a chunk of episodes at once.  A chunk
holds as many episodes as fit in CHUNK_CELLS array cells, and at least
one: an episode's cells are its draws (the noise row, the traffic table,
and the contention table if it is drawn), its stacks' step arrays and its
rounds at the fixed ticks (`_Layout.cells`), so a small network runs in
long chunks and a large one in short ones.  The loops of equal
(n, m, horizon) form a stack (`_Stack`), whose states, estimates and
inputs are (episodes, loops, n) arrays and whose matrices and gains the
plan's steps (`_Step`) index, and every level does the prediction,
scheduler decision, observer update, control law and plant step once per
step, for the step's loops and the whole chunk; the residuals, errors,
delivery ages and cost terms then follow from the stored steps, all steps
at once, and each loop's trace is a view into its stack's arrays.  A
control law therefore takes the (l, m, n) gains L_k of a step's l
loops and an (E, l, n) array of their estimates, and returns an
(E, l, m) array of inputs or any shape that broadcasts to it, such as one
(m,) input for every episode and loop.  Products over the plant
dimensions are elementwise multiply-adds in index order
(`_sum_products`), so an episode's bits do not depend on the chunk it ran
in, nor a loop's on its stack.

The channel runs on the chunk too.  At each level every step writes its
loops' requests for all episodes into its stack's `gammas` in one array
expression (`_requests`, the rule of `scheduling.decide`), and every round
runs in its level's `_contend`: one `network.contend` call, one round per
(episode, tick) row of the tick's contenders in id order, padded, which
reads its requests from the stacks' arrays, writes its deliveries into
them, and reads its draws in place from the chunk's slot-major contention
table.  An `always` loop's request is known before its step runs, so the
fixed ticks' rounds (`_Layout.fixed`) run in the first level.  Only for
the event dump does a call derive its events, which become one
`EventTable` per chunk, sorted by episode, then tick: the engine's one
form of its events.  A source's activity comes from its row of the
episode's traffic table (`network.traffic_activity`).  `decide`,
`resolve_contention` and `traffic_step` stay as the references the array
forms are tested against.

One driver, `_run_arms`, draws each chunk of its scenario once and runs
every arm on it: an arm is a request rule per stack (`_Rule`) and a control
law.  `monte_carlo` and `run_episode` run one arm, `dual_effect_experiment`
one per control law and `sweep_threshold` one per threshold, so the arms
they compare meet the same noise, traffic and contention draws.  Each call
derives its rules (`_rules`) and everything else it needs from its scenario
once, in `_layout`: one Riccati recursion per stack over its members' (A,
B, Q0, Q1, Q2) problems (`riccati_backward` on stacked matrices), one pair
of noise roots for all loops with equal R0 and Rw, the stacks (`_Stack`)
and the fixed ticks.  `_run_arms` derives from it the plan of what every
level does (`_plan`) once per call; every arm, chunk and tally reads that
layout, and nothing is kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .control import CostReport, jdp_stack, riccati_backward
from .errors import MAX_COUNT, ConfigurationError, NumericalError, _count, _integer, _real
from .estimation import last_delivery, observer_update
from .model import NetworkScenario, RngStream, pcg64_states, psd_sqrt
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
        """The given episodes of a chunk trace, as views into its arrays,
        whose `episode` is the first of them."""
        return replace(self, episode=self.episode + episodes.indices(len(self.j))[0],
                       **{name: getattr(self, name)[episodes]
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
    holds their steps in (E, L_s, ...) arrays, and each level runs their
    steps there as one array step."""

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
    ticks: np.ndarray      # (L_s, N + 1): the ticks of the steps, then of the terminal state


def _stack(loops, members: list[int], roots, offsets: np.ndarray) -> _Stack:
    """The stack of the given loops, whose Riccati problems are solved in
    one recursion (`riccati_backward` on stacks)."""
    lcs = [loops[i] for i in members]
    size = int(offsets[members[0] + 1] - offsets[members[0]])
    A, B, x0_mean, R0, Rw = (np.array([getattr(lc.plant, name) for lc in lcs])
                             for name in ("A", "B", "x0_mean", "R0", "Rw"))
    Q0, Q1, Q2 = (np.array([getattr(lc, name) for lc in lcs]) for name in ("Q0", "Q1", "Q2"))
    phase, period = (np.array([getattr(lc.plant, name) for lc in lcs])[:, None]
                     for name in ("phase", "period"))
    solution = riccati_backward(A, B, Q0, Q1, Q2, lcs[0].horizon)
    return _Stack(
        loops=members, horizon=lcs[0].horizon,
        block=offsets[members][:, None] + np.arange(size),
        x0_mean=x0_mean, R0=R0, Rw=Rw,
        sqrt_r0=np.array([roots[i][0] for i in members]),
        sqrt_rw=np.array([roots[i][1] for i in members])[:, None],
        A=A, B=B, Q0=Q0, Q1=Q1[:, None], Q2=Q2[:, None],
        S=solution.S, L=solution.L, W=solution.W,
        net_penalty=np.array([lc.net_penalty for lc in lcs], dtype=float),
        ticks=phase + period * np.arange(lcs[0].horizon + 1),
    )


class _Step(NamedTuple):
    """One stack's steps at one level, one per loop at most: `slots` and `k`
    are a slice and an int where basic indexing can take them, else arrays."""

    stack: int
    slots: slice | np.ndarray   # the loops' slots in the stack
    k: int | np.ndarray         # their steps


class _Rounds(NamedTuple):
    """The rounds of T ticks: row t is tick `ticks[t]`, `at[t]` of the layout's
    ticks, with the tick's loops in id order, pad columns (table row 0, id -1,
    never asking), then every source."""

    ticks: np.ndarray   # (T,)
    at: np.ndarray      # (T,)
    rows: np.ndarray    # (T, W): the entries' contention-table rows
    ids: np.ndarray     # (T, W): their contenders
    cells: list         # per stack: its entries' flat (L_s, N) step and (T, W) round cells


@dataclass(eq=False)
class _Layout:
    """Everything a call derives from its scenario: where an episode's draws
    go, when the loops sample, their stacks and the fixed ticks, where every
    sampling loop is under the `always` rule, whose rounds run in the first
    level's `_contend`.  Each call derives it once, and every arm, chunk and
    tally reads it.

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
      loop order, then each source at every sampling tick.  A chunk stores
      its tables slot-major, so that one mini-slot's draws are one slab.
    The noise and traffic keys are those of the first loop and the first
    source.  Appending a loop or a source moves no earlier block or row, and
    a contender's draws depend only on (seed, episode, contender, tick), so
    every control law and threshold meets the same ones.  The loops are
    grouped in stacks of equal (n, m, horizon), in order of their first
    loop; a stack's noise is drawn straight into its stacked arrays, and a
    level's steps index them.
    """

    width: int             # the draws of the noise row
    rows: int              # the contention table's rows: the loops' steps, then the sources'
    slots: int             # the contention table's columns, 0 if it is not drawn
    cells: int             # one episode's noise row, tables, stack step arrays, fixed rounds
    ticks: np.ndarray      # the sampling ticks, ascending
    fixed: np.ndarray      # the fixed ticks' indices in `ticks`
    sources: int           # the exogenous sources
    stacks: list[_Stack]


def _layout(scenario: NetworkScenario) -> _Layout:
    """The scenario's layout.  One Riccati recursion solves each stack's
    problems, and one pair of noise roots serves all loops with equal R0
    and Rw."""
    loops, n_src = scenario.loops, len(scenario.sources)
    rooted, roots, members = {}, [], {}
    for i, lc in enumerate(loops):
        plant = lc.plant
        key = (plant.R0.tobytes(), plant.Rw.tobytes())
        if key not in rooted:
            rooted[key] = (psd_sqrt(plant.R0), psd_sqrt(plant.Rw))
        roots.append(rooted[key])
        members.setdefault((plant.n, plant.m, lc.horizon), []).append(i)
    offsets = np.cumsum([0] + [lc.plant.n * (lc.horizon + 1) for lc in loops])
    stacks = [_stack(loops, group, roots, offsets) for group in members.values()]
    # every loop's sampling ticks, and those of the loops not under `always`
    loop_ticks = np.concatenate([st.ticks[:, :-1].ravel() for st in stacks])
    ruled = np.concatenate([st.ticks[[loops[i].scheduler.kind != "always" for i in st.loops], :-1]
                            .ravel() for st in stacks])
    counts = np.bincount(loop_ticks)   # the loops sampling at each tick
    ticks = np.flatnonzero(counts)
    rows = loop_ticks.size + n_src * ticks.size
    crm = scenario.crm
    slots = crm.slots_per_sample if any(0.0 < p < 1.0 for p in crm.persistence) else 0
    # a loop's arrays in `_StackSteps`: xs and xhats hold N + 1 steps, us,
    # preds and the three int arrays N, and bu one
    step_cells = sum(size * ((st.horizon + 1) * 2 * n + st.horizon * (n + m + 3) + n)
                     for st in stacks for size, n, m in [st.B.shape])
    # the fixed ticks, where no loop under another rule than `always`
    # samples, and their rounds: one per entry, padded to the widest
    fixed = np.flatnonzero(np.bincount(ruled, minlength=counts.size)[ticks] == 0)
    width = counts[ticks[fixed]].max(initial=0) + n_src
    cells = (int(offsets[-1]) + n_src * int(ticks[-1] + 1) + rows * slots + step_cells
             + fixed.size * int(width))
    return _Layout(int(offsets[-1]), rows, slots, cells, ticks, fixed, n_src, stacks)


def _levels(tick_loops: list[list[int]], fixed: list[bool]) -> list[list[int]]:
    """Per sampling tick, the level of each of its loops' steps: one after
    the loop's previous step at a fixed tick; at any other, whose round its
    steps share, one after the latest previous step among its loops."""
    last, levels = {}, []
    for loops, alone in zip(tick_loops, fixed):
        after = [last.get(i, -1) + 1 for i in loops]
        after = after if alone else [max(after)] * len(after)
        last.update(zip(loops, after))
        levels.append(after)
    return levels


def _plan(layout: _Layout) -> list[tuple[list[_Step], Optional[_Rounds]]]:
    """Per level (`_levels`), its steps, at most one per stack, and the rounds
    of its ticks that are not fixed and, in level 0, of the fixed ticks, or
    None.  One pass over the loop entries places each in both."""
    stacks, ticks, n_src = layout.stacks, layout.ticks, layout.sources
    n_stacks, n_ticks = len(stacks), ticks.size
    # every loop entry, by tick, then loop: its stack, step cell (slot N + k),
    # loop, tick index and table row, where the loops' steps come in loop order
    sizes = [st.ticks[:, :-1].size for st in stacks]
    stack = np.arange(n_stacks).repeat(sizes)
    cell = np.concatenate([np.arange(size) for size in sizes])
    loop = np.concatenate([np.repeat(st.loops, st.horizon) for st in stacks])
    at = np.searchsorted(ticks, np.concatenate([st.ticks[:, :-1].ravel() for st in stacks]))
    row = np.argsort(np.argsort(loop, kind="stable"))
    by_tick = np.lexsort((loop, at))
    stack, cell, loop, at, row = (a[by_tick] for a in (stack, cell, loop, at, row))
    # its level, from each tick's loops, and its column in its tick's round
    counts = np.bincount(at, minlength=n_ticks)
    starts = counts.cumsum() - counts
    ids, bounds = loop.tolist(), [*starts.tolist(), at.size]
    fixed = np.bincount(layout.fixed, minlength=n_ticks) > 0
    levels = _levels([ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])], fixed.tolist())
    level = np.fromiter(chain.from_iterable(levels), dtype=int, count=at.size)
    col = np.arange(at.size) - starts[at]

    # a tick's round runs at its steps' level, a fixed tick's at level 0; a level's
    # rounds are a block of a flat array, where a tick's row starts at `first`
    round_level = np.where(fixed, 0, level[starts])
    by_level, blocks = _runs(round_level)
    firsts, lengths = np.array([(run.start, run.stop - run.start) for _, run in blocks]).T
    widths = np.maximum.reduceat(counts[by_level], firsts) + n_src
    ends, width = (lengths * widths).cumsum(), widths.repeat(lengths)
    local, first = np.empty((2, n_ticks), dtype=int)
    local[by_level] = (np.arange(n_ticks) - firsts.repeat(lengths)) * width
    first[by_level] = local[by_level] + (ends - lengths * widths).repeat(lengths)
    rows, contenders = np.zeros(ends[-1], dtype=int), np.full(ends[-1], -1)
    rows[first[at] + col], contenders[first[at] + col] = row, loop
    if n_src:
        # a row ends in source j's table row at tick t, after the loops' and j T + t
        source = (first[by_level] + width - n_src)[:, None] + np.arange(n_src)
        rows[source] = at.size + n_ticks * np.arange(n_src) + by_level[:, None]
        contenders[source] = SOURCE_CONTENDER_BASE + np.arange(n_src)

    # each (level, stack)'s steps in slot order, a slice at one k where they can be
    steps, rounds = [[] for _ in range(level.max() + 1)], [None] * (level.max() + 1)
    order, runs = _runs(level * n_stacks + stack, loop)
    slot, k = np.divmod(cell[order], np.array([st.horizon for st in stacks])[stack[order]])
    slots, ks = slot.tolist(), k.tolist()
    for key, run in runs:
        j, at_k = slots[run], ks[run]
        basic = j == list(range(j[0], j[0] + len(j))) and at_k == at_k[:1] * len(j)
        steps[key // n_stacks].append(_Step(key % n_stacks, *(
            (slice(j[0], j[0] + len(j)), at_k[0]) if basic else (slot[run], k[run]))))
    # each level's rounds, then each (level, stack)'s step and round cells
    level_ticks = ticks[by_level]
    for (lvl, run), n, w, end in zip(blocks, lengths.tolist(), widths.tolist(), ends.tolist()):
        rounds[lvl] = _Rounds(level_ticks[run], by_level[run], rows[end - n * w:end].reshape(n, w),
                              contenders[end - n * w:end].reshape(n, w), [])
    order, runs = _runs(round_level[at] * n_stacks + stack)
    cell, round_cell = cell[order], (local[at] + col)[order]
    for key, run in runs:
        rounds[key // n_stacks].cells.append((key % n_stacks, cell[run], round_cell[run]))
    return list(zip(steps, rounds))


def _runs(keys: np.ndarray, *ties: np.ndarray) -> tuple[np.ndarray, list[tuple[int, slice]]]:
    """The stable order by `keys`, then `ties`, and its runs of equal keys as (key, slice)."""
    order = np.lexsort((*ties[::-1], keys))
    keys = keys[order]
    starts = [0, *((keys[1:] != keys[:-1]).nonzero()[0] + 1).tolist()]
    return order, list(zip(keys[starts].tolist(), map(slice, starts, [*starts[1:], keys.size])))


@dataclass(eq=False)
class _ChunkDraws:
    """Every random input of a chunk of episodes; any control law may run on it."""

    episodes: range
    stack_x0: list[np.ndarray]        # per stack, (E, L_s, n)
    stack_noise: list[np.ndarray]     # per stack, (E, L_s, N, n)
    active: np.ndarray                # (E, sampling ticks, sources) bool
    tables: Optional[np.ndarray]      # (E, rows, slots) draws stored slot-major, or None


def _streams(seed: int, episodes: range, *keys: tuple) -> list:
    """For each role's spawn key, an iterator that yields, for each episode in
    turn, a generator at the start of the stream `RngStream(seed, (episode, *key))`.

    One `pcg64_states` pass gives the states of every role and episode.  A
    role's iterator reuses one generator: built as that reference for the
    first episode, then set to each episode's state before it is yielded.
    The first state must equal the reference's, or numpy seeds its streams
    in some other way than `pcg64_states` computes.
    """
    n_ep, width = len(episodes), 1 + max(map(len, keys))
    # one block of keys per role, each padded with -1 to the longest
    rows = np.full((len(keys), n_ep, width), -1, dtype=np.int64)
    rows[:, :, 0] = np.arange(episodes.start, episodes.stop)
    for block, key in zip(rows, keys):
        block[:, 1:1 + len(key)] = key
    states = pcg64_states(seed, rows.reshape(-1, width))
    return [_stream(seed, (episodes[0], *key), states[i * n_ep:(i + 1) * n_ep])
            for i, key in enumerate(keys)]


def _stream(seed: int, key: tuple, states: list):
    """One role's iterator of `_streams`, whose first stream is `key`."""
    gen = RngStream(seed, key).generator()
    bitgen = gen.bit_generator
    # the fresh state: has_uint32 and uinteger are 0
    state = bitgen.state
    if state["state"] != {"state": states[0][0], "inc": states[0][1]}:
        raise NumericalError(
            f"batched seeding of stream {key} of seed {seed} disagrees "
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
    from its stream of each role, which `_streams` seeds for every role and
    episode of the chunk at once.  The roots multiply the noise blocks by
    `_sum_products`, so an episode's bits do not depend on its chunk.
    """
    n_ep, ticks, sources = len(episodes), layout.ticks, scenario.sources
    # the roles drawn, in this order: noise, traffic if there are sources,
    # contention if its table is drawn
    streams = iter(_streams(seed, episodes, (0, _ROLE_NOISE),
                            *[(SOURCE_CONTENDER_BASE, _ROLE_TRAFFIC)] * bool(sources),
                            *[(_ROLE_CONTENTION,)] * bool(layout.slots)))
    z = np.empty((n_ep, layout.width))
    for e, gen in enumerate(next(streams)):
        gen.standard_normal(out=z[e])
    stack_x0, stack_noise = [], []
    for st in layout.stacks:
        n_loops, n = st.x0_mean.shape
        block = z[:, st.block]
        stack_x0.append(st.x0_mean + _sum_products(st.sqrt_r0, block[..., None, :n]))
        stack_noise.append(_sum_products(
            st.sqrt_rw, block[..., n:].reshape(n_ep, n_loops, st.horizon, 1, n)))
    active = np.zeros((n_ep, ticks.size, len(sources)), dtype=bool)
    if sources:
        # each episode's (sources, last sampling tick + 1) traffic table
        u = np.empty((n_ep, len(sources), ticks[-1] + 1))
        for row, gen in zip(u, next(streams)):
            gen.random(out=row)
        for j, src in enumerate(sources):
            active[:, :, j] = traffic_activity(src, u[:, j])[:, ticks]
    tables = None
    if layout.slots:
        tables = np.empty((layout.slots, n_ep, layout.rows)).transpose(1, 2, 0)
        block = np.empty((layout.rows, layout.slots))
        for e, gen in enumerate(next(streams)):
            tables[e] = gen.random(out=block)
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


def _contend(crm, draws: _ChunkDraws, rounds: _Rounds, runs: Sequence[_StackSteps],
             rounds_log: Optional[list]) -> None:
    """Resolve a level's `rounds` in one `contend` call, one row per episode
    and tick, row i being episode i // T at tick i % T: the requests come
    from the stacks' `gammas` and the deliveries and attempts go to their
    `deltas` and `attempts`, through `rounds.cells`; a tick's active sources
    ask where one of its loops does.  If a list, `rounds_log` receives each
    row's tick, chunk row and events."""
    n_ep, (n_ticks, width) = len(draws.episodes), rounds.rows.shape
    requests = np.zeros((n_ep, n_ticks, width), dtype=bool)
    for s, steps, cells in rounds.cells:
        requests.reshape(n_ep, -1)[:, cells] = runs[s].gammas.reshape(n_ep, -1)[:, steps]
    if draws.active.shape[2]:
        requests[:, :, width - draws.active.shape[2]:] = (draws.active[:, rounds.at]
                                                         & requests.any(axis=2, keepdims=True))
    table = draws.tables
    if table is not None:
        index = table.shape[1] * np.arange(n_ep)[:, None, None] + rounds.rows
        table = table.reshape(-1, table.shape[2]), index.reshape(-1, width)
    ids = None if rounds_log is None else np.tile(rounds.ids, (n_ep, 1))
    delta, used, events = contend(requests.reshape(-1, width), crm, table, ids)
    if rounds_log is not None:
        rounds_log.append((np.tile(rounds.ticks, n_ep), np.arange(n_ep).repeat(n_ticks), events))
    for s, steps, cells in rounds.cells:
        for out, got in ((runs[s].deltas, delta), (runs[s].attempts, used)):
            out.reshape(n_ep, -1)[:, steps] = got.reshape(n_ep, -1)[:, cells]


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


def _breakdown(chunk: range, stacks: Sequence[_Stack], bad: Sequence[np.ndarray],
               what: str) -> NumericalError:
    """The NumericalError that names the first (episode, tick, loop), in
    that order, where a stack's (E, L_s, steps) mask in `bad` holds; a
    member's step k, or its terminal state at k = N, is at `ticks[slot, k]`."""
    found = []
    for st, mask in zip(stacks, bad):
        k = mask.argmax(axis=-1)
        for e, slot in zip(*np.nonzero(mask.any(axis=-1))):
            found.append((int(e), int(st.ticks[slot, k[e, slot]]), st.loops[slot]))
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
    plan: list[tuple[list[_Step], Optional[_Rounds]]],
    rounds_log: Optional[list] = None,
    tally: Optional[_Tally] = None,
) -> list[LoopTrace]:
    """Run one control law on a chunk's draws; one chunk trace per loop.

    `rules` holds each stack's request rule and `plan` what each level does
    (`_plan`): one decision per step, every round in one `_contend` call,
    then one observer, control and plant step per step.  An always loop's
    requests are set first, so the first level resolves the fixed ticks'
    rounds too.  The delivery ages follow from the deltas once the levels
    are done.  If `rounds_log` is a list, each `_contend` call appends its
    rows' ticks and chunk rows and its events.  A `tally` takes each
    stack's steps as they stand.  A state or a cost that is not finite
    raises a NumericalError naming its episode, loop and tick.
    """
    stacks, crm = layout.stacks, scenario.crm
    n_ep = len(draws.episodes)
    runs = [_stack_steps(st, x0, n_ep) for st, x0 in zip(stacks, draws.stack_x0)]
    # an always loop's request is known before its step runs
    for run, rule in zip(runs, rules):
        run.gammas[:, dict(rule.kinds).get("always", [])] = 1

    for steps, rounds in plan:
        # schedule: one decision per step, whole chunk
        for s, j, k in steps:
            st, run = stacks[s], runs[s]
            pred = _sum_products(st.A[j], run.xhats[:, j, k][..., None, :]) + run.bu[:, j]
            run.preds[:, j, k] = pred
            run.gammas[:, j, k] = _requests(rules[s], j, run.xs[:, j, k], pred)

        # contend: every round of the level at once
        if rounds is not None:
            _contend(crm, draws, rounds, runs, rounds_log)

        # deliver, estimate, control, step
        for s, j, k in steps:
            st, run = stacks[s], runs[s]
            x = run.xs[:, j, k]
            xhat = observer_update(run.deltas[:, j, k], x, run.preds[:, j, k])
            u = control_law(st.L[j, k], xhat)
            run.us[:, j, k] = u
            run.xhats[:, j, k + 1] = xhat
            bu = run.bu[:, j] = _sum_products(st.B[j], u[..., None, :])
            run.xs[:, j, k + 1] = (_sum_products(st.A[j], x[..., None, :]) + bu
                                   + draws.stack_noise[s][:, j, k])

    if not all(np.isfinite(run.xs).all() for run in runs):
        raise _breakdown(draws.episodes, stacks,
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
            raise _breakdown(draws.episodes, [st], [~np.isfinite(np.cumsum(costs, axis=-1))],
                             "the cost")
        j_lambda = j + st.net_penalty * run.deltas.sum(axis=-1)
        if not np.isfinite(j_lambda).all():
            # at the first step where the penalty so far is not finite, else at the end
            fine = np.isfinite(st.net_penalty[:, None] * np.cumsum(run.deltas, axis=-1))
            fine = np.concatenate((fine, np.isfinite(j_lambda)[..., None]), axis=-1)
            raise _breakdown(draws.episodes, [st], [~fine], "the penalized cost")
        if tally is not None:
            tally.add(draws.episodes, s, rules[s], per_step, j, j_lambda)
        for slot, i in enumerate(st.loops):
            plant = scenario.loops[i].plant
            traces[i] = LoopTrace(
                i, draws.episodes[0], plant.period, plant.phase, ks, st.ticks[slot, :-1],
                **{name: arr[:, slot] for name, arr in per_step.items()},
                terminal_cost=terminal[:, slot], j=j[:, slot], j_lambda=j_lambda[:, slot],
            )
    return traces


_Arm = tuple[list[_Rule], ControlLaw]


def _run_arms(scenario: NetworkScenario, layout: _Layout, arms: Sequence[_Arm], seed: int,
              episodes: range, keep_rounds: bool = False, tallies: Sequence[_Tally] = ()):
    """Run every arm on each chunk of `episodes`, drawing the chunk once.

    The chunks run in episode order.  Each holds CHUNK_CELLS // cells
    episodes, and at least one, where cells are one episode's noise row,
    traffic and contention tables, stack step arrays and fixed-tick rounds
    (`_Layout.cells`); the last may hold fewer.  Every chunk is drawn on
    the scenario's `layout`, and every arm runs on it by the one plan
    derived from it, whose first level holds the fixed ticks' rounds.
    Yields (chunk, one chunk trace per arm, one rounds log per arm), where
    an arm's log is the list `_run_chunk` fills if `keep_rounds` is set,
    else None.  Given `tallies`, one per arm, each arm's chunk is added to
    its tally before the chunk is yielded.
    """
    plan = _plan(layout)
    tallies = tallies or [None] * len(arms)
    size = max(1, CHUNK_CELLS // layout.cells)
    for start in range(episodes.start, episodes.stop, size):
        chunk = range(start, min(start + size, episodes.stop))
        draws = _draw_chunk(scenario, layout, seed, chunk)
        logs = [[] if keep_rounds else None for _ in arms]
        batches = [_run_chunk(scenario, rules, draws, law, layout, plan, log, tally)
                   for (rules, law), log, tally in zip(arms, logs, tallies)]
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
    seed.  `episode` is an int in [0, MAX_COUNT), the episodes a run can
    hold; any other raises a ConfigurationError that names it."""
    seed = _integer(seed, "seed", "an integer >= 0", 0)
    episode = _integer(episode, "episode", f"an integer in [0, {MAX_COUNT:,})", 0, MAX_COUNT - 1)
    layout = _layout(scenario)
    _, (batch,), _ = next(_run_arms(scenario, layout, [(_rules(scenario, layout), control_law)],
                                    seed, range(episode, episode + 1)))
    return [_episode_trace(tr, 0, episode) for tr in batch]


def _event_table(chunk: range, rounds_log: list) -> EventTable:
    """The event table of a chunk from its rounds log: each `_contend` call's
    events with their rows' ticks and chunk rows, then one stable sort by
    (episode, tick), which keeps each round's events in their order."""
    parts = [(episodes[row], ticks[row], *columns)
             for ticks, episodes, (row, *columns) in rounds_log]
    if not parts:
        return EventTable(*(np.zeros(0, dtype=int),) * 6)
    episode, tick, *columns = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((tick, episode))
    return EventTable(episode[order] + chunk.start, tick[order], *(col[order] for col in columns))


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
    integer >= 0, or a count that is not an integer in [1, MAX_COUNT], is
    rejected before anything is derived."""
    return (_integer(seed, "seed", "an integer >= 0", 0),
            _count(episodes, "episodes", "an integer >= 1"))


def _se(values: np.ndarray, what: str) -> float:
    """The standard error of the mean of `values`, nan below two of them;
    one that overflows is a NumericalError that names `what`."""
    if values.size < 2:
        return float("nan")
    with np.errstate(over="ignore"):
        se = float(values.std(ddof=1) / math.sqrt(values.size))
    if se == math.inf:
        raise NumericalError(f"the standard error of {what} overflows")
    return se


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
        # per stack: its members' sums of error outer products
        self.p_sums = [np.zeros(st.W.shape) for st in self.stacks]

    def add(self, chunk: range, s: int, rule: _Rule, steps: dict, j: np.ndarray,
            j_lambda: np.ndarray):
        """Add the chunk's steps of stack s under its arm's `rule`: `steps`
        holds its per-step arrays under their `LoopTrace` names, and j and
        j_lambda its costs, each with (episode, member) leading axes."""
        members = self.stacks[s].loops
        self.per_episode[:, chunk.start:chunk.stop, members] = (
            j, j_lambda, steps["deltas"].sum(axis=-1))
        hits = steps["pred_err_sq"] <= rule.param[:, None]
        self.counts[:, members] += (steps["gammas"].sum(axis=(0, 2)),
                                    steps["attempts"].sum(axis=(0, 2)), hits.sum(axis=(0, 2)))
        errs = steps["errs"]
        outer = np.einsum("elki,elkj->elkij", errs, errs)
        # cumsum adds in episode order, onto the sum so far
        self.p_sums[s] = np.cumsum(np.concatenate((self.p_sums[s][None], outer)), axis=0)[-1]

    def result(self, seed: int) -> MonteCarloResult:
        episodes, loops = self.per_episode.shape[1], self.scenario.loops
        bad = sorted((st.loops[slot], k) for st, p_sums in zip(self.stacks, self.p_sums)
                     for slot, k in np.argwhere(~np.isfinite(p_sums).all(axis=(2, 3))).tolist())
        if bad:
            raise NumericalError("the error covariance of loop %d overflows at step %d" % bad[0])
        p_seqs, j_dps = {}, np.empty(len(loops))
        for st, p_sums in zip(self.stacks, self.p_sums):
            p_seq = p_sums / episodes
            j_dps[st.loops] = jdp_stack(st.S, st.W, st.x0_mean, st.R0, st.Rw, p_seq)
            p_seqs.update(zip(st.loops, p_seq))
        # each loop's costs, penalized costs and transmissions as contiguous
        # rows, whose reductions have the bits of those of each column alone
        rows = np.ascontiguousarray(self.per_episode.transpose(0, 2, 1))
        with np.errstate(over="ignore"):
            j_means, j_lambda_means, tx_means = rows.mean(axis=2).tolist()
        for i, (j_mean, j_lambda_mean) in enumerate(zip(j_means, j_lambda_means)):
            if j_lambda_mean == math.inf:
                what = "cost" if j_mean == math.inf else "penalized cost"
                raise NumericalError(f"the mean {what} of loop {i} overflows")
        with np.errstate(over="ignore"):
            j_ses = ((rows[0].std(ddof=1, axis=1) / math.sqrt(episodes)).tolist()
                     if episodes > 1 else [float("nan")] * len(loops))
        if math.inf in j_ses:
            raise NumericalError(f"the standard error of the mean cost of loop "
                                 f"{j_ses.index(math.inf)} overflows")
        per_loop = []
        for i, (lc, successes) in enumerate(zip(loops, rows[2].sum(axis=1).tolist())):
            report = CostReport(episodes=episodes, j_mean=j_means[i], j_se=j_ses[i],
                                tx_mean=tx_means[i], net_penalty=lc.net_penalty,
                                j_lambda_mean=j_lambda_means[i], j_dp=float(j_dps[i]))
            (req, attempts, hits), steps = self.counts[:, i], episodes * lc.horizon
            per_loop.append(LoopStats(
                loop=i, report=report, request_rate=float(req / steps),
                success_rate=float(successes / req) if req else float("nan"),
                drop_rate=float((req - successes) / req) if req else float("nan"),
                mean_attempts=float(attempts / req) if req else 0.0,
                bound_prob=(float(hits / steps) if lc.scheduler.kind in THRESHOLD_KINDS
                            else float("nan")),
                p_seq=p_seqs[i], costs=rows[0, i].copy()))
        with np.errstate(over="ignore"):
            episode_means = self.per_episode[0].mean(axis=1)
            j_mean = float(episode_means.mean())
        if j_mean == math.inf:
            raise NumericalError("the mean cost across loops overflows")
        return MonteCarloResult(seed=seed, episodes=episodes, per_loop=per_loop, j_mean=j_mean,
                                j_se=_se(episode_means, "the mean cost across loops"))


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
    tally, arm = _Tally(scenario, layout, episodes), (_rules(scenario, layout), control_law)
    for chunk, (batch,), (log,) in _run_arms(scenario, layout, [arm], seed, range(episodes),
                                             event_hook is not None, [tally]):
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


def _sweepable(scenario: NetworkScenario, blocks: Sequence[int]) -> None:
    """Refuse a sweep over a loop without a threshold rule, the first named loops[blocks[i]]."""
    for b, lc in zip(blocks, scenario.loops):
        if lc.scheduler.kind not in THRESHOLD_KINDS:
            raise ConfigurationError(f"loops[{b}].scheduler.kind: threshold sweep needs state or "
                                     f"innovation schedulers, got {lc.scheduler.kind!r}")


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
    _sweepable(scenario, range(len(scenario.loops)))
    eps_grid = [_real(eps, "eps", ">= 0", 0.0) for eps in eps_grid]  # SchedulerPolicy's check
    layout = _layout(scenario)
    rules = _rules(scenario, layout)
    arms = [([replace(rule, param=np.full(rule.param.shape, eps)) for rule in rules], ce_law)
            for eps in eps_grid]
    tallies = [_Tally(scenario, layout, episodes) for _ in arms]
    for _ in _run_arms(scenario, layout, arms, seed, range(episodes), tallies=tallies):
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


@np.errstate(over="ignore")   # an overflow of mse_a or mse_b raises a NumericalError
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
    layout = _layout(scenario)
    rules = _rules(scenario, layout)
    arms = [(rules, law_a), (rules, law_b)]
    for chunk, (batch_a, batch_b), _ in _run_arms(scenario, layout, arms, seed, range(episodes)):
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
    for what, mse in (("mse_a", mse_a), ("mse_b", mse_b)):
        if not math.isfinite(mse.mean()):
            raise NumericalError(f"{what} overflows")
    diff = mse_a - mse_b
    return DualEffectReport(
        episodes=episodes,
        control_free=control_free,
        gamma_identical_episodes=identical,
        divergence_fraction=1.0 - identical / episodes,
        first_divergence_ticks=np.array(div_ticks, dtype=int),
        mse_a=float(mse_a.mean()),
        mse_a_se=_se(mse_a, "mse_a"),
        mse_b=float(mse_b.mean()),
        mse_b_se=_se(mse_b, "mse_b"),
        mse_diff=float(diff.mean()),
        mse_diff_se=_se(diff, "mse_diff"),
    )
