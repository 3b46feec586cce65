"""Contention resolution for the shared sensor link: p-persistent CSMA with
per-attempt persistence probabilities, a retransmission limit, and exogenous
traffic sources.

One sampling interval offers `slots_per_sample` contention mini-slots.  In a
mini-slot every still-pending contender on attempt r transmits independently
with probability p[r]; a lone transmitter wins the channel and delivers its
packet in that mini-slot, two or more all collide and burn an attempt.  A
mini-slot carries at most one delivery, but the round continues after a
success, so several contenders may deliver within one sampling interval.
Pending packets left when the window closes are dropped -- samples are never
queued across sampling instants.

Randomness is keyed per contender: in each round a contender has a private
row of uniform draws, and its draw in mini-slot s is column s - 1 of that
row, so runs with different contender sets give each contender the same
draws (common random numbers).  The engine takes the rows of a whole episode
from one numpy stream, in the order `sim._Layout` states.  Draws whose
outcome is certain, with persistence 0 or 1, are not needed.

Two forms of a round run the same rule.  `resolve_contention` runs one round
among a set of contender ids and is the reference the tests check against.
`contend` runs one round per row of a boolean (rows, contenders) request mask
at once, with one array step per mini-slot over the requesting entries still
pending, which reads their draws straight from the chunk's contention table;
the engine calls it once per level of a chunk, in `sim._contend`, whose
rounds of the first level include those of the ticks where every loop asks
(`sim._Layout.fixed`).  Either way a round yields its delivery and attempt
counts per contender and its events, one (slot, contender, attempt, result)
per contender and mini-slot.  `resolve_contention` gives them as `SlotEvent`
named tuples.  `contend` returns a `Round`, whose events, when it is given
the contenders' ids, are int columns: each slot lists its entries' events,
and one stable sort puts them in order.  They are the engine's one form of
its events, which its event table and the event dump read.

A traffic source makes one uniform draw per tick whatever its kind:
`traffic_step` advances it by one tick, and `traffic_activity` turns a whole
array of draws, one path per leading index, into the same activity
indicators at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import _PROBABILITY, ConfigurationError, _integer, _real

RESULT_SUCCESS = "success"
RESULT_COLLIDED = "collided"
RESULT_DEFERRED = "deferred"
RESULT_DROPPED = "dropped"


@dataclass(frozen=True)
class CrmConfig:
    """p-persistent CSMA parameters.

    persistence[r-1] is the transmit probability on attempt r; a contender is
    dropped once it has transmitted (and collided) max_attempts times.
    """

    persistence: tuple[float, ...]
    max_attempts: int = 0
    slots_per_sample: int = 0

    def __post_init__(self):
        try:
            pers = tuple(_real(p, "persistence", *_PROBABILITY) for p in self.persistence)
        except TypeError:
            pers = ()
        if not pers:
            raise ConfigurationError(f"persistence must be a non-empty list of probabilities, "
                                     f"got {self.persistence!r}", field="persistence")
        object.__setattr__(self, "persistence", pers)
        # 0 stands for the default: one attempt per probability, one slot per attempt
        rmax = _integer(self.max_attempts, "max_attempts", "an integer >= 0", 0) or len(pers)
        _integer(rmax, "max_attempts", f"{len(pers)}, one attempt per persistence probability",
                 len(pers), len(pers))
        object.__setattr__(self, "max_attempts", rmax)
        slots = _integer(self.slots_per_sample, "slots_per_sample", "an integer >= 0", 0) or rmax
        _integer(slots, "slots_per_sample", f"an integer >= max_attempts ({rmax})", rmax)
        object.__setattr__(self, "slots_per_sample", slots)


class SlotEvent(NamedTuple):
    """One contender's action in one mini-slot, as `resolve_contention`
    gives it.  The engine's event table and the event dump hold the same
    four fields as int columns, where the result is its code in RESULTS."""

    slot: int
    contender: int
    attempt: int
    result: str


@dataclass(frozen=True)
class SlotOutcome:
    """Result of one contention round (one sampling instant)."""

    delta: dict
    attempts_used: dict
    events: tuple[SlotEvent, ...]


def resolve_contention(requests: Iterable[int], crm: CrmConfig,
                       draws: Callable[[int], Sequence[float]]) -> SlotOutcome:
    """Run one contention round among the requesting contender ids.

    `draws(c)` returns contender c's private row of draws; its draw in
    mini-slot s is column s - 1, which keeps the draws aligned across runs
    that add or remove contenders.  A transmit decision with persistence 0 or
    1 is certain and draws nothing, so `draws` is called only for contenders
    that meet a persistence strictly between 0 and 1, once each.
    """
    contenders = sorted(set(map(int, requests)))
    persistence, max_attempts = crm.persistence, crm.max_attempts
    attempt = dict.fromkeys(contenders, 1)
    used = dict.fromkeys(contenders, 0)
    delta = dict.fromkeys(contenders, 0)
    rows = {}
    pending = contenders
    events = []
    for slot in range(1, crm.slots_per_sample + 1):
        if not pending:
            break
        col = slot - 1
        transmitters = []
        for c in pending:
            p = persistence[attempt[c] - 1]
            if p >= 1.0:
                transmitters.append(c)
            elif p > 0.0:
                row = rows.get(c)
                if row is None:
                    row = rows[c] = draws(c)
                if row[col] < p:
                    transmitters.append(c)
        if len(transmitters) == 1:
            c = transmitters[0]
            used[c] += 1
            events.append(SlotEvent(slot, c, attempt[c], RESULT_SUCCESS))
            delta[c] = 1
            pending.remove(c)
        elif transmitters:
            for c in transmitters:
                used[c] += 1
                events.append(SlotEvent(slot, c, attempt[c], RESULT_COLLIDED))
                attempt[c] += 1
            for c in transmitters:
                if attempt[c] > max_attempts:
                    events.append(SlotEvent(slot, c, attempt[c] - 1, RESULT_DROPPED))
            pending = [c for c in pending if attempt[c] <= max_attempts]
        sent = set(transmitters)
        events += [SlotEvent(slot, c, attempt[c], RESULT_DEFERRED)
                   for c in pending if c not in sent]
    events += [SlotEvent(crm.slots_per_sample, c, attempt[c], RESULT_DROPPED)
               for c in pending]
    return SlotOutcome(delta=delta, attempts_used=used, events=tuple(events))


# the results in the order a mini-slot's events are emitted; an event's
# result code is its index here
RESULTS = (RESULT_SUCCESS, RESULT_COLLIDED, RESULT_DROPPED, RESULT_DEFERRED)

# the largest draw below 1, which only a persistence of 1 exceeds
_LAST_DRAW = np.nextafter(1.0, 0.0)


class Round(NamedTuple):
    """The outcome of `contend`, one round per row of its request mask: each
    contender's delivery (bool) and attempts used, zero where it did not
    request, and the rows' events, None unless `contend` was given ids."""

    delta: np.ndarray
    used: np.ndarray
    events: Optional[tuple[np.ndarray, ...]]


def contend(requests: np.ndarray, crm: CrmConfig, draws,
            ids: Optional[Sequence[int]] = None) -> Round:
    """Run one contention round per row of the (rows, contenders) request mask.

    `draws` is None when every persistence is 0 or 1, else a pair (table,
    index): column c of row r draws table[index[r, c], s - 1] in mini-slot
    s, read only if it requests, when s runs.
    Each row runs the rule of `resolve_contention` on its requesting
    columns: a pending contender on attempt a transmits if p =
    persistence[a - 1] >= 1, or if 0 < p < 1 and its draw is below p; a lone
    transmitter wins, and each of several burns an attempt and is dropped
    past `max_attempts`.  Given `ids`, of any shape that broadcasts to the
    request mask, where column c of row r is contender ids[r, c] of the
    broadcast, the round also gives its events as equal-length int arrays
    (row, slot, contender, attempt, result), where a result is its code in
    RESULTS.  They run row by row, and within a row in the order
    `resolve_contention` emits them; a row that requests nothing has none.
    Each row's round is its own: the rows of a batch give what each would
    give alone, and a column that does not request never transmits, so rows
    of different rounds may share one call, padded to one width.  Each
    mini-slot runs on the requesting entries still pending, row by row and
    then by column; its events go in lists, which one stable sort orders.
    """
    persistence, requests = np.array(crm.persistence), np.asarray(requests, dtype=bool)
    width, rmax = requests.shape[1], crm.max_attempts
    table, index = draws or (None, None)
    # the requesting entries' cells, which shrink to those still pending
    pending = requests.ravel().nonzero()[0]
    # per cell, the entry's transmissions, plus `flag` once one succeeds: an
    # entry is pending while it has made fewer than rmax
    tries, flag = np.zeros(requests.size, dtype=int), 1 << rmax.bit_length()
    # the pending entries' transmissions and persistence; in slot 1 every
    # entry is pending, on attempt 1
    a, p = 0, np.empty(pending.size)
    p.fill(crm.persistence[0])
    # ends[i]: whether transmitter i's row differs from the one's before,
    # True past either end; a lone transmitter's differs on both sides
    alone = np.empty(pending.size + 1, dtype=bool)
    alone[0] = True
    slots = []  # per slot run: its events' cells, attempts and results
    for col in range(crm.slots_per_sample):
        if col:
            a = tries.take(pending)
            keep = a < rmax
            pending, a = pending.compress(keep), a.compress(keep)
            if not pending.size:
                break
            p = persistence.take(a)
        u = _LAST_DRAW if table is None else table[:, col].take(index.take(pending))
        tx = u < p
        sent = pending.compress(tx)
        r = sent // width
        ends = alone[:sent.size + 1]
        ends[-1] = True
        np.not_equal(r[1:], r[:-1], out=ends[1:-1])
        won = ends[:-1] & ends[1:]
        np.add.at(tries, sent, np.where(won, flag + 1, 1))
        if ids is not None:
            # each pending entry's success, collision or deferral; the drops
            result = np.where(tx, 1, 3)
            result[tx] = ~won
            out = sent.compress(tries.take(sent) == rmax)
            slots.append(((pending, out),
                          (np.ones(pending.size, dtype=int) + a, np.full(out.size, rmax)),
                          (result, np.full(out.size, 2))))
    delta = (tries >= flag).reshape(requests.shape)
    used = (tries & (flag - 1)).reshape(requests.shape)
    if ids is None:
        return Round(delta, used, None)
    # the drops when the window closes, after the last slot run
    n_run, pending = len(slots), pending.compress(tries.take(pending) < rmax)
    slots.append(((pending,), (tries.take(pending) + 1,), (np.full(pending.size, 2),)))
    cell, attempt, result = (np.concatenate(sum(parts, ())) for parts in zip(*slots))
    s = np.repeat(np.arange(n_run + 1), [sum(map(len, cells)) for cells, _, _ in slots])
    row = cell // width
    order = np.argsort((row * (n_run + 1) + s) * len(RESULTS) + result, kind="stable")
    row, cell, s = row.take(order), cell.take(order), s.take(order)
    contender = np.broadcast_to(np.asarray(ids, dtype=int), requests.shape)[row, cell % width]
    return Round(delta, used, (row, np.minimum(s + 1, crm.slots_per_sample), contender,
                               attempt.take(order), result.take(order)))


@dataclass(frozen=True)
class TrafficSource:
    """Exogenous traffic: i.i.d. Bernoulli or a two-state Markov on/off chain."""

    kind: str
    rate: float = 0.0
    p_on: float = 0.0
    p_off: float = 0.0

    def __post_init__(self):
        if self.kind not in ("bernoulli", "markov"):
            raise ConfigurationError(f"unknown traffic source kind {self.kind!r}")
        for name in ("rate", "p_on", "p_off"):
            object.__setattr__(self, name, _real(getattr(self, name), name, *_PROBABILITY))

    @classmethod
    def bernoulli(cls, rate: float) -> "TrafficSource":
        return cls(kind="bernoulli", rate=rate)


def traffic_step(source: TrafficSource, rng: np.random.Generator, prev_active: int = 0) -> int:
    """Advance the source one tick and return its activity indicator.

    Markov sources transition from `prev_active` first, then emit the new
    state; Bernoulli sources ignore the previous state.
    """
    if source.kind == "bernoulli":
        return 1 if rng.random() < source.rate else 0
    if prev_active:
        return 0 if rng.random() < source.p_off else 1
    return 1 if rng.random() < source.p_on else 0


def traffic_activity(source: TrafficSource, u: np.ndarray) -> np.ndarray:
    """The source's activity indicator at every tick, as a bool array of the
    shape of `u`.

    `u` holds one uniform draw per tick along its last axis, the draws
    `traffic_step` makes when it steps the source from inactive one tick at
    a time; any leading axes, such as a chunk's episodes, are independent
    paths.  A Markov source steps one tick column at a time for all of them.
    """
    if source.kind == "bernoulli":
        return u < source.rate
    active = np.empty(u.shape, dtype=bool)
    on = np.zeros(u.shape[:-1], dtype=bool)
    for t in range(u.shape[-1]):
        on = np.where(on, u[..., t] >= source.p_off, u[..., t] < source.p_on)
        active[..., t] = on
    return active
