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
at once, with one array step per mini-slot; the engine calls it once per
tick for every episode of a chunk with a request.  Either way a round
yields its delivery and attempt counts per contender and its events, one
(slot, contender, attempt, result) per contender and mini-slot.
`resolve_contention` gives them as `SlotEvent` named tuples.  `contend`
returns a `Round`, whose events, when it is given the contenders' ids, are
int columns derived from its per-slot masks: the engine's one form of its
events, which its event table and the event dump read.

A traffic source makes one uniform draw per tick whatever its kind:
`traffic_step` advances it by one tick, and `traffic_activity` turns a whole
array of draws, one path per leading index, into the same activity
indicators at once.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigurationError

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
        # model imports this module, so its integer check is imported late
        from .model import _integer

        try:
            pers = tuple(self.persistence)
        except TypeError:
            raise ConfigurationError(f"persistence must be a list of probabilities, "
                                     f"got {self.persistence}", field="persistence") from None
        if not pers:
            raise ConfigurationError("persistence list must not be empty", field="persistence")
        if not all(isinstance(p, numbers.Real) for p in pers):
            raise ConfigurationError(f"persistence probabilities must be numbers, got {pers}",
                                     field="persistence")
        pers = tuple(map(float, pers))
        if any(not (0.0 <= p <= 1.0) for p in pers):
            raise ConfigurationError(f"persistence probabilities must lie in [0,1]: {pers}",
                                     field="persistence")
        object.__setattr__(self, "persistence", pers)
        # 0 stands for the default: one attempt per probability, one slot per attempt
        rmax = _integer(self.max_attempts, "max_attempts", "an integer >= 0", 0) or len(pers)
        if rmax != len(pers):
            raise ConfigurationError(
                f"need one persistence probability per attempt: {len(pers)} given, "
                f"max_attempts={rmax}"
            )
        object.__setattr__(self, "max_attempts", rmax)
        slots = _integer(self.slots_per_sample, "slots_per_sample", "an integer >= 0", 0) or rmax
        if slots < rmax:
            raise ConfigurationError(
                f"slots_per_sample ({slots}) must be >= max_attempts ({rmax})"
            )
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


class Round(NamedTuple):
    """The outcome of `contend`, one round per row of its request mask: each
    contender's delivery (bool) and attempts used, zero where it did not
    request, and the rows' events, None unless `contend` was given ids."""

    delta: np.ndarray
    used: np.ndarray
    events: Optional[tuple[np.ndarray, ...]]


def contend(requests: np.ndarray, crm: CrmConfig, draws: Optional[np.ndarray],
            ids: Optional[Sequence[int]] = None) -> Round:
    """Run one contention round per row of the (rows, contenders) request mask.

    `draws[r, c, s - 1]` is column c's draw in mini-slot s of row r; it may
    be None when every persistence is 0 or 1.  Each row runs the rule of
    `resolve_contention` on its requesting columns: a pending contender on
    attempt a transmits if p = persistence[a - 1] >= 1, or if 0 < p < 1 and
    its draw is below p; a lone transmitter wins, and each of several burns
    an attempt and is dropped past `max_attempts`.  Given `ids`, where
    column c is contender ids[c], the round also gives its events as
    equal-length int arrays (row, slot, contender, attempt, result), where a
    result is its code in RESULTS.  They run row by row, and within a row in
    the order `resolve_contention` emits them.
    """
    # the persistence of attempt a at index a; attempt max_attempts + 1 is
    # never pending, and its 0 pads the table
    persistence = np.array((0.0,) + crm.persistence + (0.0,))
    requests = np.asarray(requests, dtype=bool)
    pending = requests.copy()
    attempt = np.ones(pending.shape, dtype=int)
    delta = np.zeros(pending.shape, dtype=bool)
    # per mini-slot that some row contends in: the attempts as it began, and
    # who transmitted, won and was still pending as it ended
    slots = []
    for col in range(crm.slots_per_sample):
        if not pending.any():
            break
        p = persistence.take(attempt)
        if draws is None:
            tx = pending & (p >= 1.0)
        else:
            # a draw lies in [0, 1): it is below every p >= 1 and no p == 0
            tx = pending & (draws[:, :, col] < p)
        won = tx & (tx.sum(axis=1, keepdims=True) == 1)
        delta |= won
        before = attempt
        attempt = attempt + (tx ^ won)
        pending = pending ^ won
        pending &= attempt <= crm.max_attempts
        if ids is not None:
            slots.append((before, tx, won, pending))
    # every transmission but a success burned an attempt
    used = attempt - 1 + delta
    if ids is None:
        return Round(delta, used, None)
    n_rows, n_cols = requests.shape
    if not requests.any():
        return Round(delta, used, (np.zeros(0, dtype=int),) * 5)
    before, tx, won, left = (np.stack(masks, axis=1) for masks in zip(*slots))
    n_slots = tx.shape[1]
    # event masks per (row, slot, result, contender), where np.nonzero walks
    # them in the order a round emits its events: within a slot the one
    # success or every collision, then the contenders dropped after
    # colliding, then those deferring.  The extra last slot holds the drops
    # when the window closes.
    kinds = np.zeros((n_rows, n_slots + 1, len(RESULTS), n_cols), dtype=bool)
    kinds[:, :-1, 0] = won
    kinds[:, :-1, 1] = collided = tx & ~won
    kinds[:, :-1, 2] = collided & ~left
    kinds[:, :-1, 3] = left & ~tx
    kinds[:, -1, 2] = pending
    attempts = np.concatenate((before, attempt[:, None]), axis=1)
    slot_no = np.arange(1, n_slots + 2)
    slot_no[-1] = crm.slots_per_sample
    row, s, result, col = np.nonzero(kinds)
    return Round(delta, used, (row, slot_no[s], np.asarray(ids)[col], attempts[row, s, col],
                               result))


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
            p = getattr(self, name)
            if isinstance(p, bool) or not (isinstance(p, numbers.Real) and 0.0 <= p <= 1.0):
                raise ConfigurationError(f"{name} must lie in [0,1], got {p!r}", field=name)
            object.__setattr__(self, name, float(p))

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
