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
from one numpy stream, laid out contender by contender
(`sim._contention_index`).  Draws whose outcome is certain, with persistence
0 or 1, are not made.

A round returns its delivery and attempt counts per contender and its events,
one `SlotEvent` named tuple (slot, contender, attempt, result) per contender
and mini-slot, which the event dump writes as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

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
        pers = tuple(float(p) for p in self.persistence)
        if not pers:
            raise ConfigurationError("persistence list must not be empty")
        if any(not (0.0 <= p <= 1.0) for p in pers):
            raise ConfigurationError(f"persistence probabilities must lie in [0,1]: {pers}")
        object.__setattr__(self, "persistence", pers)
        rmax = self.max_attempts if self.max_attempts else len(pers)
        if rmax < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if rmax != len(pers):
            raise ConfigurationError(
                f"need one persistence probability per attempt: {len(pers)} given, "
                f"max_attempts={rmax}"
            )
        object.__setattr__(self, "max_attempts", int(rmax))
        slots = self.slots_per_sample if self.slots_per_sample else rmax
        if slots < rmax:
            raise ConfigurationError(
                f"slots_per_sample ({slots}) must be >= max_attempts ({rmax})"
            )
        object.__setattr__(self, "slots_per_sample", int(slots))


class SlotEvent(NamedTuple):
    """One contender's action in one mini-slot (for the optional trace dump)."""

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
            if not (0.0 <= p <= 1.0):
                raise ConfigurationError(f"{name} must lie in [0,1], got {p}")

    @classmethod
    def bernoulli(cls, rate: float) -> "TrafficSource":
        return cls(kind="bernoulli", rate=float(rate))

    @classmethod
    def markov_on_off(cls, p_on: float, p_off: float) -> "TrafficSource":
        return cls(kind="markov", p_on=float(p_on), p_off=float(p_off))


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
