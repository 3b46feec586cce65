"""Contention rounds, retransmission bookkeeping and traffic sources."""

import collections
import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macloops.errors import ConfigurationError
from macloops.model import RngStream
from macloops.network import (
    RESULT_COLLIDED,
    RESULT_DEFERRED,
    RESULT_DROPPED,
    RESULT_SUCCESS,
    RESULTS,
    CrmConfig,
    SlotEvent,
    SlotOutcome,
    TrafficSource,
    contend,
    resolve_contention,
    traffic_activity,
    traffic_step,
)

CRM = CrmConfig(persistence=(1.0, 0.75, 0.5))
# the contention chain of the benchmark's output checks, an oracle that does
# not import macloops
_ORACLES = Path(__file__).resolve().parent.parent / "benchmark" / "oracles.py"
_spec = importlib.util.spec_from_file_location("benchmark_oracles", _ORACLES)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


def contender_stream(stream, c):
    """The stream of contender c: `stream` with c appended to its coordinates."""
    return RngStream(stream.master_seed, stream.coords + (c,))


def draws(stream, crm):
    """Each contender's row, the first draws of its own stream."""
    return lambda c: contender_stream(stream, c).generator().random(crm.slots_per_sample)


def successes(out):
    return [ev.contender for ev in out.events if ev.result == RESULT_SUCCESS]


class TestCrmConfig:
    def test_defaults(self):
        crm = CrmConfig(persistence=(1.0, 0.75, 0.5))
        assert crm.max_attempts == 3
        assert crm.slots_per_sample == 3

    def test_empty_persistence_rejected(self):
        with pytest.raises(ConfigurationError):
            CrmConfig(persistence=())

    def test_probability_range(self):
        with pytest.raises(ConfigurationError):
            CrmConfig(persistence=(1.0, 1.2))

    @pytest.mark.parametrize("persistence", [(1.0, 1.2), (math.nan,), ("a",), (0.5, None), (),
                                             0.5, (True,), (1.0, False, 0.5)],
                             ids=["above-one", "nan", "string", "none", "empty", "scalar",
                                  "true", "false"])
    def test_persistence_errors_name_the_field(self, persistence):
        with pytest.raises(ConfigurationError) as info:
            CrmConfig(persistence=persistence)
        assert info.value.field == "persistence"

    def test_slots_must_cover_attempts(self):
        with pytest.raises(ConfigurationError):
            CrmConfig(persistence=(1.0, 0.5), slots_per_sample=1)

    def test_persistence_length_must_match_attempts(self):
        with pytest.raises(ConfigurationError):
            CrmConfig(persistence=(1.0, 0.5), max_attempts=3)

    @pytest.mark.parametrize("field", ["slots_per_sample", "max_attempts"])
    @pytest.mark.parametrize("value", [math.nan, 2.5, -2], ids=["nan", "fraction", "negative"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigurationError) as info:
            CrmConfig(persistence=(1.0, 0.5), **{field: value})
        assert info.value.field == field


class TestResolveContention:
    def test_single_contender_first_slot(self):
        out = resolve_contention([7], CRM, draws(RngStream(42), CRM))
        assert out.delta == {7: 1}
        assert successes(out) == [7]
        assert out.attempts_used[7] == 1
        assert out.events[0].slot == 1 and out.events[0].result == RESULT_SUCCESS

    def test_two_always_transmit_contenders_all_drop(self):
        crm = CrmConfig(persistence=(1.0, 1.0, 1.0))
        out = resolve_contention([0, 1], crm, draws(RngStream(7), crm))
        assert out.delta == {0: 0, 1: 0}
        assert out.attempts_used == {0: 3, 1: 3}
        first = [e for e in out.events if e.slot == 1]
        assert {e.result for e in first} == {RESULT_COLLIDED}

    def test_first_slot_collision_moves_to_second_attempt(self):
        out = resolve_contention([0, 1], CRM, draws(RngStream(3), CRM))
        slot1 = [e for e in out.events if e.slot == 1]
        assert all(e.result == RESULT_COLLIDED and e.attempt == 1 for e in slot1)

    def test_no_contenders(self):
        out = resolve_contention([], CRM, draws(RngStream(0), CRM))
        assert out.delta == {}
        assert out.events == ()

    def test_at_most_one_success_per_mini_slot(self):
        rng = np.random.default_rng(0)
        crm = CrmConfig(persistence=(1.0, 0.75, 0.5), slots_per_sample=8)
        for seed in range(300):
            n = int(rng.integers(1, 9))
            out = resolve_contention(range(n), crm, draws(RngStream(seed), crm))
            per_slot = {}
            for ev in out.events:
                if ev.result == RESULT_SUCCESS:
                    per_slot[ev.slot] = per_slot.get(ev.slot, 0) + 1
            assert all(v == 1 for v in per_slot.values())
            assert sorted(successes(out)) == [c for c, d in out.delta.items() if d]

    def test_deterministic_given_seed(self):
        a = resolve_contention([1, 2, 5], CRM, draws(RngStream(99), CRM))
        b = resolve_contention([1, 2, 5], CRM, draws(RngStream(99), CRM))
        assert a == b

    def test_request_order_is_irrelevant(self):
        a = resolve_contention([5, 2, 1], CRM, draws(RngStream(99), CRM))
        b = resolve_contention([1, 2, 5], CRM, draws(RngStream(99), CRM))
        assert a == b

    def test_monotone_degradation_under_common_randoms(self):
        # adding a contender must never turn someone's failure into a success
        crm = CrmConfig(persistence=(1.0, 0.75, 0.5), slots_per_sample=6)
        conversions = 0
        for seed in range(400):
            base = resolve_contention([0, 1], crm, draws(RngStream(seed), crm))
            more = resolve_contention([0, 1, 2], crm, draws(RngStream(seed), crm))
            for c in (0, 1):
                if base.delta[c] == 0 and more.delta[c] == 1:
                    conversions += 1
        assert conversions == 0

    def test_attempt_counter_only_advances_on_collisions(self):
        crm = CrmConfig(persistence=(0.5, 0.5, 0.5), slots_per_sample=12)
        for seed in range(50):
            out = resolve_contention([0, 1, 2, 3], crm, draws(RngStream(seed), crm))
            for c, used in out.attempts_used.items():
                assert used <= crm.max_attempts

    @pytest.mark.parametrize("k", range(1, 7))
    def test_success_frequency_matches_exact_chain(self, k):
        # the preset channel: persistence 1, 0.75, 0.5 over 10 mini-slots
        crm = CrmConfig(persistence=(1.0, 0.75, 0.5), slots_per_sample=10)
        rounds = 2000
        wins = sum(
            resolve_contention(range(k), crm, draws(RngStream(2024, (k, r)), crm)).delta[0]
            for r in range(rounds))
        p = oracles.tagged_success_probability(k, crm.persistence, crm.slots_per_sample)
        se = math.sqrt(p * (1.0 - p) / rounds)
        assert abs(wins / rounds - p) <= 5.0 * se + 1e-12


def eager_round(ids, crm, stream):
    """Oracle: every pending contender draws from its own numpy generator in
    every mini-slot, whatever its persistence."""
    gens = {c: contender_stream(stream, c).generator() for c in sorted(set(ids))}
    attempt = dict.fromkeys(gens, 1)
    used = dict.fromkeys(gens, 0)
    delta = dict.fromkeys(gens, 0)
    pending = sorted(gens)
    events = []
    for slot in range(1, crm.slots_per_sample + 1):
        if not pending:
            break
        tx = [c for c in pending if gens[c].random() < crm.persistence[attempt[c] - 1]]
        for c in tx:
            used[c] += 1
        if len(tx) == 1:
            events.append(SlotEvent(slot, tx[0], attempt[tx[0]], RESULT_SUCCESS))
            delta[tx[0]] = 1
            pending.remove(tx[0])
        elif tx:
            events += [SlotEvent(slot, c, attempt[c], RESULT_COLLIDED) for c in tx]
            for c in tx:
                attempt[c] += 1
            for c in tx:
                if attempt[c] > crm.max_attempts:
                    events.append(SlotEvent(slot, c, attempt[c] - 1, RESULT_DROPPED))
                    pending.remove(c)
        events += [SlotEvent(slot, c, attempt[c], RESULT_DEFERRED)
                   for c in pending if c not in tx]
    events += [SlotEvent(crm.slots_per_sample, c, attempt[c], RESULT_DROPPED)
               for c in pending]
    return SlotOutcome(delta=delta, attempts_used=used, events=tuple(events))


class TestCertainDraws:
    def test_persistence_one_never_asks_for_a_row(self):
        def no_rows(c):
            raise AssertionError(f"asked for the row of contender {c}")

        crm = CrmConfig(persistence=(1.0,))
        for ids in ([3], [0, 1], [4, 9, 2]):
            out = resolve_contention(ids, crm, no_rows)
            assert sum(out.delta.values()) == (len(ids) == 1)

    def test_mixed_persistence_matches_eager_draws(self):
        rng = np.random.default_rng(11)
        for seed in range(300):
            pers = tuple(rng.choice([0.0, 0.35, 0.8, 1.0], size=int(rng.integers(1, 5))))
            crm = CrmConfig(persistence=pers,
                            slots_per_sample=int(rng.integers(len(pers), 10)))
            ids = [int(c) for c in rng.choice(50, size=int(rng.integers(1, 7)),
                                              replace=False)]
            stream = RngStream(seed, (seed % 7,))
            assert resolve_contention(ids, crm, draws(stream, crm)) \
                == eager_round(ids, crm, stream), (pers, ids, seed)


@st.composite
def contention_rounds(draw):
    pers = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    slots = draw(st.integers(len(pers), 12))
    ids = draw(st.lists(st.integers(0, 1 << 17), max_size=8, unique=True))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return CrmConfig(persistence=tuple(pers), slots_per_sample=slots), ids, seed


class TestContentionProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=contention_rounds(), data=st.data())
    def test_round_invariants(self, case, data):
        crm, ids, seed = case
        out = resolve_contention(ids, crm, draws(RngStream(seed), crm))
        slots = [ev.slot for ev in out.events if ev.result == RESULT_SUCCESS]
        assert len(slots) == len(set(slots))
        assert all(used <= crm.max_attempts for used in out.attempts_used.values())
        assert set(out.delta) == set(ids)
        shuffled = data.draw(st.permutations(ids))
        assert resolve_contention(shuffled, crm, draws(RngStream(seed), crm)) == out


# persistences drawn from the whole interval and from its certain ends
persistences = st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                        min_size=1, max_size=4)


@st.composite
def array_rounds(draw):
    """A batch of rounds: a channel, the contender ids of the columns (loops,
    then sources, in id order), a request mask and the draws, or None on a
    channel whose every persistence is 0 or 1."""
    pers = draw(persistences)
    crm = CrmConfig(persistence=tuple(pers), slots_per_sample=draw(st.integers(len(pers), 12)))
    loops = sorted(draw(st.lists(st.integers(0, 40), max_size=6, unique=True)))
    ids = loops + [(1 << 16) + j for j in range(draw(st.integers(0, 3)))]
    n_rows = draw(st.integers(1, 5))
    requests = np.array(draw(st.lists(st.lists(st.booleans(), min_size=len(ids),
                                                max_size=len(ids)),
                                       min_size=n_rows, max_size=n_rows)),
                        dtype=bool).reshape(n_rows, len(ids))
    table = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random(
        (n_rows, len(ids), crm.slots_per_sample))
    if all(p in (0.0, 1.0) for p in pers) and draw(st.booleans()):
        table = None
    return crm, ids, requests, table


def table_draws(table):
    """The (table, index) draws `contend` takes for a (rows, contenders,
    slots) array of draws: its (rows x contenders, slots) reshape and each
    entry's row of it.  None, the draws of a certain channel, stays None."""
    if table is None:
        return None
    rows, contenders, slots = table.shape
    return table.reshape(-1, slots), np.arange(rows * contenders).reshape(rows, contenders)


def with_examples(test):
    """`test` with the explicit cases of the event order: a contender that
    defers in the last mini-slot and is dropped when the window closes,
    beside a success; rows that request nothing between rows that do; and
    two `flood`-shaped padded rows of 20 loop columns and 4 sources."""
    flood = [*range(20), *((1 << 16) + j for j in range(4))]
    padded = np.zeros((2, 24), dtype=bool)
    padded[0, [0, 1, 2, 5, 9, 11, 12, 13, 17, 19, 20, 22]] = True
    padded[1, [*range(3, 20), 21, 22, 23]] = True
    cases = [
        (CrmConfig(persistence=(0.5,), slots_per_sample=2), [0, 1], np.array([[True, True]]),
         np.array([[[0.1, 0.9], [0.9, 0.9]]])),
        (CRM, [3, 7, (1 << 16)],
         np.array([[1, 1, 0], [0, 0, 0], [1, 0, 1], [0, 0, 0], [0, 0, 0], [0, 1, 1]], dtype=bool),
         np.random.default_rng(38).random((6, 3, 3))),
        (CrmConfig(persistence=(1.0, 0.75, 0.5), slots_per_sample=10), flood, padded,
         np.random.default_rng(1).random((2, 24, 10))),
    ]
    for case in cases:
        test = example(case=case)(test)
    return test


class TestArrayRound:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=array_rounds())
    @with_examples
    def test_matches_the_per_round_reference(self, case):
        # every row of the array round must be the round resolve_contention
        # runs on that row's contenders and draws, event for event
        crm, ids, requests, table = case
        rounds = contend(requests, crm, table_draws(table), ids)
        plain = contend(requests, crm, table_draws(table))
        assert np.array_equal(plain.delta, rounds.delta)
        assert np.array_equal(plain.used, rounds.used)
        assert plain.events is None
        # the event columns run row by row; a row's entries are its events
        columns = rounds.events
        assert len({col.size for col in columns}) == 1
        assert all(col.dtype.kind == "i" for col in columns)
        event_row, *columns = columns
        assert np.all(np.diff(event_row) >= 0)
        for r in range(requests.shape[0]):
            def row(c, r=r):
                assert table is not None, "a certain channel needs no draws"
                return table[r, ids.index(c)].tolist()

            want = resolve_contention([c for c, on in zip(ids, requests[r]) if on], crm, row)
            slot, contender, attempt, result = (col[event_row == r].tolist() for col in columns)
            assert list(zip(slot, contender, attempt, map(RESULTS.__getitem__, result),
                            strict=True)) == list(want.events)
            wanted = {ids[c]: (rounds.delta[r, c], rounds.used[r, c])
                      for c in range(len(ids)) if requests[r, c]}
            assert wanted == {c: (want.delta[c], want.attempts_used[c]) for c in want.delta}
            assert not rounds.delta[r][~requests[r]].any()
            assert not rounds.used[r][~requests[r]].any()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=array_rounds())
    @with_examples
    def test_each_row_is_a_round_of_its_own(self, case):
        # a row's round does not depend on the rows around it: alone, it
        # gives the outcome and the events it gives in the batch, where
        # (rows, W) ids give each row contenders of its own.  Alone, its ids
        # may be (W,) or (1, W), and both give the same events
        crm, ids, requests, table = case
        row_ids = np.array(ids, dtype=int) + 1000 * np.arange(requests.shape[0])[:, None]
        batch = contend(requests, crm, table_draws(table), row_ids)
        event_row, *columns = batch.events
        for r in range(requests.shape[0]):
            rows = table_draws(None if table is None else table[r:r + 1])
            alone = contend(requests[r:r + 1], crm, rows, row_ids[r])
            assert np.array_equal(alone.delta[0], batch.delta[r])
            assert np.array_equal(alone.used[0], batch.used[r])
            assert ([col[event_row == r].tolist() for col in columns]
                    == [col.tolist() for col in alone.events[1:]])
            as_row = contend(requests[r:r + 1], crm, rows, row_ids[r:r + 1])
            assert ([col.tolist() for col in as_row.events]
                    == [col.tolist() for col in alone.events])


def tagged_round_law(k, persistence, slots):
    """Oracle: the exact law of one contender's (delivered, attempts used)
    in a round among k symmetric contenders, from the finite-window chain
    of the counts of pending contenders on each attempt.

    In a mini-slot each pending contender on attempt r transmits with
    probability persistence[r - 1]; a lone transmitter delivers on that
    attempt, and two or more all move up an attempt, those on the last one
    to be dropped.  The outcomes are (1, r), delivered on attempt r;
    (0, R), dropped after colliding on the last attempt R; and (0, a - 1),
    still pending on attempt a when the window closes.  By exchangeability
    one contender's law is the expected count of each outcome over k.
    """
    law = {}

    def add(outcome, mass):
        law[outcome] = law.get(outcome, 0.0) + mass / k

    states = {(k,) + (0,) * (len(persistence) - 1): 1.0}
    for _ in range(slots):
        following = {}
        for counts, prob in states.items():
            for sent in itertools.product(*(range(c + 1) for c in counts)):
                mass = prob * math.prod(math.comb(c, t) * p ** t * (1.0 - p) ** (c - t)
                                        for c, t, p in zip(counts, sent, persistence))
                left = [c - t for c, t in zip(counts, sent)]
                if sum(sent) == 1:
                    add((1, sent.index(1) + 1), mass)
                elif sum(sent) > 1:
                    add((0, len(persistence)), mass * sent[-1])
                    for r, t in enumerate(sent[:-1]):
                        left[r + 1] += t
                else:
                    left = counts
                following[tuple(left)] = following.get(tuple(left), 0.0) + mass
        states = following
    for counts, prob in states.items():
        for used, c in enumerate(counts):
            add((0, used), prob * c)
    return law


def chi2_sf(stat, dof):
    """P(X > stat) for X ~ chi-square(dof), from the series of the lower
    regularized incomplete gamma function."""
    a, x = dof / 2.0, stat / 2.0
    if x <= 0.0:
        return 1.0
    term = total = 1.0 / a
    n = 0
    while term > 1e-16 * total:
        n += 1
        term *= x / (a + n)
        total += term
    return 1.0 - math.exp(a * math.log(x) - x - math.lgamma(a)) * total


class TestChannelDistribution:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_tagged_outcomes_follow_the_exact_chain(self, k):
        # the preset channel; one round per row, and only column 0 is read,
        # so the counted outcomes are independent
        crm = CrmConfig(persistence=(1.0, 0.75, 0.5), slots_per_sample=10)
        rounds = 20_000
        draws = np.random.default_rng((2025, k)).random((rounds, k, crm.slots_per_sample))
        rnd = contend(np.ones((rounds, k), dtype=bool), crm, table_draws(draws))
        seen = collections.Counter(zip(rnd.delta[:, 0].astype(int).tolist(),
                                       rnd.used[:, 0].tolist()))
        law = tagged_round_law(k, crm.persistence, crm.slots_per_sample)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        assert set(seen) <= {o for o, p in law.items() if p > 0.0}
        # outcomes expected fewer than 5 times are pooled into one cell
        cells, pooled = [], [0, 0.0]
        for outcome, p in law.items():
            if rounds * p >= 5.0:
                cells.append((seen[outcome], rounds * p))
            else:
                pooled[0] += seen[outcome]
                pooled[1] += rounds * p
        if pooled[1] > 0.0:
            cells.append(tuple(pooled))
        stat = sum((obs - exp) ** 2 / exp for obs, exp in cells)
        # a lone contender always delivers on its first attempt: one cell,
        # which the support check covers
        assert len(cells) == 1 or chi2_sf(stat, len(cells) - 1) > 1e-3, (k, seen, law)


class TestTrafficSources:
    def test_bernoulli_extremes(self):
        gen = np.random.default_rng(0)
        assert all(traffic_step(TrafficSource.bernoulli(0.0), gen) == 0 for _ in range(20))
        assert all(traffic_step(TrafficSource.bernoulli(1.0), gen) == 1 for _ in range(20))

    def test_markov_long_run_occupancy(self):
        src = TrafficSource(kind="markov", p_on=0.2, p_off=0.5)
        gen = np.random.default_rng(123)
        state = 0
        total = 0
        n = 1_000_000
        for _ in range(n):
            state = traffic_step(src, gen, state)
            total += state
        assert abs(total / n - 0.2 / 0.7) < 0.01

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrafficSource.bernoulli(1.5)
        with pytest.raises(ConfigurationError):
            TrafficSource(kind="poisson")

    @pytest.mark.parametrize("field", ["rate", "p_on", "p_off"])
    @pytest.mark.parametrize("value", [1.5, -0.1, math.nan, "x", None],
                             ids=["above-one", "negative", "nan", "string", "none"])
    def test_probabilities_name_their_field(self, field, value):
        with pytest.raises(ConfigurationError) as info:
            TrafficSource(kind="markov", **{field: value})
        assert info.value.field == field

    @pytest.mark.parametrize("kind", ["bernoulli", "markov"])
    def test_activity_runs_each_path_of_the_leading_axes(self, kind):
        # a chunk's (episodes, sources, ticks) draws give each row the path
        # that row alone gives
        src = TrafficSource(kind=kind, rate=0.3, p_on=0.3, p_off=0.6)
        u = np.random.default_rng(5).random((4, 3, 50))
        rows = [traffic_activity(src, row) for row in u.reshape(-1, 50)]
        assert np.array_equal(traffic_activity(src, u), np.reshape(rows, u.shape))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["bernoulli", "markov"]),
           rates=st.tuples(*[st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)] * 3),
           ticks=st.integers(0, 60), seed=st.integers(0, 2 ** 32 - 1))
    def test_batched_activity_matches_stepping(self, kind, rates, ticks, seed):
        # one draw per tick either way: the vector of draws gives the path
        # that stepping the source one tick at a time gives
        rate, p_on, p_off = rates
        src = TrafficSource(kind=kind, rate=rate, p_on=p_on, p_off=p_off)
        gen = np.random.default_rng(seed)
        state, stepped = 0, []
        for _ in range(ticks):
            state = traffic_step(src, gen, state)
            stepped.append(state)
        batched = traffic_activity(src, np.random.default_rng(seed).random(ticks))
        assert batched.dtype == bool
        assert batched.tolist() == [bool(on) for on in stepped]
