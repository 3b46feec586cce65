"""Closed-loop episode engine: determinism, conservation, reductions and the
paired-law experiment."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macloops import sim
from macloops.cli import parse_scenario_doc
from macloops.control import riccati_backward
from macloops.errors import ConfigurationError, NumericalError
from macloops.model import LoopConfig, NetworkScenario, PlantModel, RngStream, psd_sqrt
from macloops.network import CrmConfig, TrafficSource, contend, traffic_step
from macloops.scheduling import SchedulerPolicy, decide
from macloops.sim import (
    ce_law,
    dual_effect_experiment,
    monte_carlo,
    run_episode,
    sweep_threshold,
    zero_law,
)
from test_model import loop_draws
from test_network import oracles


def loop_of(scheduler, a=1.0, rw=1.0, r0=1.0, x0_mean=None, horizon=10,
            period=1, phase=0):
    plant = PlantModel(A=a, B=1.0, Rw=rw, R0=r0, x0_mean=x0_mean,
                       period=period, phase=phase)
    return LoopConfig(plant=plant, scheduler=scheduler, horizon=horizon,
                      Q0=1.0, Q1=1.0, Q2=1.0)


def single_loop(scheduler, crm=None, **kw):
    crm = crm or CrmConfig(persistence=(1.0,))
    return NetworkScenario(loops=(loop_of(scheduler, **kw),), crm=crm)


# the chunk length the boundary-crossing tests force
CHUNK = 64


def chunks_of(monkeypatch, scenario, episodes=CHUNK):
    """Make the engine run `scenario` in chunks of `episodes` episodes, by
    setting the cell budget to that many episodes' cells."""
    monkeypatch.setattr(sim, "CHUNK_CELLS", episodes * sim._layout(scenario).cells)


def per_episode(hook):
    """A chunk trace hook for `monte_carlo` that calls hook(episode, traces)
    for each episode of the chunk in turn, with one `LoopTrace` per loop."""
    def chunk_hook(episodes, traces):
        for e, ep in enumerate(episodes):
            hook(ep, [sim._episode_trace(tr, e, ep) for tr in traces])
    return chunk_hook


class TestRunEpisode:
    def test_noise_free_rollout(self):
        scn = single_loop(SchedulerPolicy.always_transmit(),
                          rw=0.0, r0=0.0, x0_mean=[1.0], horizon=2)
        tr = run_episode(scn, seed=0, episode=0)[0]
        assert tr.xs.ravel() == pytest.approx([1.0, 0.4, 0.2], abs=1e-12)
        assert tr.us.ravel() == pytest.approx([-0.6, -0.2], abs=1e-12)
        assert tr.j == pytest.approx(1.6, abs=1e-10)

    def test_determinism(self):
        scn = single_loop(SchedulerPolicy.innovation_threshold(1.0))
        a = run_episode(scn, seed=3, episode=5)[0]
        b = run_episode(scn, seed=3, episode=5)[0]
        for field in ("xs", "us", "gammas", "deltas", "xhats", "taus"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        c = run_episode(scn, seed=3, episode=6)[0]
        assert not np.array_equal(a.xs, c.xs)

    def test_single_loop_delta_equals_gamma(self):
        scn = single_loop(SchedulerPolicy.innovation_threshold(1.0))
        for ep in range(20):
            tr = run_episode(scn, seed=7, episode=ep)[0]
            assert np.array_equal(tr.deltas, tr.gammas)

    def test_trace_invariants(self):
        scn = single_loop(SchedulerPolicy.innovation_threshold(2.0))
        for ep in range(20):
            tr = run_episode(scn, seed=11, episode=ep)[0]
            assert np.all(tr.deltas <= tr.gammas)
            received = tr.deltas == 1
            assert np.all(tr.errs[received] == 0.0)
            assert np.all(tr.delays == tr.ks - tr.taus)
            assert np.all((tr.delays == 0) == received)

    def test_cost_consistency_bitwise(self):
        scn = single_loop(SchedulerPolicy.innovation_threshold(1.0), horizon=17)
        tr = run_episode(scn, seed=4, episode=9)[0]
        j = 0.0
        for x, u in zip(tr.xs[:-1, 0], tr.us[:, 0]):
            j += float(x * x) + float(u * u)
        j += float(tr.xs[-1, 0] ** 2)
        assert j == tr.j

    def test_huge_threshold_never_transmits(self):
        scn = single_loop(SchedulerPolicy.innovation_threshold(1e12))
        tr = run_episode(scn, seed=2, episode=0)[0]
        assert tr.gammas.sum() == 0 and tr.deltas.sum() == 0
        # with no packets the estimate is the pure model rollout of the prior
        xhat = np.zeros(1)
        for k in range(tr.ks.size):
            assert tr.xhats[k] == pytest.approx(xhat)
            xhat = 1.0 * xhat + 1.0 * tr.us[k]

    def test_two_synchronized_stubborn_loops_starve(self):
        crm = CrmConfig(persistence=(1.0, 1.0, 1.0))
        loops = (loop_of(SchedulerPolicy.always_transmit(), horizon=5),
                 loop_of(SchedulerPolicy.always_transmit(), horizon=5))
        scn = NetworkScenario(loops=loops, crm=crm)
        traces = run_episode(scn, seed=1, episode=0)
        for tr in traces:
            assert tr.deltas.sum() == 0
            assert np.all(tr.attempts == 3)

    def test_phase_places_sampling_instants(self):
        scn = single_loop(SchedulerPolicy.always_transmit(),
                          period=5, phase=3, horizon=4)
        tr = run_episode(scn, seed=0, episode=0)[0]
        assert list(tr.ticks) == [3, 8, 13, 18]

    def test_mixed_periods_meet_only_at_common_ticks(self):
        loops = (loop_of(SchedulerPolicy.always_transmit(), period=2, horizon=3),
                 loop_of(SchedulerPolicy.always_transmit(), period=3, horizon=2))
        scn = NetworkScenario(loops=loops, crm=CrmConfig(persistence=(1.0, 0.75, 0.5)))
        traces = run_episode(scn, seed=5, episode=0)
        assert list(traces[0].ticks) == [0, 2, 4]
        assert list(traces[1].ticks) == [0, 3]
        # only tick 0 has two contenders; every other round is a lone
        # request, which gets through
        tables = []
        monte_carlo(scn, 5, 1, event_hook=lambda chunk, table: tables.append(table))
        contenders = {}
        for tick, c in zip(tables[0].tick.tolist(), tables[0].contender.tolist()):
            contenders.setdefault(tick, set()).add(c)
        assert contenders == {0: {0, 1}, 2: {0}, 3: {1}, 4: {0}}
        for tr in traces:
            assert np.all(tr.deltas[tr.ticks != 0] == 1)

    def test_network_penalty_accumulates_per_delivery(self):
        plant = PlantModel(A=1.0, B=1.0, Rw=1.0, R0=1.0)
        loop = LoopConfig(plant=plant, scheduler=SchedulerPolicy.innovation_threshold(1.0),
                          horizon=10, Q0=1.0, Q1=1.0, Q2=1.0, net_penalty=2.0)
        scn = NetworkScenario(loops=(loop,), crm=CrmConfig(persistence=(1.0,)))
        tr = run_episode(scn, seed=8, episode=0)[0]
        assert tr.j_lambda == pytest.approx(tr.j + 2.0 * tr.deltas.sum())

    def test_exogenous_source_can_block_the_loop(self):
        crm = CrmConfig(persistence=(1.0, 1.0, 1.0))
        scn = NetworkScenario(
            loops=(loop_of(SchedulerPolicy.always_transmit(), horizon=5),),
            crm=crm,
            sources=(TrafficSource.bernoulli(1.0),),
        )
        tr = run_episode(scn, seed=1, episode=0)[0]
        # the stubborn source collides with every attempt
        assert tr.deltas.sum() == 0


def two_state_network():
    """A 2-state loop and a scalar one on a lossy channel with a Markov and a
    Bernoulli source."""
    plant = PlantModel(A=[[1.0, 0.3], [-0.2, 0.9]], B=[[0.1], [1.0]],
                       Rw=[[0.5, 0.1], [0.1, 0.4]], R0=np.eye(2), x0_mean=[0.3, -0.2],
                       period=2)
    vector = LoopConfig(plant=plant, scheduler=SchedulerPolicy.innovation_threshold(1.0),
                        horizon=6, Q0=np.eye(2), Q1=[[1.5, 0.3], [0.3, 1.0]], Q2=0.7,
                        net_penalty=0.5)
    return NetworkScenario(
        loops=(vector, loop_of(SchedulerPolicy.state_threshold(2.0), horizon=8)),
        crm=CrmConfig(persistence=(1.0, 0.6, 0.3), slots_per_sample=5),
        sources=(TrafficSource(kind="markov", p_on=0.3, p_off=0.4), TrafficSource.bernoulli(0.35)),
    )


TRACE_FIELDS = ("xs", "us", "gammas", "deltas", "attempts", "xhats", "errs", "pred_err_sq",
                "taus", "delays", "cost_terms")


# each public run with a given seed, on a one-loop state-threshold scenario
RUNS = {
    "monte_carlo": lambda scn, seed: monte_carlo(scn, seed, 2),
    "run_episode": lambda scn, seed: run_episode(scn, seed, 0),
    "sweep_threshold": lambda scn, seed: sweep_threshold(scn, [1.0], seed, 2),
    "dual_effect_experiment": lambda scn, seed: dual_effect_experiment(
        scn, ce_law, zero_law, seed, 2),
}


# each public run of a given episode count, on the same scenario
COUNTED_RUNS = {
    "monte_carlo": lambda scn, episodes: monte_carlo(scn, 1, episodes),
    "sweep_threshold": lambda scn, episodes: sweep_threshold(scn, [1.0], 1, episodes),
    "dual_effect_experiment": lambda scn, episodes: dual_effect_experiment(
        scn, ce_law, zero_law, 1, episodes),
}


class TestRunArguments:
    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
    @pytest.mark.parametrize("seed", [1.5, "7", -3, math.nan, None, True],
                             ids=["fraction", "string", "negative", "nan", "none", "bool"])
    def test_bad_seed_is_rejected_before_anything_is_derived(self, monkeypatch, run, seed):
        def layout(scenario):
            raise AssertionError("derived a layout")

        monkeypatch.setattr(sim, "_layout", layout)
        with pytest.raises(ConfigurationError) as info:
            run(single_loop(SchedulerPolicy.state_threshold(1.0)), seed)
        assert info.value.field == "seed"
        assert str(info.value) == f"seed must be an integer >= 0, got {seed!r}"

    @pytest.mark.parametrize("run", COUNTED_RUNS.values(), ids=COUNTED_RUNS.keys())
    @pytest.mark.parametrize("episodes", [0, 2.5, "7", math.nan, None, True],
                             ids=["zero", "fraction", "string", "nan", "none", "bool"])
    def test_bad_episode_count_is_rejected_before_anything_is_derived(self, monkeypatch, run,
                                                                        episodes):
        def layout(scenario):
            raise AssertionError("derived a layout")

        monkeypatch.setattr(sim, "_layout", layout)
        with pytest.raises(ConfigurationError) as info:
            run(single_loop(SchedulerPolicy.state_threshold(1.0)), episodes)
        assert info.value.field == "episodes"
        assert str(info.value) == f"episodes must be an integer >= 1, got {episodes!r}"

    @pytest.mark.parametrize("run", COUNTED_RUNS.values(), ids=COUNTED_RUNS.keys())
    def test_integral_episode_counts_run_as_their_int(self, run):
        scn = single_loop(SchedulerPolicy.state_threshold(1.0))
        assert repr(run(scn, 2.0)) == repr(run(scn, np.int64(2))) == repr(run(scn, 2))

    @pytest.mark.parametrize("eps", ["x", None, True], ids=["string", "none", "bool"])
    def test_bad_sweep_value_names_eps(self, eps):
        with pytest.raises(ConfigurationError) as info:
            sweep_threshold(single_loop(SchedulerPolicy.state_threshold(1.0)), [1.0, eps], 1, 2)
        assert info.value.field == "eps"

    @pytest.mark.parametrize("episode", [-1, 2.5, "3"], ids=["negative", "fraction", "string"])
    def test_bad_episode_is_rejected(self, episode):
        with pytest.raises(ConfigurationError) as info:
            run_episode(single_loop(SchedulerPolicy.state_threshold(1.0)), 5, episode)
        assert info.value.field == "episode"

    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
    def test_integral_seeds_run_as_their_int(self, run):
        scn = single_loop(SchedulerPolicy.state_threshold(1.0))
        assert repr(run(scn, 3.0)) == repr(run(scn, np.int64(3))) == repr(run(scn, 3))


class TestChunkedEngine:
    @pytest.mark.parametrize("make", [lambda: parse_scenario_doc("example1").scenario,
                                      two_state_network], ids=["example1", "two-state"])
    def test_traces_do_not_depend_on_the_chunk(self, monkeypatch, make):
        # the run straddles a chunk boundary; each episode's traces and its
        # rows of its chunk's event table must match its own one-episode
        # chunk bit for bit and event for event
        scn = make()
        chunks_of(monkeypatch, scn)
        episodes = CHUNK + 3
        chunked, tables = {}, []
        monte_carlo(scn, 9, episodes, trace_hook=per_episode(chunked.__setitem__),
                    event_hook=lambda chunk, table: tables.append((chunk, table)))
        assert list(chunked) == list(range(episodes))
        assert [chunk for chunk, _ in tables] == [range(0, CHUNK), range(CHUNK, episodes)]
        rows = [row for chunk, table in tables
                for row in zip(*(col.tolist() for col in table), strict=True)]
        assert rows == sorted(rows, key=lambda row: row[0])
        layout = sim._layout(scn)
        for ep in range(episodes):
            alone = range(ep, ep + 1)
            _, (batch,), (log,) = next(sim._run_arms([(scn, ce_law)], layout, 9, alone,
                                                     keep_rounds=True))
            for a, b in zip((sim._episode_trace(tr, 0, ep) for tr in batch), chunked[ep]):
                assert (a.loop, a.episode) == (b.loop, b.episode) == (a.loop, ep)
                for name in TRACE_FIELDS:
                    assert np.array_equal(getattr(a, name), getattr(b, name)), (ep, name)
                assert (a.terminal_cost, a.j, a.j_lambda) == (b.terminal_cost, b.j, b.j_lambda)
            events = list(zip(*(col.tolist() for col in sim._event_table(alone, log))))
            assert events, ep
            assert events == [row for row in rows if row[0] == ep]

    def test_one_input_holds_for_every_episode_and_loop(self, monkeypatch):
        # example1's loops form one stack, called with several sampling loops
        # per tick; a law's single (m,) input must reach every episode and
        # loop, bit for bit as the full (E, l, m) array of it does, in either
        # chunk of the run
        scn = parse_scenario_doc("example1").scenario
        chunks_of(monkeypatch, scn)
        widths = []

        def one(L_k, xhat):
            widths.append(L_k.shape[0])
            return np.array([0.25])

        def full(L_k, xhat):
            return np.full(xhat.shape[:-1] + (1,), 0.25)

        runs = []
        for law in (one, full):
            seen = []
            monte_carlo(scn, 4, CHUNK + 2, law,
                        trace_hook=per_episode(lambda ep, traces: seen.append(traces)))
            runs.append(seen)
        assert max(widths) > 1
        for traces_one, traces_full in zip(*runs, strict=True):
            for a, b in zip(traces_one, traces_full, strict=True):
                assert np.all(a.us == 0.25)
                for name in TRACE_FIELDS:
                    assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_sums_of_zeros_are_positive_zero(self):
        # numpy's `@` adds its products to +0; the engine's sums must too, or
        # a zero state would print as -0.0 in the trace CSV
        plant = PlantModel(A=-0.5, B=-1.0, Rw=0.0, R0=0.0, x0_mean=0.0)
        loop = LoopConfig(plant=plant, scheduler=SchedulerPolicy.innovation_threshold(1.0),
                          horizon=3, Q0=1.0, Q1=1.0, Q2=1.0)
        scn = NetworkScenario(loops=(loop,), crm=CrmConfig(persistence=(1.0,)))
        tr = run_episode(scn, 0, 0, zero_law)[0]   # never sent: xhat is the prediction
        for name in ("xs", "xhats", "errs", "pred_err_sq", "cost_terms"):
            assert not np.signbit(getattr(tr, name)).any(), name
        tr = run_episode(scn, 0, 0, ce_law)[0]
        gain = riccati_backward(-0.5, -1.0, 1.0, 1.0, 1.0, 3).L[0]
        assert np.array_equal(np.signbit(tr.us[0]), np.signbit(-(gain @ np.zeros(1))))


def noise_roots(scenario):
    """Each loop's (sqrt R0, sqrt Rw), derived without the engine's layout."""
    return [(psd_sqrt(lc.plant.R0), psd_sqrt(lc.plant.Rw)) for lc in scenario.loops]


def lossy_state_network(sources=1):
    """Two state-threshold loops, whose requests follow the control law, and
    Bernoulli sources on a channel where every transmit decision is random."""
    return NetworkScenario(
        loops=(loop_of(SchedulerPolicy.state_threshold(1.0), horizon=12),
               loop_of(SchedulerPolicy.state_threshold(0.5), a=0.9, horizon=6, period=2)),
        crm=CrmConfig(persistence=(0.7, 0.5), slots_per_sample=4),
        sources=(TrafficSource.bernoulli(0.4),) * sources,
    )


def contention_rows(monkeypatch, scenario, law, episodes, seed=5):
    """The row every contender was handed, keyed by (episode, tick, contender)."""
    handed = []

    def spy(requests, crm, draws, ids=None):
        handed.append((requests, draws))
        return contend(requests, crm, draws, ids)

    monkeypatch.setattr(sim, "contend", spy)
    layout = sim._layout(scenario)
    tick_ids = {tick.tick: tick.ids for tick in sim._plan(layout)}
    rows = {}
    for chunk, _, (log,) in sim._run_arms([(scenario, law)], layout,
                                          seed, range(episodes), keep_rounds=True):
        # one round per logged tick, whose row r is the asking[r]th episode
        # of the chunk and whose column c is contender ids[c]
        for (tick, asking, _), (requests, draws) in zip(log, handed, strict=True):
            ids = tick_ids[tick]
            for r, e in enumerate(asking.tolist()):
                cols = np.flatnonzero(requests[r])
                rows.update(((chunk[e], tick, c), draws[r, col].tolist())
                            for c, col in zip(ids[cols].tolist(), cols))
        del handed[:]
    return rows


def layout_rows(layout):
    """The contention-table row of each (tick, contender), in the order of
    the layout's plan."""
    rows = {}
    for tick in sim._plan(layout):
        rows.update(((tick.tick, c), row) for c, row in
                    zip(tick.ids.tolist(), tick.rows.tolist(), strict=True))
    return rows


# one-word seeds at both ends, a two-word seed, and one longer than numpy's
# four-word SeedSequence pool
FOUR_SEEDS = pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 64 + 5, 2 ** 130],
                                     ids=["0", "2^32-1", "2^64+5", "2^130"])


class TestContentionDraws:
    def test_rows_are_keyed_per_contender(self, monkeypatch):
        # the two laws request at different ticks, so the rounds differ; a
        # contender that contends at the same tick of an episode under both
        # must meet the same draws (common random numbers)
        scn = lossy_state_network()
        a = contention_rows(monkeypatch, scn, ce_law, 30)
        b = contention_rows(monkeypatch, scn, zero_law, 30)
        shared = a.keys() & b.keys()
        assert a.keys() != b.keys()
        assert len(shared) >= 100
        assert [k for k in sorted(shared) if a[k] != b[k]] == []

    @FOUR_SEEDS
    def test_table_is_one_numpy_stream_per_episode(self, seed):
        scn = lossy_state_network(2)
        layout = sim._layout(scn)
        draws = sim._draw_chunk(scn, layout, seed, range(3, 6))
        # loop 0 at ticks 0..11, loop 1 at ticks 0, 2, .., 10, then each
        # source at all 12 sampling ticks
        keys = ([(t, 0) for t in range(12)] + [(t, 1) for t in range(0, 12, 2)]
                + [(t, sim.SOURCE_CONTENDER_BASE + j) for j in range(2) for t in range(12)])
        rows = layout_rows(layout)
        assert rows == {key: row for row, key in enumerate(keys)}
        # the entries run in tick order, and in contender-id order within a tick
        assert list(rows) == sorted(rows)
        for ep, table in zip(draws.episodes, draws.tables):
            stream = RngStream(seed, (ep, sim._ROLE_CONTENTION)).generator()
            assert np.array_equal(table, stream.random((len(keys), 4)))

    def test_certain_channel_draws_no_table(self):
        scn = replace(lossy_state_network(), crm=CrmConfig(persistence=(1.0, 0.0, 1.0)))
        draws = sim._draw_chunk(scn, sim._layout(scn), 1, range(4))
        assert draws.tables is None

    def test_traffic_matches_stepping_each_source(self):
        # a Markov and a Bernoulli source, each stepped tick by tick through
        # its row of the episode's traffic stream, must be active exactly
        # where the chunk says
        scn = two_state_network()
        layout = sim._layout(scn)
        draws = sim._draw_chunk(scn, layout, 7, range(2, 6))
        ticks = layout.ticks.tolist()
        span = ticks[-1] + 1
        assert draws.active.shape == (4, len(ticks), 2)
        for e, ep in enumerate(draws.episodes):
            for j, src in enumerate(scn.sources):
                gen = RngStream(7, (ep, sim.SOURCE_CONTENDER_BASE,
                                    sim._ROLE_TRAFFIC)).generator()
                gen.random(j * span)   # the rows of the sources before j
                state, on_at = 0, {}
                for tick in range(span):
                    state = traffic_step(src, gen, state)
                    on_at[tick] = bool(state)
                assert draws.active[e, :, j].tolist() == [on_at[t] for t in ticks]

    def test_adding_a_source_keeps_every_loops_rows(self, monkeypatch):
        one = contention_rows(monkeypatch, lossy_state_network(1), ce_law, 20)
        two = contention_rows(monkeypatch, lossy_state_network(2), ce_law, 20)
        loops = [k for k in one.keys() & two.keys() if k[2] < sim.SOURCE_CONTENDER_BASE]
        assert len(loops) >= 50
        assert all(one[k] == two[k] for k in loops)


def matvec(mat, vec):
    """mat @ vec with each entry's products added in index order to +0."""
    return np.array([sum((mat[i, j] * vec[j] for j in range(vec.size)), 0.0)
                     for i in range(mat.shape[0])])


def layered_network():
    """A 2-state, a 3-state and a scalar loop of different horizons and two
    sources of different kinds."""
    base = two_state_network()
    return replace(base, loops=base.loops + (
        matrix_loop(3, SchedulerPolicy.innovation_threshold(1.0), 3),))


class TestDeliveryAge:
    def test_tau_is_the_last_delivery(self, monkeypatch):
        # tau at step k is the last step k' <= k with a delivery, or -1 for
        # the fictitious initial packet, across 8-episode chunks
        scn = lossy_state_network()
        chunks_of(monkeypatch, scn, 8)
        seen = []
        monte_carlo(scn, 3, 20, trace_hook=per_episode(lambda ep, traces: seen.extend(traces)))
        assert len(seen) == 2 * 20
        for tr in seen:
            last = -1
            for k in range(tr.ks.size):
                if tr.deltas[k] == 1:
                    last = k
                assert tr.taus[k] == last
            assert np.array_equal(tr.delays, tr.ks - tr.taus)
        # the channel loses requests, and some episodes start silent
        assert any((tr.gammas > tr.deltas).any() for tr in seen)
        assert any(tr.taus[0] == -1 for tr in seen)


class TestNoiseAndTrafficDraws:
    @FOUR_SEEDS
    def test_noise_is_one_numpy_stream_per_episode(self, seed):
        # each loop reads its block of the episode's noise stream, in loop
        # order: n draws for x0, then its N x n process noise
        scn = layered_network()
        roots = noise_roots(scn)
        layout = sim._layout(scn)
        draws = sim._draw_chunk(scn, layout, seed, range(3, 6))
        for e, ep in enumerate(draws.episodes):
            stream = RngStream(seed, (ep, 0, sim._ROLE_NOISE)).generator()
            for i, (lc, (sqrt_r0, sqrt_rw)) in enumerate(zip(scn.loops, roots)):
                n = lc.plant.n
                x0 = lc.plant.x0_mean + matvec(sqrt_r0, stream.standard_normal(n))
                w = [matvec(sqrt_rw, z) for z in stream.standard_normal((lc.horizon, n))]
                x0s, noise = loop_draws(layout, draws, i)
                assert np.array_equal(x0s[e], x0), (ep, i)
                assert np.array_equal(noise[e], np.array(w)), (ep, i)

    @FOUR_SEEDS
    def test_appending_a_loop_or_a_source_keeps_every_loops_noise(self, seed):
        base = layered_network()
        longer = loop_of(SchedulerPolicy.always_transmit(), horizon=40)
        more_loops = replace(base, loops=base.loops + (longer,))
        more_sources = replace(base, sources=base.sources + (TrafficSource.bernoulli(0.5),))
        layout = sim._layout(base)
        draws = sim._draw_chunk(base, layout, seed, range(3, 6))
        for scn in (more_loops, more_sources):
            other_layout = sim._layout(scn)
            other = sim._draw_chunk(scn, other_layout, seed, range(3, 6))
            for i in range(len(base.loops)):
                for a, b in zip(loop_draws(other_layout, other, i), loop_draws(layout, draws, i)):
                    assert np.array_equal(a, b)
        # `other` has the extra source, and the same sampling ticks: the
        # earlier sources' rows are unchanged too
        assert np.array_equal(other.active[:, :, :2], draws.active)

    @FOUR_SEEDS
    def test_matrix_draws_do_not_depend_on_the_chunk(self, seed):
        # n = 2 plants: every product over the plant dimensions must have the
        # same bits in a chunk of CHUNK episodes as in a chunk of one
        scn = replace(two_state_network(), loops=(
            two_state_network().loops[0],
            matrix_loop(2, SchedulerPolicy.state_threshold(2.0), 4)))
        layout = sim._layout(scn)
        chunk = sim._draw_chunk(scn, layout, seed, range(CHUNK))
        for ep in range(CHUNK):
            alone = sim._draw_chunk(scn, layout, seed, range(ep, ep + 1))
            for i in range(len(scn.loops)):
                for a, b in zip(loop_draws(layout, alone, i), loop_draws(layout, chunk, i)):
                    assert np.array_equal(a[0], b[ep])
            assert np.array_equal(alone.active[0], chunk.active[ep])
            assert np.array_equal(alone.tables[0], chunk.tables[ep])


def matrix_loop(n, scheduler, seed):
    """A stable n-state, one-input loop with random dynamics and noise."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a *= 0.95 / max(abs(np.linalg.eigvals(a)))
    noise = rng.normal(size=(n, n))
    plant = PlantModel(A=a, B=rng.normal(size=(n, 1)), Rw=noise @ noise.T + 0.1 * np.eye(n),
                       R0=np.eye(n), x0_mean=rng.normal(size=n))
    return LoopConfig(plant=plant, scheduler=scheduler, horizon=15, Q0=np.eye(n),
                      Q1=np.eye(n), Q2=1.0)


class TestMatrixDecisions:
    def test_decisions_agree_with_the_recorded_errors(self, monkeypatch):
        # n = 2 and 3: an innovation loop requests exactly where its recorded
        # squared prediction error exceeds eps, so the bound count is the
        # complement of the request count; a state loop decides as `decide`
        # does on the state before the input
        loops = tuple(matrix_loop(n, make(eps), 10 * n + j)
                      for n in (2, 3)
                      for j, (make, eps) in enumerate(
                          [(SchedulerPolicy.innovation_threshold, 2.5),
                           (SchedulerPolicy.state_threshold, 4.0)]))
        scn = NetworkScenario(loops=loops, crm=CrmConfig(persistence=(1.0, 0.6, 0.3),
                                                         slots_per_sample=5),
                              sources=(TrafficSource.bernoulli(0.2),))
        chunks_of(monkeypatch, scn)
        episodes = CHUNK + 6
        traces = {}
        res = monte_carlo(scn, 12, episodes, trace_hook=per_episode(traces.__setitem__))
        for i, lc in enumerate(scn.loops):
            gammas = np.array([traces[ep][i].gammas for ep in range(episodes)])
            assert 0 < gammas.sum() < gammas.size
            if lc.scheduler.kind == "innovation":
                errs = np.array([traces[ep][i].pred_err_sq for ep in range(episodes)])
                assert np.array_equal(gammas, errs > lc.scheduler.eps)
                steps = episodes * lc.horizon
                stats = res.per_loop[i]
                assert stats.request_rate == gammas.sum() / steps
                assert stats.bound_prob == (steps - gammas.sum()) / steps
            else:
                for ep in range(episodes):
                    tr = traces[ep][i]
                    assert tr.gammas.tolist() == [decide(lc.scheduler, x, None)
                                                  for x in tr.xs[:-1]]

    @pytest.mark.parametrize("a,x0,rule,expected", [
        (0.5, [0.75], "ge", 1),
        (0.5, [0.75], "le", 1),
        (0.5, [0.75], "state", 0),
        ([[0.5, 0.25], [0.0, 0.75]], [0.5, -1.5], "state", 0),
        (0.5, [0.75], "innovation", 0),
        ([[0.5, 0.25], [0.0, 0.75]], [0.5, -1.5], "innovation", 0),
        (0.5, [0.75], "always", 1),
        ([[0.5, 0.25], [0.0, 0.75]], [0.5, -1.5], "always", 1),
    ], ids=["halfline-ge", "halfline-le", "state-scalar", "state-n2", "innovation-scalar",
            "innovation-n2", "always-scalar", "always-n2"])
    def test_first_decision_on_a_rule_boundary(self, a, x0, rule, expected):
        # a noise-free loop in dyadic values, so every product and sum is
        # exact: its first state x0 and first prediction A x0 put the rule
        # exactly on its boundary, where random states never land
        a, x0 = np.atleast_2d(a), np.array(x0)
        n, r = x0.size, x0 - a @ x0
        policy = {"ge": SchedulerPolicy.half_line_state(x0[0], "ge"),
                  "le": SchedulerPolicy.half_line_state(x0[0], "le"),
                  "state": SchedulerPolicy.state_threshold(x0 @ x0),
                  "innovation": SchedulerPolicy.innovation_threshold(r @ r),
                  "always": SchedulerPolicy.always_transmit()}[rule]
        plant = PlantModel(A=a, B=np.ones((n, 1)), Rw=np.zeros((n, n)), R0=np.zeros((n, n)),
                           x0_mean=x0)
        scn = NetworkScenario(loops=(LoopConfig(plant=plant, scheduler=policy, horizon=2,
                                                Q0=np.eye(n), Q1=np.eye(n), Q2=1.0),),
                              crm=CrmConfig(persistence=(1.0,)))
        tr = run_episode(scn, 0, 0)[0]
        assert tr.xs[0].tolist() == x0.tolist()
        assert tr.gammas[0] == decide(policy, x0, a @ x0) == expected


class TestMonteCarlo:
    def test_single_episode_has_no_se(self):
        scn = single_loop(SchedulerPolicy.always_transmit(), horizon=3)
        res = monte_carlo(scn, seed=0, episodes=1)
        assert math.isnan(res.per_loop[0].report.j_se)
        assert math.isnan(res.j_se)

    def test_same_seed_identical(self):
        scn = single_loop(SchedulerPolicy.innovation_threshold(1.0), horizon=5)
        a = monte_carlo(scn, seed=9, episodes=30)
        b = monte_carlo(scn, seed=9, episodes=30)
        assert a.j_mean == b.j_mean
        assert np.array_equal(a.per_loop[0].costs, b.per_loop[0].costs)

    def test_episode_count_validated(self):
        scn = single_loop(SchedulerPolicy.always_transmit(), horizon=3)
        with pytest.raises(ConfigurationError):
            monte_carlo(scn, seed=0, episodes=0)

    def test_breakdown_names_the_first_episode_loop_and_tick(self, monkeypatch):
        # loop 1 is x+ = 10 x + w under the zero law, which overflows at its
        # last step in some episodes; its zero state weights keep its costs
        # finite.  The error names the first episode whose state overflows,
        # found by the same recursion in plain floats, here in the second
        # chunk, and the tick of that step, phase + period * 308
        big = LoopConfig(plant=PlantModel(A=10.0, B=1.0, Rw=1.0, R0=1.0, period=2, phase=1),
                         scheduler=SchedulerPolicy.always_transmit(), horizon=308,
                         Q0=0.0, Q1=0.0, Q2=1.0)
        scn = NetworkScenario(loops=(loop_of(SchedulerPolicy.always_transmit(), a=0.5,
                                             horizon=5), big),
                              crm=CrmConfig(persistence=(1.0,)))
        layout = sim._layout(scn)
        x0, w = loop_draws(layout, sim._draw_chunk(scn, layout, 0, range(40)), 1)
        with np.errstate(over="ignore"):
            x = x0[:, 0]
            for k in range(308):
                x = 10.0 * x + w[:, k, 0]
        first = int(np.flatnonzero(~np.isfinite(x))[0])
        assert first >= 8
        chunks_of(monkeypatch, scn, 8)
        message = f"the state of loop 1 is not finite at tick 617 of episode {first}"
        with pytest.raises(NumericalError, match=f"^{message}$"):
            monte_carlo(scn, 0, 40, zero_law)

    def test_cost_overflow_is_a_breakdown(self):
        # x stays finite, but (1e200)^2 does not: a cost that overflows is
        # reported, not averaged as inf
        scn = single_loop(SchedulerPolicy.always_transmit(), x0_mean=[1e200], r0=0.0,
                          horizon=3)
        with pytest.raises(NumericalError,
                           match="^the cost of loop 0 is not finite at tick 0 of episode 0$"):
            monte_carlo(scn, 0, 2)

    def test_predicted_cost_matches_simulation(self):
        # with a delivery-per-request channel the closed-form cost evaluated
        # at the empirical error covariances reproduces the Monte Carlo mean
        scn = single_loop(SchedulerPolicy.innovation_threshold(1.0), horizon=4)
        res = monte_carlo(scn, seed=21, episodes=4000)
        stats = res.per_loop[0]
        assert abs(stats.report.j_mean - stats.report.j_dp) < 4.0 * stats.report.j_se

    def test_traffic_stops_at_the_last_sampling_tick(self, monkeypatch):
        # sources only matter at sampling ticks, so each episode's traffic
        # stream makes exactly one draw per source and tick up to the last
        # one (tick 10 here)
        after, real = {}, sim._streams

        class Recorded:
            """An episode's stream that records its state after each draw."""

            def __init__(self, gen, ep):
                self.gen, self.ep = gen, ep

            def random(self, *args, **kwargs):
                out = self.gen.random(*args, **kwargs)
                after[self.ep] = self.gen.bit_generator.state
                return out

        def streams(seed, episodes, *key):
            for ep, gen in zip(episodes, real(seed, episodes, *key)):
                yield Recorded(gen, ep) if key[-1] == sim._ROLE_TRAFFIC else gen

        monkeypatch.setattr(sim, "_streams", streams)
        monte_carlo(two_state_network(), 4, 5)
        assert sorted(after) == list(range(5))
        for ep, state in after.items():
            expected = RngStream(4, (ep, sim.SOURCE_CONTENDER_BASE, sim._ROLE_TRAFFIC)).generator()
            expected.random(2 * 11)
            assert state == expected.bit_generator.state

    def test_rates_are_consistent(self):
        scn = single_loop(SchedulerPolicy.innovation_threshold(2.0), horizon=10)
        res = monte_carlo(scn, seed=2, episodes=50)
        s = res.per_loop[0]
        assert 0.0 <= s.request_rate <= 1.0
        assert s.success_rate == pytest.approx(1.0)   # lone loop, p1 = 1
        assert s.drop_rate == pytest.approx(0.0)
        assert 0.0 <= s.bound_prob <= 1.0

    def test_network_correlates_traffic_with_state(self):
        # two state-threshold loops sharing the medium: the neighbour's
        # request indicator carries information about my state magnitude
        loops = (loop_of(SchedulerPolicy.state_threshold(1.0), horizon=20),
                 loop_of(SchedulerPolicy.state_threshold(1.0), horizon=20))
        scn = NetworkScenario(loops=loops, crm=CrmConfig(persistence=(1.0, 0.75, 0.5)))
        xs, ns = [], []

        def keep(ep, traces):
            tr1, tr2 = traces
            xs.append(np.abs(tr1.xs[:-1, 0]))
            ns.append(tr2.gammas)

        monte_carlo(scn, 31, 1500, trace_hook=per_episode(keep))
        x = np.concatenate(xs)
        n = np.concatenate(ns)
        r = np.corrcoef(x, n)[0, 1]
        assert abs(r) > 3.0 / math.sqrt(x.size)


def constant_law(L_k, xhat):
    """An input that ignores the estimate: 1 on every channel of every loop."""
    return np.ones(L_k.shape[:-1])


@st.composite
def control_free_networks(draw):
    """two_state_network's loops and channel under `always` or `innovation`
    schedulers with random thresholds, and one Bernoulli source."""
    def scheduler():
        if draw(st.booleans()):
            return SchedulerPolicy.always_transmit()
        return SchedulerPolicy.innovation_threshold(draw(st.floats(0.0, 6.0)))

    base = two_state_network()
    loops = tuple(replace(lc, scheduler=scheduler()) for lc in base.loops)
    source = TrafficSource.bernoulli(draw(st.floats(0.0, 1.0)))
    return replace(base, loops=loops, sources=(source,))


class TestControlFreeRequests:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(scn=control_free_networks(), seed=st.integers(0, 2 ** 64 - 1))
    def test_gammas_are_bit_identical_across_laws(self, scn, seed):
        def gammas(law):
            seen = []
            monte_carlo(scn, seed, 4, law, trace_hook=per_episode(
                lambda ep, traces: seen.append([tr.gammas.tolist() for tr in traces])))
            return seen

        reference = gammas(ce_law)
        assert gammas(zero_law) == reference
        assert gammas(constant_law) == reference


def counting(monkeypatch, name):
    """The positional arguments of every call the engine makes to sim.<name>."""
    calls, real = [], getattr(sim, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sim, name, wrapper)
    return calls


class TestRiccatiMemo:
    def test_derived_once_per_call_and_shared_across_arms(self, monkeypatch):
        example1 = parse_scenario_doc("example1").scenario
        example3 = parse_scenario_doc("example3").scenario
        solves = counting(monkeypatch, "riccati_backward")
        roots = counting(monkeypatch, "psd_sqrt")
        chunks = counting(monkeypatch, "_run_chunk")

        def derived():
            """The solves, the roots and the distinct tables the arms ran on since
            the last call."""
            counts = (len(solves), len(roots), len({id(args[4]) for args in chunks}))
            for calls in (solves, roots, chunks):
                calls.clear()
            return counts

        # twenty equal loops: one solve and one pair of roots for all 16 thresholds
        sweep_threshold(example3, np.linspace(0.5, 8.0, 16), 3, 2)
        assert derived() == (1, 2, 1)
        # three plant types, two laws
        dual_effect_experiment(example1, ce_law, zero_law, 3, 2)
        assert derived() == (3, 6, 1)
        # nothing is kept between calls
        monte_carlo(example1, 3, 2)
        monte_carlo(example1, 3, 2)
        assert derived() == (2 * 3, 2 * 6, 2)

    # the ids predate the roots count
    @pytest.mark.parametrize("name,solves,roots", [("example1", 3, 6), ("example3", 1, 2)],
                             ids=["example1-3", "example3-1"])
    def test_equal_loops_share_one_solve(self, monkeypatch, name, solves, roots):
        # example1 has three plant types, example3 twenty equal loops
        solve_calls = counting(monkeypatch, "riccati_backward")
        root_calls = counting(monkeypatch, "psd_sqrt")
        scn = parse_scenario_doc(name).scenario
        layout = sim._layout(scn)
        assert (len(solve_calls), len(root_calls)) == (solves, roots)
        members = [i for st in layout.stacks for i in st.loops]
        assert sorted(members) == list(range(len(scn.loops)))
        for st in layout.stacks:
            for slot, i in enumerate(st.loops):
                lc = scn.loops[i]
                alone = riccati_backward(lc.plant.A, lc.plant.B, lc.Q0, lc.Q1, lc.Q2, lc.horizon)
                assert np.array_equal(st.S[slot], alone.S)
                assert np.array_equal(st.L[slot], alone.L)
                assert np.array_equal(st.sqrt_r0[slot], psd_sqrt(lc.plant.R0))
                assert np.array_equal(st.sqrt_rw[slot, 0], psd_sqrt(lc.plant.Rw))


class TestLayout:
    def test_built_once_per_call(self, monkeypatch):
        scn = lossy_state_network()
        chunks_of(monkeypatch, scn)
        layouts = counting(monkeypatch, "_layout")
        chunks = counting(monkeypatch, "_draw_chunk")

        def built():
            """The layouts built and the chunks drawn since the last call."""
            counts = (len(layouts), len(chunks))
            layouts.clear()
            chunks.clear()
            return counts

        monte_carlo(scn, 3, 3 * CHUNK)
        assert built() == (1, 3)
        sweep_threshold(scn, [0.5, 1.0, 2.0], 3, 2 * CHUNK)
        assert built() == (1, 2)
        dual_effect_experiment(scn, ce_law, zero_law, 3, 2 * CHUNK)
        assert built() == (1, 2)

    def test_one_plan_per_call_shared_by_its_chunks_and_arms(self, monkeypatch):
        scn = lossy_state_network()
        chunks_of(monkeypatch, scn)
        plans = counting(monkeypatch, "_plan")
        runs = counting(monkeypatch, "_run_chunk")

        def derived():
            """The plans derived, the chunk runs and the distinct plans they
            followed since the last call."""
            counts = (len(plans), len(runs), len({id(args[5]) for args in runs}))
            plans.clear()
            runs.clear()
            return counts

        monte_carlo(scn, 3, 3 * CHUNK)
        assert derived() == (1, 3, 1)
        sweep_threshold(scn, [0.5, 1.0, 2.0], 3, 2 * CHUNK)
        assert derived() == (1, 3 * 2, 1)
        dual_effect_experiment(scn, ce_law, zero_law, 3, 2 * CHUNK)
        assert derived() == (1, 2 * 2, 1)
        run_episode(scn, 3, 5)
        assert derived() == (1, 1, 1)

    def test_drawing_a_chunk_derives_no_plan(self, monkeypatch):
        scn = lossy_state_network()
        plans = counting(monkeypatch, "_plan")
        layout = sim._layout(scn)
        sim._draw_chunk(scn, layout, 3, range(4))
        assert plans == []


class TestSweep:
    def test_smoke_and_common_seeds(self):
        scn = single_loop(SchedulerPolicy.innovation_threshold(1.0), horizon=5)
        res = sweep_threshold(scn, [0.5, 2.0, 8.0], seed=3, episodes=40)
        assert res.eps.size == 3
        assert np.all(res.j_mean > 0)
        assert np.all((res.bound_prob >= 0) & (res.bound_prob <= 1))
        # larger thresholds request less
        assert res.request_rate[0] > res.request_rate[-1]

    def test_requires_threshold_scheduler(self):
        scn = single_loop(SchedulerPolicy.always_transmit(), horizon=5)
        with pytest.raises(ConfigurationError):
            sweep_threshold(scn, [1.0], seed=0, episodes=5)

    def test_empty_grid(self):
        scn = single_loop(SchedulerPolicy.innovation_threshold(1.0), horizon=5)
        with pytest.raises(ConfigurationError):
            sweep_threshold(scn, [], seed=0, episodes=5)

    def test_equals_monte_carlo_per_eps_bit_for_bit(self, monkeypatch):
        # the run straddles a chunk boundary; each column must be what a
        # monte_carlo run of the scenario at that eps reports
        scn = replace(two_state_network(), crm=CrmConfig(persistence=(1.0, 0.75, 0.5)),
                      sources=(TrafficSource.bernoulli(0.3),))
        chunks_of(monkeypatch, scn)
        grid = [0.25, 1.5, 4.0]
        episodes = CHUNK + 3
        res = sweep_threshold(scn, grid, seed=6, episodes=episodes)

        def mean_of(values):
            kept = [v for v in values if not math.isnan(v)]
            return float(np.mean(kept)) if kept else float("nan")

        assert res.eps.tolist() == grid
        for col, eps in enumerate(grid):
            loops = tuple(replace(lc, scheduler=replace(lc.scheduler, eps=eps))
                          for lc in scn.loops)
            mc = monte_carlo(replace(scn, loops=loops), 6, episodes)
            stats = mc.per_loop
            expected = [mc.j_mean, mc.j_se,
                        float(np.mean([s.bound_prob for s in stats])),
                        float(np.mean([s.request_rate for s in stats])),
                        mean_of([s.success_rate for s in stats]),
                        mean_of([s.drop_rate for s in stats])]
            got = [getattr(res, name)[col] for name in
                   ("j_mean", "j_se", "bound_prob", "request_rate", "success_rate",
                    "drop_rate")]
            assert [repr(float(v)) for v in got] == [repr(v) for v in expected], eps


class TestDualEffectExperiment:
    def test_control_free_schedulers_give_identical_requests(self):
        scn = NetworkScenario(
            loops=(loop_of(SchedulerPolicy.innovation_threshold(1.0), horizon=10),
                   loop_of(SchedulerPolicy.innovation_threshold(2.0), horizon=10)),
            crm=CrmConfig(persistence=(1.0, 0.75, 0.5)),
            sources=(TrafficSource.bernoulli(0.3),),
        )
        rep = dual_effect_experiment(scn, ce_law, zero_law, seed=17, episodes=100)
        assert rep.control_free
        assert rep.gamma_identical_episodes == 100
        assert rep.divergence_fraction == 0.0

    def test_half_line_scheduler_diverges(self):
        scn = single_loop(SchedulerPolicy.half_line_state(0.5))
        rep = dual_effect_experiment(scn, ce_law, zero_law, seed=23, episodes=300)
        assert not rep.control_free
        assert rep.divergence_fraction > 0.0
        assert rep.first_divergence_ticks.size > 0

    def test_step_one_divergence_share_matches_exact_integral(self):
        # criterion 8's loop: x0 ~ N(0, 1) is requested iff x0 >= 0.5
        scn = single_loop(SchedulerPolicy.half_line_state(0.5))
        episodes = 10_000
        rep = dual_effect_experiment(scn, ce_law, zero_law, seed=8, episodes=episodes)
        gain0 = oracles.scalar_first_gain(1.0, 1.0, 1.0, 1.0, 1.0, 10)
        p = oracles.first_step_divergence_probability(1.0, 1.0, 1.0, 1.0, gain0, 0.5)
        share = int((rep.first_divergence_ticks == 1).sum()) / episodes
        se = math.sqrt(p * (1.0 - p) / episodes)
        assert abs(share - p) <= 5.0 * se, f"share {share:.4f} vs exact {p:.4f}"

    def test_outputs_are_pinned(self):
        # criterion 8's loop; the values are those of the per-episode engine
        scn = single_loop(SchedulerPolicy.half_line_state(0.5))
        rep = dual_effect_experiment(scn, ce_law, zero_law, seed=8, episodes=2000)
        assert [repr(v) for v in (rep.mse_a, rep.mse_b, rep.mse_diff, rep.mse_diff_se,
                                  rep.gamma_identical_episodes)] == [
            "3.488520489955558", "3.0147129414083285", "0.4738075485472297",
            "0.022975611627591378", "817"]
        assert hashlib.sha256(rep.first_divergence_ticks.tobytes()).hexdigest() == \
            "d8e3f16cab297f3cf0f004599ee4fa5a9abab61486e5c38653ca0f95055edcf9"

    def test_divergence_matches_two_monte_carlo_runs(self, monkeypatch):
        # each law alone through monte_carlo, on an episode range that
        # straddles a chunk boundary, must request where the paired run says
        scn = replace(single_loop(SchedulerPolicy.half_line_state(0.5)),
                      crm=CrmConfig(persistence=(1.0, 0.75, 0.5)),
                      sources=(TrafficSource.bernoulli(0.4),))
        chunks_of(monkeypatch, scn)
        episodes = CHUNK + 5

        def requests(law):
            seen = []
            monte_carlo(scn, 13, episodes, law, trace_hook=per_episode(
                lambda ep, traces: seen.append([(tr.ticks, tr.gammas.copy()) for tr in traces])))
            return seen

        first = []
        for loops_a, loops_b in zip(requests(ce_law), requests(zero_law)):
            ticks = [int(ticks[np.argmax(ga != gb)])
                     for (ticks, ga), (_, gb) in zip(loops_a, loops_b) if (ga != gb).any()]
            if ticks:
                first.append(min(ticks))
        rep = dual_effect_experiment(scn, ce_law, zero_law, seed=13, episodes=episodes)
        assert 0 < len(first) < episodes
        assert rep.gamma_identical_episodes == episodes - len(first)
        assert rep.first_divergence_ticks.tolist() == first

    def test_laws_must_differ(self):
        scn = single_loop(SchedulerPolicy.half_line_state(0.5))
        with pytest.raises(ConfigurationError):
            dual_effect_experiment(scn, ce_law, ce_law, seed=0, episodes=2)

    def test_episode_count_validated(self):
        scn = single_loop(SchedulerPolicy.half_line_state(0.5))
        with pytest.raises(ConfigurationError, match="episodes must be an integer >= 1"):
            dual_effect_experiment(scn, ce_law, zero_law, seed=0, episodes=0)


def chunk_cells(monkeypatch, scenario, episodes):
    """The chunks of a monte_carlo run, each with the array cells it takes:
    the noise row, the traffic table and the contention table it draws, and
    the step arrays its stacks fill, counted from the arrays themselves."""
    cells, traffic = {}, []
    draw, stack_steps, activity = sim._draw_chunk, sim._stack_steps, sim.traffic_activity

    def activity_spy(src, u):
        traffic.append(u.size)
        return activity(src, u)

    def draw_spy(scn, layout, seed, chunk):
        draws = draw(scn, layout, seed, chunk)
        table = 0 if draws.tables is None else draws.tables.size
        cells[chunk] = len(chunk) * layout.width + sum(traffic) + table
        traffic.clear()
        return draws

    def steps_spy(st, x0, n_ep):
        run = stack_steps(st, x0, n_ep)
        cells[list(cells)[-1]] += sum(arr.size for arr in vars(run).values())
        return run

    monkeypatch.setattr(sim, "_draw_chunk", draw_spy)
    monkeypatch.setattr(sim, "_stack_steps", steps_spy)
    monkeypatch.setattr(sim, "traffic_activity", activity_spy)
    monte_carlo(scenario, 2, episodes)
    return cells


def flood_network():
    """example1-baseline's twenty loops, every sample requested, with four
    Bernoulli sources on its channel."""
    base = parse_scenario_doc("example1-baseline").scenario
    return replace(base, sources=(TrafficSource.bernoulli(0.25),) * 4)


class TestChunkSize:
    def test_one_scalar_loop_runs_450_pairs_in_one_chunk(self, monkeypatch):
        # criterion 8's loop, at the benchmark's batch of the paired experiment
        scn = single_loop(SchedulerPolicy.half_line_state(0.5))
        chunks = counting(monkeypatch, "_draw_chunk")
        dual_effect_experiment(scn, ce_law, zero_law, 3, 450)
        assert [args[3] for args in chunks] == [range(450)]

    @pytest.mark.parametrize("make", [flood_network,
                                      lambda: parse_scenario_doc("example3").scenario],
                             ids=["flood", "example3"])
    def test_twenty_loops_get_at_least_64_episodes(self, monkeypatch, make):
        cells = chunk_cells(monkeypatch, make(), 130)
        assert len(list(cells)[0]) >= 64

    @pytest.mark.parametrize("make", [lossy_state_network, two_state_network, layered_network,
                                      lambda: single_loop(SchedulerPolicy.half_line_state(0.5))],
                             ids=["lossy", "two-state", "layered", "one-loop"])
    @pytest.mark.parametrize("budget", [0.5, 1, 3, 3.5, None],
                             ids=["half-episode", "one", "three", "three-and-a-half", "default"])
    def test_chunks_fill_the_cell_budget(self, monkeypatch, make, budget):
        # every chunk but a one-episode one fits the budget, and every chunk
        # but the last would not fit one more episode
        scn = make()
        per_episode_cells = sim._layout(scn).cells
        if budget is not None:
            monkeypatch.setattr(sim, "CHUNK_CELLS", int(budget * per_episode_cells))
        cells = chunk_cells(monkeypatch, scn, 10)
        assert [ep for chunk in cells for ep in chunk] == list(range(10))
        for chunk, used in cells.items():
            assert used == len(chunk) * per_episode_cells
            assert used <= sim.CHUNK_CELLS or len(chunk) == 1
        for chunk in list(cells)[:-1]:
            assert (len(chunk) + 1) * per_episode_cells > sim.CHUNK_CELLS
