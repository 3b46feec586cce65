"""Closed-loop episode engine: determinism, conservation, reductions and the
paired-law experiment."""

import gc
import hashlib
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macloops import sim
from macloops.cli import parse_scenario_doc
from macloops.control import riccati_backward
from macloops.errors import ConfigurationError
from macloops.model import LoopConfig, NetworkScenario, PlantModel, RngStream
from macloops.network import CrmConfig, TrafficSource, resolve_contention, traffic_step
from macloops.scheduling import SchedulerPolicy
from macloops.sim import (
    CHUNK_EPISODES,
    ce_law,
    dual_effect_experiment,
    monte_carlo,
    run_episode,
    sweep_threshold,
    zero_law,
)
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
        events = []
        traces = run_episode(scn, seed=5, episode=0, event_log=events)
        assert list(traces[0].ticks) == [0, 2, 4]
        assert list(traces[1].ticks) == [0, 3]
        # only tick 0 has two contenders; every other round is a lone request
        rounds = {tick: out for tick, out in events}
        assert len(rounds[0].delta) == 2
        for tick, out in rounds.items():
            if tick != 0:
                assert len(out.delta) == 1 and sum(out.delta.values()) == 1

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
        sources=(TrafficSource.markov_on_off(0.3, 0.4), TrafficSource.bernoulli(0.35)),
    )


TRACE_FIELDS = ("xs", "us", "gammas", "deltas", "attempts", "xhats", "errs", "pred_err_sq",
                "taus", "delays", "cost_terms")


class TestChunkedEngine:
    @pytest.mark.parametrize("make", [lambda: parse_scenario_doc("example1").scenario,
                                      two_state_network], ids=["example1", "two-state"])
    def test_traces_do_not_depend_on_the_chunk(self, make):
        # the run straddles a chunk boundary; each episode must match its
        # own batch-of-one run bit for bit
        scn = make()
        episodes = CHUNK_EPISODES + 3
        chunked, chunked_events = {}, {}
        monte_carlo(scn, 9, episodes, trace_hook=chunked.__setitem__,
                    event_hook=chunked_events.__setitem__)
        assert list(chunked) == list(chunked_events) == list(range(episodes))
        for ep in range(episodes):
            events = []
            alone = run_episode(scn, 9, ep, event_log=events)
            for a, b in zip(alone, chunked[ep]):
                assert (a.loop, a.episode) == (b.loop, b.episode) == (a.loop, ep)
                for name in TRACE_FIELDS:
                    assert np.array_equal(getattr(a, name), getattr(b, name)), (ep, name)
                assert (a.terminal_cost, a.j, a.j_lambda) == (b.terminal_cost, b.j, b.j_lambda)
            assert events == chunked_events[ep]



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
    rounds = []

    def spy(requests, crm, draws):
        seen = {}
        rounds.append(seen)

        def row(c):
            seen[c] = list(draws(c))
            return seen[c]

        return resolve_contention(requests, crm, row)

    monkeypatch.setattr(sim, "resolve_contention", spy)
    rows = {}
    for ep in range(episodes):
        del rounds[:]
        log = []
        run_episode(scenario, seed, ep, law, event_log=log)
        for (tick, _), seen in zip(log, rounds, strict=True):
            rows.update(((ep, tick, c), row) for c, row in seen.items())
    return rows


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

    # one-word seeds at both ends, a two-word seed, and one longer than
    # numpy's four-word SeedSequence pool
    @pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 64 + 5, 2 ** 130],
                             ids=["0", "2^32-1", "2^64+5", "2^130"])
    def test_table_is_one_numpy_stream_per_episode(self, seed):
        scn = lossy_state_network(2)
        draws = sim._draw_chunk(scn, seed, range(3, 6), sim._noise_factors(scn))
        # loop 0 at ticks 0..11, loop 1 at ticks 0, 2, .., 10, then each
        # source at all 12 sampling ticks
        keys = ([(t, 0) for t in range(12)] + [(t, 1) for t in range(0, 12, 2)]
                + [(t, sim.SOURCE_CONTENDER_BASE + j) for j in range(2) for t in range(12)])
        assert draws.rows == {key: row for row, key in enumerate(keys)}
        for ep, table in zip(draws.episodes, draws.tables):
            stream = RngStream(seed, (ep, sim._ROLE_CONTENTION)).generator()
            assert np.array_equal(table, stream.random((len(keys), 4)))

    def test_certain_channel_draws_no_table(self):
        scn = replace(lossy_state_network(), crm=CrmConfig(persistence=(1.0, 0.0, 1.0)))
        draws = sim._draw_chunk(scn, 1, range(4), sim._noise_factors(scn))
        assert draws.tables == [None] * 4

    def test_adding_a_source_keeps_every_loops_rows(self, monkeypatch):
        one = contention_rows(monkeypatch, lossy_state_network(1), ce_law, 20)
        two = contention_rows(monkeypatch, lossy_state_network(2), ce_law, 20)
        loops = [k for k in one.keys() & two.keys() if k[2] < sim.SOURCE_CONTENDER_BASE]
        assert len(loops) >= 50
        assert all(one[k] == two[k] for k in loops)


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

    def test_predicted_cost_matches_simulation(self):
        # with a delivery-per-request channel the closed-form cost evaluated
        # at the empirical error covariances reproduces the Monte Carlo mean
        scn = single_loop(SchedulerPolicy.innovation_threshold(1.0), horizon=4)
        res = monte_carlo(scn, seed=21, episodes=4000)
        stats = res.per_loop[0]
        assert abs(stats.report.j_mean - stats.report.j_dp) < 4.0 * stats.report.j_se

    def test_traffic_stops_at_the_last_sampling_tick(self, monkeypatch):
        # sources only matter at sampling ticks, so a global horizon past the
        # last one (tick 10 here) must cost nothing and change nothing
        calls = []

        def counting_step(*args):
            calls.append(1)
            return traffic_step(*args)

        monkeypatch.setattr(sim, "traffic_step", counting_step)
        scn = two_state_network()
        results = []
        for horizon in (None, 10 ** 4):
            del calls[:]
            results.append(monte_carlo(replace(scn, global_horizon=horizon), 4, 5))
            assert len(calls) == 5 * 2 * 11
        short, long = results
        assert (short.j_mean, short.j_se) == (long.j_mean, long.j_se)
        for a, b in zip(short.per_loop, long.per_loop):
            assert np.array_equal(a.costs, b.costs)
            assert (a.request_rate, a.success_rate, a.drop_rate, a.mean_attempts) == \
                (b.request_rate, b.success_rate, b.drop_rate, b.mean_attempts)

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
        for ep in range(1500):
            tr1, tr2 = run_episode(scn, seed=31, episode=ep)
            xs.append(np.abs(tr1.xs[:-1, 0]))
            ns.append(tr2.gammas)
        x = np.concatenate(xs)
        n = np.concatenate(ns)
        r = np.corrcoef(x, n)[0, 1]
        assert abs(r) > 3.0 / math.sqrt(x.size)


def constant_law(L_k, xhat):
    """An input that ignores the estimate: 1 on every channel."""
    return np.ones(L_k.shape[0])


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
            monte_carlo(scn, seed, 4, law, trace_hook=lambda ep, traces: seen.append(
                [tr.gammas.tolist() for tr in traces]))
            return seen

        reference = gammas(ce_law)
        assert gammas(zero_law) == reference
        assert gammas(constant_law) == reference


class TestRiccatiMemo:
    def test_solved_once_per_scenario_object(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return riccati_backward(*args)

        monkeypatch.setattr(sim, "riccati_backward", counting)
        scn = two_state_network()
        loops = len(scn.loops)
        first = run_episode(scn, 3, 0)
        monte_carlo(scn, 3, 2)
        dual_effect_experiment(scn, ce_law, zero_law, 3, 2)
        again = run_episode(scn, 3, 0)
        assert len(calls) == loops
        for a, b in zip(first, again):
            for name in TRACE_FIELDS:
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
        # an equal scenario is another object: solved again, and not kept alive
        copy = replace(scn)
        run_episode(copy, 3, 0)
        assert len(calls) == 2 * loops
        ref = weakref.ref(copy)
        del copy
        gc.collect()
        assert ref() is None


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

    def test_laws_must_differ(self):
        scn = single_loop(SchedulerPolicy.half_line_state(0.5))
        with pytest.raises(ConfigurationError):
            dual_effect_experiment(scn, ce_law, ce_law, seed=0, episodes=2)

    def test_episode_count_validated(self):
        scn = single_loop(SchedulerPolicy.half_line_state(0.5))
        with pytest.raises(ConfigurationError, match="episodes must be >= 1"):
            dual_effect_experiment(scn, ce_law, zero_law, seed=0, episodes=0)
