"""Plant dynamics, the innovation the scheduler sees, and seeded noise, as
the episode engine runs them."""

from dataclasses import replace

import numpy as np
import pytest

from macloops import model, sim
from macloops.cli import EXIT_NUMERICAL, main
from macloops.control import RiccatiSolution
from macloops.errors import ConfigurationError, NumericalError
from macloops.model import (
    LoopConfig,
    NetworkScenario,
    PlantModel,
    RngStream,
    pcg64_states,
)
from macloops.network import CrmConfig, TrafficSource
from macloops.scheduling import SchedulerPolicy
from macloops.sim import _draw_chunk, _layout, ce_law, run_episode, zero_law

SILENT = SchedulerPolicy.innovation_threshold(1e12)


def scalar_plant(a=1.0, b=1.0, rw=1.0, r0=1.0, **kw):
    return PlantModel(A=a, B=b, Rw=rw, R0=r0, **kw)


def one_loop(plant, scheduler=None, horizon=3):
    loop = LoopConfig(plant=plant, scheduler=scheduler or SchedulerPolicy.always_transmit(),
                      horizon=horizon, Q0=np.eye(plant.n), Q1=np.eye(plant.n),
                      Q2=np.eye(plant.m))
    return NetworkScenario(loops=(loop,), crm=CrmConfig(persistence=(1.0,)))


def loop_draws(layout, draws, i):
    """Loop i's (E, n) initial states and (E, N, n) process noise in a
    chunk's draws: its slot of its stack's arrays."""
    s, st = next((s, st) for s, st in enumerate(layout.stacks) if i in st.loops)
    slot = st.loops.index(i)
    return draws.stack_x0[s][:, slot], draws.stack_noise[s][:, slot]


def unsolved(A, B, Q0, Q1, Q2, horizon):
    """A Riccati solution of zeros in the shapes `riccati_backward` gives,
    for one problem or a stack of them."""
    *count, n, m = np.shape(B)
    return RiccatiSolution(S=np.zeros((*count, horizon + 1, n, n)),
                           L=np.zeros((*count, horizon, m, n)),
                           W=np.zeros((*count, horizon, n, n)))


def loop_noise(scn, seed, episode):
    """Loop 0's initial state and process-noise panel in one episode, as the
    engine draws them.  The draws read no Riccati solution, so the layout is
    built with the recursion stubbed out: none is solved."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "riccati_backward", unsolved)
        layout = _layout(scn)
    x0, noise = loop_draws(layout, _draw_chunk(scn, layout, seed, range(episode, episode + 1)), 0)
    return x0[0], noise[0]


def constant_law(u):
    return lambda L_k, xhat: np.array(u, dtype=float)


class TestPlantStep:
    """The engine's state equation x+ = A x + B u + w."""

    def test_scalar(self):
        scn = one_loop(scalar_plant(rw=0.0, r0=0.0, x0_mean=[1.0]), horizon=1)
        tr = run_episode(scn, 0, 0, constant_law([-0.5]))[0]
        assert tr.xs.ravel() == pytest.approx([1.0, 0.5])

    def test_identity_dynamics(self):
        m = PlantModel(A=np.eye(2), B=np.zeros((2, 1)), Rw=np.zeros((2, 2)),
                       R0=np.zeros((2, 2)), x0_mean=[1.0, 2.0])
        tr = run_episode(one_loop(m), 0, 0, constant_law([37.0]))[0]
        for x in tr.xs:
            assert x == pytest.approx([1.0, 2.0])

    def test_hand_arithmetic(self):
        scn = one_loop(scalar_plant(a=0.75), horizon=5)
        tr = run_episode(scn, 3, 2)[0]
        x0, w = loop_noise(scn, 3, 2)
        assert np.array_equal(tr.xs[0], x0)
        for k in range(5):
            want = 0.75 * tr.xs[k, 0] + tr.us[k, 0] + w[k, 0]
            assert tr.xs[k + 1, 0] == pytest.approx(want, abs=1e-14)

    def test_linearity(self):
        # noise-free, every sample delivered: the CE closed loop is linear in x0
        rng = np.random.default_rng(3)
        A, B = rng.standard_normal((3, 3)), rng.standard_normal((3, 2))
        x1, x2 = rng.standard_normal(3), rng.standard_normal(3)

        def rollout(x0):
            m = PlantModel(A=A, B=B, Rw=np.zeros((3, 3)), R0=np.zeros((3, 3)), x0_mean=x0)
            return run_episode(one_loop(m, horizon=4), 0, 0)[0]

        both, a, b = rollout(x1 + x2), rollout(x1), rollout(x2)
        assert both.xs == pytest.approx(a.xs + b.xs, abs=1e-10)
        assert both.us == pytest.approx(a.us + b.us, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError, match="B must have 1 rows"):
            PlantModel(A=1.0, B=[[1.0], [1.0]], Rw=1.0, R0=1.0)
        with pytest.raises(ConfigurationError, match="x0_mean"):
            scalar_plant(x0_mean=[1.0, 2.0])
        with pytest.raises(ConfigurationError, match="Q2"):
            LoopConfig(plant=scalar_plant(), scheduler=SchedulerPolicy.always_transmit(),
                       horizon=2, Q0=1.0, Q1=1.0, Q2=np.eye(2))


class TestUncontrolledState:
    """The residual x - prediction that the scheduler sees is the uncontrolled
    process since the last delivery, free of the applied inputs."""

    def test_empty_control_history(self):
        scn = one_loop(scalar_plant(a=0.5, x0_mean=[2.0]), SILENT)
        tr = run_episode(scn, 1, 0)[0]
        assert tr.pred_err_sq[0] == pytest.approx((tr.xs[0, 0] - 0.5 * 2.0) ** 2)

    def test_single_step(self):
        # a delivery at every step leaves one noise draw in the next residual
        scn = one_loop(scalar_plant(a=1.3), horizon=6)
        tr = run_episode(scn, 2, 4)[0]
        _, w = loop_noise(scn, 2, 4)
        assert tr.pred_err_sq[1:] == pytest.approx(w[:-1, 0] ** 2, rel=1e-9)

    def test_two_steps_geometric_weights(self):
        # never delivered: the residual accumulates A-weighted noise
        scn = one_loop(scalar_plant(a=0.5), SILENT, horizon=6)
        tr = run_episode(scn, 5, 1)[0]
        x0, w = loop_noise(scn, 5, 1)
        e = x0[0]
        for k in range(6):
            assert tr.pred_err_sq[k] == pytest.approx(e * e, rel=1e-9)
            e = 0.5 * e + w[k, 0]

    def test_control_invariance_bit_identical_on_dyadic_inputs(self):
        # all quantities exactly representable, so the cancellation is exact
        scn = one_loop(scalar_plant(a=0.5, rw=0.0, r0=0.0, x0_mean=[0.75]), SILENT,
                       horizon=6)
        runs = [run_episode(scn, 0, 0, law)[0]
                for law in (constant_law([1.0]), constant_law([-0.5]), zero_law)]
        assert runs[0].pred_err_sq == pytest.approx(0.375 ** 2 * 0.25 ** np.arange(6))
        for tr in runs[1:]:
            assert np.array_equal(tr.pred_err_sq, runs[0].pred_err_sq)

    def test_control_invariance_random_matrices(self):
        rng = np.random.default_rng(11)
        m = PlantModel(A=rng.standard_normal((2, 2)) * 0.6, B=rng.standard_normal((2, 1)),
                       Rw=np.eye(2), R0=np.eye(2))
        scn = one_loop(m, SchedulerPolicy.innovation_threshold(1.0), horizon=6)
        for ep in range(20):
            a = run_episode(scn, 7, ep, ce_law)[0]
            b = run_episode(scn, 7, ep, zero_law)[0]
            assert np.array_equal(a.gammas, b.gammas)
            # float reassociation across the two paths costs a few ulps at most
            assert a.pred_err_sq == pytest.approx(b.pred_err_sq, rel=1e-9)


class TestSampleNoise:
    """The engine's one noise draw: initial state and process-noise panel."""

    @staticmethod
    def noise(plant, horizon, seed=1):
        scn = one_loop(plant, horizon=horizon)
        return loop_noise(scn, seed, 0)

    def test_zero_covariance(self):
        x0, w = self.noise(scalar_plant(rw=0.0, r0=0.0, x0_mean=[0.3]), 4)
        assert x0 == pytest.approx([0.3])
        assert np.all(w == 0.0)

    def test_sample_mean(self):
        _, w = self.noise(scalar_plant(), 1_000_000, seed=123)
        assert abs(w.mean()) < 0.01

    def test_sample_variance(self):
        _, w = self.noise(scalar_plant(rw=4.0), 1_000_000, seed=77)
        assert abs(w.var(ddof=1) - 4.0) < 0.05

    def test_full_covariance_recovered(self):
        cov = np.array([[2.0, 0.7], [0.7, 1.0]])
        m = PlantModel(A=np.eye(2), B=[[0.0], [1.0]], Rw=cov, R0=np.eye(2))
        _, w = self.noise(m, 40_000, seed=5)
        assert np.cov(w.T) == pytest.approx(cov, abs=0.06)

    def test_non_psd_rejected(self):
        with pytest.raises(ConfigurationError, match="Rw"):
            PlantModel(A=np.eye(2), B=[[0.0], [1.0]], Rw=[[1.0, 2.0], [2.0, 1.0]],
                       R0=np.eye(2))


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, (3, 1, 0)).generator().standard_normal(8)
        b = RngStream(42, (3, 1, 0)).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_coordinates_differ(self):
        a = RngStream(42, (3, 1, 0)).generator().standard_normal(8)
        b = RngStream(42, (3, 2, 0)).generator().standard_normal(8)
        assert not np.array_equal(a, b)


# the spawn key of each role after the episode: noise, traffic, contention
ROLE_KEYS = [(0, sim._ROLE_NOISE), (sim.SOURCE_CONTENDER_BASE, sim._ROLE_TRAFFIC),
             (sim._ROLE_CONTENTION,)]


class TestBatchedSeeding:
    @pytest.mark.parametrize("seed", [0, 2 ** 32, 2 ** 64 + 5, 2 ** 130] + [
        int(s) for s in np.random.default_rng(24).integers(0, 2 ** 63, 4, dtype=np.uint64)])
    @pytest.mark.parametrize("role", ROLE_KEYS, ids=["noise", "traffic", "contention"])
    def test_states_match_numpy(self, seed, role):
        # episodes of one, two and three 32-bit words in one batch
        episodes = [0, 1, 7, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 64 + 5]
        keys = [(ep, *role) for ep in episodes]
        want = [np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)).state["state"]
                for key in keys]
        got = [{"state": state, "inc": inc} for state, inc in pcg64_states(seed, keys)]
        assert got == want, f"numpy {np.__version__} seeds SeedSequence and PCG64 differently"

    @pytest.mark.parametrize("seed", [0, 2 ** 32, 2 ** 64 + 5, 2 ** 130] + [
        int(s) for s in np.random.default_rng(24).integers(0, 2 ** 63, 4, dtype=np.uint64)])
    def test_one_batch_of_every_roles_keys_matches_numpy(self, seed):
        # keys of three and two entries, interleaved, given as tuples and as
        # the engine's array of keys padded with -1
        episodes = [0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40 + 3]
        keys = [(ep, *role) for ep in episodes for role in ROLE_KEYS]
        want = [np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)).state["state"]
                for key in keys]
        padded = np.array([key + (-1,) * (3 - len(key)) for key in keys])
        for batch in (keys, padded):
            got = [{"state": state, "inc": inc} for state, inc in pcg64_states(seed, batch)]
            assert got == want

    def test_chunk_across_two_to_the_32_draws_each_episodes_streams(self, monkeypatch):
        scn = replace(one_loop(scalar_plant(), horizon=4),
                      crm=CrmConfig(persistence=(0.5, 0.5)),
                      sources=(TrafficSource.bernoulli(0.3),
                               TrafficSource(kind="markov", p_on=0.3, p_off=0.5)))
        layout = _layout(scn)
        episodes = range(2 ** 32 - 2, 2 ** 32 + 2)
        batched = _draw_chunk(scn, layout, 11, episodes)

        def one_by_one(seed, episodes, *keys):
            return [[RngStream(seed, (ep, *key)).generator() for ep in episodes]
                    for key in keys]

        monkeypatch.setattr(sim, "_streams", one_by_one)
        reference = _draw_chunk(scn, layout, 11, episodes)
        assert batched.tables is not None and batched.active.any()
        for name in ("stack_x0", "stack_noise"):
            assert all(np.array_equal(a, b) for a, b in
                       zip(getattr(batched, name), getattr(reference, name), strict=True))
        assert np.array_equal(batched.active, reference.active)
        assert np.array_equal(batched.tables, reference.tables)

    def test_a_wrong_constant_is_a_numerical_error(self, monkeypatch, tmp_path, capsys):
        # each chunk checks its first stream of each role against numpy's
        monkeypatch.setattr(model, "_MIX_MULT_L", model._MIX_MULT_L ^ 1)
        with pytest.raises(NumericalError, match=f"numpy {np.__version__}"):
            sim.monte_carlo(one_loop(scalar_plant()), 3, 5)
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", "example3", "--episodes", "3", "--out", str(out),
                     "--dump-trace", "--dump-events"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: batched seeding of stream (0, 0, 0) of seed")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestConfigValidation:
    def test_period_and_phase(self):
        with pytest.raises(ConfigurationError):
            scalar_plant(period=0)
        with pytest.raises(ConfigurationError):
            scalar_plant(period=10, phase=10)
        p = scalar_plant(period=10, phase=3)
        assert (p.period, p.phase) == (10, 3)

    def test_q2_must_be_positive_definite(self):
        with pytest.raises(ConfigurationError):
            LoopConfig(plant=scalar_plant(), scheduler=SchedulerPolicy.always_transmit(),
                       horizon=2, Q0=1.0, Q1=1.0, Q2=0.0)

    def test_a_loop_without_inputs_names_q2(self):
        # m = 0: the 0 x 0 Q2 is not positive definite
        with pytest.raises(ConfigurationError, match="Q2 must be positive definite") as info:
            LoopConfig(plant=scalar_plant(b=np.zeros((1, 0))),
                       scheduler=SchedulerPolicy.always_transmit(), horizon=2, Q0=1.0, Q1=1.0,
                       Q2=np.zeros((0, 0)))
        assert info.value.field == "Q2"

    def test_weights_shapes(self):
        with pytest.raises(ConfigurationError):
            LoopConfig(plant=scalar_plant(), scheduler=SchedulerPolicy.always_transmit(),
                       horizon=2, Q0=np.eye(2), Q1=1.0, Q2=1.0)

    def test_symmetry_is_judged_as_np_allclose_judges_it(self):
        # PSD matrices of many scales, each made asymmetric by about the
        # bound of np.allclose(mat, mat.T, atol=1e-10): the check must agree
        # with it matrix by matrix, alone and in a stack
        rng = np.random.default_rng(0)
        mats = np.full((60, 2, 2), 2.0)
        mats[:, 0, 1] = mats[:, 1, 0] = rng.uniform(-1.0, 1.0, 60)
        mats *= (10.0 ** rng.integers(-6, 6, 60))[:, None, None]
        mats[:, 0, 1] += rng.uniform(0.5, 1.5, 60) * (1e-10 + 1e-5 * abs(mats[:, 1, 0]))
        symmetric = np.array([np.allclose(mat, mat.T, atol=1e-10) for mat in mats])
        assert 0 < symmetric.sum() < len(mats)
        for mat, ok in zip(mats, symmetric):
            if ok:
                model.check_symmetric_psd(mat, "Q1")
            else:
                with pytest.raises(ConfigurationError, match="Q1 must be symmetric"):
                    model.check_symmetric_psd(mat, "Q1")
        model.check_symmetric_psd(mats[symmetric], "Q1")
        with pytest.raises(ConfigurationError, match="Q1 must be symmetric"):
            model.check_symmetric_psd(mats, "Q1")

    def test_scenario_needs_a_loop(self):
        with pytest.raises(ConfigurationError):
            NetworkScenario(loops=(), crm=CrmConfig(persistence=(1.0,)))

    @pytest.mark.parametrize("build,field", [
        (lambda: scalar_plant(period=float("nan")), "period"),
        (lambda: scalar_plant(period=float("inf")), "period"),
        (lambda: scalar_plant(period=10, phase=float("nan")), "phase"),
        (lambda: LoopConfig(plant=scalar_plant(), scheduler=SchedulerPolicy.always_transmit(),
                            horizon=float("nan"), Q0=1.0, Q1=1.0, Q2=1.0), "horizon"),
        (lambda: LoopConfig(plant=scalar_plant(), scheduler=SchedulerPolicy.always_transmit(),
                            horizon=2, Q0=1.0, Q1=1.0, Q2=1.0, net_penalty=float("nan")),
         "net_penalty"),
        (lambda: SchedulerPolicy("halfline", threshold=float("nan")), "threshold"),
    ], ids=["nan-period", "inf-period", "nan-phase", "nan-horizon", "nan-penalty",
            "nan-threshold"])
    def test_non_finite_settings_name_their_field(self, build, field):
        with pytest.raises(ConfigurationError) as info:
            build()
        assert type(info.value) is ConfigurationError
        assert info.value.field == field

    @pytest.mark.parametrize("build,field", [
        (lambda: scalar_plant(period=True), "period"),
        (lambda: LoopConfig(plant=scalar_plant(), scheduler=SchedulerPolicy.always_transmit(),
                            horizon=True, Q0=1.0, Q1=1.0, Q2=1.0), "horizon"),
        (lambda: CrmConfig(persistence=(1.0,), max_attempts=True), "max_attempts"),
        (lambda: TrafficSource.bernoulli("x"), "rate"),
        (lambda: TrafficSource(kind="bernoulli", rate=True), "rate"),
        (lambda: SchedulerPolicy.state_threshold("x"), "eps"),
        (lambda: SchedulerPolicy.state_threshold(None), "eps"),
        (lambda: SchedulerPolicy(kind="state", eps=True), "eps"),
        (lambda: SchedulerPolicy.innovation_threshold("x"), "eps"),
        (lambda: SchedulerPolicy.half_line_state("x"), "threshold"),
    ], ids=["bool-period", "bool-horizon", "bool-attempts", "text-rate", "bool-rate",
            "text-eps", "none-eps", "bool-eps", "text-innovation-eps", "text-threshold"])
    def test_bool_and_text_settings_name_their_field(self, build, field):
        with pytest.raises(ConfigurationError) as info:
            build()
        assert type(info.value) is ConfigurationError
        assert info.value.field == field

    def test_integral_settings_are_stored_as_floats(self):
        settings = [TrafficSource.bernoulli(1).rate, TrafficSource(kind="markov", p_on=0).p_on,
                    SchedulerPolicy.state_threshold(3).eps,
                    SchedulerPolicy.innovation_threshold(np.int64(2)).eps,
                    SchedulerPolicy.half_line_state(1).threshold]
        assert [(type(v), v) for v in settings] == [(float, v) for v in (1, 0, 3, 2, 1)]

    def test_net_penalty_is_stored_as_a_float(self):
        loop = LoopConfig(plant=scalar_plant(), scheduler=SchedulerPolicy.always_transmit(),
                          horizon=2, Q0=1.0, Q1=1.0, Q2=1.0, net_penalty=1)
        assert (type(loop.net_penalty), loop.net_penalty) == (float, 1.0)

    def test_bool_net_penalty_names_its_field(self):
        with pytest.raises(ConfigurationError) as info:
            LoopConfig(plant=scalar_plant(), scheduler=SchedulerPolicy.always_transmit(),
                       horizon=2, Q0=1.0, Q1=1.0, Q2=1.0, net_penalty=True)
        assert info.value.field == "net_penalty"

    def test_immutables(self):
        p = scalar_plant()
        with pytest.raises(ValueError):
            p.A[0, 0] = 2.0

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ConfigurationError, match="A must be finite"):
            scalar_plant(a=float("nan"))
        with pytest.raises(ConfigurationError, match="x0_mean must be finite"):
            scalar_plant(x0_mean=[float("inf")])
        with pytest.raises(ConfigurationError, match="Rw must be numeric"):
            scalar_plant(rw="one")
