"""Riccati recursion, cost accumulation and the two-step probing controller."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macloops import control, stats
from macloops.control import (
    ce_u0,
    jdp_stack,
    riccati_backward,
    two_step_s1,
    two_step_stationarity_residual,
    two_step_u0_optimal,
    two_step_u1,
)
from macloops.errors import (BracketingError, ConfigurationError, DegenerateTruncationError,
                             NumericalError)
from macloops.model import LoopConfig, NetworkScenario, PlantModel
from macloops.network import CrmConfig
from macloops.scheduling import SchedulerPolicy
from macloops.sim import ce_law, run_episode
from macloops.stats import (TruncatedGaussian, _standard_truncated_moments, find_root,
                            std_normal_pdf, truncated_moments)

# frozen roots/residuals, verified against the Monte Carlo value-function
# oracle in the acceptance suite and a high-precision solve
U0_OPT_DELIVERED_X0_ZERO = 0.0352530991991542
RESIDUAL_AT_CE_DELIVERED = -0.179272506039651
U0_OPT_SILENT = 0.351953030730028


class TestRiccati:
    def test_one_step_scalar(self):
        sol = riccati_backward(1.0, 1.0, 1.0, 1.0, 1.0, 1)
        assert abs(sol.S[1][0, 0] - 1.0) < 1e-12
        assert abs(sol.S[0][0, 0] - 1.5) < 1e-12
        assert abs(sol.L[0][0, 0] - 0.5) < 1e-12

    def test_two_step_scalar(self):
        sol = riccati_backward(1.0, 1.0, 1.0, 1.0, 1.0, 2)
        assert abs(sol.S[0][0, 0] - 1.6) < 1e-12
        assert abs(sol.L[1][0, 0] - 0.5) < 1e-12
        assert abs(sol.L[0][0, 0] - 0.6) < 1e-12

    def test_no_input_degenerates_to_lyapunov(self):
        sol = riccati_backward(0.9, 0.0, 1.0, 1.0, 1.0, 5)
        for k in range(5):
            assert sol.L[k][0, 0] == 0.0
            want = 1.0 + 0.81 * sol.S[k + 1][0, 0]
            assert sol.S[k][0, 0] == pytest.approx(want, abs=1e-12)

    def test_matrix_case_stays_symmetric_psd(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        sol = riccati_backward(A, B, np.eye(3), 2.0 * np.eye(3), np.eye(2), 12)
        for S in sol.S:
            assert np.allclose(S, S.T, atol=1e-10)
            assert np.linalg.eigvalsh(S).min() > -1e-10

    def test_monotone_in_state_weight(self):
        grid = [0.5, 1.0, 2.0, 4.0]
        values = [riccati_backward(1.2, 1.0, 1.0, q1, 1.0, 8).S[0][0, 0] for q1 in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_q2_must_be_pd(self):
        with pytest.raises(ConfigurationError):
            riccati_backward(1.0, 1.0, 1.0, 1.0, 0.0, 2)

    @pytest.mark.parametrize("horizon", [0, 2.5, "3", True], ids=["zero", "fraction", "text",
                                                                 "bool"])
    def test_horizon_must_be_a_positive_integer(self, horizon):
        with pytest.raises(ConfigurationError) as info:
            riccati_backward(1.0, 1.0, 1.0, 1.0, 1.0, horizon)
        assert info.value.field == "horizon"
        assert str(info.value) == f"horizon must be a positive integer, got {horizon!r}"

    def test_integral_float_horizon_runs_as_its_int(self):
        assert np.array_equal(riccati_backward(1.0, 1.0, 1.0, 1.0, 1.0, 3.0).S,
                              riccati_backward(1.0, 1.0, 1.0, 1.0, 1.0, 3).S)

    def test_overflow_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="not finite"):
            riccati_backward(1e200, 1.0, 1.0, 1.0, 1.0, 10)

    def test_non_finite_scalar_gain_inverse_is_singular(self):
        # m = 1: B'SB = 1e400 overflows at the last step, so G is not finite
        with pytest.raises(NumericalError, match=r"numerically singular at step 9 \(cond="):
            riccati_backward(1.0, 1e200, 1.0, 1.0, 1.0, 10)

    def test_ill_conditioned_gain_inverse_is_singular(self):
        # m = 2: the second input is neither weighted nor felt, so G has the
        # eigenvalues 2 and 1e-16 at the last step
        q2 = np.diag([1.0, 1e-16])
        with pytest.raises(NumericalError,
                           match=r"numerically singular at step 4 \(cond=2\.00e\+16\)"):
            riccati_backward(1.0, [[1.0, 0.0]], 1.0, 1.0, q2, 5)
        # the same G one order better conditioned passes
        sol = riccati_backward(1.0, [[1.0, 0.0]], 1.0, 1.0, np.diag([1.0, 1e-13]), 5)
        assert np.isfinite(sol.S[0]).all()


def random_lq_problem(rng, n, m):
    """A random (A, B, Q0, Q1, Q2) with PSD Q0 and Q1 and PD Q2."""
    X, Y, Z = rng.standard_normal((n, n)), rng.standard_normal((n, n)), rng.standard_normal((m, m))
    return (rng.standard_normal((n, n)), rng.standard_normal((n, m)), X @ X.T,
            Y @ Y.T + 0.1 * np.eye(n), Z @ Z.T + 0.5 * np.eye(m))


class TestStackedRiccati:
    """`riccati_backward` on a stack of problems: one recursion over the
    leading problem axis, whose every problem has the bits of its solve alone."""

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 2), (4, 4), (8, 3)])
    @pytest.mark.parametrize("horizon", [1, 20])
    def test_each_problem_solves_as_it_would_alone(self, n, m, horizon):
        rng = np.random.default_rng((n, m, horizon))
        problems = [random_lq_problem(rng, n, m) for _ in range(5)]
        stacked = riccati_backward(*map(np.array, zip(*problems)), horizon)
        assert stacked.S.shape == (5, horizon + 1, n, n)
        assert stacked.L.shape == (5, horizon, m, n)
        assert stacked.W.shape == (5, horizon, n, n)
        for p, problem in enumerate(problems):
            alone = riccati_backward(*problem, horizon)
            for name in ("S", "L", "W"):
                assert getattr(stacked, name)[p].tobytes() == getattr(alone, name).tobytes()

    def test_a_stack_of_one_is_the_problem_with_an_axis(self):
        problem = random_lq_problem(np.random.default_rng(3), 2, 2)
        stacked = riccati_backward(*(np.asarray(mat)[None] for mat in problem), 6)
        alone = riccati_backward(*problem, 6)
        for name in ("S", "L", "W"):
            assert np.array_equal(getattr(stacked, name), getattr(alone, name)[None])

    @pytest.mark.parametrize("field", ["A", "B", "Q0", "Q1", "Q2"])
    def test_a_bad_problem_names_its_field(self, field):
        # the second of three problems is bad in one matrix: not finite
        problems = [dict(zip(("A", "B", "Q0", "Q1", "Q2"),
                             random_lq_problem(np.random.default_rng(p), 2, 1)))
                    for p in range(3)]
        problems[1][field] = np.full(problems[1][field].shape, np.nan)
        with pytest.raises(ConfigurationError) as info:
            riccati_backward(*(np.array([pr[name] for pr in problems])
                               for name in ("A", "B", "Q0", "Q1", "Q2")), 4)
        assert info.value.field == field

    def test_each_problem_is_judged_at_its_own_psd_scale(self):
        # -1e-9 lies within the PSD tolerance of a matrix whose eigenvalues
        # reach 1e6, but not of one alone: the second problem fails as it
        # does alone, whatever the first
        for Q1 in ([[[1e6]], [[-1e-9]]], [[[-1e-9]]]):
            one = np.ones((len(Q1), 1, 1))
            with pytest.raises(ConfigurationError, match="Q1 must be positive semi-definite"):
                riccati_backward(one, one, one, Q1, one, 3)

    @pytest.mark.parametrize("field", ["B", "Q0", "Q1", "Q2"])
    def test_every_matrix_must_be_a_stack_as_long_as_a(self, field):
        stack = dict(zip(("A", "B", "Q0", "Q1", "Q2"),
                         map(np.array, zip(*(random_lq_problem(np.random.default_rng(p), 2, 1)
                                             for p in range(3))))))
        for short in (stack[field][0], stack[field][:2]):
            with pytest.raises(ConfigurationError) as info:
                riccati_backward(*{**stack, field: short}.values(), 4)
            assert info.value.field == field

    def test_a_singular_problem_fails_the_stack(self):
        # the second problem's G has the eigenvalues 2 and 1e-16 at the last
        # step, as in test_ill_conditioned_gain_inverse_is_singular
        one = np.ones((2, 1, 1))
        B = np.array([[[1.0, 0.0]]] * 2)
        Q2 = np.array([np.eye(2), np.diag([1.0, 1e-16])])
        with pytest.raises(NumericalError,
                           match=r"numerically singular at step 4 \(cond=2\.00e\+16\)"):
            riccati_backward(one, B, one, one, Q2, 5)


def matrix_riccati(A, B, Q0, Q1, Q2, horizon):
    """The recursion of `riccati_backward` on (P, 1, 1) matrices, with `@` and
    `np.linalg.solve` and its checks at each step, as S, L and W arrays."""
    S, L, W = (np.empty((len(A), steps, 1, 1)) for steps in (horizon + 1, horizon, horizon))
    S[:, horizon] = Q0
    At, Bt = A.swapaxes(-1, -2), B.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(horizon - 1, -1, -1):
            BtS, AtS = Bt @ S[:, k + 1], At @ S[:, k + 1]
            G = Q2 + BtS @ B
            g = G[:, 0, 0]
            cond = np.where(g > 0.0, g / g, np.inf)
            bad = ~(cond <= 1e14)
            if bad.any():
                raise NumericalError(f"Q2 + B'SB numerically singular at step {k} "
                                     f"(cond={cond[bad.argmax()]:.2e})")
            L_k = L[:, k] = np.linalg.solve(G, BtS @ A)
            W[:, k] = L_k.swapaxes(-1, -2) @ G @ L_k
            Sk = Q1 + AtS @ A - AtS @ B @ L_k
            if not np.isfinite(Sk).all():
                raise NumericalError(f"S_{k} is not finite: the dynamics overflow")
            S[:, k] = 0.5 * (Sk + Sk.swapaxes(-1, -2))
    return S, L, W


# signed zeros, and values whose products overflow within a few steps
_DYNAMICS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e120, -1e200]),
                      st.floats(-3.0, 3.0))
_WEIGHT = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 3.0))
_PROBLEM = st.tuples(_DYNAMICS, _DYNAMICS, _WEIGHT, _WEIGHT, st.floats(0.1, 3.0))


class TestScalarRiccati:
    """Where n = m = 1 `riccati_backward` runs in elementwise arithmetic: it
    gives the bits of the matrix recursion, and fails where it does, with the
    same message."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(problems=st.lists(_PROBLEM, min_size=1, max_size=30),
           horizon=st.integers(1, 40))
    # B'SB overflows at the last step: G is not finite
    @example(problems=[(1.0, 1.0, 1.0, 1.0, 1.0), (1.0, 1e200, 1.0, 1.0, 1.0)], horizon=10)
    # A'SA overflows at the second step from the end
    @example(problems=[(1e120, 0.0, 1.0, 0.0, 1.0)], horizon=5)
    # a zero gain of a negative B, and a -0 weight
    @example(problems=[(2.0, -1.0, 0.0, -0.0, 1.0), (-0.0, 1.0, -0.0, 0.0, 0.5)], horizon=3)
    def test_scalar_path_keeps_the_matrix_bits(self, problems, horizon):
        A, B, Q0, Q1, Q2 = np.array(problems).T.reshape(5, -1, 1, 1)
        try:
            want = matrix_riccati(A, B, Q0, Q1, Q2, horizon)
        except NumericalError as err:
            with pytest.raises(NumericalError) as info:
                riccati_backward(A, B, Q0, Q1, Q2, horizon)
            assert str(info.value) == str(err)
            return
        got = riccati_backward(A, B, Q0, Q1, Q2, horizon)
        for name, arr in zip("SLW", want):
            assert getattr(got, name).tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("problem,message", [
        ((1.0, 1e200, 1.0, 1.0, 1.0), r"Q2 + B'SB numerically singular at step 9 (cond=nan)"),
        ((1e120, 0.0, 1.0, 0.0, 1.0), "S_8 is not finite: the dynamics overflow"),
    ], ids=["singular", "overflow"])
    def test_a_failure_has_the_matrix_message_and_step(self, problem, message):
        A, B, Q0, Q1, Q2 = np.array([problem]).T.reshape(5, -1, 1, 1)
        with pytest.raises(NumericalError) as want:
            matrix_riccati(A, B, Q0, Q1, Q2, 10)
        with pytest.raises(NumericalError) as got:
            riccati_backward(A, B, Q0, Q1, Q2, 10)
        assert str(got.value) == str(want.value) == message


class TestCeControl:
    def test_examples(self):
        assert ce_law(np.array([[0.5]]), np.array([2.0])) == pytest.approx([-1.0])
        assert ce_law(np.array([[0.5]]), np.array([0.0])) == pytest.approx([0.0])
        sol = riccati_backward(1.0, 1.0, 1.0, 1.0, 1.0, 2)
        assert ce_law(sol.L[0], np.array([1.0])) == pytest.approx([-0.6])


def jdp(sol, xhat0, P0, Rw, p_seq):
    """The predicted cost of one loop: `jdp_stack` on a stack of one."""
    args = (np.asarray(v, dtype=float)[None] for v in (xhat0, P0, Rw, p_seq))
    return float(jdp_stack(sol.S[None], sol.W[None], *args)[0])


class TestJdpClosedForm:
    def test_one_step_example(self):
        sol = riccati_backward(1.0, 1.0, 1.0, 1.0, 1.0, 1)
        val = jdp(sol, [0.0], [[1.0]], [[1.0]], [np.zeros((1, 1))])
        assert val == pytest.approx(2.5, abs=1e-12)

    def test_no_uncertainty_no_cost(self):
        sol = riccati_backward(1.0, 1.0, 1.0, 1.0, 1.0, 3)
        val = jdp(sol, [0.0], [[0.0]], [[0.0]], [np.zeros((1, 1))] * 3)
        assert val == 0.0

    def test_deterministic_rollout_equals_initial_value(self):
        sol = riccati_backward(1.0, 1.0, 1.0, 1.0, 1.0, 2)
        val = jdp(sol, [1.0], [[0.0]], [[0.0]], [np.zeros((1, 1))] * 2)
        assert val == pytest.approx(1.6, abs=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_names_the_non_finite_step(self, bad):
        sol = riccati_backward(np.eye(2), np.eye(2), np.eye(2), np.eye(2), np.eye(2), 5)
        p_seq = [np.eye(2) for _ in range(5)]
        p_seq[3] = np.array([[1.0, 0.0], [0.0, bad]])
        with pytest.raises(ConfigurationError, match=r"p_seq\[3\]"):
            jdp(sol, [0.0, 0.0], np.eye(2), np.eye(2), p_seq)

    def test_each_loop_of_a_stack_costs_as_it_would_alone(self):
        rng = np.random.default_rng(25)
        loops = []
        for a in (0.9, 1.2, 0.5):
            sol = riccati_backward([[a, 0.2], [0.0, 0.7]], [[0.0], [1.0]], np.eye(2),
                                   np.eye(2), 1.0, 4)
            p_seq = [np.eye(2) * rng.random() for _ in range(4)]
            loops.append((sol, rng.standard_normal(2), np.eye(2) * rng.random(),
                          np.eye(2) * rng.random(), p_seq))
        stacked = jdp_stack(*(np.array([getattr(lp[0], name) for lp in loops])
                              for name in ("S", "W")),
                            *(np.array([lp[i] for lp in loops], dtype=float)
                              for i in range(1, 5)))
        assert stacked.tolist() == [jdp(*lp) for lp in loops]

    def test_error_weights_are_the_gain_quadratic(self):
        # W_k = L_k'(Q2 + B'S_{k+1}B)L_k, bit for bit, for a 2-state,
        # 2-input plant
        A = np.array([[1.1, 0.3], [-0.2, 0.8]])
        B = np.array([[1.0, 0.2], [0.4, 0.9]])
        Q2 = np.array([[1.0, 0.1], [0.1, 0.5]])
        sol = riccati_backward(A, B, np.eye(2), np.diag([1.0, 2.0]), Q2, 6)
        assert sol.W.shape == (6, 2, 2)
        for k in range(6):
            L = sol.L[k]
            assert np.array_equal(sol.W[k], L.T @ (Q2 + B.T @ sol.S[k + 1] @ B) @ L), k


class TestEvaluateCost:
    """The cost the episode engine accumulates over one trace."""

    @staticmethod
    def episode(x0, horizon=2, net_penalty=0.0):
        plant = PlantModel(A=1.0, B=1.0, Rw=0.0, R0=0.0, x0_mean=[x0])
        loop = LoopConfig(plant=plant, scheduler=SchedulerPolicy.always_transmit(),
                          horizon=horizon, Q0=1.0, Q1=1.0, Q2=1.0, net_penalty=net_penalty)
        scn = NetworkScenario(loops=(loop,), crm=CrmConfig(persistence=(1.0,)))
        return run_episode(scn, 0, 0)[0]

    def test_hand_rollout(self):
        # x0=1, u0=-0.6 -> x1=0.4, u1=-0.2 -> x2=0.2 (noise-free)
        tr = self.episode(1.0)
        assert tr.cost_terms == pytest.approx([1.36, 0.2], abs=1e-12)
        assert tr.terminal_cost == pytest.approx(0.04, abs=1e-12)
        assert tr.j == pytest.approx(1.6, abs=1e-12)
        assert tr.deltas.sum() == 2

    def test_network_penalty(self):
        tr = self.episode(0.0, horizon=3, net_penalty=2.0)
        assert tr.j == 0.0
        assert tr.j_lambda == pytest.approx(6.0)

    def test_zero_trajectory(self):
        tr = self.episode(0.0)
        assert tr.j == 0.0 and np.all(tr.cost_terms == 0.0)

    def test_incomplete_trace(self):
        # every loop of a mixed-period network finishes its horizon
        loops = tuple(
            LoopConfig(plant=PlantModel(A=1.0, B=1.0, Rw=1.0, R0=1.0, period=p, phase=p - 1),
                       scheduler=SchedulerPolicy.always_transmit(), horizon=h,
                       Q0=1.0, Q1=1.0, Q2=1.0)
            for p, h in ((1, 7), (3, 4), (5, 2))
        )
        scn = NetworkScenario(loops=loops, crm=CrmConfig(persistence=(1.0, 0.5),
                                                         slots_per_sample=4))
        for lc, tr in zip(loops, run_episode(scn, 2, 0)):
            assert tr.xs.shape == (lc.horizon + 1, 1) and tr.us.shape == (lc.horizon, 1)
            assert np.all(np.isfinite(tr.xs)) and np.all(np.isfinite(tr.cost_terms))
            assert tr.j == pytest.approx(tr.cost_terms.sum() + tr.terminal_cost)


class TestTwoStepController:
    def test_s1(self):
        assert two_step_s1(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_last_step_input(self):
        assert two_step_u1(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(-0.5)
        assert two_step_u1(1.0, 1.0, 1.0, 1.0, 0.0) == 0.0
        assert abs(two_step_u1(1.0, 1.0, 1.0, 1e12, 1.0)) < 1e-11

    def test_ce_first_input(self):
        assert ce_u0(1.0, 1.0, 1.5, 1.0, 1.0) == pytest.approx(-0.6)
        assert ce_u0(1.0, 1.0, 1.5, 1.0, 0.0) == 0.0
        assert ce_u0(1.0, 0.0, 1.5, 1.0, 1.0) == 0.0

    def test_residual_at_ce_point_is_nonzero(self):
        r = two_step_stationarity_residual(1.0, 1.0, 1.0, 1.0, 1.0, 1, 0.0, 0.0)
        assert r == pytest.approx(RESIDUAL_AT_CE_DELIVERED, abs=1e-9)
        assert abs(r) > 0.1

    def test_optimal_root_delivered_branch(self):
        u0 = two_step_u0_optimal(1.0, 1.0, 1.0, 1.0, 1.0, 1, 0.0)
        assert u0 == pytest.approx(U0_OPT_DELIVERED_X0_ZERO, abs=1e-7)

    def test_optimal_root_silent_branch(self):
        u0 = two_step_u0_optimal(1.0, 1.0, 1.0, 1.0, 1.0, 0, 0.0)
        assert u0 == pytest.approx(U0_OPT_SILENT, abs=1e-5)

    def test_probing_pushes_toward_the_boundary(self):
        # the probing correction raises u0 above the CE answer for b > 0
        u0 = two_step_u0_optimal(1.0, 1.0, 1.0, 1.0, 1.0, 1, 0.0)
        assert u0 > 0.0

    def test_gap_vanishes_as_threshold_recedes(self):
        gaps = []
        for thr in (0.5, 2.0, 4.0, 8.0):
            u0 = two_step_u0_optimal(1.0, 1.0, 1.0, 1.0, 1.0, 1, 0.0, threshold=thr)
            gaps.append(abs(u0 - 0.0))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        # at threshold 8 the probing term underflows; only the root finder's
        # own tolerance is left
        assert gaps[-1] < 1e-8

    def test_no_root_in_window(self):
        # the root lies near the CE input -60, outside the window
        with pytest.raises(BracketingError):
            two_step_u0_optimal(1.0, 1.0, 1.0, 1.0, 1.0, 1, 100.0, scan=(-10.0, 10.0))

    @pytest.mark.parametrize("points", [0, 1, 1.5, -3, True],
                             ids=["zero", "one", "fraction", "negative", "bool"])
    def test_scan_points_must_be_an_integer_of_two_or_more(self, points):
        with pytest.raises(ConfigurationError) as info:
            two_step_u0_optimal(1.0, 1.0, 1.0, 1.0, 1.0, 1, 0.0, scan_points=points)
        assert info.value.field == "scan_points"
        assert str(info.value) == f"scan_points must be an integer >= 2, got {points!r}"

    def test_two_scan_points_bracket_the_window(self):
        u0 = two_step_u0_optimal(1.0, 1.0, 1.0, 1.0, 1.0, 1, 0.0, scan_points=2)
        assert u0 == pytest.approx(U0_OPT_DELIVERED_X0_ZERO, abs=1e-7)

    def test_overflowing_s1_is_a_numerical_error(self):
        # a^2 q0 overflows, so s1 is inf - inf, which would make every residual NaN
        with pytest.raises(NumericalError, match="s1 is not finite"):
            two_step_stationarity_residual(1e200, 1, 1, 1, 1, 1, 1.0, 0.0)
        with pytest.raises(NumericalError, match="s1 is not finite"):
            two_step_u0_optimal(1e200, 1.0, 1.0, 1.0, 1.0, 1, 1.0, scan=(-10.0, 10.0))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_default_window_is_a_numerical_error(self):
        # u0_ce = -0.6 x0 is finite, but the window edge u0_ce - |u0_ce| is not:
        # no linspace warning, and no error naming a bound the caller never gave
        with pytest.raises(NumericalError, match="its scan window is"):
            two_step_u0_optimal(1, 1, 1, 1, 1, 1, 1.7e308)


def full_scan_u0(a, delta0, x0, threshold, scan, scan_points=41, tol=1e-9, *,
                 b=1.0, q0=1.0, q1=1.0, q2=1.0):
    """The reference solve, b = q0 = q1 = q2 = 1 unless given: the residual
    at every point of the window's grid, then the root finder on the first
    sign change, which evaluates the bracket's ends again."""

    def residual(u0):
        return two_step_stationarity_residual(a, b, q0, q1, q2, delta0, x0, u0,
                                              threshold=threshold)

    grid = np.linspace(scan[0], scan[1], scan_points)
    values = [residual(float(u)) for u in grid]
    for i in range(len(grid) - 1):
        if values[i] == 0.0:
            return float(grid[i])
        if values[i] * values[i + 1] < 0.0:
            return find_root(residual, float(grid[i]), float(grid[i + 1]), tol=tol)
    if values[-1] == 0.0:
        return float(grid[-1])
    raise BracketingError(f"no sign change in [{scan[0]}, {scan[1]}]")


def ce_window(a, delta0, x0, threshold, *, b=1.0, q0=1.0, q1=1.0, q2=1.0):
    """The default scan window: centred on the CE input, half-width max(10, |u0_ce|)."""
    xhat00 = x0 if delta0 else truncated_moments(TruncatedGaussian(0.0, 1.0, threshold))[0]
    u0_ce = ce_u0(a, b, two_step_s1(a, b, q0, q1, q2), q2, xhat00)
    half = max(10.0, abs(u0_ce))
    return u0_ce - half, u0_ce + half


def outcome(solve):
    """A solve's result as hex, or its error's type and message."""
    try:
        return solve().hex()
    except (BracketingError, ConfigurationError, NumericalError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestLazyScan:
    """The scan stops at its first sign change and hands the root finder the
    two residuals it already has; every result is bit-identical to the full
    scan's."""

    @pytest.mark.parametrize("a", [-2.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("x0", [-1.5, 0.0, 0.7, 4.0])
    def test_delivered_matches_the_full_scan(self, a, threshold, x0):
        window = ce_window(a, 1, x0, threshold)
        want = full_scan_u0(a, 1, x0, threshold, window)
        assert two_step_u0_optimal(a, 1.0, 1.0, 1.0, 1.0, 1, x0, threshold=threshold).hex() \
            == want.hex()
        narrow = full_scan_u0(a, 1, x0, threshold, (-30.0, 30.0), scan_points=7)
        assert two_step_u0_optimal(a, 1.0, 1.0, 1.0, 1.0, 1, x0, threshold=threshold,
                                   scan=(-30.0, 30.0), scan_points=7).hex() == narrow.hex()

    @pytest.mark.parametrize("a", [-2.0, 1.0, 3.0])
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 2.0])
    def test_silent_matches_the_full_scan(self, a, threshold):
        want = full_scan_u0(a, 0, 0.0, threshold, ce_window(a, 0, 0.0, threshold))
        assert two_step_u0_optimal(a, 1.0, 1.0, 1.0, 1.0, 0, 0.0,
                                   threshold=threshold).hex() == want.hex()

    # at x0 = 0 and a far threshold the probing term underflows, so the
    # residual is 2 u0 (q2 + b^2 s1): exactly 0 at the grid point u0 = 0
    @pytest.mark.parametrize("scan,points", [((-2.0, 2.0), 5), ((0.0, 2.0), 3),
                                             ((-2.0, 0.0), 3)],
                             ids=["inside", "first", "last"])
    def test_exact_zero_at_a_grid_point(self, scan, points):
        assert two_step_stationarity_residual(1.0, 1, 1, 1, 1, 1, 0.0, 0.0, threshold=40.0) == 0.0
        want = full_scan_u0(1.0, 1, 0.0, 40.0, scan, scan_points=points)
        got = two_step_u0_optimal(1.0, 1.0, 1.0, 1.0, 1.0, 1, 0.0, threshold=40.0, scan=scan,
                                  scan_points=points)
        assert got.hex() == want.hex() == (0.0).hex()

    def test_no_sign_change_raises_as_the_full_scan(self):
        with pytest.raises(BracketingError):
            full_scan_u0(1.0, 1, 100.0, 0.5, (-10.0, 10.0))
        with pytest.raises(BracketingError):
            two_step_u0_optimal(1.0, 1.0, 1.0, 1.0, 1.0, 1, 100.0, scan=(-10.0, 10.0))

    def test_nan_x0_names_the_bound(self):
        for solve in (lambda: full_scan_u0(1.0, 1, math.nan, 0.5, (-1.0, 1.0)),
                      lambda: two_step_u0_optimal(1.0, 1.0, 1.0, 1.0, 1.0, 1, math.nan,
                                                  scan=(-1.0, 1.0))):
            with pytest.raises(ConfigurationError) as info:
                solve()
            assert info.value.field == "upper"

    def test_scan_stops_at_the_first_sign_change(self, monkeypatch):
        seen = []
        residual = control.two_step_stationarity_residual

        def spy(*args, **kwargs):
            seen.append(args[7])
            return residual(*args, **kwargs)

        monkeypatch.setattr(control, "two_step_stationarity_residual", spy)
        grid = np.linspace(-10.0, 10.0, 41).tolist()
        u0 = two_step_u0_optimal(1.0, 1.0, 1.0, 1.0, 1.0, 1, 0.0, scan=(-10.0, 10.0))
        # the root 0.035 lies between grid points 20 and 21: the scan
        # evaluates consecutive grid points ending at 21, once each, and
        # the root finder only points strictly inside that bracket
        hi = grid.index(next(u for u in grid if u > u0))
        start = grid.index(seen[0])
        scanned = hi - start + 1
        assert seen[:scanned] == grid[start:hi + 1]
        assert all(grid[hi - 1] < u < grid[hi] for u in seen[scanned:])
        # the points skipped before `start` are certain: each one's residual
        # is nonzero with its right neighbour's sign, down to the first
        # evaluated point
        assert start > 0
        values = [residual(1.0, 1.0, 1.0, 1.0, 1.0, 1, 0.0, u) for u in grid[:start + 1]]
        assert all(v * w > 0.0 for v, w in zip(values, values[1:]))

    def test_random_delivered_problems_match_the_full_scan(self):
        rng = np.random.default_rng(30)
        solved = 0
        for _ in range(600):
            a = rng.uniform(-3.0, 3.0)
            b = rng.uniform(0.05, 3.0) * rng.choice([-1.0, 1.0])
            q0, q1, q2 = rng.uniform(0.05, 5.0, 3).tolist()
            x0, threshold = rng.uniform(-6.0, 6.0), rng.uniform(-2.0, 2.0)
            params = dict(b=b, q0=q0, q1=q1, q2=q2)
            window = ce_window(a, 1, x0, threshold, **params)
            want = outcome(lambda: full_scan_u0(a, 1, x0, threshold, window, **params))
            got = outcome(lambda: two_step_u0_optimal(a, b, q0, q1, q2, 1, x0,
                                                      threshold=threshold))
            assert got == want, (a, b, q0, q1, q2, x0, threshold)
            solved += not want.startswith("Bracketing")
        assert solved > 500

    def test_numpy_and_int_scalars_give_the_bits_of_floats(self):
        for delta0 in (0, 1):
            want = two_step_u0_optimal(2.0, -1.0, 1.0, 3.0, 1.0, delta0, 1.0, threshold=0.0)
            got = two_step_u0_optimal(2, -1, 1, 3, 1, np.int64(delta0), 1, threshold=0)
            assert type(got) is float and got.hex() == want.hex()
            args = (1.3, 0.7, 0.4, 2.2, 0.9, delta0, -0.6)
            want = two_step_u0_optimal(*args, threshold=0.45, tol=1e-8)
            got = two_step_u0_optimal(*map(np.float64, args[:5]), delta0, np.float64(args[6]),
                                      threshold=np.float64(0.45), tol=np.float64(1e-8))
            assert type(got) is float and got.hex() == want.hex()

    def test_unit_delivered_solves_skip_most_residuals(self, monkeypatch):
        calls = []
        residual = control.two_step_stationarity_residual

        def spy(*args, **kwargs):
            calls.append(args[7])
            return residual(*args, **kwargs)

        monkeypatch.setattr(control, "two_step_stationarity_residual", spy)
        for x0 in (-2.0, -1.0, 0.0, 1.0, 2.0):
            two_step_u0_optimal(1.0, 1.0, 1.0, 1.0, 1.0, 1, x0, threshold=0.5)
        # evaluating every scan point up to the sign change took 196 calls
        assert len(calls) <= 110

    def test_delivered_residual_evaluates_the_density_once(self, monkeypatch):
        # phi(bound) is both the probing term's density and the numerator of
        # the truncated mean
        calls = []
        pdf = stats.std_normal_pdf

        def spy(x):
            calls.append(x)
            return pdf(x)

        for module in (control, stats):
            monkeypatch.setattr(module, "std_normal_pdf", spy)
        assert two_step_stationarity_residual(1.0, 1.0, 1.0, 1.0, 1.0, 1, 0.5, 0.2) != 0.0
        assert calls == [0.5 - 0.5 - 0.2]

    def test_the_probing_factor_is_below_one(self):
        # The delivered residual is resid - coef*b*F(beta), F(beta) =
        # (beta - m)^2 phi(beta) with m = E[Z | Z < beta], and the scan skips
        # a point where |resid| > |coef*b|.  That rests on F < 1:
        # - for beta >= 0, m lies in [-sqrt(2/pi), 0), so
        #   F <= (beta + 0.8)^2 phi(beta) <= 0.79;
        # - for beta < 0, 0 < beta - m < sqrt(2/pi), so F < (2/pi) phi(0) < 0.26.
        # Below the degenerate-truncation edge (beta near -7.03) the residual
        # returns resid itself.  Where phi(beta) > 0, (beta - m)^2 < 2e3,
        # so coef*b*(beta - m)^2 cannot overflow while |coef*b|*2e3 is finite.
        # F is computed here as the residual computes it.
        degenerate = 0
        for beta in np.linspace(-40.0, 40.0, 160_001).tolist():
            density = std_normal_pdf(beta)
            try:
                mean, _ = _standard_truncated_moments(beta, density)
            except DegenerateTruncationError:
                degenerate += 1
                continue
            factor = (beta - mean) ** 2 * density
            assert factor <= (0.79 if beta >= 0.0 else 0.26), beta
            if density > 0.0:
                assert (beta - mean) ** 2 < 2e3, beta
        assert 0 < degenerate < 160_001


class TestTwoStepBoundary:
    """The solver takes its scalars as floats once, and names a bad one."""

    @pytest.mark.parametrize("field,value", [
        ("q2", -1.0), ("q0", -1.0), ("q1", -0.5), ("q2", 0.0), ("a", "x"), ("a", None),
        ("b", True), pytest.param("a", 10 ** 400, id="a-10**400"), ("x0_or_xhat", "0.5"),
        ("threshold", [0.5]), ("delta0", 2), ("delta0", -1), ("delta0", True), ("tol", 0.0),
        ("tol", -1.0), ("tol", math.nan), ("tol", math.inf), ("tol", "1e-9"),
        # a, b and the weights are finite, as lq_matrices requires
        ("q2", math.inf), ("q0", math.nan), ("a", math.nan), ("b", math.inf),
    ])
    def test_bad_scalar_names_its_field(self, field, value):
        args = dict(a=1.0, b=1.0, q0=1.0, q1=1.0, q2=1.0, delta0=1, x0_or_xhat=0.5)
        with pytest.raises(ConfigurationError) as info:
            two_step_u0_optimal(**{**args, field: value})
        assert info.value.field == field

    @pytest.mark.parametrize("field,value", [
        ("q2", -1.0), ("q0", -1.0), ("x0_or_xhat", "0.5"), ("delta0", 2), ("b", True),
        ("u0", "0.2"), ("q2", math.inf), ("q0", math.nan), ("a", math.nan), ("b", math.inf),
    ])
    def test_residual_names_its_bad_scalar(self, field, value):
        # the residual checks by the solver's rule
        args = dict(a=1.0, b=1.0, q0=1.0, q1=1.0, q2=1.0, delta0=1, x0_or_xhat=0.5, u0=0.2)
        with pytest.raises(ConfigurationError) as info:
            two_step_stationarity_residual(**{**args, field: value})
        assert info.value.field == field

    @pytest.mark.parametrize("delta0", [0, 1])
    def test_residual_names_a_nan_noise_bound_upper(self, delta0):
        # a NaN u0 makes the step-1 noise bound NaN on either branch
        with pytest.raises(ConfigurationError) as info:
            two_step_stationarity_residual(1.0, 1.0, 1.0, 1.0, 1.0, delta0, 0.5, math.nan)
        assert info.value.field == "upper"

    @pytest.mark.parametrize("scan", [(math.nan, 1.0), (1.0, -1.0), (1.0, 1.0), (0.0, math.inf),
                                      (0.0,), (0.0, 1.0, 2.0), ("a", "b"), 1.0, None],
                             ids=["nan", "reversed", "equal", "inf", "one", "three", "text",
                                  "scalar", "default"])
    def test_bad_scan_names_scan(self, scan):
        if scan is None:
            # the default window is built from the problem and never rejected
            assert two_step_u0_optimal(1.0, 1.0, 1.0, 1.0, 1.0, 1, 0.0) == pytest.approx(
                U0_OPT_DELIVERED_X0_ZERO, abs=1e-7)
            return
        with pytest.raises(ConfigurationError) as info:
            two_step_u0_optimal(1.0, 1.0, 1.0, 1.0, 1.0, 1, 0.0, scan=scan)
        assert info.value.field == "scan"
