"""Riccati recursion, cost accumulation and the two-step probing controller."""

import numpy as np
import pytest

from macloops.control import (
    ce_u0,
    jdp_stack,
    riccati_backward,
    two_step_s1,
    two_step_stationarity_residual,
    two_step_u0_optimal,
    two_step_u1,
)
from macloops.errors import BracketingError, ConfigurationError, NumericalError
from macloops.model import LoopConfig, NetworkScenario, PlantModel
from macloops.network import CrmConfig
from macloops.scheduling import SchedulerPolicy
from macloops.sim import ce_law, run_episode

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
