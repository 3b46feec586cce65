"""The paper's central claim, checked by paired Monte Carlo on common draws:
the certainty-equivalent (CE) law is optimal when the scheduler ignores the
applied controls, and not when it reads the controlled state.

One scalar loop (A = B = 1, horizon 10, persistence 1) runs 5,000 episodes
at one seed with three arms on the same draws: the CE law and the CE law
with its gain scaled by 0.8 and by 1.2.  Each arm's per-episode cost is
compared with CE's as a paired difference, in standard errors of its mean.
"""

import math

import numpy as np
import pytest

from macloops.model import LoopConfig, NetworkScenario, PlantModel
from macloops.network import CrmConfig
from macloops.scheduling import SchedulerPolicy
from macloops.sim import _layout, _rules, _run_arms, ce_law

EPISODES = 5000
SEED = 5
ALPHAS = (0.8, 1.2)


def scaled_law(alpha):
    """The CE law with its gain scaled by alpha."""
    return lambda L_k, xhat: alpha * ce_law(L_k, xhat)


def paired_runs(policy):
    """Per arm (CE, then each alpha): each episode's cost and request sequence."""
    plant = PlantModel(A=1.0, B=1.0, Rw=1.0, R0=1.0)
    loop = LoopConfig(plant=plant, scheduler=policy, horizon=10, Q0=1.0, Q1=1.0, Q2=1.0)
    scn = NetworkScenario(loops=(loop,), crm=CrmConfig(persistence=(1.0,)))
    layout = _layout(scn)
    rules = _rules(scn, layout)
    arms = [(rules, ce_law)] + [(rules, scaled_law(alpha)) for alpha in ALPHAS]
    costs, gammas = [[] for _ in arms], [[] for _ in arms]
    for _, batches, _ in _run_arms(scn, layout, arms, SEED, range(EPISODES)):
        for arm, (tr,) in enumerate(batches):
            costs[arm].append(tr.j)
            gammas[arm].append(tr.gammas)
    return [np.concatenate(c) for c in costs], [np.concatenate(g) for g in gammas]


def excess_in_se(cost, ce_cost):
    """The mean of cost - ce_cost, in standard errors of that mean."""
    diff = cost - ce_cost
    return diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size))


@pytest.fixture(scope="module")
def innovation():
    return paired_runs(SchedulerPolicy.innovation_threshold(3.5))


@pytest.fixture(scope="module")
def half_line():
    return paired_runs(SchedulerPolicy.half_line_state(0.5))


def test_ce_is_a_strict_minimum_under_the_innovation_rule(innovation):
    costs, gammas = innovation
    # the rule reads only the noise, so every arm requests alike
    for other in gammas[1:]:
        assert np.array_equal(other, gammas[0])
    for alpha, cost in zip(ALPHAS, costs[1:]):
        z = excess_in_se(cost, costs[0])
        assert z > 3.0, f"alpha {alpha}: {z:.1f} SE over CE"


def test_a_smaller_gain_beats_ce_under_the_half_line_rule(half_line):
    costs, gammas = half_line
    # the rule reads the controlled state, so the arms request differently
    assert not np.array_equal(gammas[1], gammas[0])
    z = excess_in_se(costs[1], costs[0])
    assert z < -3.0, f"alpha 0.8: {z:.1f} SE against CE"
