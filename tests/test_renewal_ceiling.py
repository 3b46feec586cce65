"""The renewal ceiling of the innovation rule's bound probability, checked
against an independent grid recursion.

One scalar loop (A = B = Rw = R0 = 1, horizon 10) requests a sample when its
squared innovation e_k exceeds eps = 3.5, on a channel with persistence 1, so
every request is delivered.  A delivery resets the estimate, so the next
innovation is fresh noise; a voluntary silence keeps it, so it gathers
variance:

    e_0 ~ N(0, 1),    e_{k+1} = e_k * 1{e_k^2 <= eps} + w_k,    w_k ~ N(0, 1).

The bound probability is the mean over the horizon of Pr(e_k^2 <= eps).  The
grid recursion below carries the density of e_k on [-sqrt(eps), sqrt(eps)],
which is all the next step reads, with the bound on the grid's end nodes and
the trapezoid rule, so its error shrinks as the square of the node spacing.
"""

import math

import numpy as np
import pytest

from macloops.model import LoopConfig, NetworkScenario, PlantModel
from macloops.network import CrmConfig
from macloops.scheduling import SchedulerPolicy
from macloops.sim import monte_carlo

EPS = 3.5
HORIZON = 10
EPISODES = 20_000
SEED = 5


def std_normal_pdf(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def grid_step_masses(nodes):
    """Pr(e_k^2 <= eps) for k = 0 .. HORIZON - 1, from the density of e_k at
    `nodes` equally spaced points of [-sqrt(eps), sqrt(eps)].

    The kept part of each density is convolved with the noise density on
    the grid; the mass that requested is a fresh noise density.
    """
    bound = math.sqrt(EPS)
    e = np.linspace(-bound, bound, nodes)
    h = e[1] - e[0]
    weights = np.full(nodes, h)
    weights[[0, -1]] = h / 2.0
    kernel = std_normal_pdf(h * np.arange(1 - nodes, nodes))
    density = std_normal_pdf(e)
    masses = []
    for _ in range(HORIZON):
        kept = density * weights
        masses.append(kept.sum())
        density = np.convolve(kept, kernel, "valid") + (1.0 - masses[-1]) * std_normal_pdf(e)
    return np.array(masses)


@pytest.fixture(scope="module")
def grid_value():
    return grid_step_masses(2401).mean()


def test_grid_recursion_has_converged(grid_value):
    # halving the node spacing moves the value by far less than the
    # simulation's standard error (about 7e-4)
    coarse = grid_step_masses(1201)
    assert abs(coarse.mean() - grid_value) < 1e-6
    # the first step is the closed form Pr(|N(0, 1)| <= sqrt(eps))
    assert coarse[0] == pytest.approx(math.erf(math.sqrt(EPS / 2.0)), abs=1e-6)
    # the ceiling lies well below the one-step value 0.9387
    assert 0.84 < grid_value < 0.86


def test_collision_free_bound_probability_meets_the_grid_value(grid_value):
    plant = PlantModel(A=1.0, B=1.0, Rw=1.0, R0=1.0)
    loop = LoopConfig(plant=plant, scheduler=SchedulerPolicy.innovation_threshold(EPS),
                      horizon=HORIZON, Q0=1.0, Q1=1.0, Q2=1.0)
    scn = NetworkScenario(loops=(loop,), crm=CrmConfig(persistence=(1.0,)))
    fractions = []

    def keep_fractions(chunk, traces):
        fractions.append((traces[0].pred_err_sq <= EPS).mean(axis=1))

    result = monte_carlo(scn, SEED, EPISODES, trace_hook=keep_fractions)
    fractions = np.concatenate(fractions)
    stats = result.per_loop[0]
    assert stats.success_rate == 1.0 and stats.drop_rate == 0.0
    assert stats.bound_prob == pytest.approx(fractions.mean(), rel=1e-12)
    # the steps of one episode are correlated, so the standard error is
    # taken over the per-episode hit fractions
    se = fractions.std(ddof=1) / math.sqrt(fractions.size)
    assert abs(stats.bound_prob - grid_value) < 3.0 * se, (stats.bound_prob, grid_value, se)
