"""Scheduler decision rules, their symmetry and control-free tags."""

import numpy as np
import pytest

from macloops.errors import ConfigurationError
from macloops.model import LoopConfig, PlantModel
from macloops.scheduling import (
    SchedulerPolicy,
    decide,
    is_symmetric_control_free,
)


def inp(x, pred):
    return np.atleast_1d(float(x)), np.atleast_1d(float(pred))


class TestDecide:
    def test_innovation_threshold(self):
        pol = SchedulerPolicy.innovation_threshold(3.5)
        assert decide(pol, *inp(2.0, 0.0)) == 1       # 4 > 3.5
        assert decide(pol, *inp(1.8, 0.0)) == 0       # 3.24 <= 3.5
        assert decide(pol, *inp(6.0, 4.0)) == 1
        assert decide(pol, *inp(5.8, 4.0)) == 0

    def test_state_threshold_strict(self):
        pol = SchedulerPolicy.state_threshold(0.0)
        assert decide(pol, *inp(0.0, 0.0)) == 0       # 0 > 0 is false
        assert decide(pol, *inp(1e-8, 0.0)) == 1

    def test_always(self):
        assert decide(SchedulerPolicy.always_transmit(), *inp(0.0, 0.0)) == 1

    def test_half_line(self):
        pol = SchedulerPolicy.half_line_state(0.5)
        assert decide(pol, *inp(0.5, 0.0)) == 1       # boundary included
        assert decide(pol, *inp(0.499, 0.0)) == 0
        le = SchedulerPolicy.half_line_state(0.5, direction="le")
        assert decide(le, *inp(0.4, 0.0)) == 1
        assert decide(le, *inp(0.6, 0.0)) == 0

    def test_half_line_needs_scalar(self):
        # checked once, when the loop is built, not on every decision
        pol = SchedulerPolicy.half_line_state(0.5)
        plant = PlantModel(A=np.eye(2), B=np.ones((2, 1)), Rw=np.eye(2), R0=np.eye(2))
        with pytest.raises(ConfigurationError, match="scalar states only") as err:
            LoopConfig(plant=plant, scheduler=pol, horizon=2, Q0=np.eye(2), Q1=np.eye(2),
                       Q2=1.0)
        assert err.value.field == "scheduler"

    def test_vector_norm_is_euclidean(self):
        pol = SchedulerPolicy.state_threshold(4.9)
        assert decide(pol, np.array([1.0, 2.0]), np.zeros(2)) == 1   # 5 > 4.9


class TestTags:
    def test_control_free_tags(self):
        assert is_symmetric_control_free(SchedulerPolicy.innovation_threshold(1.0))
        assert is_symmetric_control_free(SchedulerPolicy.always_transmit())
        assert not is_symmetric_control_free(SchedulerPolicy.state_threshold(1.0))
        assert not is_symmetric_control_free(SchedulerPolicy.half_line_state(0.5))


class TestProperties:
    def test_symmetry_of_innovation_rule(self):
        pol = SchedulerPolicy.innovation_threshold(2.3)
        rng = np.random.default_rng(0)
        for _ in range(200):
            r = rng.standard_normal() * 3.0
            plus = decide(pol, *inp(r, 0.0))
            minus = decide(pol, *inp(-r, 0.0))
            assert plus == minus

    def test_request_nonincreasing_in_eps(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            r = rng.standard_normal() * 3.0
            decisions = [decide(SchedulerPolicy.innovation_threshold(e), *inp(r, 0.0))
                         for e in (0.0, 1.0, 2.0, 4.0, 8.0)]
            assert all(a >= b for a, b in zip(decisions, decisions[1:]))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SchedulerPolicy.state_threshold(-1.0)
        with pytest.raises(ConfigurationError):
            SchedulerPolicy(kind="nope")
        with pytest.raises(ConfigurationError):
            SchedulerPolicy(kind="custom")
        with pytest.raises(ConfigurationError, match="eps must be >= 0"):
            SchedulerPolicy.innovation_threshold(float("nan"))
