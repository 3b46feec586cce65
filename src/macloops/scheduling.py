"""Scheduler policy family producing the per-sample transmission request.

Four named variants:

* always      -- request every sample (the no-scheduler baseline),
* state       -- request iff ||x||^2 > eps (depends on applied controls),
* innovation  -- request iff ||x - prediction||^2 > eps; the innovation is a
                 pure function of the noise, so the decision is control-free
                 and symmetric,
* halfline    -- request iff x >= c (scalar states only; uses controls).

`is_symmetric_control_free` is what downstream guarantees key off: such
policies produce bit-identical request sequences under any two control laws
for a fixed noise realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, _real

_CONTROL_FREE = {"always": True, "state": False, "innovation": True, "halfline": False}
# the kinds with a threshold eps on a squared norm
THRESHOLD_KINDS = ("state", "innovation")


@dataclass(frozen=True)
class SchedulerPolicy:
    kind: str
    eps: float = 0.0
    threshold: float = 0.5
    direction: str = "ge"

    def __post_init__(self):
        if self.kind not in _CONTROL_FREE:
            raise ConfigurationError(f"unknown scheduler kind {self.kind!r}", field="kind")
        object.__setattr__(self, "eps", _real(self.eps, "eps", ">= 0", 0.0))
        object.__setattr__(self, "threshold",
                           _real(self.threshold, "threshold", "a number", -math.inf))
        if self.kind == "halfline" and self.direction not in ("ge", "le"):
            raise ConfigurationError(
                f"direction must be 'ge' or 'le', got {self.direction!r}", field="direction")

    # -- constructors -------------------------------------------------------
    @classmethod
    def always_transmit(cls) -> "SchedulerPolicy":
        return cls(kind="always")

    @classmethod
    def state_threshold(cls, eps: float) -> "SchedulerPolicy":
        return cls(kind="state", eps=eps)

    @classmethod
    def innovation_threshold(cls, eps: float) -> "SchedulerPolicy":
        return cls(kind="innovation", eps=eps)

    @classmethod
    def half_line_state(cls, threshold: float, direction: str = "ge") -> "SchedulerPolicy":
        return cls(kind="halfline", threshold=threshold, direction=direction)


def decide(policy: SchedulerPolicy, x: np.ndarray, pred: np.ndarray) -> int:
    """Evaluate the policy on the state x and the prediction pred the
    controller holds if this sample is not delivered: 1 requests a
    transmission, 0 stays silent.

    Threshold comparisons are strict (>) for the quadratic rules; the
    half-line rule uses >= (or <=) against its boundary.
    """
    if policy.kind == "always":
        return 1
    if policy.kind == "state":
        return 1 if float(x @ x) > policy.eps else 0
    if policy.kind == "innovation":
        r = x - pred
        return 1 if float(r @ r) > policy.eps else 0
    # half-line, on a scalar state (LoopConfig checks the plant)
    if policy.direction == "ge":
        return 1 if x[0] >= policy.threshold else 0
    return 1 if x[0] <= policy.threshold else 0


def is_symmetric_control_free(policy: SchedulerPolicy) -> bool:
    """True when the request sequence cannot depend on applied controls."""
    return _CONTROL_FREE[policy.kind]
