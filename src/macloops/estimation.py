"""Observers: the model-prediction observer used at the controller side and
the exact truncated-Gaussian posterior for the scalar two-step problem.

The prediction observer is the MMSE estimator whenever the scheduler is a
symmetric function of the innovation (the accumulated noise it quantizes has
zero conditional mean).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, _integer, _real
from .stats import TruncatedGaussian, conditional_moments_compound, truncated_moments


def observer_update(delta: int | np.ndarray, y: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """The filtered estimate after one step: the delivered state y where
    delta is set, else the prediction pred.

    pred is the one-step prediction A xhat + B u_prev from the previous
    filtered estimate through the applied input, the same one the scheduler
    decided on.  A delivered packet carries the full state and resets the
    estimate; otherwise the prediction stands, with no correction term added.
    delta, y and pred may carry a leading episode axis: each episode takes
    its own row of y where its delta is set.
    """
    if y.shape != pred.shape:
        raise ConfigurationError(f"y must have length {pred.shape[-1]}")
    return np.where(np.asarray(delta, dtype=bool)[..., None], y, pred)


def last_delivery(deltas: np.ndarray) -> np.ndarray:
    """tau_k along the last (step) axis of a 0/1 deltas array: the last step
    k' <= k whose packet was delivered, or -1 for the fictitious initial
    packet when there is none yet."""
    ks = np.arange(np.shape(deltas)[-1])
    return np.maximum.accumulate(np.where(np.asarray(deltas) == 1, ks, -1), axis=-1)


@dataclass(frozen=True)
class TwoStepPosterior:
    """Per-branch conditional moments for the scalar two-step problem.

    xbar0/p00 are the posterior mean/variance of the initial state after the
    step-0 outcome; ebar1/p11 the posterior mean/variance of the unknown part
    of the next state after the step-1 outcome (both zero on a delivery).
    """

    a: float
    b: float
    u0: float
    delta0: int
    delta1: int
    threshold: float
    xbar0: float
    p00: float
    ebar1: float
    p11: float

    @property
    def xhat11(self) -> float:
        """Estimate of x1 when the step-1 packet was not delivered."""
        if self.delta0:
            return self.a * self.xbar0 + self.b * self.u0 + self.ebar1
        return self.b * self.u0 + self.ebar1


def two_step_posterior(
    a: float,
    b: float,
    u0: float,
    delta0: int,
    delta1: int,
    x0: Optional[float] = None,
    threshold: float = 0.5,
) -> TwoStepPosterior:
    """Exact posterior moments for the half-line scheduler x >= threshold with
    standard normal initial state and noise.

    delta0 = 1 requires the realized x0 (the controller received it); the
    silent branches condition on the state staying below the threshold, which
    is a single truncation at step 0 and a truncated-source-plus-noise
    (compound) conditioning at step 1.  As in the two-step solver, a, b, u0,
    threshold and x0 must be real numbers and delta0 and delta1 0 or 1; a bad
    or missing one raises a ConfigurationError whose `field` names it.
    """
    a, b, u0, threshold = map(_real, (a, b, u0, threshold), ("a", "b", "u0", "threshold"))
    delta0 = _integer(delta0, "delta0", "0 or 1", 0, 1)
    delta1 = _integer(delta1, "delta1", "0 or 1", 0, 1)
    if delta0:
        xbar0, p00 = _real(x0, "x0", "a real number on the delta0=1 branch"), 0.0
        if delta1:
            ebar1, p11 = 0.0, 0.0
        else:
            w_max = threshold - a * xbar0 - b * u0
            ebar1, p11 = truncated_moments(TruncatedGaussian(0.0, 1.0, w_max))
    else:
        tg0 = TruncatedGaussian(0.0, 1.0, threshold)
        xbar0, p00 = truncated_moments(tg0)
        if delta1:
            ebar1, p11 = 0.0, 0.0
        else:
            ebar1, p11 = conditional_moments_compound(a, tg0, 1.0, threshold - b * u0)
    return TwoStepPosterior(
        a=a, b=b, u0=u0, delta0=delta0, delta1=delta1, threshold=threshold,
        xbar0=xbar0, p00=p00, ebar1=ebar1, p11=p11,
    )
