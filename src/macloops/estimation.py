"""Observers: the model-prediction observer used at the controller side, the
last-received-packet bookkeeping, the sensor-side Kalman filter for
output-based loops, and the exact truncated-Gaussian posterior for the scalar
two-step problem.

The prediction observer is the MMSE estimator whenever the scheduler is a
symmetric function of the innovation (the accumulated noise it quantizes has
zero conditional mean).  For asymmetric schedulers the exact conditional mean
over a non-transmission burst has no closed form; `general_estimate_burst`
evaluates it by rejection sampling, mainly as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    ConfigurationError,
    InfeasibleConditioningError,
    NumericalError,
    ProtocolError,
)
from .model import PlantModel, RngStream, as_matrix, as_vector
from .scheduling import SchedulerPolicy, is_symmetric_control_free
from .stats import (
    DEFAULT_QUAD,
    QuadratureSpec,
    TruncatedGaussian,
    conditional_moments_compound,
    truncated_moments,
)


@dataclass(frozen=True, eq=False)
class ObserverState:
    """Controller-side observer after processing step k.

    xhat is the filtered estimate.  tau tracks the last delivery, with -1
    denoting the fictitious initial packet.
    """

    xhat: np.ndarray
    tau: int
    k: int

    @property
    def delay(self) -> int:
        return self.k - self.tau

    @classmethod
    def initial(cls, model: PlantModel) -> "ObserverState":
        return cls(xhat=np.array(model.x0_mean, dtype=float), tau=-1, k=-1)


def observer_update(
    state: ObserverState,
    delta: int,
    y: Optional[np.ndarray],
    pred: np.ndarray,
) -> ObserverState:
    """Advance the observer to step k = state.k + 1.

    pred is the one-step prediction A xhat + B u_prev from the previous
    filtered estimate through the applied input, the same one the scheduler
    decided on.  A delivered packet carries the full state and resets the
    estimate; otherwise the prediction stands, with no correction term added.
    """
    k = state.k + 1
    if delta:
        if y is None:
            raise ProtocolError(f"packet delivered at step {k} but no payload given")
        y = as_vector(y, "y")
        if y.shape != pred.shape:
            raise ConfigurationError(f"y must have length {len(pred)}")
        return ObserverState(xhat=y.copy(), tau=k, k=k)
    return ObserverState(xhat=pred, tau=state.tau, k=k)


@dataclass(frozen=True)
class BurstEstimate:
    """Conditional mean of the accumulated noise over a non-transmission burst."""

    mean: float
    stderr: float
    acceptance: float
    n_accepted: int


def general_estimate_burst(
    model: PlantModel,
    scheduler: SchedulerPolicy,
    burst_len: int,
    rng: Union[RngStream, np.random.Generator],
    n_samples: int = 200_000,
    offsets: Optional[Sequence[float]] = None,
    min_acceptance: float = 1e-6,
) -> BurstEstimate:
    """E[sum A^{s-1} w | the scheduler stayed silent for the whole burst].

    Symmetric control-free schedulers quantize the noise symmetrically, so the
    conditional mean is exactly zero and no sampling is done.  Asymmetric
    policies (state-threshold, half-line) are evaluated by rejection sampling;
    `offsets` carries the known (state/control) part added to the accumulated
    noise inside each step's decision.  Scalar plants only.
    """
    if model.n != 1 or model.m != 1:
        raise ConfigurationError(
            "burst estimation is implemented for scalar plants only"
        )
    if burst_len < 1:
        raise ConfigurationError("burst_len must be >= 1")
    if is_symmetric_control_free(scheduler):
        return BurstEstimate(mean=0.0, stderr=0.0, acceptance=1.0, n_accepted=n_samples)
    offs = np.zeros(burst_len) if offsets is None else np.asarray(offsets, dtype=float)
    if offs.shape != (burst_len,):
        raise ConfigurationError(f"offsets must have length {burst_len}")
    a = float(model.A[0, 0])
    sw = float(np.sqrt(model.Rw[0, 0]))
    gen = rng.generator() if isinstance(rng, RngStream) else rng

    w = gen.standard_normal((n_samples, burst_len)) * sw
    acc = np.zeros(n_samples)
    keep = np.ones(n_samples, dtype=bool)
    for t in range(burst_len):
        acc = a * acc + w[:, t]
        x_t = offs[t] + acc
        if scheduler.kind == "halfline":
            if scheduler.direction == "ge":
                keep &= x_t < scheduler.threshold
            else:
                keep &= x_t > scheduler.threshold
        elif scheduler.kind == "state":
            keep &= x_t * x_t <= scheduler.eps
        else:
            raise ConfigurationError(
                f"no rejection rule for scheduler kind {scheduler.kind!r}"
            )
    n_acc = int(keep.sum())
    acceptance = n_acc / n_samples
    if acceptance < min_acceptance:
        raise InfeasibleConditioningError(
            f"acceptance rate {acceptance:.2e} below {min_acceptance:.0e} "
            f"for burst length {burst_len}"
        )
    sel = acc[keep]
    mean = float(sel.mean())
    stderr = float(sel.std(ddof=1) / np.sqrt(n_acc)) if n_acc > 1 else float("inf")
    return BurstEstimate(mean=mean, stderr=stderr, acceptance=acceptance, n_accepted=n_acc)


@dataclass(frozen=True, eq=False)
class SensorKf:
    """Sensor-side Kalman filter state for output-based loops.

    Holds the prediction for the upcoming step and, after the first update,
    the filtered quantities.  The filtered estimate is what gets exposed to
    the scheduler as the loop's effective state.
    """

    C: np.ndarray
    Rv: np.ndarray
    z_pred: np.ndarray
    P_pred: np.ndarray
    z_filt: Optional[np.ndarray] = None
    P_filt: Optional[np.ndarray] = None
    gain: Optional[np.ndarray] = None
    innovation_cov: Optional[np.ndarray] = None

    @classmethod
    def initial(cls, C, Rv, z0_mean, P0) -> "SensorKf":
        from .model import check_symmetric_pd, check_symmetric_psd

        C = as_matrix(C, "C")
        Rv = as_matrix(Rv, "Rv")
        check_symmetric_pd(Rv, "Rv")
        z0 = as_vector(z0_mean, "z0_mean")
        P0 = as_matrix(P0, "P0")
        check_symmetric_psd(P0, "P0")
        return cls(C=C, Rv=Rv, z_pred=z0, P_pred=P0)


def sensor_kf_step(kf: SensorKf, m_k, u_prev, model: PlantModel) -> SensorKf:
    """Standard predict/update step of the sensor-side filter.

    The first call consumes the stored prior as its prediction; later calls
    push the filtered state through the model with the applied input.  The
    covariance update uses the Joseph form, which keeps P symmetric PSD.
    """
    m_k = as_vector(m_k, "m_k")
    if kf.z_filt is None:
        z_pred, P_pred = kf.z_pred, kf.P_pred
    else:
        u_prev = as_vector(u_prev, "u_prev")
        z_pred = model.A @ kf.z_filt + model.B @ u_prev
        P_pred = model.A @ kf.P_filt @ model.A.T + model.Rw
        P_pred = 0.5 * (P_pred + P_pred.T)
    C, Rv = kf.C, kf.Rv
    innov_cov = C @ P_pred @ C.T + Rv
    cond = np.linalg.cond(innov_cov)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(f"innovation covariance is numerically singular (cond={cond:.2e})")
    gain = np.linalg.solve(innov_cov.T, (P_pred @ C.T).T).T
    innovation = m_k - C @ z_pred
    z_filt = z_pred + gain @ innovation
    ikc = np.eye(model.n) - gain @ C
    P_filt = ikc @ P_pred @ ikc.T + gain @ Rv @ gain.T
    P_filt = 0.5 * (P_filt + P_filt.T)
    return SensorKf(
        C=C,
        Rv=Rv,
        z_pred=z_pred,
        P_pred=P_pred,
        z_filt=z_filt,
        P_filt=P_filt,
        gain=gain,
        innovation_cov=innov_cov,
    )


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
    def xhat00(self) -> float:
        return self.xbar0

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
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> TwoStepPosterior:
    """Exact posterior moments for the half-line scheduler x >= threshold with
    standard normal initial state and noise.

    delta0 = 1 requires the realized x0 (the controller received it); the
    silent branches condition on the state staying below the threshold, which
    is a single truncation at step 0 and a truncated-source-plus-noise
    (compound) conditioning at step 1.
    """
    if delta0 not in (0, 1) or delta1 not in (0, 1):
        raise ConfigurationError("delta0 and delta1 must be 0 or 1")
    if delta0:
        if x0 is None:
            raise ConfigurationError("x0 is required on the delta0=1 branch")
        xbar0, p00 = float(x0), 0.0
        if delta1:
            ebar1, p11 = 0.0, 0.0
        else:
            w_max = threshold - a * float(x0) - b * u0
            ebar1, p11 = truncated_moments(TruncatedGaussian(0.0, 1.0, w_max))
    else:
        tg0 = TruncatedGaussian(0.0, 1.0, threshold)
        xbar0, p00 = truncated_moments(tg0)
        if delta1:
            ebar1, p11 = 0.0, 0.0
        else:
            ebar1, p11 = conditional_moments_compound(
                a, tg0, 1.0, threshold - b * u0, quad
            )
    return TwoStepPosterior(
        a=a, b=b, u0=u0, delta0=delta0, delta1=delta1, threshold=threshold,
        xbar0=xbar0, p00=p00, ebar1=ebar1, p11=p11,
    )
