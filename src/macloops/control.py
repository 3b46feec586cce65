"""Finite-horizon Riccati machinery for the certainty-equivalent gains, the
closed-form predicted cost for the prediction-observer architecture, the
per-loop cost report, and the scalar two-step controller with its probing
(dual-effect) correction.

The two-step stationarity condition couples the control to the estimator:
the truncation bounds inside the posterior moments move with u0, so the
residual is re-evaluated self-consistently at every trial point and solved
with the bracketed root finder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BracketingError, ConfigurationError, DegenerateTruncationError,
                     NumericalError)
from .model import _integer, lq_matrices
from .stats import (
    QuadratureSpec,
    TruncatedGaussian,
    compound_density,
    conditional_moments_compound,
    find_root,
    std_normal_pdf,
    truncated_moments,
)


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Backward value matrices S_0..S_N as an (N + 1, n, n) array, gains
    L_0..L_{N-1} as an (N, m, n) array, and the weights
    W_k = L_k' (Q2 + B'S_{k+1}B) L_k of the filtered error covariances in
    the predicted cost as an (N, n, n) array; S[k] is S_k, and so on."""

    S: np.ndarray
    L: np.ndarray
    W: np.ndarray


def riccati_backward(A, B, Q0, Q1, Q2, horizon: int) -> RiccatiSolution:
    """Backward Riccati recursion from S_N = Q0.

    The matrices must pass `model.lq_matrices` and the horizon must be an
    integer >= 1; a bad one raises a ConfigurationError whose `field` names it.
    Each S_k is symmetrized after the update to stop round-off drift.  The
    gain inverse (Q2 + B'SB) is positive definite for PD Q2; a numerically
    singular one, or an S_k that overflows, raises NumericalError.
    """
    A, B, Q0, Q1, Q2 = lq_matrices(A, B, Q0, Q1, Q2)
    horizon = _integer(horizon, "horizon", "a positive integer", 1)
    S = [None] * (horizon + 1)
    L = [None] * horizon
    W = [None] * horizon
    S[horizon] = Q0
    # overflow is reported below as a NumericalError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon - 1, -1, -1):
            S_next = S[k + 1]
            BtS, AtS = B.T @ S_next, A.T @ S_next
            G = Q2 + BtS @ B
            # G is symmetric positive definite, so its 2-norm condition number
            # is the ratio of its extreme eigenvalues (eigvalsh is cheaper than
            # an SVD); an eigenvalue that is not positive means G is singular.
            # A 1 x 1 G is its one eigenvalue: cond is 1 if G is finite and
            # positive, else not finite.
            if G.shape == (1, 1):
                g = G[0, 0]
                cond = g / g if g > 0.0 else np.inf
            else:
                try:
                    eig = np.linalg.eigvalsh(G)
                    cond = eig[-1] / eig[0] if eig[0] > 0.0 else np.inf
                except np.linalg.LinAlgError:
                    cond = np.inf
            if not np.isfinite(cond) or cond > 1e14:
                raise NumericalError(
                    f"Q2 + B'SB numerically singular at step {k} (cond={cond:.2e})"
                )
            L[k] = np.linalg.solve(G, BtS @ A)
            W[k] = L[k].T @ G @ L[k]
            Sk = Q1 + AtS @ A - AtS @ B @ L[k]
            if not np.isfinite(Sk).all():
                raise NumericalError(f"S_{k} is not finite: the dynamics overflow")
            S[k] = 0.5 * (Sk + Sk.T)
    return RiccatiSolution(S=np.array(S), L=np.array(L), W=np.array(W))


def jdp_stack(S, W, xhat0, P0, Rw, P) -> np.ndarray:
    """Predicted cost of the prediction-observer loop, for l loops of equal
    n and horizon N at once:

        xhat0' S_0 xhat0 + tr(S_0 P0) + sum_k [tr(S_{k+1} Rw) + tr(W_k P_k)]

    S and W are the value matrices and error weights of each loop's
    `RiccatiSolution`, as (l, N + 1, n, n) and (l, N, n, n) arrays; P holds
    each loop's filtered error covariances P_{k|k} for k = 0..N-1 (empirical
    averages are fine) as an (l, N, n, n) array.  xhat0 is (l, n), and P0
    and Rw are (l, n, n).  One predicted cost per loop, whose terms are
    added in step order.  A non-finite P_{k|k} raises a ConfigurationError
    naming p_seq[k].
    """
    bad = np.argwhere(~np.isfinite(P).all(axis=(-2, -1)))
    if bad.size:
        loop, k = bad[0]
        raise ConfigurationError(f"p_seq[{k}] must be finite, got {P[loop, k].tolist()}")
    head = ((xhat0[:, None, :] @ S[:, 0] @ xhat0[:, :, None])[:, 0, 0]
            + np.trace(S[:, 0] @ P0, axis1=1, axis2=2))
    noise = np.trace(S[:, 1:] @ Rw[:, None], axis1=2, axis2=3)
    error = np.trace(W @ P, axis1=2, axis2=3)
    # cumsum adds in step order, onto the first two terms
    return np.cumsum(np.concatenate((head[:, None], noise + error), axis=1), axis=1)[:, -1]


@dataclass(frozen=True)
class CostReport:
    """Cost statistics for one loop, over one or many episodes."""

    episodes: int
    j_mean: float
    j_se: float
    tx_mean: float
    net_penalty: float
    j_lambda_mean: float
    j_dp: Optional[float] = None


# -- scalar two-step problem -------------------------------------------------

def two_step_s1(a: float, b: float, q0: float, q1: float, q2: float) -> float:
    """One backward Riccati step from S_2 = Q0."""
    return q1 + a * a * q0 - (a * a * b * b * q0 * q0) / (q2 + b * b * q0)


def two_step_u1(a: float, b: float, q0: float, q2: float, xhat11: float) -> float:
    """Last-step input; identical for the probing and the CE controller."""
    return -(a * b * q0 / (q2 + b * b * q0)) * xhat11


def ce_u0(a: float, b: float, s1: float, q2: float, xhat00: float) -> float:
    """First-step certainty-equivalent input (ignores the probing incentive)."""
    return -(a * b * s1 / (q2 + b * b * s1)) * xhat00


def two_step_stationarity_residual(
    a: float,
    b: float,
    q0: float,
    q1: float,
    q2: float,
    delta0: int,
    x0_or_xhat: float,
    u0: float,
    threshold: float = 0.5,
) -> float:
    """Derivative of the two-step cost-to-go with respect to u0.

    The first two terms are the CE optimality condition; the last is the
    probing term through the next-step error covariance, whose truncation
    bound moves with u0.  The density factor is evaluated first: where it
    underflows to 0 the term is zero, and so it is when the conditioning
    event's probability is degenerate.
    """
    s1 = two_step_s1(a, b, q0, q1, q2)
    if delta0:
        xhat00 = float(x0_or_xhat)
    else:
        tg0 = TruncatedGaussian(0.0, 1.0, threshold)
        xhat00, _ = truncated_moments(tg0)
    resid = 2.0 * u0 * (q2 + b * b * s1) + 2.0 * xhat00 * a * b * s1
    coef = (a * a * q0 * q0 * b * b) / (q2 + b * b * q0)
    if delta0:
        bound = threshold - a * float(x0_or_xhat) - b * u0
        if bound < -37.0:
            # density factor underflows; the probing term is gone
            return resid
        density = std_normal_pdf(bound)
    else:
        bound = threshold - b * u0
        density = compound_density(a, tg0, 1.0, bound)
    if density == 0.0:
        # no probing term, and (bound - mean) ** 2 below may overflow
        return resid
    try:
        if delta0:
            mean, _ = truncated_moments(TruncatedGaussian(0.0, 1.0, bound))
        else:
            mean, _ = conditional_moments_compound(a, tg0, 1.0, bound)
    except DegenerateTruncationError:
        return resid
    return resid - coef * b * (bound - mean) ** 2 * density


def two_step_u0_optimal(
    a: float,
    b: float,
    q0: float,
    q1: float,
    q2: float,
    delta0: int,
    x0_or_xhat: float,
    threshold: float = 0.5,
    quad: Optional[QuadratureSpec] = None,
    scan: Optional[tuple[float, float]] = None,
    scan_points: int = 41,
    tol: float = 1e-9,
) -> float:
    """Solve the first-step stationarity condition for u0.

    Scans the window for a sign change of the residual, then hands the
    bracket to the guarded root finder.  Raises BracketingError when no sign
    change exists in the window.  The default window follows the problem's
    scale: it is centred on the CE input, which grows with |a|, with
    half-width max(10, |u0_ce|); a CE input that is not finite raises
    NumericalError.

    `quad` is accepted and ignored: the residual is a closed form and runs
    no quadrature.  The keyword stays only because benchmark/workloads.py
    still passes one.
    """

    def residual(u0: float) -> float:
        return two_step_stationarity_residual(
            a, b, q0, q1, q2, delta0, x0_or_xhat, u0, threshold=threshold,
        )

    if scan is None:
        if delta0:
            xhat00 = float(x0_or_xhat)
        else:
            xhat00, _ = truncated_moments(TruncatedGaussian(0.0, 1.0, threshold))
        u0_ce = ce_u0(a, b, two_step_s1(a, b, q0, q1, q2), q2, xhat00)
        if not np.isfinite(u0_ce):
            raise NumericalError(f"the certainty-equivalent input overflows: {u0_ce}")
        half = max(10.0, abs(u0_ce))
        scan = (u0_ce - half, u0_ce + half)
    grid = np.linspace(scan[0], scan[1], scan_points)
    values = [residual(float(u)) for u in grid]
    for i in range(len(grid) - 1):
        if values[i] == 0.0:
            return float(grid[i])
        if values[i] * values[i + 1] < 0.0:
            return find_root(residual, float(grid[i]), float(grid[i + 1]), tol=tol)
    if values[-1] == 0.0:
        return float(grid[-1])
    raise BracketingError(
        f"no sign change of the stationarity residual in [{scan[0]}, {scan[1]}]"
    )
