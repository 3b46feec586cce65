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
from typing import Optional, Sequence

import numpy as np

from .errors import (BracketingError, ConfigurationError, DegenerateTruncationError,
                     NumericalError)
from .model import as_matrix, as_vector, check_symmetric_pd, check_symmetric_psd
from .stats import (
    DEFAULT_QUAD,
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
    """Backward value matrices S_0..S_N and gains L_0..L_{N-1}."""

    S: tuple
    L: tuple
    horizon: int
    A: np.ndarray
    B: np.ndarray
    Q2: np.ndarray


def _field(name: str, fn, *args):
    """fn(*args), with any ConfigurationError it raises tagged with field `name`."""
    try:
        return fn(*args)
    except ConfigurationError as exc:
        raise ConfigurationError(str(exc), field=name) from None


def riccati_backward(A, B, Q0, Q1, Q2, horizon: int) -> RiccatiSolution:
    """Backward Riccati recursion from S_N = Q0.

    A must be n x n, B n x m, Q0 and Q1 n x n and Q2 m x m, all finite,
    Q0 and Q1 positive semi-definite, Q2 positive definite and the horizon at
    least 1; a bad one raises a ConfigurationError whose `field` names it.
    Each S_k is symmetrized after the update to stop round-off drift.  The
    gain inverse (Q2 + B'SB) is positive definite for PD Q2; a numerically
    singular one, or an S_k that overflows, raises NumericalError.
    """
    A, B, Q0, Q1, Q2 = (_field(name, as_matrix, value, name) for name, value in
                        (("A", A), ("B", B), ("Q0", Q0), ("Q1", Q1), ("Q2", Q2)))
    n, m = A.shape[0], B.shape[1]
    if A.shape != (n, n):
        raise ConfigurationError(f"A must be square, got shape {A.shape}", field="A")
    for name, mat, shape in (("B", B, (n, m)), ("Q0", Q0, (n, n)), ("Q1", Q1, (n, n)),
                             ("Q2", Q2, (m, m))):
        if mat.shape != shape:
            raise ConfigurationError(
                f"{name} must be {shape[0]} x {shape[1]} (n = {n}, m = {m}), "
                f"got shape {mat.shape}", field=name)
    for name, mat, check in (("Q0", Q0, check_symmetric_psd), ("Q1", Q1, check_symmetric_psd),
                             ("Q2", Q2, check_symmetric_pd)):
        _field(name, check, mat, name)
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}", field="horizon")
    S = [None] * (horizon + 1)
    L = [None] * horizon
    S[horizon] = Q0
    # overflow is reported below as a NumericalError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon - 1, -1, -1):
            S_next = S[k + 1]
            BtS, AtS = B.T @ S_next, A.T @ S_next
            G = Q2 + BtS @ B
            # G is symmetric positive definite, so its 2-norm condition number
            # is the ratio of its extreme eigenvalues (eigvalsh is cheaper than
            # an SVD); an eigenvalue that is not positive means G is singular
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
            Sk = Q1 + AtS @ A - AtS @ B @ L[k]
            if not np.isfinite(Sk).all():
                raise NumericalError(f"S_{k} is not finite: the dynamics overflow")
            S[k] = 0.5 * (Sk + Sk.T)
    return RiccatiSolution(S=tuple(S), L=tuple(L), horizon=horizon, A=A, B=B, Q2=Q2)


def jdp_closed_form(ric: RiccatiSolution, xhat0, P0, Rw, p_seq: Sequence) -> float:
    """Predicted cost of the prediction-observer loop.

    p_seq supplies the per-step filtered error covariances P_{n|n} for
    n = 0..N-1 (empirical averages are fine); everything else comes from the
    Riccati solution.
    """
    xhat0 = as_vector(xhat0, "xhat0")
    P0 = as_matrix(P0, "P0")
    Rw = as_matrix(Rw, "Rw")
    if len(p_seq) != ric.horizon:
        raise ConfigurationError(
            f"p_seq must have length {ric.horizon}, got {len(p_seq)}"
        )
    total = float(xhat0 @ ric.S[0] @ xhat0) + float(np.trace(ric.S[0] @ P0))
    B, Q2 = ric.B, ric.Q2
    for n in range(ric.horizon):
        S_next = ric.S[n + 1]
        L_n = ric.L[n]
        weight = L_n.T @ (Q2 + B.T @ S_next @ B) @ L_n
        P_n = as_matrix(p_seq[n], f"p_seq[{n}]")
        total += float(np.trace(S_next @ Rw)) + float(np.trace(weight @ P_n))
    return total


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
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Derivative of the two-step cost-to-go with respect to u0.

    The first two terms are the CE optimality condition; the last is the
    probing term through the next-step error covariance, whose truncation
    bound moves with u0.  When the conditioning event's probability
    underflows, the density factor vanishes as well, so the term is zero.
    """
    s1 = two_step_s1(a, b, q0, q1, q2)
    if delta0:
        xhat00 = float(x0_or_xhat)
    else:
        tg0 = TruncatedGaussian(0.0, 1.0, threshold)
        xhat00, _ = truncated_moments(tg0)
    resid = 2.0 * u0 * (q2 + b * b * s1) + 2.0 * xhat00 * a * b * s1
    coef = (a * a * q0 * q0 * b * b) / (q2 + b * b * q0)
    try:
        if delta0:
            w_max = threshold - a * float(x0_or_xhat) - b * u0
            if w_max < -37.0:
                # density factor underflows; the probing term is gone
                return resid
            wbar, _ = truncated_moments(TruncatedGaussian(0.0, 1.0, w_max))
            dual = coef * b * (w_max - wbar) ** 2 * std_normal_pdf(w_max)
        else:
            tg0 = TruncatedGaussian(0.0, 1.0, threshold)
            e_max = threshold - b * u0
            ebar, _ = conditional_moments_compound(a, tg0, 1.0, e_max, quad)
            dual = coef * b * (e_max - ebar) ** 2 * compound_density(a, tg0, 1.0, e_max)
    except DegenerateTruncationError:
        dual = 0.0
    return resid - dual


def two_step_u0_optimal(
    a: float,
    b: float,
    q0: float,
    q1: float,
    q2: float,
    delta0: int,
    x0_or_xhat: float,
    threshold: float = 0.5,
    quad: QuadratureSpec = DEFAULT_QUAD,
    scan: tuple[float, float] = (-10.0, 10.0),
    scan_points: int = 41,
    tol: float = 1e-9,
) -> float:
    """Solve the first-step stationarity condition for u0.

    Scans the window for a sign change of the residual, then hands the
    bracket to the guarded root finder.  Raises BracketingError when no sign
    change exists in the window.
    """

    def residual(u0: float) -> float:
        return two_step_stationarity_residual(
            a, b, q0, q1, q2, delta0, x0_or_xhat, u0,
            threshold=threshold, quad=quad,
        )

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
