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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BracketingError, ConfigurationError, DegenerateTruncationError,
                     NumericalError)
from .model import _integer, _real, lq_matrices
from .stats import (
    QuadratureSpec,
    TruncatedGaussian,
    _standard_truncated_moments,
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

    The five matrices may also be stacks of P problems of equal n and m, as
    (P, n, n), (P, n, m) and (P, m, m) arrays, which `lq_matrices` checks in
    the same one call; all P run in one recursion over the leading problem
    axis, and the solution's arrays carry it.  Each problem's S, L and W
    have the bits of its solve alone.
    """
    A, B, Q0, Q1, Q2 = lq_matrices(A, B, Q0, Q1, Q2)
    lead = A.shape[:-2]   # (P,) for a stack, () for one problem
    A, B, Q0, Q1, Q2 = (mat.reshape((-1,) + mat.shape[-2:]) for mat in (A, B, Q0, Q1, Q2))
    horizon = _integer(horizon, "horizon", "a positive integer", 1)
    count, n, m = B.shape
    S = np.empty((count, horizon + 1, n, n))
    L = np.empty((count, horizon, m, n))
    W = np.empty((count, horizon, n, n))
    S[:, horizon] = Q0
    At, Bt = A.swapaxes(-1, -2), B.swapaxes(-1, -2)
    # overflow is reported below as a NumericalError, not as a warning, and
    # so is a singular G, whose cond divides by a zero eigenvalue
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(horizon - 1, -1, -1):
            S_next = S[:, k + 1]
            BtS, AtS = Bt @ S_next, At @ S_next
            G = Q2 + BtS @ B
            # G is symmetric positive definite, so its 2-norm condition number
            # is the ratio of its extreme eigenvalues (eigvalsh is cheaper than
            # an SVD); an eigenvalue that is not positive means G is singular.
            # A 1 x 1 G is its one eigenvalue: cond is 1 if G is finite and
            # positive, else not finite.
            if m == 1:
                g = G[:, 0, 0]
                cond = np.where(g > 0.0, g / g, np.inf)
            else:
                try:
                    eig = np.linalg.eigvalsh(G)
                    cond = np.where(eig[:, 0] > 0.0, eig[:, -1] / eig[:, 0], np.inf)
                except np.linalg.LinAlgError:
                    cond = np.full(count, np.inf)
            bad = ~(cond <= 1e14)
            if bad.any():
                raise NumericalError(
                    f"Q2 + B'SB numerically singular at step {k} "
                    f"(cond={cond[bad.argmax()]:.2e})"
                )
            L_k = L[:, k] = np.linalg.solve(G, BtS @ A)
            W[:, k] = L_k.swapaxes(-1, -2) @ G @ L_k
            Sk = Q1 + AtS @ A - AtS @ B @ L_k
            if not np.isfinite(Sk).all():
                raise NumericalError(f"S_{k} is not finite: the dynamics overflow")
            S[:, k] = 0.5 * (Sk + Sk.swapaxes(-1, -2))
    return RiccatiSolution(*(arr.reshape(lead + arr.shape[1:]) for arr in (S, L, W)))


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


def _two_step(a, b, q0, q1, q2, delta0, x0_or_xhat, threshold) -> tuple:
    """The scalar two-step problem checked by the rule that
    `two_step_stationarity_residual` states, as a plain tuple, which every
    residual builds: the seven scalars as floats and delta0 as an int, s1,
    the silent prior N(0, 1) truncated at the threshold (or None), the step-0
    estimate xhat00, and the residual's factors gain, offset, probe and base,
    which `_certain_lead` shares."""
    # floats, q0 and q1 >= 0, q2 > 0 (lq_matrices' rule) and delta0 0 or 1 pass at once
    if not (type(a) is type(b) is type(q0) is type(q1) is type(q2) is type(x0_or_xhat)
            is type(threshold) is float and q0 >= 0.0 and q1 >= 0.0 and q2 > 0.0
            and type(delta0) is int and 0 <= delta0 <= 1):
        a, b, q0, q1, q2, x0_or_xhat, threshold = map(
            _real, (a, b, q0, q1, q2, x0_or_xhat, threshold),
            ("a", "b", "q0", "q1", "q2", "x0_or_xhat", "threshold"))
        for name, value, strict in (("q0", q0, False), ("q1", q1, False), ("q2", q2, True)):
            if value < 0.0 or (strict and value == 0.0):
                raise ConfigurationError(f"{name} must be {'>' if strict else '>='} 0, "
                                         f"got {value}", field=name)
        delta0 = _integer(delta0, "delta0", "0 or 1", 0, 2)
    s1 = two_step_s1(a, b, q0, q1, q2)
    if not math.isfinite(s1):
        raise NumericalError(f"s1 is not finite: the one-step Riccati update overflows ({s1})")
    if delta0:
        prior, xhat00, base = None, x0_or_xhat, threshold - a * x0_or_xhat
    else:
        prior, base = TruncatedGaussian(0.0, 1.0, threshold), threshold
        xhat00, _ = truncated_moments(prior)
    probe = (a * a * q0 * q0 * b * b) / (q2 + b * b * q0) * b
    return (a, b, q0, q1, q2, delta0, x0_or_xhat, threshold, s1, prior,
            xhat00, q2 + b * b * s1, 2.0 * xhat00 * a * b * s1, probe, base)


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

    The scalars are checked by the one rule the solver and `macloops
    two-step` share (`_two_step`): a bool or a non-real value, a q0 or
    q1 < 0, a q2 <= 0 or a delta0 other than 0 or 1 raises a
    ConfigurationError whose `field` names it, as does a non-real u0.  An s1
    that is not finite raises NumericalError, and a NaN noise bound (from a
    NaN u0, x0_or_xhat or threshold) a ConfigurationError naming `upper`.
    """
    a, b, _, _, _, delta0, _, _, _, prior, _, gain, offset, probe, base = _two_step(
        a, b, q0, q1, q2, delta0, x0_or_xhat, threshold)
    if type(u0) is not float:
        u0 = _real(u0, "u0")
    resid, bound = 2.0 * u0 * gain + offset, base - b * u0
    if math.isnan(bound):
        raise ConfigurationError(f"upper must be finite, got {bound}", field="upper")
    density = std_normal_pdf(bound) if delta0 else compound_density(a, prior, 1.0, bound)
    if density == 0.0:
        # no probing term, and (bound - mean) ** 2 below may overflow
        return resid
    try:
        mean = (_standard_truncated_moments(bound) if delta0
                else conditional_moments_compound(a, prior, 1.0, bound))[0]
    except DegenerateTruncationError:
        return resid
    return resid - probe * (bound - mean) ** 2 * density


def _certain_lead(grid: list[float], problem: tuple) -> int:
    """Index of the last of the grid's leading points at which the delivered
    residual is certain to be nonzero and of one sign, or 0.

    The delivered residual is resid - probe*F(beta), where resid is its
    linear CE part, beta the noise bound and F(beta) = (beta - m)^2 phi(beta)
    with m = E[Z | Z < beta]; each of its early returns gives resid itself.
    F is below 1 for every beta (`tests/test_control.py` checks the computed
    F on a dense grid):
    - for beta >= 0, m lies in [-sqrt(2/pi), 0), so F <= (beta + 0.8)^2 phi(beta) <= 0.79;
    - for beta < 0, 0 < beta - m < sqrt(2/pi), so F < (2/pi) phi(0) < 0.26.
    Where phi(beta) > 0, beta < 38.6 and (beta - m)^2 < 2e3, so the
    residual's product probe*(beta - m)^2 stays finite while |probe|*2e3
    does.  Then at a point whose resid and bound are finite and whose
    |resid| > |probe|, the computed residual is nonzero with the sign of
    resid.  resid and the bound are computed with the residual's own
    expressions, from the problem's own factors, so they have its bits.
    """
    _, b, *_, gain, offset, probe, base = problem
    reach = abs(probe)
    if not reach * 2e3 < math.inf:
        return 0
    last, side = 0, None
    for i, u0 in enumerate(grid):
        resid = 2.0 * u0 * gain + offset
        if not (reach < abs(resid) < math.inf and math.isfinite(base - b * u0)):
            break
        if i and (resid > 0.0) != side:
            break
        last, side = i, resid > 0.0
    return last


def _scan_window(scan) -> tuple[float, float]:
    """`scan` as two Python floats lo < hi, both finite; anything else raises
    a ConfigurationError whose `field` is `scan`."""
    try:
        lo, hi = (_real(end, "scan") for end in scan)
    except (TypeError, ValueError, ConfigurationError):
        pass
    else:
        if -math.inf < lo < hi < math.inf:
            return lo, hi
    raise ConfigurationError(f"scan must be two finite numbers lo < hi, got {scan!r}",
                             field="scan")


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

    The scalars are checked once, on entry, by the residual's rule, and
    taken as Python floats that every residual and root-finder step runs on:
    ints and numpy scalars give the bits of the equal floats, and the result
    is a float.  A `tol` that is not positive and finite, a `scan_points`
    that is not an integer >= 2 and a `scan` that is not two finite numbers
    lo < hi also raise a ConfigurationError whose `field` names it.  A NaN
    x0_or_xhat or threshold reaches the residual's `upper` check.

    Scans the window's `scan_points` evenly spaced points from the left and
    stops at the first exact zero of the residual, which it returns, or at
    the first sign change, whose bracket and its two known residuals go to
    the guarded root finder; the points beyond are never evaluated.  Raises
    BracketingError when no sign change exists in the window.  The default
    window follows the problem's scale: it is centred on the CE input, which
    grows with |a|, with half-width max(10, |u0_ce|); a window edge that is
    not finite raises NumericalError.

    On the delivered branch (delta0 = 1) the scan also skips leading points
    whose residual sign is certain: where the residual's linear CE part
    exceeds |coef*b| in size, the probing term cannot reach it
    (`_certain_lead`).  While the leading points are such points of one sign,
    none of them is a zero or ends a sign change, so the scan starts
    evaluating at the last of them, and its bracket, residuals and root are
    those of a scan that evaluates every point.  The silent branch evaluates
    every point up to its first sign change.

    `quad` is accepted and ignored: the residual is a closed form and runs
    no quadrature.  The keyword stays only because benchmark/workloads.py
    still passes one.
    """
    problem = _two_step(a, b, q0, q1, q2, delta0, x0_or_xhat, threshold)
    a, b, q0, q1, q2, delta0, x0_or_xhat, threshold, s1, _, xhat00 = problem[:11]
    if scan is not None:
        scan = _scan_window(scan)
    scan_points = _integer(scan_points, "scan_points", "an integer >= 2", 2)
    tol = _real(tol, "tol")
    if not 0.0 < tol < math.inf:
        raise ConfigurationError(f"tol must be positive and finite, got {tol}", field="tol")

    def residual(u0: float) -> float:
        return two_step_stationarity_residual(a, b, q0, q1, q2, delta0, x0_or_xhat, u0, threshold)

    if scan is None:
        u0_ce = ce_u0(a, b, s1, q2, xhat00)
        half = max(10.0, abs(u0_ce))
        scan = (u0_ce - half, u0_ce + half)
        # a NaN or infinite u0_ce makes an edge NaN or infinite too
        if not -math.inf < scan[0] < scan[1] < math.inf:
            raise NumericalError(f"the certainty-equivalent input overflows: {u0_ce} "
                                 f"(its scan window is {scan})")
    grid = np.linspace(scan[0], scan[1], scan_points).tolist()
    start = _certain_lead(grid, problem) if delta0 else 0
    lo = grid[start]
    flo = residual(lo)
    for hi in grid[start + 1:]:
        if flo == 0.0:
            return lo
        fhi = residual(hi)
        if flo * fhi < 0.0:
            return find_root(residual, lo, hi, tol=tol, ends=(flo, fhi))
        lo, flo = hi, fhi
    if flo == 0.0:
        return lo
    raise BracketingError(
        f"no sign change of the stationarity residual in [{scan[0]}, {scan[1]}]"
    )
