"""Independent reference computations for the benchmark's output checks.

Written with numpy and the standard library only; nothing here imports
macloops, so a fault in the program cannot leak into the value it is
checked against.

* ``tagged_success_probability`` / ``loop_success_rates``: the exact
  contention-round chain of p-persistent CSMA for k symmetric contenders
  (the finite-window, non-saturated analogue of Bianchi, IEEE JSAC 2000),
  averaged over the Binomial number of active Bernoulli sources.
* ``silent_residual`` / ``silent_root``: the two-step stationarity residual
  of the silent branch (delta0 = 0) from the extended skew-normal density
  of e = aX + W (Azzalini, Scand. J. Statist. 1985), with the conditional
  moments taken on a dense Simpson grid.
* ``delivered_residual`` / ``delivered_roots``: the delta0 = 1 residual
  from ``math.erfc``.
* ``first_step_divergence_probability``: the probability that the
  certainty-equivalent and the zero law first request differently at step 1
  under the half-line scheduler, as a one-dimensional integral.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT2PI


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_cdf_array(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) / _SQRT2), dtype=float)


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule on an even number of equal panels."""
    n = y.size - 1
    if n < 2 or n % 2:
        raise ValueError("simpson needs an odd number of equally spaced points")
    h = (x[-1] - x[0]) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


# ---------------------------------------------------------------------------
# contention
# ---------------------------------------------------------------------------

def tagged_success_probability(k: int, persistence, slots: int) -> float:
    """Probability that one of k symmetric contenders delivers in a round.

    The chain's state is (slot, number of pending contenders on each attempt
    level).  In a mini-slot each pending contender on attempt r transmits
    with probability persistence[r-1]; a lone transmitter delivers and
    leaves, two or more all move up one attempt, and a contender that
    collides on the last attempt is dropped.  The expected number of
    deliveries divided by k is the tagged contender's success probability.
    """
    if k < 1:
        raise ValueError("need at least one contender")
    pers = tuple(float(p) for p in persistence)
    return _expected_successes(pers, int(slots), 1, (int(k),) + (0,) * (len(pers) - 1)) / k


@lru_cache(maxsize=None)
def _binom_pmf(n: int, p: float) -> tuple:
    return tuple(math.comb(n, t) * p ** t * (1.0 - p) ** (n - t) for t in range(n + 1))


@lru_cache(maxsize=None)
def _expected_successes(pers: tuple, slots: int, slot: int, counts: tuple) -> float:
    if slot > slots or not any(counts):
        return 0.0
    levels = len(pers)
    pmfs = [_binom_pmf(n, p) for n, p in zip(counts, pers)]
    value = 0.0

    def walk(level: int, prob: float, sent: tuple):
        nonlocal value
        if prob == 0.0:
            return
        if level == levels:
            total = sum(sent)
            if total == 0:
                nxt = counts
                gain = 0.0
            elif total == 1:
                nxt = tuple(n - t for n, t in zip(counts, sent))
                gain = 1.0
            else:
                moved = [n - t for n, t in zip(counts, sent)]
                for r in range(levels - 1):
                    moved[r + 1] += sent[r]
                nxt = tuple(moved)
                gain = 0.0
            value += prob * (gain + _expected_successes(pers, slots, slot + 1, nxt))
            return
        for t, pt in enumerate(pmfs[level]):
            walk(level + 1, prob * pt, sent + (t,))

    walk(0, 1.0, ())
    return value


def sampling_ticks(period: int, phase: int, horizon: int) -> list[int]:
    return [phase + k * period for k in range(horizon)]


def loop_success_rates(loops, persistence, slots: int, n_sources: int, rate: float):
    """Expected success rate of each always-requesting loop.

    `loops` lists (period, phase, horizon).  At each of a loop's sampling
    ticks the contenders are the loops sampling at that tick plus a
    Binomial(n_sources, rate) number of active sources; the loop's rate is
    the mean of its per-tick success probabilities.
    """
    sampling = {}
    for period, phase, horizon in loops:
        for t in sampling_ticks(period, phase, horizon):
            sampling[t] = sampling.get(t, 0) + 1
    src_pmf = _binom_pmf(int(n_sources), float(rate))
    per_tick = {}
    for t, m in sampling.items():
        per_tick[t] = sum(
            pb * tagged_success_probability(m + b, persistence, slots)
            for b, pb in enumerate(src_pmf)
        )
    return [
        float(np.mean([per_tick[t] for t in sampling_ticks(*lp)]))
        for lp in loops
    ]


# ---------------------------------------------------------------------------
# scalar two-step problem
# ---------------------------------------------------------------------------

def riccati_s1(a: float, b: float, q0: float, q1: float, q2: float) -> float:
    return q1 + a * a * q0 - (a * b * q0) ** 2 / (q2 + b * b * q0)


def scalar_first_gain(a: float, b: float, q0: float, q1: float, q2: float, horizon: int) -> float:
    """L_0 of the scalar finite-horizon Riccati recursion from S_N = q0."""
    s = q0
    gain = 0.0
    for _ in range(horizon):
        gain = a * b * s / (q2 + b * b * s)
        s = q1 + a * a * s - a * b * s * gain
    return gain


def esn_density(e, a: float, c: float) -> np.ndarray:
    """Density of e = aX + W, X ~ N(0,1) given X < c, W ~ N(0,1)."""
    e = np.asarray(e, dtype=float)
    v = a * a + 1.0
    base = np.exp(-0.5 * e * e / v) / math.sqrt(2.0 * math.pi * v)
    cond_mean = a * e / v
    cond_sd = 1.0 / math.sqrt(v)
    return base * norm_cdf_array((c - cond_mean) / cond_sd) / norm_cdf(c)


def esn_conditional_mean(a: float, c: float, upper: float, points: int = 8001) -> float:
    """E[e | e < upper] for the density above, by Simpson on a dense grid."""
    lo = -(14.0 * math.sqrt(a * a + 1.0) + 1.0)
    grid = np.linspace(lo, upper, points)
    dens = esn_density(grid, a, c)
    return simpson(grid * dens, grid) / simpson(dens, grid)


def silent_residual(a, b, q0, q1, q2, c, u0) -> float:
    s1 = riccati_s1(a, b, q0, q1, q2)
    xhat00 = -norm_pdf(c) / norm_cdf(c)
    resid = 2.0 * u0 * (q2 + b * b * s1) + 2.0 * xhat00 * a * b * s1
    coef = (a * q0 * b) ** 2 / (q2 + b * b * q0)
    e_max = c - b * u0
    ebar = esn_conditional_mean(a, c, e_max)
    dens = float(esn_density(e_max, a, c))
    return resid - coef * b * (e_max - ebar) ** 2 * dens


def delivered_residual(a, b, q0, q1, q2, c, x0, u0) -> float:
    s1 = riccati_s1(a, b, q0, q1, q2)
    resid = 2.0 * u0 * (q2 + b * b * s1) + 2.0 * x0 * a * b * s1
    coef = (a * q0 * b) ** 2 / (q2 + b * b * q0)
    w = c - a * x0 - b * u0
    pdf = norm_pdf(w)
    if pdf == 0.0:
        return resid
    wbar = -pdf / norm_cdf(w)
    return resid - coef * b * (w - wbar) ** 2 * pdf


def illinois_root(f, lo: float, hi: float, xtol: float = 1e-12, max_iter: int = 200) -> float:
    """Root of f in a sign-changing bracket by the Illinois false-position rule."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    side = 0
    for _ in range(max_iter):
        x = (lo * fhi - hi * flo) / (fhi - flo)
        fx = f(x)
        if fx == 0.0 or hi - lo <= xtol:
            return x
        if fx * fhi > 0.0:
            hi, fhi = x, fx
            if side == -1:
                flo *= 0.5
            side = -1
        else:
            lo, flo = x, fx
            if side == 1:
                fhi *= 0.5
            side = 1
        if min(abs(x - lo), abs(hi - x)) <= xtol and hi - lo <= 10 * xtol:
            return x
    return 0.5 * (lo + hi)


def silent_root(a, b, q0, q1, q2, c, lo, hi) -> tuple[float, float]:
    """Root of the silent-branch residual in [lo, hi] and the residual's slope there."""
    f = lambda u: silent_residual(a, b, q0, q1, q2, c, u)
    root = illinois_root(f, lo, hi, xtol=1e-11)
    h = 1e-4
    slope = (f(root + h) - f(root - h)) / (2.0 * h)
    return root, slope


def delivered_roots(a, b, q0, q1, q2, c, x0, lo=-10.0, hi=10.0, points=2001) -> list[float]:
    """Every root of the delta0 = 1 residual on a fine scan of [lo, hi]."""
    f = lambda u: delivered_residual(a, b, q0, q1, q2, c, x0, u)
    grid = np.linspace(lo, hi, points)
    values = [f(float(u)) for u in grid]
    roots = []
    for i in range(points - 1):
        if values[i] == 0.0:
            roots.append(float(grid[i]))
        elif values[i] * values[i + 1] < 0.0:
            roots.append(illinois_root(f, float(grid[i]), float(grid[i + 1]), xtol=1e-13))
    return roots


def first_step_divergence_probability(a, b, rw, r0, gain0, threshold, points=8001) -> float:
    """P(first request divergence at step 1) for CE versus zero control.

    x0 ~ N(0, r0) is requested and delivered iff x0 >= threshold; then the
    CE input is -gain0 * x0 and the zero law applies nothing, so the two
    step-1 states share w0 ~ N(0, rw) and differ by b * gain0 * x0.  The laws
    diverge iff exactly one of them lies on the request side.  Silent first
    samples leave both estimates at zero, so both laws apply the same input.
    """
    s0, sw = math.sqrt(r0), math.sqrt(rw)
    grid = np.linspace(threshold, threshold + 14.0 * s0, points)
    dens = np.exp(-0.5 * (grid / s0) ** 2) / (s0 * _SQRT2PI)
    ce = norm_cdf_array((threshold - (a - b * gain0) * grid) / sw)
    zero = norm_cdf_array((threshold - a * grid) / sw)
    return simpson(dens * np.abs(ce - zero), grid)
