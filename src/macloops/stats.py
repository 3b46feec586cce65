"""Scalar Gaussian machinery: densities, one-sided truncated moments, the
compound (truncated-source plus Gaussian noise) density, adaptive quadrature
and bracketed root finding.

Single truncations and the compound density are closed forms (via erf/erfc);
the compound density is the extended skew-normal of Azzalini (1985).  The
one quadrature level left takes the compound density's conditional moments,
and serves the tests as an independent cross-check of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    BracketingError,
    ConfigurationError,
    DegenerateTruncationError,
    NumericalError,
    QuadratureError,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

# Conditioning probabilities below this are treated as degenerate.
MIN_TRUNCATION_PROB = 1e-12
# Integration window, in standard deviations around the integrand's natural
# center; integrands here decay like Gaussians, so +/-10 sigma leaves tail
# mass around 1e-23, far below the default tolerance.
QUAD_WINDOW = (-10.0, 10.0)
# Panels the adaptive Simpson integrator may examine before it gives up.
QUAD_MAX_SUBDIVISIONS = 20000


def std_normal_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def std_normal_cdf(x: float) -> float:
    """Standard normal distribution function, accurate in both tails."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_pdf(x: float, mean: float = 0.0, var: float = 1.0) -> float:
    """Density of N(mean, var) at x."""
    if var <= 0.0:
        raise ConfigurationError(f"variance must be positive, got {var}")
    s = math.sqrt(var)
    z = (x - mean) / s
    return math.exp(-0.5 * z * z) / (s * _SQRT_2PI)


@dataclass(frozen=True)
class TruncatedGaussian:
    """A Gaussian X ~ N(mean, var) conditioned on X < upper."""

    mean: float
    var: float
    upper: float

    def __post_init__(self):
        if not (self.var > 0.0 and math.isfinite(self.var)):
            raise ConfigurationError(f"var must be positive and finite, got {self.var}")
        if not (math.isfinite(self.mean) and math.isfinite(self.upper)):
            raise ConfigurationError("mean and upper bound must be finite")
        if self.keep_prob() <= 0.0:
            raise ConfigurationError(
                "truncation keeps no probability mass "
                f"(upper={self.upper}, mean={self.mean}, var={self.var})"
            )

    @property
    def sigma(self) -> float:
        return math.sqrt(self.var)

    def keep_prob(self) -> float:
        """Pr(X < upper) under the untruncated Gaussian."""
        return std_normal_cdf((self.upper - self.mean) / self.sigma)

    def pdf(self, x: float) -> float:
        """Density of the truncated variable (zero above the bound)."""
        if x >= self.upper:
            return 0.0
        return normal_pdf(x, self.mean, self.var) / self.keep_prob()


@dataclass(frozen=True)
class QuadratureSpec:
    """The absolute tolerance of the adaptive Simpson integrator."""

    tol: float = 1e-8

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ConfigurationError(f"tolerance must be positive, got {self.tol}")


DEFAULT_QUAD = QuadratureSpec()


def integrate(f, lo: float, hi: float, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Adaptive Simpson integration of f over [lo, hi].

    Panels are bisected until the Richardson error estimate of each panel
    falls under its share of the absolute tolerance.  Raises QuadratureError
    if more than QUAD_MAX_SUBDIVISIONS panels are needed.
    """
    if hi <= lo:
        return 0.0
    flo, fhi = f(lo), f(hi)
    mid = 0.5 * (lo + hi)
    fmid = f(mid)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    # stack entries: (a, b, fa, fm, fb, simpson(a,b), tol share)
    stack = [(lo, hi, flo, fmid, fhi, whole, spec.tol)]
    total = 0.0
    used = 0
    while stack:
        a, b, fa, fm, fb, s_ab, tol = stack.pop()
        used += 1
        if used > QUAD_MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"quadrature did not converge within {QUAD_MAX_SUBDIVISIONS} subdivisions"
            )
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        s_left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        s_right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = s_left + s_right - s_ab
        if abs(err) <= 15.0 * tol or (b - a) < 1e-14 * max(1.0, abs(a)):
            total += s_left + s_right + err / 15.0
        else:
            half = 0.5 * tol
            stack.append((a, m, fa, flm, fm, s_left, half))
            stack.append((m, b, fm, frm, fb, s_right, half))
    return total


def truncated_moments(tg: TruncatedGaussian) -> tuple[float, float]:
    """Mean and variance of X ~ N(mean, var) given X < upper, in closed form.

    Uses the standard hazard-ratio identities; erfc keeps the ratio stable
    deep into the lower tail.  Raises DegenerateTruncationError when the
    kept probability falls below MIN_TRUNCATION_PROB.
    """
    alpha = (tg.upper - tg.mean) / tg.sigma
    keep = std_normal_cdf(alpha)
    if keep < MIN_TRUNCATION_PROB:
        raise DegenerateTruncationError(
            f"truncation keeps probability {keep:.3e} < {MIN_TRUNCATION_PROB}"
        )
    lam = std_normal_pdf(alpha) / keep
    mean = tg.mean - tg.sigma * lam
    var = tg.var * (1.0 - alpha * lam - lam * lam)
    return mean, var


def compound_density(a: float, tg: TruncatedGaussian, noise_var: float, eps: float) -> float:
    """Density at eps of e = a*X + W with X the truncated Gaussian and
    W ~ N(0, noise_var) independent.

    In closed form, the extended skew-normal of Azzalini (1985): the
    untruncated law of e times Pr(X < upper | e) / Pr(X < upper), where X
    given e is Gaussian with mean m(e) and variance v*s2/(a^2 v + s2).
    a == 0 collapses exactly to the noise density.
    """
    if not noise_var > 0.0:
        raise ConfigurationError(f"noise_var must be positive, got {noise_var}")
    if a == 0.0:
        return normal_pdf(eps, 0.0, noise_var)
    mu, v = tg.mean, tg.var
    e_var = a * a * v + noise_var
    m = mu + a * v * (eps - a * mu) / e_var
    sigma_star = math.sqrt(v * noise_var / e_var)
    return (normal_pdf(eps, a * mu, e_var)
            * std_normal_cdf((tg.upper - m) / sigma_star) / tg.keep_prob())


def conditional_moments_compound(
    a: float,
    tg: TruncatedGaussian,
    noise_var: float,
    upper: float,
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> tuple[float, float]:
    """Mean and variance of e = a*X + W conditioned on e < upper.

    The three moment integrals run over the closed-form compound_density
    with `spec`.  The window is QUAD_WINDOW standard deviations of the
    untruncated law of e, clipped at `upper`: the compound density is at most
    that law's density over Pr(X < tg.upper), so the tails it leaves out stay
    negligible.  It is also clipped where the truncation factor of the
    density falls below Phi(QUAD_WINDOW[0]), so that a deep truncation, whose
    mass sits in a narrow band at that edge, is not missed by the first
    quadrature nodes.
    """
    if not noise_var > 0.0:
        raise ConfigurationError(f"noise_var must be positive, got {noise_var}")
    if a == 0.0:
        return truncated_moments(TruncatedGaussian(0.0, noise_var, upper))
    center = a * tg.mean
    e_var = a * a * tg.var + noise_var
    sigma_star = math.sqrt(tg.var * noise_var / e_var)
    # the density divides by sigma_star, the window's cut by a * var
    if not (sigma_star > 0.0 and a * tg.var != 0.0):
        raise NumericalError(
            f"a = {a} with var = {tg.var} and noise_var = {noise_var} puts the law of "
            f"a*X + W out of floating-point range (a^2 var + noise_var = {e_var})"
        )
    sd = math.sqrt(e_var)
    lo = center + QUAD_WINDOW[0] * sd
    hi = min(upper, center + QUAD_WINDOW[1] * sd)
    cut = center + e_var * (tg.upper - tg.mean - QUAD_WINDOW[0] * sigma_star) / (a * tg.var)
    if a > 0.0:
        hi = min(hi, cut)
    else:
        lo = max(lo, cut)
    if hi <= lo:
        raise DegenerateTruncationError(
            f"conditioning bound {upper} lies below the support window [{lo}, {hi}]"
        )

    def dens(e: float) -> float:
        return compound_density(a, tg, noise_var, e)

    mass = integrate(dens, lo, hi, spec)
    if mass < MIN_TRUNCATION_PROB:
        raise DegenerateTruncationError(
            f"conditioning probability {mass:.3e} < {MIN_TRUNCATION_PROB}"
        )
    mean = integrate(lambda e: e * dens(e), lo, hi, spec) / mass
    var = integrate(lambda e: (e - mean) ** 2 * dens(e), lo, hi, spec) / mass
    return mean, var


def find_root(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Root of f in [lo, hi] by bisection refined with secant steps.

    The bracket is maintained at every step, so convergence is guaranteed;
    secant candidates are only accepted when they fall strictly inside the
    current bracket.  Stops when |f| <= tol or the bracket width <= tol.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketingError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )
    width_two_ago = math.inf
    width_one_ago = hi - lo
    for _ in range(max_iter):
        width = hi - lo
        if width <= tol:
            return 0.5 * (lo + hi)
        x = None
        # Secant steps are only allowed while the bracket keeps halving;
        # otherwise fall back to bisection so termination stays guaranteed.
        if fhi != flo and width <= 0.5 * width_two_ago:
            cand = hi - fhi * (hi - lo) / (fhi - flo)
            margin = 0.01 * width
            if lo + margin < cand < hi - margin:
                x = cand
        if x is None:
            x = 0.5 * (lo + hi)
        width_two_ago, width_one_ago = width_one_ago, width
        fx = f(x)
        if abs(fx) <= tol:
            return x
        if flo * fx < 0.0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
    return 0.5 * (lo + hi)
