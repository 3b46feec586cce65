"""Scalar Gaussian machinery: densities, one-sided truncated moments, the
compound (truncated-source plus Gaussian noise) density and its conditional
moments, the bivariate normal distribution function, adaptive quadrature and
bracketed root finding.

Every quantity the two-step analysis needs is a closed form (via erf/erfc):
the compound density is the extended skew-normal of Azzalini (1985), and its
moments under an extra bound are those of a bivariate normal truncated to a
quadrant, Tallis (1961) and Rosenbaum (1961), with the bivariate normal
probability from Genz (2004).  No runtime path integrates numerically; the
adaptive Simpson integrator serves the tests as an independent cross-check
of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

from .errors import (
    BracketingError,
    ConfigurationError,
    DegenerateTruncationError,
    NumericalError,
    QuadratureError,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi

# Conditioning probabilities below this are treated as degenerate.
MIN_TRUNCATION_PROB = 1e-12
# Equal panels the adaptive Simpson integrator starts from, so that a narrow
# peak cannot fall between the five nodes of a single first estimate.
QUAD_START_PANELS = 32
# Panels the adaptive Simpson integrator may examine before it gives up.
QUAD_MAX_SUBDIVISIONS = 20000

# 20-point Gauss-Legendre rule on [-1, 1]: the positive nodes and their
# weights, largest node first (Genz's tables, checked to 1e-17 against an
# mpmath evaluation).  Held as literals, so that importing this module does not
# load numpy.polynomial.
_GL20_X = (0.9931285991850949, 0.9639719272779138, 0.912234428251326,
           0.8391169718222188, 0.7463319064601508, 0.636053680726515,
           0.5108670019508271, 0.37370608871541955, 0.22778585114164507,
           0.07652652113349734)
_GL20_W = (0.017614007139152118, 0.04060142980038694, 0.06267204833410907,
           0.08327674157670475, 0.10193011981724044, 0.11819453196151841,
           0.13168863844917664, 0.14209610931838204, 0.14917298647260374,
           0.15275338713072584)
# (weight, node) pairs of the rule moved to [0, 2], the form BVNU sums over
_BVN_NODES = tuple(zip(_GL20_W * 2, [1.0 - x for x in _GL20_X] + [1.0 + x for x in _GL20_X]))
# A standardized bound beyond this is as good as infinite in every term of the
# compound conditional moments and of Phi2 (phi and Phi saturate near 38).
_SATURATED = 1e3


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
    """A Gaussian X ~ N(mean, var) conditioned on X < upper.

    A bad parameter raises a ConfigurationError whose `field` names it.
    """

    mean: float
    var: float
    upper: float

    def __post_init__(self):
        mean, var, upper = self.mean, self.var, self.upper
        # floats, numpy's included, pass at once: the two-step residuals build many
        if not (isinstance(mean, float) and isinstance(var, float) and isinstance(upper, float)):
            for name, value in (("mean", mean), ("var", var), ("upper", upper)):
                if isinstance(value, bool) or not isinstance(value, Real):
                    raise ConfigurationError(f"{name} must be a number, got {value!r}", field=name)
        if not (var > 0.0 and math.isfinite(var)):
            raise ConfigurationError(f"var must be positive and finite, got {var}", field="var")
        for name in ("mean", "upper"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError("mean and upper bound must be finite", field=name)
        if self.keep_prob() <= 0.0:
            raise ConfigurationError(
                "truncation keeps no probability mass "
                f"(upper={self.upper}, mean={self.mean}, var={self.var})", field="upper"
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

    The interval starts as QUAD_START_PANELS equal panels, each with an equal
    share of the absolute tolerance; panels are bisected until the Richardson
    error estimate of each falls under its share.  Raises QuadratureError if
    more than QUAD_MAX_SUBDIVISIONS panels are needed.
    """
    if hi <= lo:
        return 0.0
    width = (hi - lo) / QUAD_START_PANELS
    edges = [lo + i * width for i in range(QUAD_START_PANELS)] + [hi]
    values = [f(x) for x in edges]
    tol = spec.tol / QUAD_START_PANELS
    # stack entries: (a, b, fa, fm, fb, simpson(a,b), tol share)
    stack = []
    for a, b, fa, fb in zip(edges, edges[1:], values, values[1:]):
        fm = f(0.5 * (a + b))
        stack.append((a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol))
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
    kept probability falls below MIN_TRUNCATION_PROB.  A bound so far above
    the mean that upper - mean overflows keeps all the mass, and gives the
    untruncated moments.
    """
    alpha = (tg.upper - tg.mean) / tg.sigma
    if alpha == math.inf:
        return tg.mean, tg.var
    z_mean, z_var = _standard_truncated_moments(alpha)
    return tg.mean + tg.sigma * z_mean, tg.var * z_var


def _standard_truncated_moments(alpha: float) -> tuple[float, float]:
    """Mean and variance of Z ~ N(0, 1) given Z < alpha, for a finite alpha:
    the standard-normal arithmetic of `truncated_moments`, which callers
    with a standard bound use without building a TruncatedGaussian."""
    keep = std_normal_cdf(alpha)
    if keep < MIN_TRUNCATION_PROB:
        raise DegenerateTruncationError(
            f"truncation keeps probability {keep:.3e} < {MIN_TRUNCATION_PROB}"
        )
    lam = std_normal_pdf(alpha) / keep
    return -lam, 1.0 - alpha * lam - lam * lam


def compound_density(a: float, tg: TruncatedGaussian, noise_var: float, eps: float) -> float:
    """Density at eps of e = a*X + W with X the truncated Gaussian and
    W ~ N(0, noise_var) independent.

    In closed form, the extended skew-normal of Azzalini (1985): the
    untruncated law of e times Pr(X < upper | e) / Pr(X < upper), where X
    given e is Gaussian with mean m(e) and variance v*s2/(a^2 v + s2).
    a == 0 collapses exactly to the noise density.  A noise_var <= 0 or a NaN
    eps raises a ConfigurationError whose `field` names it, and an a that
    puts the law of e out of floating-point range NumericalError.
    """
    if not noise_var > 0.0:
        raise ConfigurationError(f"noise_var must be positive, got {noise_var}", field="noise_var")
    if math.isnan(eps):
        raise ConfigurationError("eps must not be NaN", field="eps")
    if a == 0.0:
        return normal_pdf(eps, 0.0, noise_var)
    mu, v = tg.mean, tg.var
    e_var = a * a * v + noise_var
    m = mu + a * v * (eps - a * mu) / e_var
    sigma_star = math.sqrt(v * noise_var / e_var)
    if not sigma_star > 0.0:
        raise _out_of_range(a, v, noise_var, e_var)
    return (normal_pdf(eps, a * mu, e_var)
            * std_normal_cdf((tg.upper - m) / sigma_star) / tg.keep_prob())


def _out_of_range(a: float, v: float, noise_var: float, e_var: float) -> NumericalError:
    return NumericalError(f"a = {a} with var = {v} and noise_var = {noise_var} puts the law of "
                          f"a*X + W out of floating-point range (a^2 var + noise_var = {e_var})")


def _bvnu(h: float, k: float, rho: float, r: float) -> float:
    """Pr(Z1 > h, Z2 > k) for standard normals with correlation rho.

    A port of Genz's BVNU (Genz 2004, "Numerical computation of rectangular
    bivariate and trivariate normal and t probabilities", Statistics and
    Computing 14:251-260) on the 20-point Gauss-Legendre rule: the
    Drezner-Wesolowsky (1990) integral over the correlation below
    |rho| = 0.925, Genz's expansion in sqrt(1 - rho^2) above.  The caller
    passes r = sqrt(1 - rho^2) > 0 itself, computed without the cancellation
    of 1 - rho^2, and the expansion uses only r and |h - k| / r.  h and k
    must lie within +/-_SATURATED.
    """
    hk = h * k
    if abs(rho) < 0.925:
        hs = 0.5 * (h * h + k * k)
        asr = 0.5 * math.asin(rho)
        total = 0.0
        for w, x in _BVN_NODES:
            sn = math.sin(asr * x)
            total += w * math.exp((sn * hk - hs) / (1.0 - sn * sn))
        bvn = total * asr / _TWO_PI + std_normal_cdf(-h) * std_normal_cdf(-k)
        return max(0.0, min(1.0, bvn))
    if rho < 0.0:
        k, hk = -k, -hk
    b = abs(h - k)
    bs = b * b
    d = b / r
    rs = r * r
    c = (4.0 - hk) / 8.0
    dc = (12.0 - hk) / 80.0
    bvn = 0.0
    asr = -0.5 * (d * d + hk)
    if asr > -100.0:
        bvn = r * math.exp(asr) * (1.0 - c * (bs - rs) * (1.0 - dc * bs) / 3.0
                                   + c * dc * rs * rs)
    if hk > -100.0:
        bvn -= (math.exp(-0.5 * hk) * _SQRT_2PI * std_normal_cdf(-d) * b
                * (1.0 - c * bs * (1.0 - dc * bs) / 3.0))
    half = 0.5 * r
    total = 0.0
    for w, x in _BVN_NODES:
        q = d / (0.5 * x)
        asr = -0.5 * (q * q + hk)
        if asr > -100.0:
            xs = (half * x) ** 2
            root = math.sqrt(1.0 - xs)
            ep = math.exp(-0.5 * hk * xs / (1.0 + root) ** 2) / root
            total += w * math.exp(asr) * (1.0 + c * xs * (1.0 + 5.0 * dc * xs) - ep)
    bvn = (half * total - bvn) / _TWO_PI
    if rho > 0.0:
        bvn += std_normal_cdf(-max(h, k))
    elif h >= k:
        bvn = -bvn
    elif h < 0.0:
        bvn = std_normal_cdf(k) - std_normal_cdf(h) - bvn
    else:
        bvn = std_normal_cdf(-h) - std_normal_cdf(-k) - bvn
    return max(0.0, min(1.0, bvn))


def conditional_moments_compound(
    a: float,
    tg: TruncatedGaussian,
    noise_var: float,
    upper: float,
) -> tuple[float, float]:
    """Mean and variance of e = a*X + W conditioned on e < upper.

    (X, e) is bivariate normal truncated to the quadrant X < tg.upper,
    e < upper, so the moments are closed forms: Tallis (1961), "The moment
    generating function of the truncated multi-normal distribution", and
    Rosenbaum (1961), "Moments of a truncated bivariate normal
    distribution", both J. R. Statist. Soc. B 23.  With X ~ N(mu, v) before
    truncation at c and W ~ N(0, s2), let

        sigma_e^2 = a^2 v + s2,  rho = a sqrt(v) / sigma_e,  r = sqrt(s2 / sigma_e^2),
        h = (c - mu) / sqrt(v),  k = (upper - a mu) / sigma_e,
        P = Phi2(h, k; rho),  t = (k - rho h) / r,
        A = phi(h) Phi(t),  B = phi(k) Phi((h - rho k) / r),
        m1 = -(rho A + B) / P,
        m2 = 1 - (rho^2 h A + k B - rho r phi(h) phi(t)) / P;

    then the mean is a mu + sigma_e m1 and the variance sigma_e^2 (m2 - m1^2).
    r equals sqrt(1 - rho^2) but is taken from the noise share, which keeps
    it exact where 1 - rho^2 rounds to 0 (|a| of 1e8 and beyond); Phi2 is
    _bvnu with the same r.  Raises DegenerateTruncationError when
    Pr(e < upper | X < c) = P / Phi(h) falls below MIN_TRUNCATION_PROB, and
    NumericalError when the law of e leaves floating-point range.  A
    noise_var <= 0 or a NaN upper raises a ConfigurationError naming it.
    """
    if not noise_var > 0.0:
        raise ConfigurationError(f"noise_var must be positive, got {noise_var}", field="noise_var")
    if math.isnan(upper):
        raise ConfigurationError("upper must not be NaN", field="upper")
    if a == 0.0:
        return truncated_moments(TruncatedGaussian(0.0, noise_var, upper))
    mu, v = tg.mean, tg.var
    e_var = a * a * v + noise_var
    r = math.sqrt(noise_var / e_var)
    # the formulas divide by r, compound_density at the same law divides by
    # sigma_star, and a * var == 0 means the X part of e has underflowed
    sigma_star = math.sqrt(v * noise_var / e_var)
    if not (r > 0.0 and sigma_star > 0.0 and a * v != 0.0 and math.isfinite(a * mu)):
        raise _out_of_range(a, v, noise_var, e_var)
    sd = math.sqrt(e_var)
    rho = a * tg.sigma / sd
    # clipping changes no digit and keeps a bound that overflowed to inf out
    # of the products below (h is above -38: tg keeps some mass)
    h = min((tg.upper - mu) / tg.sigma, _SATURATED)
    k = min(max((upper - a * mu) / sd, -_SATURATED), _SATURATED)
    P = _bvnu(-h, -k, rho, r)
    mass = P / tg.keep_prob()
    if mass < MIN_TRUNCATION_PROB:
        raise DegenerateTruncationError(
            f"conditioning probability {mass:.3e} < {MIN_TRUNCATION_PROB}"
        )
    ph = std_normal_pdf(h)
    t = (k - rho * h) / r
    A = ph * std_normal_cdf(t)
    B = std_normal_pdf(k) * std_normal_cdf((h - rho * k) / r)
    m1 = -(rho * A + B) / P
    m2 = 1.0 - (rho * rho * h * A + k * B - rho * r * ph * std_normal_pdf(t)) / P
    return a * mu + sd * m1, e_var * (m2 - m1 * m1)


def find_root(f, lo: float, hi: float, tol: float = 1e-10, *,
              ends: tuple[float, float] | None = None) -> float:
    """Root of f in [lo, hi] by bisection refined with secant steps.

    The bracket is maintained at every step, so convergence is guaranteed;
    secant candidates are only accepted when they fall strictly inside the
    current bracket.  Stops when |f| <= tol, the bracket width <= tol or
    after 200 steps, at the bracket's midpoint.  A caller that already knows
    f(lo) and f(hi) passes them as `ends`, and f is not called at lo or hi.
    """
    flo, fhi = (f(lo), f(hi)) if ends is None else ends
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
    for _ in range(200):
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
