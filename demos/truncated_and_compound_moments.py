"""Truncated-Gaussian moments three ways: closed form, quadrature, sampling.

Also evaluates the compound density of a*X + W (X truncated, W Gaussian),
checks by quadrature that it integrates to one, and prints its conditional
moments under an extra upper bound, in closed form as the moments of a
truncated bivariate normal: the machinery behind the two-step posterior.
"""

import numpy as np

from macloops import (
    QuadratureSpec,
    TruncatedGaussian,
    compound_density,
    conditional_moments_compound,
    integrate,
    truncated_moments,
)


def main():
    tg = TruncatedGaussian(mean=0.0, var=1.0, upper=0.5)
    mean, var = truncated_moments(tg)
    print(f"X ~ N(0,1) | X < 0.5")
    print(f"  closed form      mean {mean:+.9f}   var {var:.9f}")

    spec = QuadratureSpec(tol=1e-10)
    z = integrate(tg.pdf, -12.0, tg.upper, spec)
    qmean = integrate(lambda x: x * tg.pdf(x), -12.0, tg.upper, spec) / z
    qvar = integrate(lambda x: (x - qmean) ** 2 * tg.pdf(x), -12.0, tg.upper, spec) / z
    print(f"  quadrature       mean {qmean:+.9f}   var {qvar:.9f}")

    rng = np.random.default_rng(0)
    draws = rng.standard_normal(2_000_000)
    draws = draws[draws < 0.5]
    print(f"  rejection sample mean {draws.mean():+.9f}   var {draws.var(ddof=1):.9f} "
          f"(n={draws.size})")

    print("\ncompound e = X + W with W ~ N(0,1):")
    print(f"  density at 0: {compound_density(1.0, tg, 1.0, 0.0):.9f}")
    mass = integrate(lambda e: compound_density(1.0, tg, 1.0, e),
                     -15.0, 15.0, QuadratureSpec(tol=1e-8))
    print(f"  total mass:   {mass:.9f}")
    cmean, cvar = conditional_moments_compound(1.0, tg, 1.0, 0.5)
    print(f"  e | e < 0.5:  mean {cmean:+.9f}   var {cvar:.9f}")


if __name__ == "__main__":
    main()
