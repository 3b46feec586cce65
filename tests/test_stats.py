"""Scalar-Gaussian machinery: closed forms against quadrature and Monte Carlo
rejection oracles."""

import math

import numpy as np
import pytest

from macloops import stats
from macloops.cli import main
from macloops.control import two_step_stationarity_residual, two_step_u0_optimal
from macloops.errors import (
    BracketingError,
    ConfigurationError,
    DegenerateTruncationError,
    NumericalError,
    QuadratureError,
)
from macloops.estimation import two_step_posterior
from macloops.stats import (
    QuadratureSpec,
    TruncatedGaussian,
    compound_density,
    conditional_moments_compound,
    find_root,
    integrate,
    normal_pdf,
    std_normal_cdf,
    std_normal_pdf,
    truncated_moments,
)
from test_control import U0_OPT_SILENT

# frozen from the quadrature oracle below (cross-checked to 1e-12 by an
# independent high-precision evaluation)
TRUNC_MEAN_AT_HALF = -0.5091604338370335
TRUNC_VAR_AT_HALF = 0.4861754356963671
COND_MEAN_AT_HALF = -0.936118636761405
COND_VAR_AT_HALF = 0.911291755765617


def quad_truncated_moments(tg: TruncatedGaussian, tol=1e-10):
    """Independent oracle: moments of the truncated density by quadrature."""
    spec = QuadratureSpec(tol=tol)
    lo = tg.mean - 12.0 * tg.sigma
    z = integrate(lambda x: tg.pdf(x), lo, tg.upper, spec)
    mean = integrate(lambda x: x * tg.pdf(x), lo, tg.upper, spec) / z
    var = integrate(lambda x: (x - mean) ** 2 * tg.pdf(x), lo, tg.upper, spec) / z
    return mean, var


class TestDensities:
    def test_pdf_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_cdf_symmetry(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_cdf_against_erf(self):
        for x in (-3.0, -0.5, 0.5, 1.7, 4.0):
            ref = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
            assert std_normal_cdf(x) == pytest.approx(ref, abs=1e-15)
        assert std_normal_cdf(0.5) == pytest.approx(0.6914624612740131, abs=1e-12)

    def test_normal_pdf_scaling(self):
        assert normal_pdf(1.0, 1.0, 4.0) == pytest.approx(std_normal_pdf(0.0) / 2.0)

    def test_normal_pdf_rejects_bad_variance(self):
        with pytest.raises(ConfigurationError) as info:
            normal_pdf(0.0, 0.0, 0.0)
        assert info.value.field == "var"

    @pytest.mark.parametrize("var", [-1.0, math.nan, math.inf, True, "1"])
    def test_normal_pdf_names_a_variance_not_positive_and_finite(self, var):
        with pytest.raises(ConfigurationError) as info:
            normal_pdf(0.0, 0.0, var)
        assert info.value.field == "var"


class TestIntegrate:
    def test_polynomial(self):
        assert integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_gaussian_mass(self):
        assert integrate(std_normal_pdf, -10.0, 10.0) == pytest.approx(1.0, abs=1e-9)

    def test_empty_interval(self):
        assert integrate(lambda x: 1.0, 1.0, 1.0) == 0.0

    def test_narrow_peak_off_the_first_nodes(self):
        # the mass sits within about 1 of the upper end of a 12.5-wide
        # interval, between the nodes of a single first Simpson estimate
        tg = TruncatedGaussian(0.0, 1.0, 0.5)
        got = integrate(lambda x: tg.pdf(x) * std_normal_pdf(-3.0 + 2.0 * x),
                        -12.0, 0.5, QuadratureSpec(tol=1e-12))
        assert got == pytest.approx(compound_density(-2.0, tg, 1.0, -3.0), abs=1e-12)
        assert got == pytest.approx(6.1644e-3, abs=1e-7)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, True, "1e-8"])
    def test_bad_tolerance_names_tol(self, tol):
        with pytest.raises(ConfigurationError) as info:
            QuadratureSpec(tol=tol)
        assert info.value.field == "tol"

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(stats, "QUAD_MAX_SUBDIVISIONS", 4)
        spec = QuadratureSpec(tol=1e-14)
        with pytest.raises(QuadratureError):
            integrate(lambda x: math.sin(50.0 * x), 0.0, 10.0, spec)


class TestTruncatedMoments:
    def test_half_bound_at_zero(self):
        mean, _ = truncated_moments(TruncatedGaussian(0.0, 1.0, 0.0))
        assert mean == pytest.approx(-math.sqrt(2.0 / math.pi), abs=1e-12)

    def test_against_quadrature_oracle(self):
        tg = TruncatedGaussian(0.0, 1.0, 0.5)
        mean, var = truncated_moments(tg)
        qmean, qvar = quad_truncated_moments(tg)
        assert mean == pytest.approx(qmean, abs=1e-6)
        assert var == pytest.approx(qvar, abs=1e-6)
        assert mean == pytest.approx(TRUNC_MEAN_AT_HALF, abs=1e-9)
        assert var == pytest.approx(TRUNC_VAR_AT_HALF, abs=1e-9)

    def test_oracle_agreement_off_standard(self):
        tg = TruncatedGaussian(1.3, 2.7, 2.1)
        mean, var = truncated_moments(tg)
        qmean, qvar = quad_truncated_moments(tg)
        assert mean == pytest.approx(qmean, abs=1e-6)
        assert var == pytest.approx(qvar, abs=1e-6)

    def test_far_tail_bound_is_untouched(self):
        mean, var = truncated_moments(TruncatedGaussian(0.0, 1.0, 10.0))
        assert abs(mean) < 1e-9
        assert abs(var - 1.0) < 1e-9

    @pytest.mark.parametrize("tg", [TruncatedGaussian(-1e308, 1.0, 1e308),
                                    TruncatedGaussian(0.0, 1e-300, 1e300)],
                             ids=["overflowing-gap", "overflowing-ratio"])
    def test_infinite_standard_bound_keeps_the_untruncated_moments(self, tg):
        # (upper - mean) / sigma overflows to +inf: all the mass is kept
        assert truncated_moments(tg) == (tg.mean, tg.var)

    def test_mean_below_bound_and_variance_shrinks(self):
        for b in (-2.0, -0.5, 0.0, 0.7, 2.5):
            tg = TruncatedGaussian(0.3, 1.7, b)
            mean, var = truncated_moments(tg)
            assert mean < b
            assert 0.0 < var < tg.var

    def test_degenerate_truncation(self):
        with pytest.raises(DegenerateTruncationError):
            truncated_moments(TruncatedGaussian(0.0, 1.0, -8.0))

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            TruncatedGaussian(0.0, -1.0, 0.0)
        with pytest.raises(ConfigurationError):
            TruncatedGaussian(0.0, 1.0, -40.0)  # no mass kept at all

    @pytest.mark.parametrize("args,field", [
        ((0.0, "1", 0.5), "var"),
        ((0.0, True, 0.5), "var"),
        (("0", 1.0, 0.5), "mean"),
        ((False, 1.0, 0.5), "mean"),
        ((0.0, 1.0, None), "upper"),
    ], ids=["text-var", "bool-var", "text-mean", "bool-mean", "none-upper"])
    def test_non_numbers_name_their_field(self, args, field):
        with pytest.raises(ConfigurationError) as info:
            TruncatedGaussian(*args)
        assert info.value.field == field
        value = dict(zip(("mean", "var", "upper"), args))[field]
        what = "positive and finite" if field == "var" else "a finite number"
        assert str(info.value) == f"{field} must be {what}, got {value!r}"


class TestCompoundDensity:
    def test_zero_coefficient_collapses_to_noise(self):
        tg = TruncatedGaussian(0.0, 1.0, 0.5)
        for eps in (-1.0, 0.0, 2.2):
            assert compound_density(0.0, tg, 1.0, eps) == normal_pdf(eps, 0.0, 1.0)

    def test_normalizes_to_one(self):
        tg = TruncatedGaussian(0.0, 1.0, 0.5)
        total = integrate(
            lambda e: compound_density(1.0, tg, 1.0, e), -15.0, 15.0,
            QuadratureSpec(tol=1e-8),
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_monte_carlo_oracle_at_zero(self):
        tg = TruncatedGaussian(0.0, 1.0, 0.5)
        rng = np.random.default_rng(20240817)
        n = 10_000_000
        x = rng.standard_normal(int(n / tg.keep_prob() * 1.05) + 1000)
        x = x[x < tg.upper][:n]
        assert x.size == n
        e = x + rng.standard_normal(n)
        h = 0.02
        hits = np.count_nonzero(np.abs(e) < h)
        dens_mc = hits / (n * 2 * h)
        se = math.sqrt(hits) / (n * 2 * h)
        dens = compound_density(1.0, tg, 1.0, 0.0)
        # 3 sigma for the sampler plus an h^2 smoothing-bias allowance
        assert abs(dens - dens_mc) < 3.0 * se + 0.5 * h * h

    def test_rejects_bad_noise_var(self):
        with pytest.raises(ConfigurationError) as info:
            compound_density(1.0, TruncatedGaussian(0.0, 1.0, 0.5), 0.0, 0.0)
        assert info.value.field == "noise_var"

    def test_nan_eps_names_eps(self):
        with pytest.raises(ConfigurationError) as info:
            compound_density(1.0, TruncatedGaussian(0.0, 1.0, 0.5), 1.0, math.nan)
        assert info.value.field == "eps"

    def test_infinite_eps_has_zero_density(self):
        tg = TruncatedGaussian(0.0, 1.0, 0.5)
        assert compound_density(1.0, tg, 1.0, math.inf) == 0.0
        assert compound_density(1.0, tg, 1.0, -math.inf) == 0.0

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, 1e200])
    def test_law_out_of_range_is_the_moments_numerical_error(self, a):
        # a^2 var overflows or is NaN: both kernels raise the same error
        tg = TruncatedGaussian(0.0, 1.0, 0.5)
        messages = []
        for kernel in (compound_density, conditional_moments_compound):
            with pytest.raises(NumericalError, match="out of floating-point range") as info:
                kernel(a, tg, 1.0, 0.0)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("mean,var,noise_var", [(0.0, 1.0, 1.0), (0.3, 1.7, 0.6)])
    @pytest.mark.parametrize("a", [-2.0, -0.5, 0.3, 1.0, 1.7])
    def test_closed_form_matches_quadrature(self, a, mean, var, noise_var):
        tg = TruncatedGaussian(mean, var, 0.5)
        spec = QuadratureSpec(tol=1e-12)
        # short panels, so that no peak of the integrand falls between the
        # first Simpson nodes; the truncated density is taken below the bound,
        # where it is tg.pdf without the jump to zero at the bound itself
        edges = np.linspace(mean - 12.0 * tg.sigma, tg.upper, 41)
        for eps in np.linspace(-3.0, 3.0, 13):
            def integrand(x):
                return normal_pdf(x, mean, var) / tg.keep_prob() \
                    * normal_pdf(eps - a * x, 0.0, noise_var)
            want = sum(integrate(integrand, lo, hi, spec)
                       for lo, hi in zip(edges[:-1], edges[1:]))
            assert compound_density(a, tg, noise_var, eps) == pytest.approx(want, abs=1e-9)


# (a, mean, var, noise_var, truncation bound, conditioning bound) -> mean and
# variance of e = a*X + W given e < bound, from mpmath at 50 and at 70 digits
# (which agree to every printed digit): the moment integrals of the extended
# skew-normal density of e, phi(z) Phi((h - rho z) / r) in standard units,
# split around the step at z = h / rho.  Independent of the bivariate closed
# form and of its Phi2.
HIGH_PRECISION_MOMENTS = [
    ((1.0, 0.0, 1.0, 1.0, 0.5, 0.5), -0.9361186367614046, 0.9112917557656174),
    ((-1.0, 0.0, 1.0, 1.0, 0.5, 0.5), -0.4480712853099914, 0.48846140803020943),
    ((10.0, 0.0, 1.0, 1.0, 0.5, 0.5), -7.703066386646271, 37.811239751198336),
    ((-10.0, 0.0, 1.0, 1.0, 0.5, 0.5), -2.289174554828656, 2.9758433333570213),
    ((100.0, 0.0, 1.0, 1.0, 0.5, 0.5), -79.47440825963875, 3645.081227650444),
    ((1e5, 0.0, 1.0, 1.0, 0.5, 0.5), -79788.13777466229, 3633813177.382621),
    ((1e8, 0.0, 1.0, 1.0, 0.5, 0.5), -79788455.76197666, 3633802287224867.5),
    # rho = 0.995 and a deep truncation: the mass is a band near a * upper
    ((1.0, 0.0, 1.0, 0.01, -6.5, 10.0), -6.6473013611904905, 0.03084346125323911),
    ((1.7, 0.3, 1.7, 0.6, 0.5, -0.4), -1.9896946672338787, 1.5832456438080513),
]


class TestConditionalMomentsCompound:
    @pytest.mark.parametrize("case,mean,var", HIGH_PRECISION_MOMENTS,
                             ids=[f"a={c[0]:g},c={c[4]:g}" for c, _, _ in HIGH_PRECISION_MOMENTS])
    def test_matches_high_precision_values(self, case, mean, var):
        a, mu, v, noise_var, c, bound = case
        got_mean, got_var = conditional_moments_compound(
            a, TruncatedGaussian(mu, v, c), noise_var, bound)
        assert got_mean == pytest.approx(mean, rel=1e-10)
        assert got_var == pytest.approx(var, rel=1e-10)

    def test_no_runtime_path_integrates(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("a runtime path called stats.integrate")

        monkeypatch.setattr(stats, "integrate", refuse)
        tg = TruncatedGaussian(0.0, 1.0, 0.5)
        assert conditional_moments_compound(1.0, tg, 1.0, 0.5) == pytest.approx(
            (COND_MEAN_AT_HALF, COND_VAR_AT_HALF), abs=1e-6)
        assert two_step_stationarity_residual(1.0, 1.0, 1.0, 1.0, 1.0, 0, 0.0, 0.3) != 0.0
        assert two_step_u0_optimal(1.0, 1.0, 1.0, 1.0, 1.0, 0, 0.0) == pytest.approx(
            U0_OPT_SILENT, abs=1e-8)
        assert two_step_posterior(1.0, 1.0, 0.3, 0, 0).p11 > 0.0
        assert main(["moments", "--upper", "0.5", "--a", "1", "--cond-upper", "0.5",
                     "--out", str(tmp_path / "m")]) == 0

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_rejects_a_noise_variance_not_above_zero(self, a):
        tg = TruncatedGaussian(0.0, 1.0, 0.5)
        with pytest.raises(ConfigurationError, match="noise_var must be positive") as info:
            conditional_moments_compound(a, tg, -0.5, 0.5)
        assert info.value.field == "noise_var"

    @pytest.mark.parametrize("noise_var", [True, "1", math.inf, math.nan])
    @pytest.mark.parametrize("kernel", [compound_density, conditional_moments_compound])
    def test_noise_variance_must_be_a_positive_finite_number(self, kernel, noise_var):
        # a bool is not read as 1.0, and text is no TypeError
        with pytest.raises(ConfigurationError) as info:
            kernel(1.0, TruncatedGaussian(0.0, 1.0, 0.5), noise_var, 0.0)
        assert info.value.field == "noise_var"

    @pytest.mark.parametrize("a", [True, False, "1"])
    @pytest.mark.parametrize("kernel", [compound_density, conditional_moments_compound])
    def test_a_must_be_a_real_number(self, kernel, a):
        # a bool is not read as 1.0 or 0.0, and text is no TypeError
        with pytest.raises(ConfigurationError, match="a must be a real number") as info:
            kernel(a, TruncatedGaussian(0.0, 1.0, 0.5), 1.0, 0.0)
        assert info.value.field == "a"

    @pytest.mark.parametrize("eps", [True, "0"])
    def test_eps_must_be_a_real_number(self, eps):
        with pytest.raises(ConfigurationError, match="eps must be a real number") as info:
            compound_density(1.0, TruncatedGaussian(0.0, 1.0, 0.5), 1.0, eps)
        assert info.value.field == "eps"

    @pytest.mark.parametrize("upper", [True, "0"])
    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_upper_must_be_a_real_number(self, a, upper):
        with pytest.raises(ConfigurationError, match="upper must be a real number") as info:
            conditional_moments_compound(a, TruncatedGaussian(0.0, 1.0, 0.5), 1.0, upper)
        assert info.value.field == "upper"

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_nan_bound_names_upper(self, a):
        with pytest.raises(ConfigurationError) as info:
            conditional_moments_compound(a, TruncatedGaussian(0.0, 1.0, 0.5), 1.0, math.nan)
        assert info.value.field == "upper"

    def test_infinite_bound_conditions_on_nothing(self):
        # e < inf keeps the whole compound law: X's truncated moments plus the noise
        tg = TruncatedGaussian(0.0, 1.0, 0.5)
        mean, var = conditional_moments_compound(1.0, tg, 1.0, math.inf)
        tmean, tvar = truncated_moments(tg)
        assert mean == pytest.approx(tmean, abs=1e-12)
        assert var == pytest.approx(tvar + 1.0, abs=1e-12)

    def test_zero_coefficient_reduces_to_truncation(self):
        got = conditional_moments_compound(0.0, TruncatedGaussian(0.0, 1.0, 0.5), 2.0, 0.3)
        want = truncated_moments(TruncatedGaussian(0.0, 2.0, 0.3))
        assert got == pytest.approx(want, abs=1e-12)

    def test_far_bound_recovers_unconditional_moments(self):
        tg = TruncatedGaussian(0.0, 1.0, 0.5)
        mean, var = conditional_moments_compound(1.0, tg, 1.0, 10.0)
        tmean, tvar = truncated_moments(tg)
        assert mean == pytest.approx(tmean, abs=1e-6)
        assert var == pytest.approx(tvar + 1.0, abs=1e-6)

    @pytest.mark.parametrize("a", [1.0, -1.0])
    def test_deep_truncation_recovers_unconditional_moments(self, a):
        # the mass sits in a band about 0.2 wide near a * upper, far inside
        # the window the untruncated law of e gives
        tg = TruncatedGaussian(0.0, 1.0, -6.5)
        mean, var = conditional_moments_compound(a, tg, 0.01, 10.0)
        tmean, tvar = truncated_moments(tg)
        assert mean == pytest.approx(a * tmean, abs=1e-6)
        assert var == pytest.approx(tvar + 0.01, abs=1e-6)

    def test_frozen_values_at_half(self):
        tg = TruncatedGaussian(0.0, 1.0, 0.5)
        mean, var = conditional_moments_compound(1.0, tg, 1.0, 0.5)
        assert mean == pytest.approx(COND_MEAN_AT_HALF, abs=1e-6)
        assert var == pytest.approx(COND_VAR_AT_HALF, abs=1e-6)

    def test_monte_carlo_rejection_oracle(self):
        tg = TruncatedGaussian(0.0, 1.0, 0.5)
        rng = np.random.default_rng(7)
        n = 4_000_000
        x = rng.standard_normal(2 * n)
        x = x[x < 0.5][:n]
        e = x + rng.standard_normal(x.size)
        e = e[e < 0.5]
        mc_mean = e.mean()
        mc_var = e.var(ddof=1)
        se_mean = e.std(ddof=1) / math.sqrt(e.size)
        # variance-of-variance for a well-behaved unimodal sample
        se_var = math.sqrt(max(((e - mc_mean) ** 2).var(ddof=1), 0.0) / e.size)
        mean, var = conditional_moments_compound(1.0, tg, 1.0, 0.5)
        assert abs(mean - mc_mean) < 3.0 * se_mean
        assert abs(var - mc_var) < 3.0 * se_var

    def test_degenerate_conditioning(self):
        with pytest.raises(DegenerateTruncationError):
            conditional_moments_compound(1.0, TruncatedGaussian(0.0, 1.0, 0.5), 1.0, -25.0)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 1.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-9)
        assert find_root(lambda u: 2.0 * u + 1.0, -1.0, 0.0) == pytest.approx(-0.5, abs=1e-9)

    def test_cube_root_of_two(self):
        root = find_root(lambda x: x ** 3 - 2.0, 1.0, 2.0, tol=1e-12)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-9)

    def test_no_sign_change(self):
        with pytest.raises(BracketingError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_endpoint_root(self):
        assert find_root(lambda x: x, 0.0, 1.0) == 0.0

    def test_flat_shoulders(self):
        f = lambda x: math.tanh(60.0 * (x - 0.3))
        assert find_root(f, -100.0, 100.0, tol=1e-10) == pytest.approx(0.3, abs=1e-8)

    @pytest.mark.parametrize("f,lo,hi", [
        (lambda x: x ** 3 - 2.0, 1.0, 2.0),
        (lambda x: math.tanh(60.0 * (x - 0.3)), -100.0, 100.0),
        (lambda u: two_step_stationarity_residual(1.0, 1.0, 1.0, 1.0, 1.0, 1, 0.0, u),
         0.0, 0.5),
    ], ids=["cube", "shoulders", "residual"])
    def test_known_ends_give_the_same_root_with_two_fewer_calls(self, f, lo, hi):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        want = find_root(counted, lo, hi, tol=1e-12)
        without = len(calls)
        calls.clear()
        got = find_root(counted, lo, hi, tol=1e-12, ends=(f(lo), f(hi)))
        assert got.hex() == want.hex()
        assert len(calls) == without - 2
        assert lo not in calls and hi not in calls

    def test_known_ends_of_one_sign(self):
        f = lambda x: x * x + 1.0
        calls = []
        with pytest.raises(BracketingError):
            find_root(lambda x: calls.append(x) or f(x), -1.0, 1.0, ends=(f(-1.0), f(1.0)))
        assert calls == []

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            QuadratureSpec(tol=0.0)
