import numpy as np
import pytest
from scipy import integrate, stats

from rislink import analysis as an
from rislink import uplink as ul
from rislink.waveform import ComplementarySymbol, NoiseModel
from conftest import chi2_gof_pvalue, complex_gauss, rng


class TestGeneralizedGammaPdf:
    def test_zero_noncentrality_is_exponential(self):
        p = an.GammaParams(beta=0.7, gamma=0.0)
        x = np.linspace(0, 5, 50)
        np.testing.assert_allclose(an.generalized_gamma_pdf(x, p),
                                   np.exp(-x / 0.7) / 0.7, atol=1e-14)

    def test_integrates_to_one(self):
        p = an.GammaParams(beta=0.5, gamma=2.0)
        val, _ = integrate.quad(lambda x: an.generalized_gamma_pdf(x, p), 0, np.inf)
        assert abs(val - 1.0) < 1e-8

    def test_matches_sampled_branch_power(self):
        g = rng(0)
        n = 1_000_000
        sv2 = 0.25
        v = complex_gauss(g, n, sigma2=2 * sv2)  # per-quadrature variance sv2
        eps = np.abs(np.sqrt(2.0) + v) ** 2
        p = an.GammaParams(beta=2 * sv2, gamma=2.0)
        pval = chi2_gof_pvalue(eps, lambda x: an.generalized_gamma_pdf(x, p),
                               lo=0.0, hi=eps.max() * 1.5)
        assert pval > 0.01

    def test_negative_x_is_zero(self):
        p = an.GammaParams(beta=0.5, gamma=1.0)
        assert an.generalized_gamma_pdf(-0.3, p) == 0.0

    def test_large_noncentrality_stable(self):
        p = an.GammaParams(beta=0.002, gamma=4.0)
        val = an.generalized_gamma_pdf(4.0, p)
        assert np.isfinite(val) and val > 0


class TestRicianEnvelopePdf:
    def test_zero_mean_is_rayleigh(self):
        t = np.linspace(0, 4, 100)
        got = an.rician_envelope_pdf(t, 0.0, 0.5)
        expected = (t / 0.5) * np.exp(-t ** 2 / 1.0)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_change_of_variables_consistency(self):
        # squared-envelope density equals envelope density / (2 sqrt(x))
        r_bar, sv2 = 1.3, 0.4
        p = an.GammaParams(beta=2 * sv2, gamma=r_bar ** 2)
        x = np.linspace(0.05, 8, 200)
        lhs = an.generalized_gamma_pdf(x, p)
        rhs = an.rician_envelope_pdf(np.sqrt(x), r_bar, sv2) / (2 * np.sqrt(x))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_integrates_to_one(self):
        val, _ = integrate.quad(lambda t: an.rician_envelope_pdf(t, 1.5, 0.3), 0, np.inf)
        assert abs(val - 1.0) < 1e-8

    def test_matches_sampled_envelope(self):
        g = rng(1)
        n = 1_000_000
        a = np.abs(1.5 + complex_gauss(g, n, sigma2=0.6))
        pval = chi2_gof_pvalue(a, lambda t: an.rician_envelope_pdf(t, 1.5, 0.3),
                               lo=0.0, hi=a.max() * 1.5)
        assert pval > 0.01


class TestGammaDifferencePdf:
    def test_symmetric_when_parameters_match(self):
        p = an.GammaParams(beta=0.5, gamma=1.0)
        x = np.linspace(0.0, 6.0, 61)
        f_pos = an.gamma_difference_pdf(x, p, p)
        f_neg = an.gamma_difference_pdf(-x, p, p)
        np.testing.assert_allclose(f_pos, f_neg, atol=1e-9)

    def test_integrates_to_one(self):
        p1 = an.GammaParams(beta=0.5, gamma=1.0)
        p2 = an.GammaParams(beta=0.5, gamma=2.0)
        grid = np.linspace(-30, 30, 8001)
        total = np.trapezoid(an.gamma_difference_pdf(grid, p1, p2), grid)
        assert abs(total - 1.0) < 1e-6

    def test_matches_sampled_difference(self):
        g = rng(2)
        n = 1_000_000
        sv2 = 0.25
        v1 = complex_gauss(g, n, sigma2=2 * sv2)
        v2 = complex_gauss(g, n, sigma2=2 * sv2)
        z = np.abs(1.0 + v1) ** 2 - np.abs(np.sqrt(2.0) + v2) ** 2
        p1 = an.GammaParams(beta=0.5, gamma=1.0)
        p2 = an.GammaParams(beta=0.5, gamma=2.0)
        pval = chi2_gof_pvalue(z, lambda x: an.gamma_difference_pdf(x, p1, p2),
                               lo=z.min() * 1.5, hi=z.max() * 1.5)
        assert pval > 0.01

    def test_degenerate_second_branch(self):
        # gamma' = 0: difference of a noncentral power and a pure-noise power
        g = rng(3)
        n = 500_000
        sv2 = 0.2
        v1 = complex_gauss(g, n, sigma2=2 * sv2)
        v2 = complex_gauss(g, n, sigma2=2 * sv2)
        z = np.abs(1.0 + v1) ** 2 - np.abs(v2) ** 2
        p1 = an.GammaParams(beta=2 * sv2, gamma=1.0)
        p2 = an.GammaParams(beta=2 * sv2, gamma=0.0)
        pval = chi2_gof_pvalue(z, lambda x: an.gamma_difference_pdf(x, p1, p2),
                               lo=z.min() * 1.5, hi=z.max() * 1.5)
        assert pval > 0.01

    def test_nonnegative_everywhere(self):
        p1 = an.GammaParams(beta=0.5, gamma=1.0)
        p2 = an.GammaParams(beta=0.5, gamma=2.0)
        x = np.linspace(-20, 20, 4001)
        assert np.all(an.gamma_difference_pdf(x, p1, p2) >= 0)

    def test_truncation_failure_carries_partial_state(self):
        p1 = an.GammaParams(beta=0.002, gamma=1.0)  # needs ~500 diagonals
        p2 = an.GammaParams(beta=0.002, gamma=0.5)
        ctl = an.SeriesControl(max_terms=50, tail_tol=1e-12)
        with pytest.raises(an.SeriesTruncationError) as err:
            an.gamma_difference_pdf(np.array([0.5]), p1, p2, ctl)
        assert err.value.partial_sum is not None
        assert err.value.tail_bound is not None and err.value.tail_bound > 1e-12

    def test_mismatched_scales_rejected(self):
        with pytest.raises(ValueError):
            an.gamma_difference_pdf(0.0, an.GammaParams(beta=0.5, gamma=1.0),
                                    an.GammaParams(beta=0.6, gamma=1.0))

    def test_matches_literal_double_series(self):
        # brute-force evaluation of the printed two-branch double series
        import math
        beta, gam, gamp = 0.5, 0.8, 0.3

        def direct(x, kmax=60):
            total = 0.0
            if x >= 0:
                for k in range(kmax):
                    for m in range(kmax):
                        outer = np.exp(-(x + gam + gamp) / beta) * gam ** k * gamp ** m \
                            / (math.factorial(k) * math.factorial(m) * beta ** (k + m))
                        for n in range(k + 1):
                            total += outer * math.comb(m + n, n) * x ** (k - n) / (
                                2.0 ** (1 + m + n) * beta ** (1 + k - n)
                                * math.factorial(k - n))
            else:
                for k in range(kmax):
                    for m in range(kmax):
                        outer = np.exp((x - gam - gamp) / beta) * gam ** k * gamp ** m \
                            / (math.factorial(k) * math.factorial(m) * beta ** (k + m))
                        for n in range(m + 1):
                            total += outer * math.comb(k + n, n) * (-x) ** (m - n) / (
                                2.0 ** (1 + k + n) * beta ** (1 + m - n)
                                * math.factorial(m - n))
            return total

        xs = np.array([-3.0, -1.0, -0.2, 0.0, 0.3, 1.0, 2.5])
        impl = an.gamma_difference_pdf(xs, an.GammaParams(beta=beta, gamma=gam),
                                       an.GammaParams(beta=beta, gamma=gamp))
        oracle = np.array([direct(x) for x in xs])
        np.testing.assert_allclose(impl, oracle, atol=1e-12)

    def test_matches_characteristic_function_inversion(self):
        # independent route: numerically invert the product of branch CFs
        beta, gam, gamp = 0.5, 0.8, 0.3
        w = np.linspace(-400, 400, 400_001)
        phi = np.exp(1j * gam * w / (1 - 1j * w * beta)
                     - 1j * gamp * w / (1 + 1j * w * beta)) \
            / ((1 - 1j * w * beta) * (1 + 1j * w * beta))
        xs = np.array([-1.0, 0.0, 0.5, 1.5])
        oracle = np.array([np.trapezoid(np.real(phi * np.exp(-1j * w * x)), w)
                           for x in xs]) / (2 * np.pi)
        impl = an.gamma_difference_pdf(xs, an.GammaParams(beta=beta, gamma=gam),
                                       an.GammaParams(beta=beta, gamma=gamp))
        np.testing.assert_allclose(impl, oracle, atol=1e-3)


class TestGaussianApprox:
    def test_reference_moments(self):
        # |c s|^2 = 1, |c s_bar|^2 = 0 at sigma_v2 = 0.1
        model = an.gaussian_approx(np.array([1.0 + 0j]),
                                   ComplementarySymbol(np.array([1])), 0.1)
        assert abs(model.mu - 1.0) < 1e-12
        assert abs(model.sigma2 - 0.48) < 1e-12

    def test_balanced_amplitudes_center_at_zero(self):
        # s equal to its complement (levels=3, s=1) gives mu = 0
        g = rng(4)
        c = complex_gauss(g, 5)
        model = an.gaussian_approx(c, ComplementarySymbol(np.ones(5, dtype=int), levels=3), 0.05)
        assert abs(model.mu) < 1e-12

    def test_moments_match_simulation(self):
        g = rng(5)
        c = complex_gauss(g, 4)
        sym = ComplementarySymbol(np.array([1, 0, 1, 1]))
        sv2 = 0.01
        model = an.gaussian_approx(c, sym, sv2)
        n = 1_000_000
        v1 = np.sqrt(sv2) * (g.standard_normal(n) + 1j * g.standard_normal(n))
        v2 = np.sqrt(sv2) * (g.standard_normal(n) + 1j * g.standard_normal(n))
        z = np.abs(c @ sym.s + v1) ** 2 - np.abs(c @ sym.s_bar + v2) ** 2
        assert abs(z.mean() - model.mu) / abs(model.mu) < 0.01
        assert abs(z.var() - model.sigma2) / model.sigma2 < 0.01


class TestXiGaussian:
    """candidate_xi_models against the per-antenna gaussian_approx moments:
    the averaged observation has the mean of the per-antenna means and the
    sum of their variances over the squared antenna count."""

    @staticmethod
    def chans(c):
        zero = np.zeros_like(c)
        return ul.UplinkChannelSet(a=c, b=zero, o=zero)

    @staticmethod
    def per_antenna(c, sv2):
        const = ul.bipolar_constellation(c.shape[1])
        return [[an.gaussian_approx(row, ComplementarySymbol((x + 1) // 2), sv2)
                 for row in c] for x in const.astype(int)]

    def test_identical_antennas(self):
        row = complex_gauss(rng(6), 3)
        c = np.tile(row, (10, 1))
        mu, s2 = an.candidate_xi_models(self.chans(c), ul.bipolar_constellation(3), 0.05)
        for i, models in enumerate(self.per_antenna(c[:1], 0.05)):
            assert abs(mu[i] - models[0].mu) < 1e-12
            assert abs(s2[i] - models[0].sigma2 / 10) < 1e-14

    def test_single_antenna_passthrough(self):
        c = complex_gauss(rng(7), (1, 2))
        mu, s2 = an.candidate_xi_models(self.chans(c), ul.bipolar_constellation(2), 0.3)
        for i, models in enumerate(self.per_antenna(c, 0.3)):
            assert abs(mu[i] - models[0].mu) < 1e-12
            assert abs(s2[i] - models[0].sigma2) < 1e-12

    def test_matches_direct_sums(self):
        c = complex_gauss(rng(8), (9, 3))
        mu, s2 = an.candidate_xi_models(self.chans(c), ul.bipolar_constellation(3), 0.02)
        for i, models in enumerate(self.per_antenna(c, 0.02)):
            assert abs(mu[i] - np.mean([m.mu for m in models])) < 1e-12
            assert abs(s2[i] - sum(m.sigma2 for m in models) / 81) < 1e-12


class TestSymbolProb:
    def regions2(self):
        return ul.build_regions(np.array([1.0]), ul.bipolar_constellation(1))

    def test_half_line_mass(self):
        model = an.GaussianSerModel(0.0, 1.0)
        assert abs(an.symbol_prob(0, self.regions2(), model) - 0.5) < 1e-12

    def test_one_sigma_interval(self):
        regions = ul.build_regions(np.array([1.0, 0.5]), ul.bipolar_constellation(2))
        # middle region spans (-1, 1) after boundary construction? means -1.5,-0.5,.5,1.5
        model = an.GaussianSerModel(0.0, 1.0)
        # mass of (-1,0) + (0,1) around mean 0 equals erf(1/sqrt(2))
        mass = an.symbol_prob(1, regions, model) + an.symbol_prob(2, regions, model)
        oracle = integrate.quad(lambda x: stats.norm.pdf(x), -1, 1)[0]
        assert abs(mass - 0.6826894921370859) < 1e-12
        assert abs(mass - oracle) < 1e-9

    def test_partition_sums_to_one(self):
        g = rng(7)
        regions = ul.build_regions(g.standard_normal(3), ul.bipolar_constellation(3))
        model = an.GaussianSerModel(0.3, 0.7)
        total = sum(an.symbol_prob(r, regions, model)
                    for r in range(regions.region_means.size))
        assert abs(total - 1.0) < 1e-12

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            an.gaussian_interval_prob(-1.0, 1.0, 0.0, 0.0)


class TestClosedFormSer:
    def two_point_setup(self):
        # single user, |c| = 1: means +-1; sigma_xi^2 = 1 at this sigma_v2
        sv2 = (np.sqrt(3.0) - 1.0) / 4.0
        chans = ul.UplinkChannelSet(a=np.array([[1.0 + 0j]]),
                                    b=np.zeros((1, 1), dtype=complex),
                                    o=np.zeros((1, 1), dtype=complex))
        gains = ul.exact_linear_gains(chans)
        return chans, gains, NoiseModel(2 * sv2)

    def test_two_point_reference_value(self):
        chans, gains, noise = self.two_point_setup()
        out = an.closed_form_ser(gains, noise, chans, ul.bipolar_constellation(1))
        # Gaussian tail mass beyond the midpoint at unit variance
        assert abs(out.probability - 0.15865525393145707) < 1e-12
        assert not out.degenerate

    def test_vanishing_noise(self):
        g = rng(8)
        chans = ul.UplinkChannelSet(a=complex_gauss(g, (8, 3)),
                                    b=0.2 * complex_gauss(g, (8, 3)),
                                    o=0.05 * complex_gauss(g, (8, 3)))
        gains = ul.exact_linear_gains(chans)
        out = an.closed_form_ser(gains, NoiseModel(2e-8), chans,
                                 ul.bipolar_constellation(3))
        assert out.probability < 1e-12

    def test_degenerate_points_counted_as_errors(self):
        chans = ul.UplinkChannelSet(a=np.array([[1.0 + 0j, 1.0 + 0j]]),
                                    b=np.zeros((1, 2), dtype=complex),
                                    o=np.zeros((1, 2), dtype=complex))
        gains = ul.LinearGains(np.stack([np.array([1.0, 1.0]), np.zeros(2),
                                         np.zeros(2), np.zeros(2)]))
        out = an.closed_form_ser(gains, NoiseModel(0.02), chans,
                                 ul.bipolar_constellation(2))
        assert out.degenerate
        assert out.per_symbol_correct[1] == 0.0 and out.per_symbol_correct[2] == 0.0

    def test_monotone_in_noise(self):
        g = rng(9)
        chans = ul.UplinkChannelSet(a=complex_gauss(g, (16, 3)),
                                    b=0.2 * complex_gauss(g, (16, 3)),
                                    o=0.05 * complex_gauss(g, (16, 3)))
        gains = ul.exact_linear_gains(chans)
        const = ul.bipolar_constellation(3)
        sers = [an.closed_form_ser(gains, NoiseModel(s2), chans, const).probability
                for s2 in (0.001, 0.01, 0.1, 1.0)]
        assert sers[0] <= sers[1] <= sers[2] <= sers[3]


def test_gaussian_error_shrinks_at_high_snr():
    # scale-normalized sup distance between the series density and its
    # Gaussian surrogate falls as the branch noise shrinks
    errs = []
    for sv2 in (0.1, 0.01, 0.001):
        p1 = an.GammaParams(beta=2 * sv2, gamma=0.05)
        p2 = an.GammaParams(beta=2 * sv2, gamma=0.02)
        mu = 0.03
        s2 = 4 * sv2 * 0.07 + 8 * sv2 ** 2
        sd = np.sqrt(s2)
        grid = np.linspace(mu - 8 * sd, mu + 8 * sd, 801)
        series = an.gamma_difference_pdf(grid, p1, p2)
        gauss = stats.norm.pdf(grid, mu, sd)
        errs.append(np.max(np.abs(series - gauss)) * sd)
    assert errs[0] > errs[1] > errs[2]


def test_branch_power_params_roundtrip():
    g = rng(10)
    c = complex_gauss(g, 4)
    sym = ComplementarySymbol(np.array([1, 0, 0, 1]))
    p, p_bar = an.branch_power_params(c, sym, 0.3)
    assert abs(p.beta - 0.6) < 1e-15
    assert abs(p.gamma - abs(c @ sym.s) ** 2) < 1e-12
    assert abs(p_bar.gamma - abs(c @ sym.s_bar) ** 2) < 1e-12
