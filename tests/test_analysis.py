import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from rislink import analysis as an
from rislink import downlink as dl
from rislink import uplink as ul
from rislink.config import ScenarioConfig
from rislink.uplink_ser import _uplink_task, run_uplink_ser
from conftest import chi2_gof_pvalue, complex_gauss, rng


class TestGeneralizedGammaPdf:
    def test_zero_noncentrality_is_exponential(self):
        x = np.linspace(0, 5, 50)
        np.testing.assert_allclose(an.generalized_gamma_pdf(x, 0.0, 0.7),
                                   np.exp(-x / 0.7) / 0.7, atol=1e-14)

    def test_integrates_to_one(self):
        val, _ = integrate.quad(lambda x: an.generalized_gamma_pdf(x, 2.0, 0.5), 0, np.inf)
        assert abs(val - 1.0) < 1e-8

    def test_matches_sampled_branch_power(self):
        g = rng(0)
        n = 1_000_000
        sv2 = 0.25
        v = complex_gauss(g, n, sigma2=2 * sv2)  # per-quadrature variance sv2
        eps = np.abs(np.sqrt(2.0) + v) ** 2
        pval = chi2_gof_pvalue(eps, lambda x: an.generalized_gamma_pdf(x, 2.0, 2 * sv2),
                               lo=0.0, hi=eps.max() * 1.5)
        assert pval > 0.01

    def test_negative_x_is_zero(self):
        assert an.generalized_gamma_pdf(-0.3, 1.0, 0.5) == 0.0

    def test_large_noncentrality_stable(self):
        val = an.generalized_gamma_pdf(4.0, 4.0, 0.002)
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
        x = np.linspace(0.05, 8, 200)
        lhs = an.generalized_gamma_pdf(x, r_bar ** 2, 2 * sv2)
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
        x = np.linspace(0.0, 6.0, 61)
        f_pos = an.gamma_difference_pdf(x, 1.0, 1.0, 0.5)
        f_neg = an.gamma_difference_pdf(-x, 1.0, 1.0, 0.5)
        np.testing.assert_allclose(f_pos, f_neg, atol=1e-9)

    def test_integrates_to_one(self):
        grid = np.linspace(-30, 30, 8001)
        total = np.trapezoid(an.gamma_difference_pdf(grid, 1.0, 2.0, 0.5), grid)
        assert abs(total - 1.0) < 1e-6

    def test_matches_sampled_difference(self):
        g = rng(2)
        n = 1_000_000
        sv2 = 0.25
        v1 = complex_gauss(g, n, sigma2=2 * sv2)
        v2 = complex_gauss(g, n, sigma2=2 * sv2)
        z = np.abs(1.0 + v1) ** 2 - np.abs(np.sqrt(2.0) + v2) ** 2
        pval = chi2_gof_pvalue(z, lambda x: an.gamma_difference_pdf(x, 1.0, 2.0, 0.5),
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
        pval = chi2_gof_pvalue(z, lambda x: an.gamma_difference_pdf(x, 1.0, 0.0, 2 * sv2),
                               lo=z.min() * 1.5, hi=z.max() * 1.5)
        assert pval > 0.01

    def test_nonnegative_everywhere(self):
        x = np.linspace(-20, 20, 4001)
        assert np.all(an.gamma_difference_pdf(x, 1.0, 2.0, 0.5) >= 0)

    def test_truncation_failure_carries_partial_state(self):
        # a noncentrality of 500 in units of beta needs more than the 400
        # diagonals of the budget; a zero second branch keeps each one cheap
        with pytest.raises(an.SeriesTruncationError) as err:
            an.gamma_difference_pdf(np.array([0.5]), 1.0, 0.0, 0.002)
        assert err.value.partial_sum is not None
        assert err.value.tail_bound is not None and err.value.tail_bound > 1e-12

    @pytest.mark.parametrize("gamma1, gamma2, beta", [(1.0, 1.0, 0.0), (1.0, 1.0, -0.5),
                                                     (1.0, 1.0, np.nan), (-1.0, 1.0, 0.5)])
    def test_nonpositive_scale_or_negative_noncentrality_rejected(self, gamma1, gamma2, beta):
        with pytest.raises(ValueError):
            an.gamma_difference_pdf(0.0, gamma1, gamma2, beta)

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
        impl = an.gamma_difference_pdf(xs, gam, gamp, beta)
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
        impl = an.gamma_difference_pdf(xs, gam, gamp, beta)
        np.testing.assert_allclose(impl, oracle, atol=1e-3)


def branch_energies(c, x_bar):
    """Per-antenna branch energies |c s|^2, |c s_bar|^2 of bipolar rows,
    shaped (n_points, n_antennas)."""
    s = (np.atleast_2d(x_bar) + 1.0) / 2.0
    return (np.abs(np.atleast_2d(c) @ s.T).T ** 2,
            np.abs(np.atleast_2d(c) @ (1.0 - s).T).T ** 2)


class TestGaussianApprox:
    def test_reference_moments(self):
        # |c s|^2 = 1, |c s_bar|^2 = 0 at sigma_v2 = 0.1
        mu, var = an.gaussian_approx(1.0, 0.0, 0.1)
        assert abs(mu - 1.0) < 1e-12
        assert abs(var - 0.48) < 1e-12

    def test_balanced_amplitudes_center_at_zero(self):
        # a channel that repeats its element pair sends s = (1, 0, 1, 0) and
        # its complement with equal energies, e1 == e2, so mu = 0
        c = np.repeat(complex_gauss(rng(4), 2), 2)
        s = np.array([1, 0, 1, 0])
        e1, e2 = abs(c @ s) ** 2, abs(c @ (1 - s)) ** 2
        assert e1 == e2
        mu, _ = an.gaussian_approx(e1, e2, 0.05)
        assert mu == 0.0

    def test_moments_match_simulation(self):
        g = rng(5)
        c = complex_gauss(g, 4)
        s = np.array([1, 0, 1, 1])
        sv2 = 0.01
        mu, var = an.gaussian_approx(abs(c @ s) ** 2, abs(c @ (1 - s)) ** 2, sv2)
        n = 1_000_000
        v1 = np.sqrt(sv2) * (g.standard_normal(n) + 1j * g.standard_normal(n))
        v2 = np.sqrt(sv2) * (g.standard_normal(n) + 1j * g.standard_normal(n))
        z = np.abs(c @ s + v1) ** 2 - np.abs(c @ (1 - s) + v2) ** 2
        assert abs(z.mean() - mu) / abs(mu) < 0.01
        assert abs(z.var() - var) / var < 0.01


class TestXiGaussian:
    """gaussian_approx over n_t antennas against the per-antenna moments
    summed by brute force: the averaged observation has the mean of the
    per-antenna means and the sum of their variances over n_t^2."""

    @staticmethod
    def averaged(c, sv2):
        g1, g2 = branch_energies(c, dl.bipolar_candidates(c.shape[1]))
        return an.gaussian_approx(g1.sum(axis=1), g2.sum(axis=1), sv2, c.shape[0])

    @staticmethod
    def per_antenna(c, sv2):
        # (n_points, n_antennas) single-antenna moments, one call per entry
        g1, g2 = branch_energies(c, dl.bipolar_candidates(c.shape[1]))
        moments = [[an.gaussian_approx(float(a), float(b), sv2) for a, b in zip(r1, r2)]
                   for r1, r2 in zip(g1, g2)]
        return np.moveaxis(np.array(moments), -1, 0)

    def test_identical_antennas(self):
        row = complex_gauss(rng(6), 3)
        c = np.tile(row, (10, 1))
        mu, s2 = self.averaged(c, 0.05)
        mu1, s21 = self.per_antenna(c[:1], 0.05)
        np.testing.assert_allclose(mu, mu1[:, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(s2, s21[:, 0] / 10, rtol=0, atol=1e-14)

    def test_single_antenna_passthrough(self):
        c = complex_gauss(rng(7), (1, 2))
        mu, s2 = self.averaged(c, 0.3)
        mu1, s21 = self.per_antenna(c, 0.3)
        np.testing.assert_array_equal(mu, mu1[:, 0])
        np.testing.assert_array_equal(s2, s21[:, 0])

    def test_matches_direct_sums(self):
        c = complex_gauss(rng(8), (9, 3))
        mu, s2 = self.averaged(c, 0.02)
        mu1, s21 = self.per_antenna(c, 0.02)
        np.testing.assert_allclose(mu, mu1.mean(axis=1), rtol=0, atol=1e-12)
        np.testing.assert_allclose(s2, s21.sum(axis=1) / 81, rtol=0, atol=1e-12)


class TestSymbolProb:
    """Per-symbol region masses of closed_form_ser.  Each point's law is set
    through its energies at n_t = 1: mu = e1 - e2 and
    var = 4 sigma_v2 (e1 + e2) + 8 sigma_v2^2."""

    @staticmethod
    def energies(mu, e_sum):
        return (np.asarray(e_sum) + mu) / 2.0, (np.asarray(e_sum) - mu) / 2.0

    def test_half_line_mass(self):
        # both points at the boundary with unit variance (sigma_v2 = 1/4, e = 1/4)
        regions = ul.build_regions(np.array([1.0]), dl.bipolar_candidates(1))
        e1, e2 = self.energies(0.0, [0.5, 0.5])
        assert abs(an.closed_form_ser(*regions.intervals(), e1, e2, 1, 0.5) - 0.5) < 1e-12

    def test_one_sigma_interval(self):
        # means -1.5, -0.5, 0.5, 1.5: the inner regions are [-1, 0) and
        # [0, 1); points 1 and 2 sit at 0 with unit variance, points 0 and 3
        # far inside their outer regions, so the SER is (2 - mass(-1, 1)) / 4
        regions = ul.build_regions(np.array([1.0, 0.5]), dl.bipolar_candidates(2))
        sv2 = 1e-4
        e_mid = (1.0 - 8.0 * sv2 ** 2) / (8.0 * sv2)
        e1, e2 = self.energies(np.array([-100.0, 0.0, 0.0, 100.0]),
                               [100.0, 2 * e_mid, 2 * e_mid, 100.0])
        mass = 2.0 - 4.0 * an.closed_form_ser(*regions.intervals(), e1, e2, 1, 2 * sv2)
        oracle = integrate.quad(lambda x: stats.norm.pdf(x), -1, 1)[0]
        assert abs(mass - 0.6826894921370859) < 1e-12
        assert abs(mass - oracle) < 1e-9

    def test_partition_sums_to_one(self):
        # one law for every point: the correct masses of the 8 regions sum to 1
        g = rng(7)
        regions = ul.build_regions(g.standard_normal(3), dl.bipolar_candidates(3))
        e1, e2 = self.energies(np.full(8, 0.3), np.full(8, 0.7))
        assert not regions.degenerate
        assert abs(an.closed_form_ser(*regions.intervals(), e1, e2, 1, 0.6) - 7.0 / 8.0) < 1e-12

    def test_rejects_bad_variance(self):
        regions = ul.build_regions(np.array([1.0]), dl.bipolar_candidates(1))
        with pytest.raises(ValueError):
            an.closed_form_ser(*regions.intervals(), np.ones(2), np.zeros(2), 1, 0.0)


class TestClosedFormSer:
    @staticmethod
    def ser(chans, sigma2, gains=None):
        """closed_form_ser on the regions of ``gains`` (default: the exact
        gains) and the channel's array-summed branch energies."""
        gains = ul.exact_linear_gains(chans).sum(axis=0) if gains is None else gains
        const = dl.bipolar_candidates(chans.n_users)
        g1, g2 = branch_energies(chans.c, const)
        regions = ul.build_regions(gains, const)
        return an.closed_form_ser(*regions.intervals(), g1.sum(axis=1), g2.sum(axis=1),
                                  chans.n_antennas, sigma2), regions

    @staticmethod
    def unit_user():
        return ul.UplinkChannelSet(a=np.array([[1.0 + 0j]]),
                                   b=np.zeros((1, 1), dtype=complex),
                                   o=np.zeros((1, 1), dtype=complex))

    def test_two_point_reference_value(self):
        # single user, |c| = 1: means +-1; sigma_xi^2 = 1 at this sigma_v2
        sv2 = (np.sqrt(3.0) - 1.0) / 4.0
        out, regions = self.ser(self.unit_user(), 2 * sv2)
        # Gaussian tail mass beyond the midpoint at unit variance
        assert abs(out - 0.15865525393145707) < 1e-12
        assert not regions.degenerate

    def test_high_snr_tail_keeps_its_digits(self):
        # at sigma_v2 = 1e-3 the rate is ~1e-55; 1 - P(correct) would read 0
        sv2 = 1e-3
        out, _ = self.ser(self.unit_user(), 2 * sv2)
        with mpmath.workdps(50):
            v = 4 * mpmath.mpf(sv2) + 8 * mpmath.mpf(sv2) ** 2
            ref = float(mpmath.erfc(1 / mpmath.sqrt(2 * v)) / 2)
        assert 0.0 < ref < 1e-50
        assert abs(out - ref) <= 1e-9 * ref

        # acceptance-07 geometry: the high-SNR curve stays positive and falls
        cfg = ScenarioConfig(n_users=4, n_bs_antennas=64, n_ris_elements=16,
                             rician_factor=10.0, ris_phase_mode="random", seed=7)
        cf = run_uplink_ser(cfg, "closed_form", (30, 33, 36, 40)).series["closed_form"].values
        assert np.all(cf > 0.0)
        assert np.all(np.diff(cf) <= 0.0)

    def test_vanishing_noise(self):
        g = rng(8)
        chans = ul.UplinkChannelSet(a=complex_gauss(g, (8, 3)),
                                    b=0.2 * complex_gauss(g, (8, 3)),
                                    o=0.05 * complex_gauss(g, (8, 3)))
        assert self.ser(chans, 2e-8)[0] < 1e-12

    def test_degenerate_points_counted_as_errors(self):
        chans = ul.UplinkChannelSet(a=np.array([[1.0 + 0j, 1.0 + 0j]]),
                                    b=np.zeros((1, 2), dtype=complex),
                                    o=np.zeros((1, 2), dtype=complex))
        out, regions = self.ser(chans, 0.02, np.array([1.0, 1.0]))
        assert regions.degenerate
        # points 1 and 2 share the middle region [-1, 1), whose detector
        # decides point 1: point 2 errs outright, and point 1 (energies 1
        # and 1, so mean 0 and variance 8 sigma_v2 + 8 sigma_v2^2) with the
        # mass outside it.  The outer two (energies 0 and 4, so mean -+4
        # and variance 4 sigma_v2 * 4 + 8 sigma_v2^2) err with the Gaussian
        # tail beyond the boundaries at -+1
        sv2 = 0.01
        tail = 0.5 * special.erfc(3.0 / np.sqrt(2.0 * (16 * sv2 + 8 * sv2 ** 2)))
        middle = special.erfc(1.0 / np.sqrt(2.0 * (8 * sv2 + 8 * sv2 ** 2)))
        assert abs(out - (1.0 + middle + 2.0 * tail) / 4.0) < 1e-15

    def test_degenerate_instance_matches_monte_carlo(self):
        # two users with equal gains: points 1 and 2 share the middle region.
        # The Monte Carlo scores each symbol against its decision interval,
        # and the closed form must count the same errors: point 1 errs only
        # outside the middle region, point 2 always.  256 antennas keep the
        # surrogate's shape error below the Monte Carlo's interval (at 4
        # antennas it is about 0.004); counting both shared points as
        # errors would read about 0.5 here
        n_t, sigma2, n = 256, 16.0, 400_000
        a = np.ones((n_t, 2), dtype=complex)
        chans = ul.UplinkChannelSet(a=a, b=np.zeros_like(a), o=np.zeros_like(a))
        const = dl.bipolar_candidates(2)
        regions = ul.build_regions(ul.exact_linear_gains(chans).sum(axis=0), const)
        assert regions.degenerate
        lo, hi = regions.intervals()
        g1, g2 = branch_energies(chans.c, const)
        e1, e2 = g1.sum(axis=1), g2.sum(axis=1)
        errors, trials = _uplink_task((e1, e2, n_t, lo, hi, sigma2, 3, 0, 0, n))["monte_carlo"]
        mc = errors / trials
        half_width = 1.96 * np.sqrt(mc * (1.0 - mc) / trials)
        cf = an.closed_form_ser(lo, hi, e1, e2, n_t, sigma2)
        assert abs(mc - cf) < half_width

    def test_monotone_in_noise(self):
        g = rng(9)
        chans = ul.UplinkChannelSet(a=complex_gauss(g, (16, 3)),
                                    b=0.2 * complex_gauss(g, (16, 3)),
                                    o=0.05 * complex_gauss(g, (16, 3)))
        sers = [self.ser(chans, s2)[0] for s2 in (0.001, 0.01, 0.1, 1.0)]
        assert sers[0] <= sers[1] <= sers[2] <= sers[3]

    # the tails below are math.erfc mapped over the bounds, so these pin its
    # behaviour at the bounds an interval can have

    def test_infinite_bounds(self):
        # n_t = 1, e1 = 1, e2 = 0 and sigma2 = 0.5: mean 1 and variance
        # 4 * 0.25 + 8 * 0.25^2 = 1.5, so erfc(1 / sqrt(3)) / 2 lies below 0
        def ser(lo, hi):
            return an.closed_form_ser(np.array([lo]), np.array([hi]), np.ones(1),
                                      np.zeros(1), 1, 0.5)

        with mpmath.workdps(50):
            below = float(mpmath.erfc(1 / mpmath.sqrt(3)) / 2)
        assert ser(-np.inf, np.inf) == 0.0
        assert abs(ser(0.0, np.inf) - below) < 1e-15
        assert abs(ser(-np.inf, 0.0) - (1.0 - below)) < 1e-15

    def test_empty_intervals_err_outright(self):
        # [+inf, -inf) is the interval of a point that shares a collapsed
        # region, and a finite lo >= hi is just as empty: both count 1
        lo = np.array([np.inf, 2.0, -np.inf])
        hi = np.array([-np.inf, 2.0, np.inf])
        assert an.closed_form_ser(lo, hi, np.ones(3), np.zeros(3), 1, 0.5) == 2.0 / 3.0

    def test_subnormal_tail_keeps_its_digits(self):
        # a tail of erfc(26.7) / 2 ~ 2.6e-312 lies below the smallest normal
        # double; the C library's erfc keeps it where scipy.special's reads 0
        e1, e2, n_t, sigma2 = np.ones(1), np.zeros(1), 1, 0.5
        mu, var = an.gaussian_approx(e1, e2, sigma2 / 2.0, n_t)
        hi = mu + 26.7 * np.sqrt(2.0 * var)
        z = float(((hi - mu) / np.sqrt(2.0 * var))[0])
        out = an.closed_form_ser(np.array([-np.inf]), hi, e1, e2, n_t, sigma2)
        with mpmath.workdps(50):
            ref = float(mpmath.erfc(mpmath.mpf(z)) / 2)
        assert 0.0 < ref < np.finfo(float).tiny
        # subnormals carry about 40 bits here
        assert abs(out - ref) <= 1e-9 * ref


def test_gaussian_error_shrinks_at_high_snr():
    # scale-normalized sup distance between the series density and its
    # Gaussian surrogate falls as the branch noise shrinks
    errs = []
    for sv2 in (0.1, 0.01, 0.001):
        mu = 0.03
        s2 = 4 * sv2 * 0.07 + 8 * sv2 ** 2
        sd = np.sqrt(s2)
        grid = np.linspace(mu - 8 * sd, mu + 8 * sd, 801)
        series = an.gamma_difference_pdf(grid, 0.05, 0.02, 2 * sv2)
        gauss = stats.norm.pdf(grid, mu, sd)
        errs.append(np.max(np.abs(series - gauss)) * sd)
    assert errs[0] > errs[1] > errs[2]
