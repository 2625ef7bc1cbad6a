import numpy as np
import pytest
from scipy import stats

from rislink import channel
from rislink import downlink as dl
from rislink import uplink as ul
from rislink.config import ScenarioConfig
from rislink.uplink_ser import run_uplink_ser
from conftest import complex_gauss, rng


def random_chanset(g, n_t=16, n_k=4, scales=(1.0, 0.3, 0.1)):
    return ul.UplinkChannelSet(a=scales[0] * complex_gauss(g, (n_t, n_k)),
                               b=scales[1] * complex_gauss(g, (n_t, n_k)),
                               o=scales[2] * complex_gauss(g, (n_t, n_k)))


class TestAntennaObservation:
    def test_unit_channel(self):
        assert ul.antenna_observation(np.array([1.0 + 0j]), np.array([1])) == 1.0

    def test_phase_only_channel(self):
        for alpha in (0.3, 1.2, 4.0):
            z = ul.antenna_observation(np.array([np.exp(1j * alpha)]), np.array([1]))
            assert abs(z - 1.0) < 1e-12

    def test_matches_linear_form(self):
        g = rng(0)
        for _ in range(100):
            c = complex_gauss(g, 4)
            s = g.integers(0, 2, 4)
            z = ul.antenna_observation(c, s)
            lam = np.conj(c.sum())
            expected = np.real(lam * c) @ (2 * s - 1)
            assert abs(z - expected) < 1e-12


class TestExactLinearGains:
    def test_pure_los_collapses_to_first_part(self):
        g = rng(2)
        chans = ul.UplinkChannelSet(a=complex_gauss(g, (8, 3)),
                                    b=np.zeros((8, 3), dtype=complex),
                                    o=np.zeros((8, 3), dtype=complex))
        gains = ul.exact_linear_gains(chans)
        assert np.abs(gains[1:]).max() < 1e-10
        np.testing.assert_allclose(gains.sum(axis=0), gains[0])

    def test_reconstructs_noiseless_average(self):
        g = rng(3)
        chans = random_chanset(g)
        gains = ul.exact_linear_gains(chans)
        for x_bar in dl.bipolar_candidates(4):
            s = ((x_bar + 1) / 2).astype(int)
            xi = np.mean([ul.antenna_observation(chans.c[m], s)
                          for m in range(chans.n_antennas)])
            assert abs(xi - gains.sum(axis=0) @ x_bar) < 1e-10

    def test_parts_sum_to_total(self):
        g = rng(4)
        chans = random_chanset(g)
        gains = ul.exact_linear_gains(chans)
        pair_all = np.real(np.conj(chans.c.sum(axis=1))[:, None] * chans.c).mean(axis=0)
        np.testing.assert_allclose(gains.sum(axis=0), pair_all, atol=1e-12)

    def test_high_order_part_vanishes_with_many_antennas(self):
        # K = V = 10 style weights, zero-mean NLoS, large array
        g = rng(5)
        n_t, n_k = 4096, 4
        w_los, w_nlos = np.sqrt(10 / 11), np.sqrt(1 / 11)
        a = w_los ** 2 * np.exp(1j * g.uniform(0, 2 * np.pi, (n_t, n_k)))
        b = w_los * w_nlos * (complex_gauss(g, (n_t, n_k)) + complex_gauss(g, (n_t, n_k)))
        o = w_nlos ** 2 * complex_gauss(g, (n_t, n_k))
        gains = ul.exact_linear_gains(ul.UplinkChannelSet(a=a, b=b, o=o))
        assert np.abs(gains[3]).max() < 0.05 * np.abs(gains[0]).max()

    def test_fluctuation_shrinks_with_antennas(self):
        # spread of (total - pure-LoS part) is non-increasing in the array size
        g = rng(6)
        w_los, w_nlos = np.sqrt(10 / 11), np.sqrt(1 / 11)
        spreads = []
        for n_t in (16, 64, 256, 1024):
            samples = []
            for _ in range(100):
                a = w_los ** 2 * np.exp(1j * g.uniform(0, 2 * np.pi, (n_t, 2)))
                b = w_los * w_nlos * (complex_gauss(g, (n_t, 2)) + complex_gauss(g, (n_t, 2)))
                o = w_nlos ** 2 * complex_gauss(g, (n_t, 2))
                gains = ul.exact_linear_gains(ul.UplinkChannelSet(a=a, b=b, o=o))
                samples.append(gains.sum(axis=0)[0] - gains[0][0])
            spreads.append(np.std(samples))
        assert spreads[0] >= spreads[1] >= spreads[2] >= spreads[3]


def looped_pilot_estimates(chans, user, noise_sigma2, g, repeats):
    """The antenna-averaged pilot observation drawn antenna by antenna, one
    repeat after another: the complex-noise loop that
    ``pilot_gain_estimate`` replaced with ``power_difference``, kept as its
    oracle in law.  Returns the ``repeats`` averages."""
    c = chans.c
    n_t, n_k = c.shape
    s = np.full(n_k, 0.5)
    s[user] = 1.0
    cs, cbar = c @ s, c @ (1.0 - s)
    out = np.empty(repeats)
    for r in range(repeats):
        v = channel.complex_normal(g, (2, n_t), noise_sigma2)
        out[r] = np.mean(np.abs(cs + v[0]) ** 2 - np.abs(cbar + v[1]) ** 2)
    return out


class TestPilotGainEstimate:
    def test_noiseless_equals_exact(self):
        g = rng(7)
        chans = random_chanset(g)
        gains = ul.exact_linear_gains(chans)
        for user in range(4):
            est = ul.pilot_gain_estimate(chans, user)
            assert abs(est - gains.sum(axis=0)[user]) < 1e-10

    def test_single_user(self):
        g = rng(8)
        chans = random_chanset(g, n_k=1)
        xi = np.mean([ul.antenna_observation(chans.c[m], np.array([1]))
                      for m in range(chans.n_antennas)])
        assert abs(ul.pilot_gain_estimate(chans, 0) - xi) < 1e-12

    def test_noisy_estimate_close(self):
        g = rng(9)
        chans = random_chanset(g, n_t=128, n_k=4)
        gains = ul.exact_linear_gains(chans)
        est = ul.pilot_gain_estimate(chans, 0, noise_sigma2=0.01, rng=g, repeats=16)
        assert abs(est - gains.sum(axis=0)[0]) / abs(gains.sum(axis=0)[0]) < 0.05

    def test_noisy_estimate_on_evaluation_scenario(self):
        # full-scale instance, 16 pilot repetitions, aligned target user
        from rislink.config import ScenarioConfig
        from rislink.scenario import build_uplink_instance, stream
        cfg = ScenarioConfig(n_users=8, n_bs_antennas=128, n_ris_elements=64)
        chans, _ = build_uplink_instance(cfg, stream(1, 1), stream(1, 2))
        gains = ul.exact_linear_gains(chans)
        target = int(np.argmax(np.abs(gains.sum(axis=0))))
        est = ul.pilot_gain_estimate(chans, target, noise_sigma2=0.01,
                                     rng=rng(9), repeats=16)
        assert abs(est - gains.sum(axis=0)[target]) / abs(gains.sum(axis=0)[target]) < 0.05

    @pytest.mark.parametrize("n_t", [4, 64])
    def test_matches_looped_oracle(self, n_t):
        # one repeat per call, so each estimate is one antenna average; the
        # noise is strong enough that its sigma2^2 n_t term shows, so a
        # draw at the wrong antenna count fails
        chans = random_chanset(rng(10), n_t=n_t)
        g = rng(11)
        got = [ul.pilot_gain_estimate(chans, 1, noise_sigma2=5.0, rng=g)
               for _ in range(4000)]
        want = looped_pilot_estimates(chans, 1, 5.0, rng(12), 4000)
        assert stats.ks_2samp(got, want).pvalue > 1e-3


def scan_regions(total, constellation):
    """The sequential partition ``build_regions`` replaced, kept as its
    oracle: walk the stably sorted means, and open a new region when a mean
    lies more than tol above the current region's lowest mean.  Returns
    (boundaries, representatives, symbol_region)."""
    means = np.asarray(constellation, dtype=float) @ np.asarray(total)
    order = np.argsort(means, kind="stable")
    tol = 1e-12 * max(1.0, float(np.ptp(means)))
    region_means, reps = [], []
    symbol_region = np.empty(means.shape[0], dtype=int)
    for pos in order:
        if region_means and means[pos] - region_means[-1] <= tol:
            symbol_region[pos] = len(region_means) - 1
            reps[-1] = min(reps[-1], int(pos))
        else:
            symbol_region[pos] = len(region_means)
            region_means.append(float(means[pos]))
            reps.append(int(pos))
    region_means = np.asarray(region_means)
    return (0.5 * (region_means[:-1] + region_means[1:]), np.asarray(reps, dtype=int),
            symbol_region)


def planted_ties(g, n_k):
    """Gains with exact ties planted: small integers, or normal draws with
    one user's gain copied, negated or zeroed."""
    if g.random() < 0.5:
        return g.integers(-3, 4, n_k).astype(float)
    gains = g.standard_normal(n_k)
    if n_k > 1:
        i, j = g.choice(n_k, 2, replace=False)
        gains[j] = [gains[i], -gains[i], 0.0][g.integers(3)]
    return gains


class TestRegions:
    def assert_regions(self, regions, boundaries, representatives, symbol_region):
        np.testing.assert_allclose(regions.boundaries, boundaries)
        np.testing.assert_array_equal(regions.representatives, representatives)
        np.testing.assert_array_equal(regions.symbol_region, symbol_region)

    def test_single_user(self):
        regions = ul.build_regions(np.array([1.0]), dl.bipolar_candidates(1))
        self.assert_regions(regions, [0.0], [0, 1], [0, 1])
        assert not regions.degenerate

    def test_two_users_sorted_midpoints(self):
        # means per constellation index: [-1.5, -0.5, 0.5, 1.5]
        regions = ul.build_regions(np.array([1.0, 0.5]), dl.bipolar_candidates(2))
        self.assert_regions(regions, [-1.0, 0.0, 1.0], [0, 1, 2, 3], [0, 1, 2, 3])
        assert not regions.degenerate

    def test_degenerate_means_collapse(self):
        # means per constellation index: [-2, 0, 0, 2]
        gains, const = np.array([1.0, 1.0]), dl.bipolar_candidates(2)
        regions = ul.build_regions(gains, const)
        self.assert_regions(regions, [-1.0, 1.0], [0, 1, 3], [0, 1, 1, 2])
        self.assert_regions(regions, *scan_regions(gains, const))
        assert regions.degenerate
        np.testing.assert_array_equal(np.bincount(regions.symbol_region), [1, 2, 1])

    @pytest.mark.parametrize("n_k", range(1, 13))
    def test_matches_sequential_scan(self, n_k):
        g = rng(100 + n_k)
        for _ in range(4):
            gains = planted_ties(g, n_k)
            const = dl.bipolar_candidates(n_k)
            regions = ul.build_regions(gains, const)
            boundaries, reps, symbol_region = scan_regions(gains, const)
            np.testing.assert_array_equal(regions.boundaries, boundaries)
            np.testing.assert_array_equal(regions.representatives, reps)
            np.testing.assert_array_equal(regions.symbol_region, symbol_region)
            assert regions.degenerate == (np.bincount(symbol_region).max() > 1)

    def test_near_tie_chain_is_one_region(self):
        # consecutive means 0.6 tol apart chain into one region although the
        # chain spans 1.2 tol; the sequential scan split it after two
        const = np.array([[0.0], [6e-13], [1.2e-12], [1.0]])
        regions = ul.build_regions(np.array([1.0]), const)
        self.assert_regions(regions, [0.5], [0, 3], [0, 0, 0, 1])
        np.testing.assert_array_equal(scan_regions([1.0], const)[2], [0, 0, 1, 2])

    def test_region_detect_below_and_boundary(self):
        regions = ul.build_regions(np.array([1.0, 0.5]), dl.bipolar_candidates(2))
        assert regions.locate(-10.0) == 0
        # boundary belongs to the upper region
        assert regions.locate(-1.0) == 1
        assert regions.locate(0.0) == 2

    def test_region_detect_matches_linear_scan(self):
        g = rng(10)
        gains = np.array([0.9, 0.4, -0.3])
        regions = ul.build_regions(gains, dl.bipolar_candidates(3))
        xs = g.uniform(-3, 3, 100_000)
        fast = regions.locate(xs)
        slow = (xs[:, None] >= regions.boundaries[None, :]).sum(axis=1)
        np.testing.assert_array_equal(fast, slow)

    @pytest.mark.parametrize("gains", [[0.9, 0.4, -0.3], [1.0, 1.0, 0.5], [1.0, 0.5]],
                             ids=["distinct", "degenerate", "two_users"])
    def test_intervals_agree_with_region_detect(self, gains):
        gains = np.array(gains)
        const = dl.bipolar_candidates(gains.size)
        regions = ul.build_regions(gains, const)
        lo, hi = regions.intervals()
        # random observations, every boundary exactly, and the means
        xs = np.concatenate([rng(11).uniform(-4, 4, 50_000), regions.boundaries,
                             np.nextafter(regions.boundaries, -np.inf),
                             const @ gains])
        detected = ul.region_detect(xs, regions)
        for i in range(const.shape[0]):
            inside = (lo[i] <= xs) & (xs < hi[i])
            np.testing.assert_array_equal(inside, detected == i)
        # a point that is not its region's representative is never detected
        hidden = regions.representatives[regions.symbol_region] != np.arange(const.shape[0])
        assert hidden.any() == regions.degenerate
        assert np.all(lo[hidden] > hi[hidden])

    def test_detect_returns_symbol_index(self):
        gains = np.array([1.0, 0.5])
        regions = ul.build_regions(gains, dl.bipolar_candidates(2))
        # means per constellation index: [-1.5, -0.5, 0.5, 1.5] in order 00,01,10,11
        assert ul.region_detect(1.4, regions) == 3
        assert ul.region_detect(-0.4, regions) == 1


def test_region_index_invariant_to_common_mean_shift():
    gains = np.array([1.0, 0.5])
    const = dl.bipolar_candidates(2)
    regions = ul.build_regions(gains, const)
    shift = 3.7
    shifted = ul.DecisionRegions(boundaries=regions.boundaries + shift,
                                 representatives=regions.representatives,
                                 symbol_region=regions.symbol_region)
    g = rng(13)
    for xi in g.uniform(-2, 2, 200):
        assert regions.locate(xi) == shifted.locate(xi + shift)


def test_constellation_cap():
    # the uplink enumerates its constellation under the joint search cap
    cfg = ScenarioConfig(n_users=17, n_bs_antennas=8, n_ris_elements=4)
    with pytest.raises(dl.SearchTooLarge, match="search cap"):
        run_uplink_ser(cfg, "closed_form", (10.0,))
