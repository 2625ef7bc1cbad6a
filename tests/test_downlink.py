import tracemalloc

import numpy as np
import pytest
from scipy.linalg import hadamard as scipy_hadamard

from rislink import downlink as dl
from rislink.harness import _precoded_link
from conftest import complex_gauss, rng


class TestEquivalentChannel:
    def test_scalar_one(self):
        np.testing.assert_allclose(dl.equivalent_channel(np.array([[1.0 + 0j]])), [[1.0]])

    def test_unit_phasor(self):
        for theta in (0.1, 1.7, 3.0):
            out = dl.equivalent_channel(np.array([[np.exp(1j * theta)]]))
            np.testing.assert_allclose(out, [[1.0]], atol=1e-14)

    def test_matches_cosine_double_sum(self):
        g = rng(0)
        h = complex_gauss(g, (2, 3))
        out = dl.equivalent_channel(h)
        mags, phases = np.abs(h), np.angle(h)
        for m in range(2):
            for n in range(3):
                oracle = sum(mags[m, n] * mags[m, k] * np.cos(phases[m, n] - phases[m, k])
                             for k in range(3))
                assert abs(out[m, n] - oracle) < 1e-12

    def test_exactly_real_and_nonnegative_row_sums(self):
        g = rng(1)
        out = dl.equivalent_channel(complex_gauss(g, (6, 12)))
        assert out.dtype.kind == "f"
        assert np.all(out.sum(axis=1) >= 0)

    def test_row_sum_equals_squared_row_total(self):
        g = rng(2)
        h = complex_gauss(g, (5, 9))
        out = dl.equivalent_channel(h)
        np.testing.assert_allclose(out.sum(axis=1), np.abs(h.sum(axis=1)) ** 2,
                                   rtol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dl.equivalent_channel(np.array([[np.inf + 0j]]))


class TestLsEstimate:
    def test_noiseless_recovery(self):
        g = rng(3)
        h_bar = g.standard_normal((4, 8))
        pilots = dl.hadamard_pilots(8)
        z = h_bar @ pilots
        est = dl.ls_estimate(pilots, z)
        np.testing.assert_allclose(est, h_bar, atol=1e-10)

    def test_double_length_hadamard_exact(self):
        g = rng(4)
        h_bar = g.standard_normal((4, 8))
        pilots = dl.hadamard_pilots(16)[:8]
        assert pilots.shape == (8, 16)
        est = dl.ls_estimate(pilots, h_bar @ pilots)
        np.testing.assert_allclose(est, h_bar, atol=1e-10)

    def test_mse_shrinks_with_pilot_length(self):
        g = rng(5)
        h_bar = g.standard_normal((4, 16))
        sigma2 = 0.01
        mse = []
        for length in (32, 64, 128):
            pilots = dl.hadamard_pilots(length)[:16]
            err = 0.0
            for _ in range(200):
                z = h_bar @ pilots + np.sqrt(sigma2) * g.standard_normal((4, length))
                est = dl.ls_estimate(pilots, z)
                err += np.mean((est - h_bar) ** 2)
            mse.append(err / 200)
        assert mse[0] > mse[1] > mse[2]

    def test_rank_deficient_pilots_raise(self):
        pilots = np.ones((4, 8))
        with pytest.raises(np.linalg.LinAlgError):
            dl.ls_estimate(pilots, np.ones((2, 8)))


class TestHadamardPilots:
    def test_sylvester_matches_scipy(self):
        for n_rows in range(1, 257):
            order = dl.hadamard_order(n_rows)
            assert order >= n_rows and order & (order - 1) == 0
            assert order < 2 * n_rows or n_rows == 1
            np.testing.assert_array_equal(dl.hadamard_pilots(n_rows),
                                          scipy_hadamard(order)[:n_rows])

    def test_built_once_and_read_only(self):
        for n_t in (5, 32):
            p = dl.hadamard_pilots(n_t)
            assert dl.hadamard_pilots(n_t) is p
            assert not p.flags.writeable
            with pytest.raises(ValueError):
                p[0, 0] = -1.0

    @pytest.mark.parametrize("n_t", [1, 4, 5, 8, 16, 24, 32, 128])
    def test_gram_is_exactly_order_identity(self, n_t):
        order = dl.hadamard_order(n_t)
        p = dl.hadamard_pilots(n_t)
        assert p.shape == (n_t, order)
        np.testing.assert_array_equal(p @ p.T, order * np.eye(n_t))


class TestJointDetect:
    def test_noiseless_recovery(self):
        g = rng(6)
        for _ in range(50):
            h_bar = g.standard_normal((4, 6))
            s = g.integers(0, 2, 6)
            z = h_bar @ (2.0 * s - 1.0)
            out = dl.joint_detect(z, h_bar)
            np.testing.assert_array_equal(out, s)

    def test_matches_bruteforce_oracle_under_noise(self):
        g = rng(7)
        h_bar = g.standard_normal((4, 4))
        for _ in range(10_000):
            s = g.integers(0, 2, 4)
            z = h_bar @ (2.0 * s - 1.0) + np.sqrt(0.05) * g.standard_normal(4)
            got = dl.joint_detect(z, h_bar)
            best, best_val = None, np.inf
            for idx in range(16):
                cand = np.array([(idx >> 3) & 1, (idx >> 2) & 1, (idx >> 1) & 1, idx & 1])
                val = np.sum((z - h_bar @ (2.0 * cand - 1.0)) ** 2)
                if val < best_val:  # strict: first minimum wins, as in the contract
                    best, best_val = cand, val
            np.testing.assert_array_equal(got, best)

    def test_tie_breaks_lexicographically(self):
        # orthogonal equal-norm rows, observation zero: every candidate ties
        h_bar = np.eye(4)
        out = dl.joint_detect(np.zeros(4), h_bar)
        np.testing.assert_array_equal(out, np.zeros(4, dtype=int))

    def test_cap_enforced(self):
        with pytest.raises(dl.SearchTooLarge):
            dl.bipolar_candidates(17)

    @pytest.mark.parametrize("n, allowed", [(16, True), (17, False)])
    def test_cap_check_at_the_boundary(self, n, allowed):
        if allowed:
            dl.check_search_size(n)
        else:
            with pytest.raises(dl.SearchTooLarge):
                dl.check_search_size(n)

    def test_cap_check_builds_no_table(self):
        # the full 2^16 x 16 table would take 8 MB
        tracemalloc.start()
        try:
            dl.check_search_size(16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def first_minimum_oracle(z, h_bar):
    """Brute-force detection: candidates in lexicographic order of s, and
    only a strictly smaller distance replaces the best so far."""
    n_t = h_bar.shape[1]
    best, best_val = None, np.inf
    for idx in range(2 ** n_t):
        cand = np.array([(idx >> (n_t - 1 - j)) & 1 for j in range(n_t)])
        val = np.sum((z - h_bar @ (2.0 * cand - 1.0)) ** 2)
        if val < best_val:
            best, best_val = cand, val
    return best


class TestJointDetectBlock:
    @pytest.mark.parametrize("n_t", [4, 6])
    def test_matches_row_loop_and_oracle_under_noise(self, n_t):
        g = rng(20 + n_t)
        h_bar = g.standard_normal((4, n_t))
        s = g.integers(0, 2, (300, n_t))
        z = h_bar @ (2.0 * s - 1.0).T + np.sqrt(0.5) * g.standard_normal((4, 300))
        got = dl.joint_detect(z, h_bar)
        assert got.shape == (300, n_t)
        rows = np.array([dl.joint_detect(z[:, m], h_bar) for m in range(300)])
        np.testing.assert_array_equal(got, rows)
        oracle = np.array([first_minimum_oracle(z[:, m], h_bar) for m in range(300)])
        np.testing.assert_array_equal(got, oracle)
        assert np.count_nonzero(got != s) > 0  # the noise made errors

    def test_one_dimensional_call_returns_one_symbol(self):
        h_bar = rng(30).standard_normal((3, 5))
        z = h_bar @ (2.0 * np.array([1, 0, 0, 1, 1]) - 1.0)
        assert dl.joint_detect(z, h_bar).shape == (5,)
        np.testing.assert_array_equal(dl.joint_detect(z[:, None], h_bar),
                                      [[1, 0, 0, 1, 1]])

    def test_all_tie_rows_decode_to_zero(self):
        out = dl.joint_detect(np.zeros((4, 7)), np.eye(4))
        np.testing.assert_array_equal(out, np.zeros((7, 4), dtype=int))

    def test_zero_column_ties_take_zero_in_every_row(self):
        # element 2 has no effect, so each candidate ties with its partner
        # that differs only there; every decoded row must carry 0 in it,
        # whether noiseless or noisy, and other elements are decoded as sent
        g = rng(31)
        h_bar = g.standard_normal((4, 5))
        h_bar[:, 2] = 0.0
        s = g.integers(0, 2, (9, 5))
        z = h_bar @ (2.0 * s - 1.0).T
        z[:, [0, 4, 8]] += 0.05 * g.standard_normal((4, 3))
        want = s.copy()
        want[:, 2] = 0
        np.testing.assert_array_equal(dl.joint_detect(z, h_bar), want)

    @pytest.mark.parametrize("per_slice", [1, 2, 4])
    def test_slicing_leaves_decisions_unchanged(self, monkeypatch, per_slice):
        g = rng(33)
        h_bar = g.standard_normal((3, 4))
        h_bar[:, 1] = 0.0  # ties in every row, across slice boundaries too
        z = h_bar @ (2.0 * g.integers(0, 2, (4, 11)) - 1.0) \
            + 0.3 * g.standard_normal((3, 11))
        whole = dl.joint_detect(z, h_bar)
        monkeypatch.setattr(dl, "JOINT_SLICE_ELEMENTS", per_slice * 3 * 16)
        np.testing.assert_array_equal(dl.joint_detect(z, h_bar), whole)
        assert not whole[:, 1].any()

    def test_memory_bounded_at_search_cap(self):
        g = rng(32)
        h_bar = g.standard_normal((4, 16))
        z = h_bar @ (2.0 * g.integers(0, 2, (16, 200)) - 1.0)
        tracemalloc.start()
        try:
            out = dl.joint_detect(z, h_bar)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (200, 16)
        # one unsliced residual would be 4 x 200 x 2^16 doubles, about 420 MB
        assert peak < 64 * 2 ** 20


class TestZfPrecoder:
    def test_identity_channel(self):
        pre = dl.zf_precoder(np.eye(4))
        np.testing.assert_allclose(pre.p, np.eye(4), atol=1e-12)
        assert abs(pre.rho - 1.0 / 8.0) < 1e-12

    def test_scaled_identity(self):
        pre = dl.zf_precoder(2.0 * np.eye(4))
        np.testing.assert_allclose(pre.p, 0.5 * np.eye(4), atol=1e-12)
        # tr(R^-1) = 4/4 = 1 -> rho = 1/2
        assert abs(pre.rho - 0.5) < 1e-12

    def test_zf_identity_residual(self):
        g = rng(8)
        h_bar = g.standard_normal((8, 128))
        pre = dl.zf_precoder(h_bar)
        assert np.abs(h_bar @ pre.p - np.eye(8)).max() < 1e-9

    def test_rank_deficient_raises(self):
        h_bar = np.ones((4, 16))
        with pytest.raises(dl.RankDeficientChannel):
            dl.zf_precoder(h_bar)

    def test_power_normalization(self):
        # under unit-power symbol streams the scaled transmit power is one
        g = rng(9)
        h_bar = g.standard_normal((4, 32))
        pre = dl.zf_precoder(h_bar)
        trace = np.trace(pre.p.T @ pre.p)
        assert abs(pre.rho * 2.0 * trace - 1.0) < 1e-9


class TestPrecodedRoundtrip:
    def test_all_ones(self):
        g = rng(10)
        h_bar = g.standard_normal((4, 16))
        pre = dl.zf_precoder(h_bar)
        s = np.ones(4, dtype=int)
        np.testing.assert_allclose(dl.precoded_roundtrip(h_bar, pre, s),
                                   np.ones(4), atol=1e-9)

    def test_all_minus_ones(self):
        g = rng(11)
        h_bar = g.standard_normal((4, 16))
        pre = dl.zf_precoder(h_bar)
        s = np.zeros(4, dtype=int)
        np.testing.assert_allclose(dl.precoded_roundtrip(h_bar, pre, s),
                                   -np.ones(4), atol=1e-9)

    def test_random_symbols(self):
        g = rng(12)
        h_bar = g.standard_normal((8, 64))
        pre = dl.zf_precoder(h_bar)
        for _ in range(50):
            s = g.integers(0, 2, 8)
            out = dl.precoded_roundtrip(h_bar, pre, s)
            np.testing.assert_allclose(out, 2.0 * s - 1.0, atol=1e-9)


class TestOutputSnr:
    def test_asymptotic_reference_values(self):
        assert abs(dl.output_snr_asymptotic(128, 8, 1.0) - 119.0 / 32.0) < 1e-12
        assert abs(dl.output_snr_asymptotic(10, 8, 1.0) - 1.0 / 32.0) < 1e-12

    def test_asymptotic_requires_margin(self):
        with pytest.raises(ValueError):
            dl.output_snr_asymptotic(9, 8, 1.0)

    def test_exact_matches_asymptotic_for_gaussian_channels(self):
        g = rng(13)
        sigma2, n_t, n_k = 0.01, 128, 8
        rhos = [dl.zf_precoder(g.standard_normal((n_k, n_t))).rho for _ in range(200)]
        exact = np.mean([dl.output_snr_exact(rho, sigma2) for rho in rhos])
        asym = dl.output_snr_asymptotic(n_t, n_k, sigma2)
        assert abs(10 * np.log10(exact / asym)) < 1.0


    @pytest.mark.parametrize("sigma2", [0.3, 1.0, 3.0])
    def test_exact_matches_simulated_link(self, sigma2):
        # eta of the sampled precoded link, as run_output_snr measures it,
        # against the mean law over the same i.i.d. channel draws
        g = rng(31)
        n_k, n_t = 4, 16
        simulated, law = [], []
        for _ in range(100):
            h_bar = g.standard_normal((n_k, n_t))
            pre = dl.zf_precoder(h_bar)
            bits = g.integers(0, 2, size=(20_000, n_k)).astype(float)
            a1, a2, z = _precoded_link(h_bar @ pre.p, pre.rho, bits, sigma2, g)
            clean = a1 ** 2 - a2 ** 2
            simulated.append(np.mean(clean ** 2) / np.mean((z - clean) ** 2))
            law.append(dl.output_snr_exact(pre.rho, sigma2))
        assert abs(np.mean(simulated) / np.mean(law) - 1.0) < 0.02


class TestPrecodedBerExact:
    def test_reference_values(self):
        assert dl.precoded_ber_exact(0.0, 1.0) == 0.5
        assert abs(dl.precoded_ber_exact(2.0, 0.5) - 0.5 * np.exp(-2.0)) < 1e-16
        np.testing.assert_array_equal(dl.precoded_ber_exact(np.array([0.0, 0.0]), 3.0),
                                      [0.5, 0.5])
        with pytest.raises(ValueError):
            dl.precoded_ber_exact(1.0, 0.0)

    @pytest.mark.parametrize("ber", [0.2, 0.02, 0.002])
    def test_matches_identity_link(self, ber):
        # W = I: each bit rides its own branch pair at amplitude sqrt(rho)
        n_k, rho = 4, 1.0
        sigma2 = rho / (2.0 * np.log(0.5 / ber))
        g = rng(29)
        bits = g.integers(0, 2, size=(60_000, n_k))
        _, _, z = _precoded_link(np.eye(n_k), rho, bits.astype(float), sigma2, g)
        n = bits.size
        measured = np.count_nonzero((z >= 0) != bits) / n
        law = dl.precoded_ber_exact(rho, sigma2)
        assert abs(law - ber) < 1e-12
        assert abs(measured - law) < 4.0 * np.sqrt(law * (1.0 - law) / n)


def test_detection_invariant_to_common_rotation():
    g = rng(14)
    for _ in range(50):
        h = complex_gauss(g, (4, 6))
        h_bar = dl.equivalent_channel(h)
        s = g.integers(0, 2, 6)
        z = h_bar @ (2.0 * s - 1.0)
        rotated = dl.equivalent_channel(np.exp(1j * g.uniform(0, 2 * np.pi)) * h)
        a = dl.joint_detect(z, h_bar)
        b = dl.joint_detect(z, rotated)
        np.testing.assert_array_equal(a, b)
