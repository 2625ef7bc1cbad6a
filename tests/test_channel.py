import numpy as np
import pytest
from scipy.special import j0

from rislink import channel as ch
from conftest import complex_gauss, rng


class TestUlaSteering:
    def test_broadside_is_all_ones(self):
        np.testing.assert_allclose(ch.ula_steering(0.0, 4, 0.5, 1.0), np.ones(4))

    def test_endfire_half_wavelength(self):
        out = ch.ula_steering(np.pi / 2, 2, 0.5, 1.0)
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-12)

    def test_matches_per_element_formula(self):
        theta, n = 0.3, 8
        out = ch.ula_steering(theta, n, 0.5, 1.0)
        expected = np.array([np.exp(1j * np.pi * k * np.sin(theta)) for k in range(n)])
        np.testing.assert_allclose(out, expected, atol=1e-12)
        np.testing.assert_allclose(np.abs(out), 1.0, atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ch.ula_steering(np.nan, 4, 0.5, 1.0)
        with pytest.raises(ValueError):
            ch.ula_steering(0.1, 0, 0.5, 1.0)


class TestUpaSteering:
    def test_single_element(self):
        out = ch.upa_steering(0.7, 1.1, 1, 1, 0.5, 1.0)
        np.testing.assert_allclose(out, [1.0])

    def test_unit_norm(self):
        g = rng(1)
        for _ in range(20):
            out = ch.upa_steering(g.uniform(0, np.pi), g.uniform(0, 2 * np.pi), 4, 4, 0.5, 1.0)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_matches_double_loop(self):
        nx = ny = 8
        theta, phi = 0.5, 1.0
        out = ch.upa_steering(theta, phi, nx, ny, 0.5, 1.0)
        d_over_lam = 0.5
        expected = np.empty(nx * ny, dtype=complex)
        for m in range(nx):
            for n in range(ny):
                phase = 2 * np.pi * d_over_lam * (
                    m * np.sin(phi) * np.sin(theta) + n * np.cos(theta))
                expected[m * ny + n] = np.exp(1j * phase)
        expected /= np.sqrt(nx * ny)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("nx, ny", [(1, 1), (8, 8), (4, 16), (3, 5)])
    def test_outer_product_equals_kron_bit_for_bit(self, nx, ny):
        g = rng(2)
        theta, phi = g.uniform(0, np.pi), g.uniform(0, 2 * np.pi)
        scale = 2 * np.pi * 0.5
        u = np.exp(1j * scale * np.arange(nx) * np.sin(phi) * np.sin(theta))
        v = np.exp(1j * scale * np.arange(ny) * np.cos(theta))
        kron = np.kron(u, v) / np.sqrt(nx * ny)
        out = ch.upa_steering(theta, phi, nx, ny, 0.5, 1.0)
        assert np.array_equal(out.view(float), kron.view(float))


class TestLosComponent:
    def test_scalar(self):
        np.testing.assert_allclose(ch.los_component(np.array([1.0]), np.array([1.0])),
                                   [[1.0]])

    def test_hand_outer_product(self):
        out = ch.los_component(np.array([1.0, -1.0]), np.array([1.0, 1j]))
        np.testing.assert_allclose(out, [[1.0, -1j], [-1.0, 1j]])

    def test_rank_one_via_minors(self):
        g = rng(2)
        mat = ch.los_component(np.exp(1j * g.uniform(0, 2 * np.pi, 64)),
                               np.exp(1j * g.uniform(0, 2 * np.pi, 128)))
        rows = g.integers(0, 64, size=(400, 2))
        cols = g.integers(0, 128, size=(400, 2))
        dets = (mat[rows[:, 0], cols[:, 0]] * mat[rows[:, 1], cols[:, 1]]
                - mat[rows[:, 0], cols[:, 1]] * mat[rows[:, 1], cols[:, 0]])
        assert np.abs(dets).max() < 1e-10


class TestDrawRician:
    """Rician draws as the scenario builds them: path gain times the
    rician_weights mix of a unit-magnitude LoS and a complex_normal NLoS."""

    def unit_los(self, shape, g):
        return np.exp(1j * g.uniform(0, 2 * np.pi, shape))

    def draw(self, los, k, path_gain, g):
        w_los, w_nlos = ch.rician_weights(k)
        return path_gain * w_los * los + path_gain * w_nlos * ch.complex_normal(g, los.shape)

    def test_infinite_k_limit(self):
        g = rng(3)
        los = self.unit_los((8, 8), g)
        draw = self.draw(los, 1e12, 0.3, g)
        assert np.abs(draw - 0.3 * los).max() / 0.3 < 1e-5

    def test_pure_nlos_variance(self):
        g = rng(4)
        los = self.unit_los((100, 100), g)
        draws = np.stack([self.draw(los, 0.0, 0.7, g) for _ in range(10)])
        var = np.mean(np.abs(draws) ** 2)
        assert abs(var - 0.49) / 0.49 < 0.05

    def test_k10_mean(self):
        g = rng(5)
        los = self.unit_los((10, 10), g)
        n_draws = 1000
        acc = np.zeros((10, 10), dtype=complex)
        for _ in range(n_draws):
            acc += self.draw(los, 10.0, 1.0, g)
        mean = acc / n_draws
        expected = np.sqrt(10 / 11) * los
        # global deviation within 3 sigma of the sample-mean estimator
        sigma_global = np.sqrt(1 / 11) / np.sqrt(n_draws * 100)
        assert abs(np.mean(mean - expected)) < 3 * sigma_global
        sigma_entry = np.sqrt(1 / 11) / np.sqrt(n_draws)
        assert np.abs(mean - expected).max() < 5 * sigma_entry

    @pytest.mark.parametrize("k", [0.0, 1.0, 10.0, 1e6])
    def test_power_preserved_for_all_k(self, k):
        g = rng(6)
        los = self.unit_los((50, 50), g)
        draws = np.stack([self.draw(los, k, 0.5, g) for _ in range(20)])
        power = np.mean(np.abs(draws) ** 2)
        assert abs(power - 0.25) / 0.25 < 0.03

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            ch.rician_weights(-1.0)


class TestComplexNormal:
    def test_zero_variance_draws_nothing(self):
        g = rng(16)
        before = g.bit_generator.state
        out = ch.complex_normal(g, (3, 4), 0.0)
        assert out.shape == (3, 4) and out.dtype == complex
        assert not np.any(out)
        stacked = ch.complex_normal(g, (3, 4), 0.0, blocks=5)
        assert stacked.shape == (5, 3, 4) and not np.any(stacked)
        assert g.bit_generator.state == before

    @pytest.mark.parametrize("shape, n", [((8, 128), 3), ((25, 8), 40), ((4, 25), 80)])
    def test_blocks_equal_successive_calls(self, shape, n):
        # each call draws its real parts, then its imaginary parts
        one, stacked = rng(18), rng(18)
        calls = np.stack([np.sqrt(0.35) * (one.standard_normal(shape)
                                           + 1j * one.standard_normal(shape))
                          for _ in range(n)])
        got = ch.complex_normal(stacked, shape, 0.7, blocks=n)
        assert got.shape == (n,) + shape
        np.testing.assert_array_equal(got, calls)
        assert stacked.bit_generator.state == one.bit_generator.state
        np.testing.assert_array_equal(ch.complex_normal(rng(18), shape, 0.7), calls[0])

    @pytest.mark.parametrize("sigma2", [1.0, 0.7, 1e-9, 3.5])
    def test_bit_identical_to_zero_filled_scaling(self, sigma2):
        # the previous form: write the draws into zeros, then scale the
        # complex result by a real factor
        shape, n = (25, 8), 40
        g = rng(19).standard_normal((n, 2) + shape)
        old = np.zeros((n,) + shape, dtype=complex)
        old.real = g[:, 0]
        old.imag = g[:, 1]
        old *= np.sqrt(sigma2 / 2.0)
        got = ch.complex_normal(rng(19), shape, sigma2, blocks=n)
        assert np.array_equal(got.view(float), old.view(float))

    def test_variance_split_between_quadratures(self):
        x = ch.complex_normal(rng(17), 400_000, 0.3)
        assert abs(np.mean(np.abs(x) ** 2) - 0.3) / 0.3 < 0.01
        assert abs(np.var(x.real) - np.var(x.imag)) < 0.003


class TestPowerDifference:
    """The real-arithmetic observation kernel against the complex formula
    with ``complex_normal`` noise drawn on the same stream."""

    SHAPE = (6, 5, 7)
    SIGMA2 = 0.7

    @staticmethod
    def complex_noise(g, shape, sigma2, branch_major, axis):
        """(v1, v2) as the caller the kernel replaced drew them."""
        if not branch_major:
            v = ch.complex_normal(g, (2,) + shape, sigma2)
            return v[0], v[1]
        lead = int(np.prod(shape[:axis]))
        v = ch.complex_normal(g, shape[axis:], sigma2, blocks=2 * lead)
        v = v.reshape(shape[:axis] + (2,) + shape[axis:])
        return np.take(v, 0, axis=axis), np.take(v, 1, axis=axis)

    def amplitudes(self, g, kind):
        c = complex_gauss(g, (2,) + self.SHAPE)
        return c if kind is complex else c.real

    @pytest.mark.parametrize("branch_major, axis", [(False, 0), (True, 0), (True, 1)],
                             ids=["part_major", "branch_major", "branch_major_per_block"])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_matches_complex_formula(self, branch_major, axis, kind):
        g = rng(41)
        c1, c2 = self.amplitudes(g, kind)
        got_rng, ref_rng = rng(42), rng(42)
        got = ch.power_difference(got_rng, c1, c2, self.SIGMA2,
                                  branch_major=branch_major, axis=axis)
        v1, v2 = self.complex_noise(ref_rng, self.SHAPE, self.SIGMA2, branch_major, axis)
        p1, p2 = np.abs(c1 + v1) ** 2, np.abs(c2 + v2) ** 2
        assert got.shape == self.SHAPE and got.dtype == float
        assert np.all(np.abs(got - (p1 - p2)) <= 8 * np.finfo(float).eps * (p1 + p2))
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("shape", [None, (50_000,)], ids=["scalar", "broadcast"])
    def test_scalar_amplitudes(self, shape):
        # the pdf-fit point broadcasts one clean pair to n noisy observations
        c1, c2 = 0.8 - 0.3j, 0.2 + 0.5j
        got = ch.power_difference(rng(43), c1, c2, self.SIGMA2, shape)
        v = ch.complex_normal(rng(43), (2,) + (shape or ()), self.SIGMA2)
        p1, p2 = np.abs(c1 + v[0]) ** 2, np.abs(c2 + v[1]) ** 2
        assert np.all(np.abs(got - (p1 - p2)) <= 8 * np.finfo(float).eps * (p1 + p2))

    @pytest.mark.parametrize("kind", [float, complex])
    def test_zero_variance_is_clean_difference(self, kind):
        g = rng(44)
        c1, c2 = self.amplitudes(g, kind)
        before = g.bit_generator.state
        got = ch.power_difference(g, c1, c2, 0.0, branch_major=True, axis=1)
        assert g.bit_generator.state == before
        clean = (c1.real ** 2 + c1.imag ** 2) - (c2.real ** 2 + c2.imag ** 2)
        assert np.array_equal(got, clean)
        if kind is float:
            assert np.array_equal(got, c1 ** 2 - c2 ** 2)


class TestJakesFading:
    def test_zero_doppler_is_frozen(self):
        state = ch.JakesFading.create((16, 16), 0.0, rng(7))
        first = state.sample_at(1e-3)
        later = state.sample_at(5.001)
        np.testing.assert_allclose(first, later, atol=1e-14)

    @pytest.mark.parametrize("f_max", [0.0, 197.0, 983.0])
    @pytest.mark.parametrize("shape", [(1, 1), (8, 64)])
    def test_grid_matches_sample_at(self, f_max, shape):
        # block starts of the default frame: 20 pilots, then 25-symbol
        # blocks of 8 us symbols; 400 blocks is ten 40-block frames
        state = ch.JakesFading.create(shape, f_max, rng(11))
        t0, dt, count = 20 * 8e-6, 25 * 8e-6, 400
        grid = state.sample_grid(t0, dt, count)
        assert grid.shape == (count,) + shape
        oracle = np.stack([state.sample_at(t0 + k * dt) for k in range(count)])
        assert np.abs(grid - oracle).max() < 1e-12
        if f_max == 0.0:
            still = state.sample_at(0.0)
            assert all(np.array_equal(g, still) for g in grid)

    @pytest.mark.parametrize("t", [0.0, 1.6e-4, 0.37])
    def test_sample_at_matches_cosine_sums(self, t):
        # the written-out sum of sinusoids: one cosine per oscillator
        state = ch.JakesFading.create((8, 64), 983.0, rng(12))
        wd_t = 2 * np.pi * state.f_max * t
        m = state.phi.shape[-1]
        re = np.cos(wd_t * state.cos_alpha + state.phi).sum(axis=-1)
        im = np.cos(wd_t * state.sin_alpha + state.psi).sum(axis=-1)
        got = state.sample_at(t)
        assert got.shape == (8, 64)
        assert np.abs(got - (re + 1j * im) / np.sqrt(m)).max() < 1e-12

    def test_lag_one_autocorrelation_matches_bessel(self):
        f_max, dt = 1000.0, 8e-6
        state = ch.JakesFading.create(200_000, f_max, rng(8))
        pairs = 0.0
        power = 0.0
        base = state.sample_at(0.0)
        for lag in range(1, 6):
            nxt = state.sample_at(lag * dt)
            pairs += np.mean(np.conj(base) * nxt).real
            power += np.mean(np.abs(base) ** 2)
            base = nxt
        r = pairs / power
        expected = j0(2 * np.pi * f_max * dt)
        assert abs(r - expected) / expected < 0.01

    def test_decorrelates_at_first_bessel_zero(self):
        f_max = 1000.0
        t_zero = 2.404825557695773 / (2 * np.pi * f_max)
        state = ch.JakesFading.create(400_000, f_max, rng(9))
        x0 = state.sample_at(0.0)
        x1 = state.sample_at(t_zero)
        r = np.mean(np.conj(x0) * x1).real / np.mean(np.abs(x0) ** 2)
        assert abs(r) < 0.02

    def test_marginal_invariant_across_blocks(self):
        state = ch.JakesFading.create(100_000, 500.0, rng(10))
        for t in (0.0, 1e-3, 0.1):
            x = state.sample_at(t)
            assert abs(np.mean(x)) < 0.02
            assert abs(np.mean(np.abs(x) ** 2) - 1.0) < 0.02


class TestCascade:
    def test_identity_pattern(self):
        out = ch.cascade(np.ones(4), np.zeros(4), np.eye(4))
        np.testing.assert_allclose(out, np.ones(4))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ch.cascade(np.ones(3), np.zeros(4), np.eye(4))

    def test_four_term_recomposition(self):
        g = rng(12)
        phases = g.uniform(0, 2 * np.pi, 64)
        g_los = complex_gauss(g, 64)
        g_nlos = complex_gauss(g, 64)
        q_los = complex_gauss(g, (64, 128))
        q_nlos = complex_gauss(g, (64, 128))
        terms = ch.cascade_decomposition(g_los, g_nlos, phases, q_los, q_nlos)
        full = ch.cascade(g_los + g_nlos, phases, q_los + q_nlos)
        assert np.abs(sum(terms) - full).max() < 1e-12

    def test_pure_los_term_against_direct_evaluation(self):
        g = rng(13)
        k, v = 7.0, 3.0
        phases = g.uniform(0, 2 * np.pi, 16)
        q_los = np.exp(1j * g.uniform(0, 2 * np.pi, (16, 8)))
        g_los = np.exp(1j * g.uniform(0, 2 * np.pi, 16))
        w_g = np.sqrt(v / (1 + v))
        w_q = np.sqrt(k / (1 + k))
        terms = ch.cascade_decomposition(w_g * g_los, 0 * g_los, phases,
                                         w_q * q_los, 0 * q_los)
        direct = w_g * w_q * ((g_los * np.exp(1j * phases)) @ q_los)
        np.testing.assert_allclose(terms[0], direct, atol=1e-12)


class TestAlignPhases:
    def test_single_element_cancels_phase(self):
        q = np.array([np.exp(1j * 0.8)])
        big = np.array([[np.exp(1j * 1.9)]])
        phases = ch.align_phases_to_los(q, big)
        out = ch.cascade(q, phases, big)
        assert abs(out[0].imag) < 1e-12 and out[0].real > 0

    def test_triangle_inequality_attained(self):
        g = rng(14)
        q = complex_gauss(g, 16)
        big = complex_gauss(g, (16, 4))
        phases = ch.align_phases_to_los(q, big)
        out = ch.cascade(q, phases, big)
        bound = np.sum(np.abs(q) * np.abs(big[:, 0]))
        assert abs(abs(out[0]) - bound) < 1e-10

    def test_dominates_zero_phases(self):
        g = rng(15)
        q = complex_gauss(g, 16)
        big = complex_gauss(g, (16, 4))
        aligned = ch.cascade(q, ch.align_phases_to_los(q, big), big)
        plain = ch.cascade(q, np.zeros(16), big)
        assert abs(plain[0]) <= abs(aligned[0]) + 1e-12


def test_same_stream_reproducible():
    a = ch.complex_normal(rng(99), (4, 4))
    b = ch.complex_normal(rng(99), (4, 4))
    np.testing.assert_array_equal(a, b)
