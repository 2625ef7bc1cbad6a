import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import j0

from rislink import channel as ch
from rislink import analysis
from rislink.config import ScenarioConfig
from rislink.scenario import frame_timeline
from conftest import complex_gauss, rng, three_plane_difference

PAPER_SIZES = dict(n_users=8, n_bs_antennas=128, n_ris_elements=64)


class TestUlaSteering:
    def test_broadside_is_all_ones(self):
        np.testing.assert_allclose(ch.ula_steering(0.0, 4), np.ones(4))

    def test_endfire_half_wavelength(self):
        out = ch.ula_steering(np.pi / 2, 2)
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-12)

    def test_matches_per_element_formula(self):
        theta, n = 0.3, 8
        out = ch.ula_steering(theta, n)
        expected = np.array([np.exp(1j * np.pi * k * np.sin(theta)) for k in range(n)])
        np.testing.assert_allclose(out, expected, atol=1e-12)
        np.testing.assert_allclose(np.abs(out), 1.0, atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ch.ula_steering(np.nan, 4)
        with pytest.raises(ValueError):
            ch.ula_steering(0.1, 0)


class TestUpaSteering:
    def test_single_element(self):
        out = ch.upa_steering(0.7, 1.1, 1, 1)
        np.testing.assert_allclose(out, [1.0])

    def test_unit_magnitude(self):
        g = rng(1)
        for _ in range(20):
            out = ch.upa_steering(g.uniform(0, np.pi), g.uniform(0, 2 * np.pi), 4, 4)
            assert out.shape == (16,)
            assert np.abs(np.abs(out) - 1.0).max() < 1e-12

    def test_matches_double_loop(self):
        nx = ny = 8
        theta, phi = 0.5, 1.0
        out = ch.upa_steering(theta, phi, nx, ny)
        d_over_lam = 0.5
        expected = np.empty(nx * ny, dtype=complex)
        for m in range(nx):
            for n in range(ny):
                phase = 2 * np.pi * d_over_lam * (
                    m * np.sin(phi) * np.sin(theta) + n * np.cos(theta))
                expected[m * ny + n] = np.exp(1j * phase)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("nx, ny", [(1, 1), (8, 8), (4, 16), (3, 5)])
    def test_outer_product_equals_kron_bit_for_bit(self, nx, ny):
        g = rng(2)
        theta, phi = g.uniform(0, np.pi), g.uniform(0, 2 * np.pi)
        scale = 2 * np.pi * 0.5
        u = np.exp(1j * scale * np.arange(nx) * np.sin(phi) * np.sin(theta))
        v = np.exp(1j * scale * np.arange(ny) * np.cos(theta))
        kron = np.kron(u, v)
        out = ch.upa_steering(theta, phi, nx, ny)
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


_C = ch.NOISE_CHUNK
STREAM_SHAPES = [(), (1,), (_C - 1,), (_C,), (_C + 1,), (3 * _C + 7,), (40, 25, 8),
                 (2, _C + 3)]


class TestComplexNormal:
    def test_zero_variance_draws_nothing(self):
        g = rng(16)
        before = g.bit_generator.state
        out = ch.complex_normal(g, (3, 4), 0.0)
        assert out.shape == (3, 4) and out.dtype == complex
        assert not np.any(out)
        assert g.bit_generator.state == before

    @pytest.mark.parametrize("sigma2", [1.0, 0.7, 1e-9, 3.5])
    def test_bit_identical_to_zero_filled_scaling(self, sigma2):
        # the previous form: write the draws into zeros, then scale the
        # complex result by a real factor
        shape = (40, 25, 8)
        g = rng(19).standard_normal((2,) + shape)
        old = np.zeros(shape, dtype=complex)
        old.real = g[0]
        old.imag = g[1]
        old *= np.sqrt(sigma2 / 2.0)
        got = ch.complex_normal(rng(19), shape, sigma2)
        assert np.array_equal(got.view(float), old.view(float))

    @pytest.mark.parametrize("shape", STREAM_SHAPES)
    @pytest.mark.parametrize("sigma2", [1.0, 0.7, 3.5])
    def test_reads_real_then_imaginary_parts(self, shape, sigma2):
        # the one stream layout: like standard_normal((2,) + shape)
        got_rng, ref_rng = rng(20), rng(20)
        got = ch.complex_normal(got_rng, shape, sigma2)
        g = ref_rng.standard_normal((2,) + shape) * np.sqrt(sigma2 / 2.0)
        assert got.shape == shape and got.dtype == complex
        assert np.array_equal(got.real, g[0]) and np.array_equal(got.imag, g[1])
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_variance_split_between_quadratures(self):
        x = ch.complex_normal(rng(17), 400_000, 0.3)
        assert abs(np.mean(np.abs(x) ** 2) - 0.3) / 0.3 < 0.01
        assert abs(np.var(x.real) - np.var(x.imag)) < 0.003


class TestPowerDifference:
    """The observation kernel against the complex formula |c1 + v1|^2 -
    |c2 + v2|^2, for the complex noise pair that its three planes of
    standard normals, drawn on the same stream, encode."""

    SHAPE = (6, 5, 7)
    SIGMA2 = 0.7

    def amplitudes(self, g, kind):
        c = complex_gauss(g, (2,) + self.SHAPE)
        return c if kind is complex else c.real

    @pytest.mark.parametrize("kind", [float, complex])
    def test_matches_complex_formula(self, kind):
        g = rng(41)
        c1, c2 = self.amplitudes(g, kind)
        got_rng, ref_rng = rng(42), rng(42)
        got = ch.power_difference(got_rng, c1, c2, self.SIGMA2)
        planes = ref_rng.standard_normal((3,) + self.SHAPE)
        assert got.shape == self.SHAPE and got.dtype == float
        assert_complex_formula(got, c1, c2, self.SIGMA2, planes)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("shape", [None, (50_000,)], ids=["scalar", "broadcast"])
    def test_scalar_amplitudes(self, shape):
        # the pdf-fit point broadcasts one clean pair to n noisy observations
        c1, c2 = 0.8 - 0.3j, 0.2 + 0.5j
        got = ch.power_difference(rng(43), c1, c2, self.SIGMA2, shape)
        planes = rng(43).standard_normal((3,) + (shape or ()))
        assert_complex_formula(got, c1, c2, self.SIGMA2, planes)

    @pytest.mark.parametrize("kind", [float, complex])
    def test_zero_variance_is_clean_difference(self, kind):
        g = rng(44)
        c1, c2 = self.amplitudes(g, kind)
        before = g.bit_generator.state
        got = ch.power_difference(g, c1, c2, 0.0)
        assert g.bit_generator.state == before
        clean = (c1.real ** 2 + c1.imag ** 2) - (c2.real ** 2 + c2.imag ** 2)
        assert np.array_equal(got, clean)
        if kind is float:
            assert np.array_equal(got, c1 ** 2 - c2 ** 2)


def assert_complex_formula(got, c1, c2, sigma2, g):
    """``got`` is |c1 + v1|^2 - |c2 + v2|^2 for a complex noise pair (v1, v2)
    that the planes ``g`` encode, to within 8 eps of the magnitudes summed.

    With V = sigma g[0], V' = sigma g[1], S = |c1| + |c2| + V and
    R = sqrt(S^2 + V'^2), take U = sigma g[2] S / R and U' = sigma g[2] V' / R,
    so that U S + U' V' = sigma g[2] R.  Split (U, V) into the real parts
    x1 = (V + U) / 2, x2 = (V - U) / 2 of the noise in the frame of each
    clean amplitude, and (U', V') likewise into the imaginary parts y1, y2;
    then v_k is x_k + i y_k turned by the phase of c_k, and in exact
    arithmetic the difference equals the kernel's d S + sigma R g[2].  The
    kernel sums d S and sigma R g[2], which can cancel, so the rounding is
    bounded by the sum of the magnitudes both forms add up:
    (|c_k| + |x_k|)^2 + y_k^2 per branch, |d S| and |sigma R g[2]|."""
    sigma = np.sqrt(sigma2)
    v, v_imag = sigma * g[0], sigma * g[1]
    a, b = np.abs(c1), np.abs(c2)
    s = a + b + v
    r = np.hypot(s, v_imag)
    w = np.divide(sigma * g[2], r, out=np.zeros_like(r), where=r > 0)
    u, u_imag = w * s, w * v_imag
    x1, x2 = (v + u) / 2, (v - u) / 2
    y1, y2 = (v_imag + u_imag) / 2, (v_imag - u_imag) / 2
    p1 = np.abs(c1 + np.exp(1j * np.angle(c1)) * (x1 + 1j * y1)) ** 2
    p2 = np.abs(c2 + np.exp(1j * np.angle(c2)) * (x2 + 1j * y2)) ** 2
    summed = ((a + np.abs(x1)) ** 2 + y1 ** 2 + (b + np.abs(x2)) ** 2 + y2 ** 2
              + np.abs((a - b) * s) + np.abs(sigma * r * g[2]))
    assert np.all(np.abs(got - (p1 - p2)) <= 8 * np.finfo(float).eps * summed)


def full_draw_power_difference(rng, c1, c2, sigma2, shape=None):
    """|c1 + v1|^2 - |c2 + v2|^2 as one full draw of all four noise planes,
    the real parts of v1 and v2, then their imaginary parts: the four-normal
    form that ``channel.power_difference`` replaced, kept as its brute-force
    oracle in law.  It holds the (2, 2, ...) normals and the result, five
    floats per observation."""
    c1, c2 = np.asarray(c1), np.asarray(c2)
    shape = np.broadcast(c1, c2).shape if shape is None else tuple(shape)
    g = np.zeros((2, 2) + shape) if sigma2 == 0.0 else rng.standard_normal((2, 2) + shape)
    g *= np.sqrt(sigma2 / 2.0)
    re1, re2 = g[0, 0, ...], g[0, 1, ...]
    im1, im2 = g[1, 0, ...], g[1, 1, ...]
    re1 += c1.real
    re2 += c2.real
    if c1.dtype.kind == "c":
        im1 += c1.imag
    if c2.dtype.kind == "c":
        im2 += c2.imag
    g *= g
    re1 += im1
    re2 += im2
    return np.subtract(re1, re2)


def piece_planes(rng, shape, n_t=1):
    """The kernel's three planes, (3,) + shape, drawn in full one
    ``NOISE_CHUNK`` piece after another in stream order: for a piece of k
    observations ``standard_normal((3, k))`` at n_t == 1, and k normals,
    k ``standard_gamma(n_t - 1/2)`` and k normals at n_t > 1."""
    n = math.prod(shape)
    pieces = []
    for lo in range(0, n, _C):
        k = min(_C, n - lo)
        pieces.append(rng.standard_normal((3, k)) if n_t == 1 else np.stack(
            [rng.standard_normal(k), rng.standard_gamma(n_t - 0.5, k),
             rng.standard_normal(k)]))
    return np.concatenate(pieces, axis=1).reshape((3,) + shape)


def full_draw_three_planes(rng, c1, c2, sigma2, shape=None, n_t=1):
    """``channel.power_difference`` as the full draw of its three planes,
    piece by piece (``piece_planes``), with the kernel's operations: the
    reference of its streamed draw, bit for bit.  For sigma2 == 0 it is the
    four-plane oracle's clean difference, and nothing is drawn."""
    c1, c2 = np.asarray(c1), np.asarray(c2)
    shape = np.broadcast(c1, c2).shape if shape is None else tuple(shape)
    if sigma2 == 0.0:
        return full_draw_power_difference(rng, c1, c2, sigma2, shape)
    return three_plane_difference(c1, c2, sigma2, piece_planes(rng, shape, n_t), n_t)


KINDS = ["real", "complex", "scalar", "complex_real", "real_complex"]


class TestStreamedPowerDifference:
    """The kernel's streamed draw against the full draw of its three planes:
    the same bits and the same final stream state, so it reads exactly
    three standard normals per observation at one antenna, and a normal, a
    gamma and a normal at more."""

    @staticmethod
    def assert_same(c1, c2, sigma2, shape, seed=42, n_t=1):
        got_rng, ref_rng = rng(seed), rng(seed)
        before = got_rng.bit_generator.state
        got = ch.power_difference(got_rng, c1, c2, sigma2, shape, n_t=n_t)
        want = full_draw_three_planes(ref_rng, c1, c2, sigma2, shape, n_t)
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape and got.dtype == want.dtype == float
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        if sigma2 == 0.0:
            assert got_rng.bit_generator.state == before

    @staticmethod
    def amplitudes(kind, shape):
        if kind == "scalar":  # pdf-fit's one clean pair
            return np.complex128(0.8 - 0.3j), np.complex128(0.2 + 0.5j)
        c1, c2 = complex_gauss(rng(41), (2,) + shape)
        # a mixed pair adds a clean imaginary part on one branch only
        return {"complex": (c1, c2), "real": (c1.real, c2.real),
                "complex_real": (c1, c2.real), "real_complex": (c1.real, c2)}[kind]

    @pytest.mark.parametrize("n_t", [1, 2, 64])
    @pytest.mark.parametrize("shape", STREAM_SHAPES)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("sigma2", [0.7, 0.0], ids=["noisy", "zero_variance"])
    def test_bit_equal_to_full_draw(self, shape, kind, sigma2, n_t):
        c1, c2 = self.amplitudes(kind, shape)
        self.assert_same(c1, c2, sigma2, shape, n_t=n_t)

    @pytest.mark.parametrize("shape", STREAM_SHAPES)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("sigma2", [0.7, 0.0], ids=["noisy", "zero_variance"])
    def test_reads_three_normal_layout(self, shape, kind, sigma2):
        # standard_normal((3,) + shape) on the same stream up to one piece,
        # and piece by piece above it, through the complex noise pair it
        # encodes, in complex arithmetic
        c1, c2 = self.amplitudes(kind, shape)
        got_rng, ref_rng = rng(48), rng(48)
        got = ch.power_difference(got_rng, c1, c2, sigma2, shape)
        if sigma2 == 0.0:
            planes = np.zeros((3,) + shape)
        elif math.prod(shape) <= _C:
            planes = ref_rng.standard_normal((3,) + shape)
        else:
            planes = piece_planes(ref_rng, shape)
        assert got.shape == shape and got.dtype == float
        assert_complex_formula(got, c1, c2, sigma2, planes)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kind", [float, complex])
    def test_partly_broadcast_amplitude(self, kind):
        c1 = complex_gauss(rng(45), (8, 1))
        c2 = complex_gauss(rng(46), (8, 128))
        if kind is float:
            c1, c2 = c1.real, c2.real
        self.assert_same(c1, c2, 0.3, None)
        self.assert_same(c2, c1, 0.3, None)

    @pytest.mark.parametrize("n_t", [1, 64])
    @pytest.mark.parametrize("kind", ["complex", "scalar"])
    def test_peak_memory_is_one_float_per_observation(self, kind, n_t):
        # the result, and two pieces: d then d S, and the draw; the
        # four-plane full draw held five floats per observation
        n = 2 ** 20
        c1, c2 = self.amplitudes(kind, (n,))
        g = rng(47)
        tracemalloc.start()
        try:
            ch.power_difference(g, c1, c2, 0.5, (n,), n_t=n_t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + 16 * ch.NOISE_CHUNK + 64 * 1024


LAW_PAIRS = {  # (c1, c2)
    "real": (1.1, -0.6),
    "complex": (0.8 - 0.3j, 0.2 + 0.5j),
    "equal_magnitude": (0.6 + 0.8j, -1.0),  # d = 0
    "c2_zero": (0.9 - 0.4j, 0.0),
    "pure_noise": (0.0, 0.0),  # a scaled Laplace
}
LAW_SIGMA2 = [0.05, 1.0, 20.0]
LAW_N = 200_000


class TestPowerDifferenceLaw:
    """The kernel is exact in law: at one antenna against the four-plane
    brute-force oracle, and at one and more antennas against its exact
    moments.  ``test_harness.TestUplinkSampler`` checks the antenna sums
    against the per-antenna oracle."""

    @pytest.mark.parametrize("sigma2", LAW_SIGMA2)
    @pytest.mark.parametrize("pair", LAW_PAIRS)
    def test_matches_four_plane_oracle(self, pair, sigma2):
        c1, c2 = LAW_PAIRS[pair]
        got = ch.power_difference(rng(60), c1, c2, sigma2, (LAW_N,))
        want = full_draw_power_difference(rng(61), c1, c2, sigma2, (LAW_N,))
        assert stats.ks_2samp(got, want).pvalue > 1e-3

    @pytest.mark.parametrize("n_t", [1, 4, 64])
    @pytest.mark.parametrize("sigma2", LAW_SIGMA2)
    @pytest.mark.parametrize("pair", LAW_PAIRS)
    def test_exact_moments(self, pair, sigma2, n_t):
        # mean e1 - e2 and variance 2 sigma2 (e1 + e2) + 2 sigma2^2 n_t for
        # amplitudes of norms |c1|, |c2|: the antenna average's moments
        # from analysis.gaussian_approx, scaled by n_t and n_t^2; the
        # sample variance's standard error from the sample's fourth
        # central moment
        c1, c2 = LAW_PAIRS[pair]
        e1, e2 = abs(c1) ** 2, abs(c2) ** 2
        mean, var = analysis.gaussian_approx(e1, e2, sigma2 / 2.0, n_t)
        mean, var = n_t * mean, n_t ** 2 * var
        z = ch.power_difference(rng(62), c1, c2, sigma2, (LAW_N,), n_t=n_t)
        assert abs(z.mean() - mean) < 4.0 * np.sqrt(var / LAW_N)
        dev = z - z.mean()
        m2, m4 = np.mean(dev ** 2), np.mean(dev ** 4)
        assert abs(m2 - var) < 4.0 * np.sqrt((m4 - m2 ** 2) / LAW_N)


def frame_times(scale, speed=50.0):
    """The downlink frame's fading instants at desk or paper scale: the
    pilot instant, then every block start."""
    cfg = ScenarioConfig(speed=speed, **({} if scale == "desk" else PAPER_SIZES))
    return np.r_[0.0, frame_timeline(cfg)[1]] * cfg.symbol_period, cfg.doppler_max


class TestJakesFading:
    def test_bessel_j0_matches_scipy(self):
        # in pieces, each with its own node count, to bound the work array
        for x in np.array_split(np.linspace(0.0, 400.0, 40_001), 80):
            assert np.abs(ch.bessel_j0(x) - j0(x)).max() <= 1e-14
        assert ch.bessel_j0(np.array([-2.5]))[0] == ch.bessel_j0(np.array([2.5]))[0]

    @pytest.mark.parametrize("speed", [0.0, 10.0, 50.0, 100.0])
    @pytest.mark.parametrize("scale", ["desk", "paper"])
    def test_factor_reproduces_clarke_correlation(self, scale, speed):
        times, f_max = frame_times(scale, speed)
        factor = ch.clarke_factor(f_max, tuple(times))
        clarke = j0(2 * np.pi * f_max * np.abs(times[:, None] - times))
        assert np.abs(2 * factor @ factor.T - clarke).max() <= 1e-12
        assert factor.shape[0] == times.size and not factor.flags.writeable
        rank = factor.shape[1]
        assert rank == 1 if speed == 0.0 else rank > 1

    def test_draw_reads_one_block_of_normals(self):
        # standard_normal((r, 2 * entries)) through the factor, each entry's
        # real and imaginary parts side by side, and nothing else
        times, f_max = frame_times("desk")
        fade = rng(3)
        got = ch.JakesFading.create((4, 16), f_max, fade).sample_at(times)
        factor = ch.clarke_factor(f_max, tuple(times))
        g = rng(3)
        z = g.standard_normal((factor.shape[1], 2 * 64))
        want = (factor @ z[:, 0::2]) + 1j * (factor @ z[:, 1::2])
        assert got.shape == (times.size, 4, 16)
        assert np.abs(got - want.reshape(got.shape)).max() <= 1e-15
        assert fade.bit_generator.state == g.bit_generator.state

    def test_autocorrelation_matches_j0(self):
        # rho(tau) = mean Re(conj(h(0)) h(tau)) over M entries has standard
        # error sqrt((1 + J0^2) / (2M)); lags up to past the first zero
        f_max, m = 1000.0, 200_000
        lags = np.array([0.0, 8e-6, 4e-5, 1.6e-4, 2.404825557695773 / (2 * np.pi * f_max),
                         6e-4, 1.2e-3])
        h = ch.JakesFading.create(m, f_max, rng(8)).sample_at(lags)
        rho = np.mean(np.conj(h[0]) * h, axis=1).real
        want = j0(2 * np.pi * f_max * lags)
        se = np.sqrt((1 + want ** 2) / (2 * m))
        assert np.all(np.abs(rho - want) <= 4 * se), (rho - want) / se

    @pytest.mark.parametrize("instant", [0, -1])
    def test_marginal_is_unit_circular_gaussian(self, instant):
        # one instant of independent entries: Re and Im ~ N(0, 1/2), |h|^2 ~ Exp(1)
        times, f_max = frame_times("paper", 100.0)
        h = ch.JakesFading.create(100_000, f_max, rng(9)).sample_at(times)[instant]
        half = stats.norm(scale=np.sqrt(0.5)).cdf
        for x, cdf in ((h.real, half), (h.imag, half), (np.abs(h) ** 2, stats.expon.cdf)):
            assert stats.kstest(x, cdf).pvalue > 1e-3

    def test_zero_doppler_is_one_constant_fade(self):
        times, _ = frame_times("paper")
        fades = ch.JakesFading.create((16, 16), 0.0, rng(7)).sample_at(times)
        assert np.abs(fades - fades[0]).max() <= 1e-14
        assert np.unique(fades[0]).size == 256

    def test_rejects_bad_inputs(self):
        for f_max in (-1.0, np.nan):
            with pytest.raises(ValueError, match="f_max"):
                ch.JakesFading.create((2, 2), f_max, rng(1))
        state = ch.JakesFading.create((2, 2), 100.0, rng(1))
        for times in ([], [[0.0, 1e-3]], [0.0, np.inf]):
            with pytest.raises(ValueError, match="times"):
                state.sample_at(times)


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
