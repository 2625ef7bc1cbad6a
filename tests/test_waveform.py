import numpy as np
import pytest

from rislink import waveform as wf
from conftest import complex_gauss, rng

TS = 8e-6


def tones():
    return wf.TonePair.baseband(TS)


class TestComplementarySymbol:
    def test_complement_and_bipolar(self):
        sym = wf.ComplementarySymbol(np.array([0, 1, 1]))
        np.testing.assert_array_equal(sym.s_bar, [1, 0, 0])
        np.testing.assert_array_equal(sym.x_bar, [-1, 1, 1])

    def test_complement_sums_for_general_levels(self):
        g = rng(0)
        for a in (2, 4, 8):
            s = g.integers(0, a, size=6)
            sym = wf.ComplementarySymbol(s, levels=a)
            np.testing.assert_array_equal(sym.s + sym.s_bar, (a - 1) * np.ones(6))
            a1, a2 = sym.amplitudes
            np.testing.assert_allclose(a1 + a2, 1.0)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            wf.ComplementarySymbol(np.array([0, 2]), levels=2)


class TestTonePair:
    def test_orthogonality_condition_enforced(self):
        with pytest.raises(ValueError):
            wf.TonePair(0.0, 1.5 / TS, TS)

    def test_baseband(self):
        t = tones()
        assert t.f1 == 0.0 and abs(t.f2 - 1.0 / TS) < 1e-6


class TestModulate:
    def test_binary_one_is_pure_first_tone(self):
        rate = 16 / TS
        sym = wf.ComplementarySymbol(np.array([1]))
        out = wf.modulate(sym, tones(), rate)
        t = np.arange(16) / rate
        np.testing.assert_allclose(out[0], np.exp(2j * np.pi * tones().f1 * t), atol=1e-12)

    def test_binary_zero_is_pure_second_tone(self):
        rate = 16 / TS
        sym = wf.ComplementarySymbol(np.array([0]))
        out = wf.modulate(sym, tones(), rate)
        t = np.arange(16) / rate
        np.testing.assert_allclose(out[0], np.exp(2j * np.pi * tones().f2 * t), atol=1e-12)

    def test_four_level_amplitudes(self):
        rate = 32 / TS
        sym = wf.ComplementarySymbol(np.array([2]), levels=4)
        out = wf.modulate(sym, tones(), rate)
        t = np.arange(32) / rate
        expected = (2 / 3) * np.exp(2j * np.pi * tones().f1 * t) \
            + (1 / 3) * np.exp(2j * np.pi * tones().f2 * t)
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_non_integer_samples_rejected(self):
        with pytest.raises(ValueError):
            wf.modulate(wf.ComplementarySymbol(np.array([1])), tones(), 10.5 / TS)
        with pytest.raises(ValueError):
            wf.modulate(wf.ComplementarySymbol(np.array([1])), tones(), 4 / TS)


class TestCorrelate:
    def test_matched_tone(self):
        t = np.arange(16) * TS / 16
        samples = np.exp(2j * np.pi * tones().f2 * t)
        assert abs(wf.correlate(samples, tones().f2, TS) - 1.0) < 1e-10

    def test_orthogonal_tone_rejected(self):
        t = np.arange(16) * TS / 16
        samples = np.exp(2j * np.pi * tones().f2 * t)
        assert abs(wf.correlate(samples, tones().f1, TS)) < 1e-10

    def test_linearity(self):
        t = np.arange(16) * TS / 16
        samples = 0.7 * np.exp(2j * np.pi * tones().f1 * t) \
            + 0.3 * np.exp(2j * np.pi * tones().f2 * t)
        assert abs(wf.correlate(samples, tones().f2, TS) - 0.3) < 1e-10

    def test_leakage_for_integer_tone_gaps(self):
        # cross-tone leakage stays tiny for any integer gap and grid size
        for n in (8, 16, 32):
            t = np.arange(n) * TS / n
            for k in (1, 2, 3):
                samples = np.exp(2j * np.pi * (k / TS) * t)
                assert abs(wf.correlate(samples, 0.0, TS)) < 1e-9


class TestDoppler:
    def test_zero_rotation_identity(self):
        pair = wf.CorrelatorPair(0.3 + 0.1j, -0.2j)
        out = wf.apply_doppler(pair, 0.0)
        assert out.y1 == pair.y1 and out.y2 == pair.y2

    def test_pi_negates(self):
        pair = wf.CorrelatorPair(1.0 + 0j, 0.5 + 0j)
        out = wf.apply_doppler(pair, np.pi)
        np.testing.assert_allclose([out.y1, out.y2], [-1.0, -0.5], atol=1e-12)

    def test_magnitudes_unchanged(self):
        pair = wf.CorrelatorPair(0.7 - 0.2j, 0.1 + 0.9j)
        out = wf.apply_doppler(pair, 0.37)
        assert abs(abs(out.y1) - abs(pair.y1)) < 1e-15
        assert abs(abs(out.y2) - abs(pair.y2)) < 1e-15


class TestMagnitudeDifference:
    def test_basic(self):
        assert wf.magnitude_difference(wf.CorrelatorPair(1.0, 0.0)) == 1.0

    def test_single_antenna_phase_cancels(self):
        for theta in (0.0, 0.4, 2.2):
            h = np.array([np.exp(1j * theta)])
            sym = wf.ComplementarySymbol(np.array([1]))
            z = wf.magnitude_difference(wf.branch_outputs(h, sym))
            assert abs(z - 1.0) < 1e-12

    def test_matches_double_sum_oracle(self):
        g = rng(1)
        for _ in range(100):
            h = complex_gauss(g, 3)
            s = g.integers(0, 2, 3)
            sym = wf.ComplementarySymbol(s)
            z = wf.magnitude_difference(wf.branch_outputs(h, sym))
            mags, phases = np.abs(h), np.angle(h)
            oracle = 0.0
            for n in range(3):
                for k in range(3):
                    oracle += (mags[n] * mags[k] * np.cos(phases[n] - phases[k])
                               * (2 * s[n] - 1))
            assert abs(z - oracle) < 1e-12

    def test_invariant_to_common_rotation(self):
        g = rng(2)
        for _ in range(200):
            h = complex_gauss(g, 5)
            sym = wf.ComplementarySymbol(g.integers(0, 2, 5))
            nu = g.uniform(0, 2 * np.pi)
            base = wf.branch_outputs(h, sym)
            rotated = wf.apply_doppler(base, nu)
            assert abs(wf.magnitude_difference(base)
                       - wf.magnitude_difference(rotated)) < 1e-12


class TestEquivalentNoise:
    def test_zero_noise(self):
        sym = wf.ComplementarySymbol(np.array([1, 0]))
        assert wf.equivalent_noise(np.array([1.0, 1j]), sym, 0.0, 0.0) == 0.0

    def test_hand_case(self):
        sym = wf.ComplementarySymbol(np.array([1]))
        u = wf.equivalent_noise(np.array([1.0]), sym, 1j, 0.0)
        assert abs(u - 1.0) < 1e-15

    def test_matches_detection_difference(self):
        g = rng(3)
        for _ in range(100):
            h = complex_gauss(g, 4)
            sym = wf.ComplementarySymbol(g.integers(0, 2, 4))
            n1, n2 = complex_gauss(g, 2)
            clean = wf.magnitude_difference(wf.branch_outputs(h, sym))
            noisy = wf.magnitude_difference(wf.branch_outputs(h, sym, noise=(n1, n2)))
            u = wf.equivalent_noise(h, sym, n1, n2)
            assert abs((noisy - clean) - u) < 1e-12


class TestNoiseModel:
    def test_branch_split_iid(self):
        # correlating white noise leaves two uncorrelated equal-variance branches
        g = rng(4)
        n_samples, trials = 16, 1_000_000
        t = np.arange(n_samples) * TS / n_samples
        ref1 = np.exp(-2j * np.pi * tones().f1 * t) / n_samples
        ref2 = np.exp(-2j * np.pi * tones().f2 * t) / n_samples
        y1 = np.empty(trials, dtype=complex)
        y2 = np.empty(trials, dtype=complex)
        for lo in range(0, trials, 100_000):
            noise = complex_gauss(g, (100_000, n_samples))
            y1[lo:lo + 100_000] = noise @ ref1
            y2[lo:lo + 100_000] = noise @ ref2
        v1, v2 = np.mean(np.abs(y1) ** 2), np.mean(np.abs(y2) ** 2)
        assert abs(v1 / v2 - 1.0) < 0.01
        corr = np.mean(y1 * np.conj(y2)) / np.sqrt(v1 * v2)
        assert abs(corr) < 0.01


def test_end_to_end_modulate_correlate_detect():
    # full chain: modulate, channel, correlators, magnitude difference
    g = rng(5)
    rate = 16 / TS
    tp = tones()
    for _ in range(20):
        h = complex_gauss(g, 4)
        s = g.integers(0, 2, 4)
        sym = wf.ComplementarySymbol(s)
        tx = wf.modulate(sym, tp, rate)
        rx = h @ tx
        rx = wf.apply_doppler(rx, g.uniform(0, 2 * np.pi))
        pair = wf.CorrelatorPair(wf.correlate(rx, tp.f1, TS),
                                 wf.correlate(rx, tp.f2, TS))
        z = wf.magnitude_difference(pair)
        from rislink.downlink import equivalent_channel
        expected = equivalent_channel(h[None, :])[0] @ sym.x_bar
        assert abs(z - expected) < 1e-10
