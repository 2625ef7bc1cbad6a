from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import stats

from rislink import analysis
from rislink import downlink as dl
from rislink import harness as hn
from rislink import uplink as ul
from rislink.channel import complex_normal
from rislink.config import ScenarioConfig
from rislink.scenario import build_downlink_frame, build_uplink_instance, stream
from rislink.waveform import ComplementarySymbol


def desk_cfg(**kw):
    base = dict(n_users=4, n_bs_antennas=32, n_ris_elements=16,
                mc_min_errors=50, mc_min_trials=400, mc_trial_ceiling=800)
    base.update(kw)
    return ScenarioConfig(**base)


class TestCsv:
    def result(self):
        res = hn.CurveResult("x", np.array([1.0, 2.0]), notes=("alpha", "beta"))
        res.add("ber", [0.125, 0.25], [0.01, 0.02], [1000, 2000])
        return res

    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        hn.export_csv(self.result(), path)
        back = hn.read_curve_csv(path)
        assert back.x_name == "x"
        np.testing.assert_allclose(back.x_values, [1.0, 2.0])
        np.testing.assert_allclose(back.series["ber"].values, [0.125, 0.25])
        np.testing.assert_allclose(back.series["ber"].half_widths, [0.01, 0.02])
        np.testing.assert_array_equal(back.series["ber"].trials, [1000, 2000])
        assert back.notes == ("alpha", "beta")

    def test_empty_grid_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        res = hn.CurveResult("x", np.array([]))
        res.add("ber", [], [], [])
        hn.export_csv(res, path)
        text = path.read_text().splitlines()
        assert text == ["x,ber,ber_halfwidth,ber_trials"]
        back = hn.read_curve_csv(path)
        assert back.x_values.size == 0

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        hn.export_csv(self.result(), p1)
        hn.export_csv(self.result(), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestDownlinkBer:
    def test_noiseless_static_precoded_is_error_free(self):
        cfg = desk_cfg(noise_sigma2=0.0, speed=0.0,
                       mc_min_errors=1, mc_min_trials=100, mc_trial_ceiling=100)
        res = hn.run_downlink_ber(cfg, "linear_precoded", "ebn0", (0.0, 10.0))
        np.testing.assert_array_equal(res.series["linear_precoded"].values, [0.0, 0.0])

    def test_min_trials_respected(self):
        cfg = desk_cfg(ebn0_db=0.0)
        res = hn.run_downlink_ber(cfg, "linear_precoded", "ebn0", (0.0,))
        assert res.series["linear_precoded"].trials[0] >= cfg.mc_min_trials

    def test_deterministic_and_worker_invariant(self):
        cfg = desk_cfg()
        a = hn.run_downlink_ber(cfg, ["linear_precoded"], "speed", (10.0, 50.0))
        b = hn.run_downlink_ber(cfg, ["linear_precoded"], "speed", (10.0, 50.0))
        np.testing.assert_array_equal(a.series["linear_precoded"].values,
                                      b.series["linear_precoded"].values)
        c = hn.run_downlink_ber(cfg, ["linear_precoded"], "speed", (10.0, 50.0),
                                workers=2)
        np.testing.assert_array_equal(a.series["linear_precoded"].values,
                                      c.series["linear_precoded"].values)

    def test_one_pool_per_run(self, monkeypatch):
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(hn, "ProcessPoolExecutor", CountingPool)
        # 32 frames per point: two batches of FRAMES_PER_TASK x TASKS_PER_BATCH
        cfg = desk_cfg(blocks_per_frame=2, mc_min_trials=64, mc_trial_ceiling=64)
        res = hn.run_downlink_ber(cfg, ["linear_precoded"], "speed", (10.0, 50.0),
                                  workers=2)
        assert res.series["linear_precoded"].trials.tolist() == [64, 64]
        assert len(pools) == 1

    def test_schemes_share_channel_draws(self):
        # adding a scheme must not change another scheme's series
        cfg = desk_cfg()
        alone = hn.run_downlink_ber(cfg, ["linear_precoded"], "speed", (50.0,))
        both = hn.run_downlink_ber(cfg, ["linear_precoded", "qam_ml_baseline"],
                                   "speed", (50.0,))
        np.testing.assert_array_equal(alone.series["linear_precoded"].values,
                                      both.series["linear_precoded"].values)

    def test_joint_requires_small_array(self):
        cfg = desk_cfg()  # 32 antennas exceeds the exhaustive-search cap
        with pytest.raises(Exception):
            hn.run_downlink_ber(cfg, "linear_joint", "ebn0", (10.0,))

    def test_joint_search_cap_checked_before_any_frame(self, monkeypatch):
        def no_frames(*args):
            raise AssertionError("a frame was built")

        monkeypatch.setattr(hn, "build_downlink_frame", no_frames)
        monkeypatch.setattr(dl, "bipolar_candidates", no_frames)
        with pytest.raises(dl.SearchTooLarge):
            hn.run_downlink_ber(desk_cfg(n_bs_antennas=17), "linear_joint", "ebn0",
                                (10.0,))

    def test_joint_worker_invariant(self):
        cfg = desk_cfg(n_bs_antennas=4, blocks_per_frame=4, ebn0_db=10.0,
                       mc_min_trials=32, mc_trial_ceiling=32)
        a = hn.run_downlink_ber(cfg, "linear_joint", "rician_k", (1.0, 10.0),
                                workers=1)
        b = hn.run_downlink_ber(cfg, "linear_joint", "rician_k", (1.0, 10.0),
                                workers=2)
        for field_name in ("values", "trials"):
            np.testing.assert_array_equal(
                getattr(a.series["linear_joint"], field_name),
                getattr(b.series["linear_joint"], field_name))
        assert a.series["linear_joint"].values.max() > 0.0

    def test_unknown_scheme_or_sweep(self):
        cfg = desk_cfg()
        with pytest.raises(ValueError):
            hn.run_downlink_ber(cfg, "mystery", "ebn0", (0.0,))
        with pytest.raises(ValueError):
            hn.run_downlink_ber(cfg, "linear_precoded", "bogus", (0.0,))

    def test_every_registered_scheme_runs(self, tmp_path):
        cfg = desk_cfg(n_users=2, n_bs_antennas=4, n_ris_elements=4,
                       blocks_per_frame=2, symbols_per_block=5,
                       mc_min_trials=4, mc_trial_ceiling=4)
        names = list(hn.SCHEMES)
        assert len({s.stream_id for s in hn.SCHEMES.values()}) == len(names)
        path = tmp_path / "all.csv"
        hn.export_csv(hn.run_downlink_ber(cfg, names, "ebn0", (10.0,)), path)
        res = hn.read_curve_csv(path)
        assert list(res.series) == names
        assert f"schemes={'+'.join(names)}" in res.notes[0]
        noise_note = next(n for n in res.notes if n.startswith("noise map"))
        for name, scheme in hn.SCHEMES.items():
            assert f"{scheme.label}={scheme.bits(cfg)}" in noise_note
            assert res.series[name].trials[0] == cfg.mc_trial_ceiling
            assert 0.0 <= res.series[name].values[0] <= 1.0

    def test_qam_noiseless_static_is_error_free(self):
        cfg = desk_cfg(noise_sigma2=0.0, speed=0.0,
                       mc_min_errors=1, mc_min_trials=100, mc_trial_ceiling=100)
        res = hn.run_downlink_ber(cfg, "qam_ml_baseline", "ebn0", (0.0,))
        assert res.series["qam_ml_baseline"].values[0] == 0.0

    def test_qam_degrades_with_speed(self):
        cfg = desk_cfg(ebn0_db=30.0, mc_min_errors=100, mc_trial_ceiling=1600)
        res = hn.run_downlink_ber(cfg, "qam_ml_baseline", "speed", (10.0, 50.0))
        v = res.series["qam_ml_baseline"].values
        assert v[1] > v[0]


def per_symbol_joint(frame, cfg, sigma2, rng):
    """The linear_joint frame simulation with one detection call per symbol,
    kept as the oracle of the block-detecting harness."""
    n_t = cfg.n_bs_antennas
    scale = 1.0 / np.sqrt(n_t)
    rng_noise = rng(3)
    h_hat = hn._train(frame, cfg, scale, sigma2, rng_noise)
    bits = rng(4).integers(0, 2, size=(cfg.blocks_per_frame, cfg.symbols_per_block, n_t))
    errors = 0
    for b in range(cfg.blocks_per_frame):
        c1 = scale * (frame.h_blocks[b] @ bits[b].T.astype(float))
        c2 = scale * (frame.h_blocks[b] @ (1.0 - bits[b]).T)
        v1 = complex_normal(rng_noise, c1.shape, sigma2)
        v2 = complex_normal(rng_noise, c1.shape, sigma2)
        z = np.abs(c1 + v1) ** 2 - np.abs(c2 + v2) ** 2
        for s in range(cfg.symbols_per_block):
            sym = dl.joint_detect(z[:, s], h_hat)
            errors += int(np.count_nonzero(sym.s != bits[b, s]))
    return errors, bits.size


@pytest.mark.parametrize("seed", [1, 7, 20250811])
def test_joint_frame_matches_per_symbol_loop(seed):
    cfg = desk_cfg(n_bs_antennas=4, speed=50.0, ebn0_db=12.0, seed=seed)
    sigma2 = hn.scheme_noise_sigma2(cfg, "linear_joint")
    tag, scheme_id = hn._TAG_DOWNLINK, hn.SCHEMES["linear_joint"].stream_id
    total_errors = 0
    for frame_idx in range(3):
        frame = build_downlink_frame(cfg, stream(seed, tag, 1, 0, frame_idx),
                                     stream(seed, tag, 2, 0, frame_idx))

        def rng(sub):
            return stream(seed, tag, sub, 0, frame_idx, scheme_id)

        got = hn._sim_linear_joint(frame, cfg, sigma2, rng)
        assert got == per_symbol_joint(frame, cfg, sigma2, rng)
        total_errors += got[0]
    assert total_errors > 0


def per_block_qam(frame, cfg, sigma2, rng):
    """The 4-QAM baseline frame simulation one block at a time, with per-block
    estimation and noise draws, kept as the oracle of the batched baseline."""
    n_k, syms = cfg.n_users, cfg.symbols_per_block
    pilot_budget = dl.hadamard_pilots(cfg.n_bs_antennas, cfg.pilot_len).shape[1]
    rng_noise, rng_est = rng(3), rng(5)
    bits = rng(4).integers(0, 2, size=(cfg.blocks_per_frame, syms, n_k, 2))
    x = hn.qam_modulate(bits)
    dnu = 2.0 * np.pi * cfg.doppler_max * cfg.symbol_period
    errors = 0
    for b in range(cfg.blocks_per_frame):
        t0 = cfg.pilot_len + b * syms
        h_true = frame.h_blocks[b]
        h_est = np.exp(1j * dnu * t0) * h_true \
            + complex_normal(rng_est, h_true.shape, sigma2 / pilot_budget)
        p_c = np.linalg.pinv(h_est)
        p_c = p_c / np.sqrt(np.trace(p_c.conj().T @ p_c).real)
        gain = np.diag(h_est @ p_c)
        rot = np.exp(1j * dnu * (t0 + np.arange(syms)))
        y = rot[:, None] * (x[b] @ (h_true @ p_c).T) \
            + complex_normal(rng_noise, (syms, n_k), sigma2)
        errors += int(np.count_nonzero(hn.qam_demodulate(y / gain[None, :]) != bits[b]))
    return errors, bits.size


PAPER_SIZES = dict(n_users=8, n_bs_antennas=128, n_ris_elements=64)


def check_qam_against_per_block_loop(cfg):
    """Run the batched baseline and its per-block oracle on 3 seeds x 3
    frames, require equal (errors, bits) on each, and return the frames'
    largest true-channel Gram condition number."""
    sigma2 = hn.scheme_noise_sigma2(cfg, "qam_ml_baseline")
    tag, scheme_id = hn._TAG_DOWNLINK, hn.SCHEMES["qam_ml_baseline"].stream_id
    total_errors, worst_cond = 0, 0.0
    for seed in (1, 7, 20250811):
        for frame_idx in range(3):
            frame = build_downlink_frame(cfg, stream(seed, tag, 1, 0, frame_idx),
                                         stream(seed, tag, 2, 0, frame_idx))

            def rng(sub):
                return stream(seed, tag, sub, 0, frame_idx, scheme_id)

            got = hn._sim_qam_baseline(frame, cfg, sigma2, rng)
            assert got == per_block_qam(frame, cfg, sigma2, rng)
            total_errors += got[0]
            gram = frame.h_blocks @ np.conj(np.swapaxes(frame.h_blocks, -1, -2))
            worst_cond = max(worst_cond, np.linalg.cond(gram).max())
    assert total_errors > 0
    return worst_cond


@pytest.mark.parametrize("direct_link", [False, True], ids=["ris", "direct"])
@pytest.mark.parametrize("speed", [0.0, 50.0])
@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_qam_frame_matches_per_block_loop(scale, speed, direct_link):
    sizes = {"desk": {}, "paper": PAPER_SIZES}
    # the direct path conditions the channel well: at 10 dB the static desk
    # frames decide every bit right (none wrong in these 9 frames), leaving
    # nothing to compare
    ebn0_db = 5.0 if direct_link else 10.0
    check_qam_against_per_block_loop(
        desk_cfg(**sizes[scale], speed=speed, ebn0_db=ebn0_db, direct_link=direct_link))


def test_qam_gram_zf_matches_pinv_at_worst_conditioning():
    # strong LoS on both hops at 50 dB: the most ill-conditioned Gram the
    # baseline meets at paper scale
    cfg = desk_cfg(**PAPER_SIZES, rician_K=100.0, rician_V=100.0, ebn0_db=50.0)
    assert check_qam_against_per_block_loop(cfg) > 1e6


def ls_train(frame, cfg, scale, sigma2, rng_noise):
    """``harness._train``'s pilot observation estimated by the generic
    ``downlink.ls_estimate``, kept as the oracle of the closed-form LS."""
    pilots = dl.hadamard_pilots(cfg.n_bs_antennas, cfg.pilot_len)
    s_t = (1.0 + pilots) / 2.0
    c1 = scale * (frame.h_pilot @ s_t)
    c2 = scale * (frame.h_pilot @ (1.0 - s_t))
    v = complex_normal(rng_noise, (2,) + c1.shape, sigma2)
    z_t = np.abs(c1 + v[0]) ** 2 - np.abs(c2 + v[1]) ** 2
    return dl.ls_estimate(dl.PilotBlock(pilots, z_t))


@pytest.mark.parametrize("joint", [False, True], ids=["unit_scale", "joint_scale"])
@pytest.mark.parametrize("n_t, pilot_len",
                         [(4, 20), (32, 20), (128, 20), (8, 16), (16, 40)])
def test_train_matches_ls_estimate(n_t, pilot_len, joint):
    cfg = desk_cfg(n_bs_antennas=n_t, pilot_len=pilot_len)
    scale = 1.0 / np.sqrt(n_t) if joint else 1.0
    sigma2 = hn.scheme_noise_sigma2(cfg, "linear_precoded")
    frame = build_downlink_frame(cfg, stream(3, 1), stream(3, 2))
    got = hn._train(frame, cfg, scale, sigma2, stream(3, 3))
    assert np.array_equal(got, ls_train(frame, cfg, scale, sigma2, stream(3, 3)))


def test_ks_statistic_matches_scipy():
    x = np.sort(np.random.default_rng(3).normal(0.2, 1.3, 5000))
    ref = stats.kstest(x, "norm", args=(0.1, 1.2)).statistic
    assert abs(hn._ks_statistic(stats.norm.cdf(x, 0.1, 1.2)) - ref) < 1e-12


class TestQamHelpers:
    def test_modulate_demodulate_roundtrip(self):
        g = np.random.default_rng(0)
        bits = g.integers(0, 2, (100, 2))
        np.testing.assert_array_equal(hn.qam_demodulate(hn.qam_modulate(bits)), bits)

    def test_half_turn_flips_decisions(self):
        # a pi rotation mid-block with stale equalization inverts every bit
        g = np.random.default_rng(1)
        bits = g.integers(0, 2, (50, 2))
        y = hn.qam_modulate(bits) * np.exp(1j * np.pi)
        np.testing.assert_array_equal(hn.qam_demodulate(y), 1 - bits)


class TestOutputSnr:
    def test_prediction_linear_in_margin(self):
        cfg = desk_cfg(n_users=8)
        from rislink.downlink import output_snr_asymptotic
        base = output_snr_asymptotic(32, 8, 0.01)
        assert abs(output_snr_asymptotic(55, 8, 0.01) / base - 2.0) < 1e-12

    def test_prediction_scales_with_noise(self):
        from rislink.downlink import output_snr_asymptotic
        a = output_snr_asymptotic(64, 8, 0.01)
        b = output_snr_asymptotic(64, 8, 0.1)
        assert abs(10 * np.log10(a / b) - 10.0) < 1e-9

    def test_grid_validation(self):
        cfg = desk_cfg(n_users=8)
        with pytest.raises(ValueError):
            hn.run_output_snr(cfg, (8,))

    def test_worker_invariance(self):
        cfg = desk_cfg(n_users=4, snr_channel_draws=50)
        a = hn.run_output_snr(cfg, (16, 32), workers=1)
        b = hn.run_output_snr(cfg, (16, 32), workers=2)
        np.testing.assert_array_equal(a.series["simulated"].values,
                                      b.series["simulated"].values)
        np.testing.assert_array_equal(a.series["simulated"].half_widths,
                                      b.series["simulated"].half_widths)

    def test_simulated_close_to_prediction_small(self):
        cfg = desk_cfg(n_users=4, snr_channel_draws=50)
        res = hn.run_output_snr(cfg, (16, 32))
        sim = res.series["simulated"].values
        pred = res.series["closed_form"].values
        assert np.all(np.abs(10 * np.log10(sim / pred)) < 1.0)


class TestUplinkSer:
    def test_zero_noise_both_modes_zero(self):
        cfg = desk_cfg(noise_sigma2=0.0, n_bs_antennas=64, ris_phase_mode="random")
        res = hn.run_uplink_ser(cfg, "both", (0.0, 10.0))
        np.testing.assert_array_equal(res.series["monte_carlo"].values, [0.0, 0.0])
        np.testing.assert_array_equal(res.series["closed_form"].values, [0.0, 0.0])

    def test_modes(self):
        cfg = desk_cfg(n_bs_antennas=64, ris_phase_mode="random",
                       mc_min_errors=50, mc_min_trials=2000,
                       mc_symbol_chunk=2000, mc_symbol_ceiling=8000)
        mc = hn.run_uplink_ser(cfg, "monte_carlo", (6.0,))
        cf = hn.run_uplink_ser(cfg, "closed_form", (6.0,))
        both = hn.run_uplink_ser(cfg, "both", (6.0,))
        assert set(mc.series) == {"monte_carlo"}
        assert set(cf.series) == {"closed_form"}
        np.testing.assert_allclose(both.series["closed_form"].values,
                                   cf.series["closed_form"].values)
        np.testing.assert_allclose(both.series["monte_carlo"].values,
                                   mc.series["monte_carlo"].values)

    def test_worker_invariance(self):
        cfg = desk_cfg(n_bs_antennas=64, ris_phase_mode="random",
                       mc_min_errors=50, mc_min_trials=2000,
                       mc_symbol_chunk=2000, mc_symbol_ceiling=8000)
        a = hn.run_uplink_ser(cfg, "monte_carlo", (6.0,), workers=1)
        b = hn.run_uplink_ser(cfg, "monte_carlo", (6.0,), workers=3)
        np.testing.assert_array_equal(a.series["monte_carlo"].values,
                                      b.series["monte_carlo"].values)

    def test_stream_keys_distinct(self, monkeypatch):
        # the Monte Carlo chunks must not replay the channel streams or
        # each other (SeedSequence ignores trailing zero keys)
        keys = []

        def recording_stream(*key):
            keys.append(key)
            return stream(*key)

        monkeypatch.setattr(hn, "stream", recording_stream)
        cfg = desk_cfg(n_bs_antennas=64, ris_phase_mode="random",
                       mc_min_errors=10 ** 6, mc_min_trials=4000,
                       mc_symbol_chunk=1000, mc_symbol_ceiling=4000)
        hn.run_uplink_ser(cfg, "monte_carlo", (0.0, 6.0, 12.0))
        assert len(keys) == 2 + 3 * 4
        states = {tuple(stream(*k).bit_generator.seed_seq.generate_state(4))
                  for k in keys}
        assert len(states) == len(keys)


class TestUplinkSampler:
    """The two-draw averaged-observation sampler against the per-antenna
    sum of ``uplink.antenna_observation`` (the brute-force oracle)."""

    N = 20_000

    @pytest.mark.parametrize("ebn0_db, symbol", [
        (0.0, 5), (15.0, 5), (0.0, -1), (15.0, -1),
    ], ids=["low_snr", "high_snr", "all_ones_low_snr", "all_ones_high_snr"])
    def test_matches_per_antenna_sum(self, ebn0_db, symbol):
        cfg = desk_cfg(n_bs_antennas=64, ris_phase_mode="random")
        chans, _ = build_uplink_instance(cfg, stream(3, 1), stream(3, 2))
        c, n_t = chans.c, chans.n_antennas
        s = (ul.bipolar_constellation(cfg.n_users)[symbol] + 1.0) / 2.0
        sym = ComplementarySymbol(s.astype(int))
        sigma2 = 10.0 ** (-ebn0_db / 10.0)

        v = complex_normal(stream(3, 4), (2, self.N, n_t), sigma2)
        oracle = ul.antenna_observation(c, sym, (v[0], v[1])).mean(axis=1)

        e1 = np.full(self.N, np.sum(np.abs(c @ sym.s) ** 2))
        e2 = np.full(self.N, np.sum(np.abs(c @ sym.s_bar) ** 2))
        if symbol == -1:
            assert e2[0] == 0.0  # s_bar = 0: numpy's central chi-square path
        drawn = hn._averaged_observation(stream(3, 5), e1, e2, n_t, sigma2)
        assert stats.ks_2samp(drawn, oracle).pvalue > 0.01


class TestPdfFit:
    def test_densities_normalized_on_grid(self):
        cfg = desk_cfg(n_bs_antennas=16, pdf_fit_samples=200_000)
        res = hn.run_pdf_fit(cfg, (15.0, 5.0))
        dx = np.diff(res.x_values)
        for name, series in res.series.items():
            total = np.sum((series.values[1:] + series.values[:-1]) / 2.0 * dx)
            assert abs(total - 1.0) < 1e-3, name

    def test_series_beats_gaussian_at_low_snr(self):
        cfg = desk_cfg(n_bs_antennas=16, pdf_fit_samples=500_000)
        res = hn.run_pdf_fit(cfg, (15.0, 2.0))
        ks = self.ks_by_point(res)
        lowest = ks["2dB"]
        assert lowest[1] <= lowest[0]

    def test_gaussian_fits_tightly_at_high_snr(self):
        cfg = desk_cfg(n_bs_antennas=16, pdf_fit_samples=1_000_000)
        res = hn.run_pdf_fit(cfg, (18.0,))
        assert self.ks_by_point(res)["18dB"][0] < 0.02

    @pytest.mark.parametrize("n_users", [1, 4])
    def test_gaussian_bit_equal_to_scipy_norm(self, monkeypatch, n_users):
        # the harness writes norm.pdf / norm.cdf out by hand; scipy.stats.norm
        # stays the oracle, and the match must be exact, not approximate
        cfg = desk_cfg(n_users=n_users, n_bs_antennas=16, pdf_fit_samples=20_000)
        snr_points = (18.0, 10.0, 3.0)
        model_cdfs = []
        ks_statistic = hn._ks_statistic

        def recording_ks(cdf):
            model_cdfs.append(cdf)
            return ks_statistic(cdf)

        monkeypatch.setattr(hn, "_ks_statistic", recording_ks)
        res = hn.run_pdf_fit(cfg, snr_points)

        chans, _ = build_uplink_instance(cfg, stream(cfg.seed, hn._TAG_PDF, 1),
                                         stream(cfg.seed, hn._TAG_PDF, 2))
        row = chans.c[0]
        sym = ComplementarySymbol(np.arange(cfg.n_users) % 2, levels=2)
        gamma_ref = max(float(np.abs(row @ sym.s) ** 2), float(np.abs(row @ sym.s_bar) ** 2))
        ks = self.ks_by_point(res)
        for pi, snr_db in enumerate(snr_points):
            sv2 = gamma_ref / (2.0 * 10.0 ** (snr_db / 10.0))
            v = complex_normal(stream(cfg.seed, hn._TAG_PDF, 3, pi),
                               (2, cfg.pdf_fit_samples), 2.0 * sv2)
            samples = np.sort(np.abs(row @ sym.s + v[0]) ** 2
                              - np.abs(row @ sym.s_bar + v[1]) ** 2)
            model = analysis.gaussian_approx(row, sym, sv2)
            mu, sd = model.mu, np.sqrt(model.sigma2)
            tag = format(snr_db, "g")
            assert np.array_equal(res.series[f"gaussian_{tag}dB"].values,
                                  stats.norm.pdf(res.x_values, mu, sd))
            cdf = stats.norm.cdf(samples, mu, sd)
            assert np.array_equal(model_cdfs[2 * pi], cdf)
            assert ks[f"{tag}dB"][0] == float("%.9g" % ks_statistic(cdf))

    @staticmethod
    def ks_by_point(res):
        ks = {}
        for note in res.notes:
            if note.startswith("snr="):
                fields = dict(kv.split("=") for kv in note.split())
                ks[fields["snr"]] = (float(fields["ks_gauss"]),
                                     float(fields["ks_series"]))
        return ks
