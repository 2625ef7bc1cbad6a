import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import special, stats

from rislink import analysis
from rislink import downlink as dl
from rislink import harness as hn
from rislink import uplink as ul
from rislink.channel import complex_normal, power_difference
from rislink.config import ScenarioConfig
from rislink.scenario import build_downlink_frame, build_uplink_instance, stream


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
            errors += int(np.count_nonzero(dl.joint_detect(z[:, s], h_hat) != bits[b, s]))
    return errors, bits.size


@pytest.mark.parametrize("seed", [1, 7, 20250811])
def test_joint_frame_matches_per_symbol_loop(seed):
    cfg = desk_cfg(n_bs_antennas=4, speed=50.0, ebn0_db=12.0, seed=seed)
    sigma2 = hn.branch_noise_sigma2(cfg, hn.SCHEMES["linear_joint"].bits(cfg))
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


def per_block_qam(frame, cfg, sigma2, rng, estimate_error):
    """The 4-QAM baseline frame simulation one block at a time, through the
    pseudo-inverse of an explicit estimate H_est = r H + E with
    E = estimate_error(b, H) per block, and per-block noise draws; kept as
    the oracle of the batched baseline."""
    n_k, syms = cfg.n_users, cfg.symbols_per_block
    rng_noise = rng(3)
    bits = rng(4).integers(0, 2, size=(cfg.blocks_per_frame, syms, n_k, 2))
    x = hn.qam_modulate(bits)
    dnu = 2.0 * np.pi * cfg.doppler_max * cfg.symbol_period
    errors = 0
    for b in range(cfg.blocks_per_frame):
        t0 = cfg.pilot_len + b * syms
        h_true = frame.h_blocks[b]
        h_est = np.exp(1j * dnu * t0) * h_true + estimate_error(b, h_true)
        p_c = np.linalg.pinv(h_est)
        p_c = p_c / np.sqrt(np.trace(p_c.conj().T @ p_c).real)
        gain = np.diag(h_est @ p_c)
        rot = np.exp(1j * dnu * (t0 + np.arange(syms)))
        y = rot[:, None] * (x[b] @ (h_true @ p_c).T) \
            + complex_normal(rng_noise, (syms, n_k), sigma2)
        errors += int(np.count_nonzero(hn.qam_demodulate(y / gain[None, :]) != bits[b]))
    return errors, bits.size


def estimate_sigma2(cfg, sigma2):
    pilot_budget = dl.hadamard_pilots(cfg.n_bs_antennas, cfg.pilot_len).shape[1]
    return sigma2 / pilot_budget


def full_error(rng_est, sigma2):
    """Brute force: every entry of E drawn, block by block."""
    return lambda b, h: complex_normal(rng_est, h.shape, sigma2)


def rebuilt_error(cfg, sigma2, rng_est):
    """E = A Q^H + T V^H from the baseline's own (A, T) draws, with Q and V
    the first N_k and the next m columns of a full QR of H^H."""
    n_k, n_t = cfg.n_users, cfg.n_bs_antennas
    a, t = hn._estimate_error(rng_est, n_k, n_t, sigma2, cfg.blocks_per_frame)

    def error(b, h):
        q = np.linalg.qr(h.conj().T, mode="complete")[0]
        v = q[:, n_k:n_k + t.shape[-1]]
        return a[b] @ q[:, :n_k].conj().T + t[b] @ v.conj().T
    return error


PAPER_SIZES = dict(n_users=8, n_bs_antennas=128, n_ris_elements=64)


def check_qam_against_per_block_loop(cfg):
    """Run the batched baseline and its per-block oracle, fed the same draws,
    on 3 seeds x 3 frames, require equal (errors, bits) on each, and return
    the frames' largest true-channel Gram condition number."""
    sigma2 = hn.branch_noise_sigma2(cfg, hn.SCHEMES["qam_ml_baseline"].bits(cfg))
    tag, scheme_id = hn._TAG_DOWNLINK, hn.SCHEMES["qam_ml_baseline"].stream_id
    total_errors, worst_cond = 0, 0.0
    for seed in (1, 7, 20250811):
        for frame_idx in range(3):
            frame = build_downlink_frame(cfg, stream(seed, tag, 1, 0, frame_idx),
                                         stream(seed, tag, 2, 0, frame_idx))

            def rng(sub):
                return stream(seed, tag, sub, 0, frame_idx, scheme_id)

            got = hn._sim_qam_baseline(frame, cfg, sigma2, rng)
            same_draws = rebuilt_error(cfg, estimate_sigma2(cfg, sigma2), rng(5))
            assert got == per_block_qam(frame, cfg, sigma2, rng, same_draws)
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


def test_qam_refuses_fewer_antennas_than_users():
    cfg = desk_cfg(n_users=4, n_bs_antennas=3)
    frame = build_downlink_frame(cfg, stream(1, 1), stream(1, 2))
    with pytest.raises(dl.RankDeficientChannel, match="baseline estimate"):
        hn._sim_qam_baseline(frame, cfg, 0.1, lambda sub: stream(1, 3, sub))


class TestQamEstimateSampler:
    """The baseline's sufficient-statistic draw of (G_est, H H_est^H)
    against the brute-force estimate rot H + E with every entry of E drawn."""

    N = 4000
    N_K = 4
    SIGMA2 = 0.5

    @staticmethod
    def functionals(gram, cross):
        return {"re_g00": gram[:, 0, 0].real, "im_g12": gram[:, 1, 2].imag,
                "abs_c01": np.abs(cross[:, 0, 1]),
                "tr_g_inv": np.trace(np.linalg.inv(gram), axis1=-2, axis2=-1).real}

    def brute_force(self, h, rot, generator):
        parts = []
        for _ in range(4):  # in chunks, to keep E small at N_t = 128
            e = complex_normal(generator, h.shape, self.SIGMA2, blocks=self.N // 4)
            h_est = rot * h + e
            h_est_h = h_est.conj().swapaxes(-1, -2)
            parts.append((h_est @ h_est_h, h @ h_est_h))
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    def check(self, h, seed):
        rot = np.exp(0.7j)
        drawn = hn._estimate_statistics(np.broadcast_to(h, (self.N,) + h.shape),
                                        np.full(self.N, rot), self.SIGMA2, stream(seed, 1))
        oracle = self.brute_force(h, rot, stream(seed, 2))
        got, want = self.functionals(*drawn), self.functionals(*oracle)
        for name in got:
            assert stats.ks_2samp(got[name], want[name]).pvalue > 1e-3, name

    @pytest.mark.parametrize("n_t", [N_K, N_K + 1, 2 * N_K - 1, 2 * N_K, 32, 128])
    def test_matches_full_error_draw(self, n_t):
        self.check(complex_normal(stream(5, n_t), (self.N_K, n_t)), n_t)

    def test_matches_full_error_draw_on_rank_one_channel(self):
        g = stream(6)
        h = np.outer(complex_normal(g, self.N_K), complex_normal(g, 32))
        self.check(h, 99)

    def test_ber_matches_full_error_draw(self):
        # 200 paper-scale frames, same data and noise streams; the estimate
        # errors come from the sampler and from a full draw on its own stream
        cfg = desk_cfg(**PAPER_SIZES, speed=10.0, ebn0_db=0.0)
        sigma2 = hn.branch_noise_sigma2(cfg, hn.SCHEMES["qam_ml_baseline"].bits(cfg))
        counts = np.zeros((2, 2), dtype=np.int64)
        for frame_idx in range(200):
            frame = build_downlink_frame(cfg, stream(8, 1, frame_idx), stream(8, 2, frame_idx))

            def rng(sub):
                return stream(8, 3, sub, frame_idx)

            counts[0] += hn._sim_qam_baseline(frame, cfg, sigma2, rng)
            full = full_error(stream(8, 4, frame_idx), estimate_sigma2(cfg, sigma2))
            counts[1] += per_block_qam(frame, cfg, sigma2, rng, full)
        (e1, n1), (e2, n2) = counts
        p = (e1 + e2) / (n1 + n2)
        z = (e1 / n1 - e2 / n2) / np.sqrt(p * (1 - p) * (1 / n1 + 1 / n2))
        assert e1 > 0 and abs(z) < 4.0


def ls_train(frame, cfg, scale, sigma2, rng_noise):
    """``harness._train``'s pilot observation estimated by the generic
    ``downlink.ls_estimate``, kept as the oracle of the closed-form LS.  The
    observation comes from ``channel.power_difference`` on the same stream,
    so the LS solve is what is checked, bit for bit."""
    pilots = dl.hadamard_pilots(cfg.n_bs_antennas, cfg.pilot_len)
    s_t = (1.0 + pilots) / 2.0
    c1 = scale * (frame.h_pilot @ s_t)
    c2 = scale * (frame.h_pilot @ (1.0 - s_t))
    z_t = power_difference(rng_noise, c1, c2, sigma2)
    return dl.ls_estimate(pilots, z_t)


@pytest.mark.parametrize("joint", [False, True], ids=["unit_scale", "joint_scale"])
@pytest.mark.parametrize("n_t, pilot_len",
                         [(4, 20), (32, 20), (128, 20), (8, 16), (16, 40)])
def test_train_matches_ls_estimate(n_t, pilot_len, joint):
    cfg = desk_cfg(n_bs_antennas=n_t, pilot_len=pilot_len)
    scale = 1.0 / np.sqrt(n_t) if joint else 1.0
    sigma2 = hn.branch_noise_sigma2(cfg, hn.SCHEMES["linear_precoded"].bits(cfg))
    frame = build_downlink_frame(cfg, stream(3, 1), stream(3, 2))
    got = hn._train(frame, cfg, scale, sigma2, stream(3, 3))
    assert np.array_equal(got, ls_train(frame, cfg, scale, sigma2, stream(3, 3)))


def test_ks_statistic_matches_scipy():
    x = np.sort(np.random.default_rng(3).normal(0.2, 1.3, 5000))
    ref = stats.kstest(x, "norm", args=(0.1, 1.2)).statistic
    assert abs(hn._ks_statistic(stats.norm.cdf(x, 0.1, 1.2)) - ref) < 1e-12


def absolute_gap_ks(model_cdf):
    """The previous KS form, kept as the oracle: the larger absolute gap
    between the model and the empirical CDF just after and just before
    each sample."""
    n = model_cdf.size
    ecdf_hi = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(np.abs(ecdf_hi - model_cdf),
                                   np.abs(ecdf_hi - 1.0 / n - model_cdf))))


@pytest.mark.parametrize("n, shift", [
    (1, 0.0), (7, 0.4), (5000, 0.0), (5000, 0.3), (5000, -0.3), (100_003, 0.01),
])
def test_ks_statistic_bit_equal_to_absolute_gaps(n, shift):
    x = np.sort(np.random.default_rng(n).normal(size=n))
    cdf = special.ndtr(x - shift)
    kept = cdf.copy()
    assert hn._ks_statistic(cdf) == absolute_gap_ks(cdf)
    assert np.array_equal(cdf, kept)  # the model CDF is only read


@pytest.mark.parametrize("n", [1, 10, 4096])
def test_ks_statistic_bit_equal_on_the_steps(n):
    # a model CDF exactly on the empirical steps, or halfway between them
    steps = np.arange(1, n + 1) / n
    for cdf in (steps, steps - 1.0 / n, steps - 0.5 / n):
        assert hn._ks_statistic(cdf) == absolute_gap_ks(cdf)


@pytest.mark.parametrize("edges", [
    np.linspace(-3.0, 3.0, 41),
    np.concatenate([[-3.1], np.sort(np.random.default_rng(6).uniform(-3, 3, 49)), [3.2]]),
], ids=["uniform", "uneven"])
def test_density_histogram_bit_equal_to_numpy(edges):
    g = np.random.default_rng(7)
    # more than numpy's 65536-sample sort block, every edge hit exactly
    # (the last one closes the last bin), and samples outside the range
    samples = np.concatenate([g.normal(0.0, 1.5, 100_000), edges, edges, edges[-1:],
                              [-50.0, 50.0, np.nextafter(edges[0], -1.0),
                               np.nextafter(edges[-1], 1.0)]])
    samples.sort()
    ref, _ = np.histogram(samples, bins=edges, density=True)
    assert np.array_equal(hn._density_histogram(samples, edges), ref)


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

    def test_exact_is_mean_law_over_the_draws(self):
        n_k, n_t, draws, sigma2 = 4, 16, 30, 0.5
        cfg = desk_cfg(n_users=n_k, snr_channel_draws=draws, noise_sigma2=sigma2)
        res = hn.run_output_snr(cfg, (n_t,))
        h_bars = [stream(cfg.seed, hn._TAG_OUTPUT_SNR, 0, d).standard_normal((n_k, n_t))
                  for d in range(draws)]
        laws = [dl.output_snr_exact(dl.zf_precoder(h_bar).rho, sigma2) for h_bar in h_bars]
        assert res.series["exact"].values[0] == np.mean(laws)
        assert res.series["exact"].trials[0] == draws

    def test_one_precoder_per_draw(self, monkeypatch):
        # the exact law reads the draw's own ZF gain; no second factorization
        calls = []
        zf_precoder = dl.zf_precoder

        def counting(h_bar):
            calls.append(h_bar)
            return zf_precoder(h_bar)

        monkeypatch.setattr(hn.downlink, "zf_precoder", counting)
        cfg = desk_cfg(n_bs_antennas=16)
        etas = hn._output_snr_task((cfg, 0, 0, 7, 0.5, 64))
        assert len(etas) == 7
        assert len(calls) == 7

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

    def test_zero_noise_degenerate_rows_count_the_same_errors(self, monkeypatch):
        # two users with equal gains share the middle region: its second
        # point always errs, so both rows read 1/4 at sigma2 = 0
        a = np.ones((4, 2), dtype=complex)
        chans = ul.UplinkChannelSet(a=a, b=np.zeros_like(a), o=np.zeros_like(a))
        monkeypatch.setattr(hn, "build_uplink_instance", lambda cfg, r1, r2: (chans, 1.0))
        res = hn.run_uplink_ser(desk_cfg(n_users=2, noise_sigma2=0.0), "both", (0.0,))
        assert "degenerate_regions=True" in res.notes
        np.testing.assert_array_equal(res.series["monte_carlo"].values, [0.25])
        np.testing.assert_array_equal(res.series["closed_form"].values, [0.25])

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
        s = ((dl.bipolar_candidates(cfg.n_users)[symbol] + 1.0) / 2.0).astype(int)
        sigma2 = 10.0 ** (-ebn0_db / 10.0)

        v = complex_normal(stream(3, 4), (2, self.N, n_t), sigma2)
        oracle = ul.antenna_observation(c, s, (v[0], v[1])).mean(axis=1)

        e1 = np.full(self.N, np.sum(np.abs(c @ s) ** 2))
        e2 = np.full(self.N, np.sum(np.abs(c @ (1 - s)) ** 2))
        if symbol == -1:
            assert e2[0] == 0.0  # 1 - s = 0: numpy's central chi-square path
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
        s_ref = np.arange(cfg.n_users) % 2
        c1, c2 = row @ s_ref, row @ (1 - s_ref)
        gamma_ref = max(float(np.abs(c1) ** 2), float(np.abs(c2) ** 2))
        ks = self.ks_by_point(res)
        for pi, snr_db in enumerate(snr_points):
            sv2 = gamma_ref / (2.0 * 10.0 ** (snr_db / 10.0))
            samples = np.sort(power_difference(
                stream(cfg.seed, hn._TAG_PDF, 3, pi), c1, c2,
                2.0 * sv2, (cfg.pdf_fit_samples,)))
            mu, var = analysis.gaussian_approx(np.abs(c1) ** 2, np.abs(c2) ** 2, sv2)
            sd = np.sqrt(var)
            tag = format(snr_db, "g")
            assert np.array_equal(res.series[f"gaussian_{tag}dB"].values,
                                  stats.norm.pdf(res.x_values, mu, sd))
            cdf = stats.norm.cdf(samples, mu, sd)
            assert np.array_equal(model_cdfs[2 * pi], cdf)
            assert ks[f"{tag}dB"][0] == float("%.9g" % ks_statistic(cdf))

    def test_truncation_carries_the_grid_density(self, monkeypatch):
        # the series runs on the output grid and the fine CDF grid at once;
        # the error reports the output grid's part, as a grid-only call did
        calls = []

        def truncated(x, p1, p2, ctl):
            calls.append(x)
            raise analysis.SeriesTruncationError("cut", partial_sum=2.0 * x, tail_bound=1.5)

        monkeypatch.setattr(hn.analysis, "gamma_difference_pdf", truncated)
        cfg = desk_cfg(n_bs_antennas=16, pdf_fit_samples=2000)
        with pytest.raises(analysis.SeriesTruncationError) as err:
            hn.run_pdf_fit(cfg, (10.0,))
        (x,) = calls
        grid, fine = x[:401], x[401:]
        assert np.array_equal(fine, np.linspace(grid[0], grid[-1], 2001))
        assert np.array_equal(err.value.partial_sum, 2.0 * grid)
        assert err.value.tail_bound == 1.5
        assert "10.0 dB" in str(err.value)

    @pytest.mark.parametrize("snr_points", [(10.0,), (18.0, 10.0, 3.0)],
                             ids=["one_point", "three_points"])
    def test_peak_memory_of_a_point(self, snr_points):
        # one sample array, sorted in place; the peak is the observation
        # kernel's 4 n normals and its n results, and no point's samples
        # outlive it into the next point's draw
        n = 200_000
        cfg = desk_cfg(n_users=1, n_bs_antennas=16, pdf_fit_samples=n)
        hn.run_pdf_fit(cfg, snr_points)  # first-call allocations out of the count
        tracemalloc.start()
        try:
            hn.run_pdf_fit(cfg, snr_points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * n, peak / (8 * n)

    @staticmethod
    def ks_by_point(res):
        ks = {}
        for note in res.notes:
            if note.startswith("snr="):
                fields = dict(kv.split("=") for kv in note.split())
                ks[fields["snr"]] = (float(fields["ks_gauss"]),
                                     float(fields["ks_series"]))
        return ks
