import math
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import special, stats

from rislink import analysis, downlink_ber, output_snr, pdf_fit, uplink_ser
from rislink import downlink as dl
from rislink import harness as hn
from rislink import uplink as ul
from rislink.channel import complex_normal, power_difference
from rislink.config import ConfigError, ScenarioConfig
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


class TestSweepPoints:
    def test_int_field_gets_python_ints(self):
        grid, points = hn.ARRAY_SWEEP.points(desk_cfg(), (16.0, 32.0))
        assert grid == (16.0, 32.0)
        assert [p.n_bs_antennas for p in points] == [16, 32]
        assert all(type(p.n_bs_antennas) is int for p in points)

    @pytest.mark.parametrize("value", [16.5, math.inf])
    def test_int_field_refuses_non_integers(self, value):
        with pytest.raises(ConfigError, match="must be integers"):
            hn.ARRAY_SWEEP.points(desk_cfg(), (16, value))

    def test_float_field_keeps_floats(self):
        _, points = hn.SWEEPS["speed"].points(desk_cfg(), (10, 30))
        assert [p.speed for p in points] == [10.0, 30.0]
        assert all(type(p.speed) is float for p in points)

    def test_negative_zero_writes_zero(self, tmp_path):
        res = uplink_ser.run_uplink_ser(desk_cfg(), "closed_form", (-0.0, 4.0))
        path = tmp_path / "ser.csv"
        hn.export_csv(res, path)
        rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        assert [row.split(",")[0] for row in rows[1:]] == ["0", "4"]


class TestDownlinkBer:
    def test_noiseless_static_precoded_is_error_free(self):
        cfg = desk_cfg(noise_sigma2=0.0, speed=0.0,
                       mc_min_errors=1, mc_min_trials=100, mc_trial_ceiling=100)
        res = downlink_ber.run_downlink_ber(cfg, "linear_precoded", "ebn0", (0.0, 10.0))
        np.testing.assert_array_equal(res.series["linear_precoded"].values, [0.0, 0.0])

    def test_min_trials_respected(self):
        cfg = desk_cfg(ebn0_db=0.0)
        res = downlink_ber.run_downlink_ber(cfg, "linear_precoded", "ebn0", (0.0,))
        assert res.series["linear_precoded"].trials[0] >= cfg.mc_min_trials

    def test_deterministic_and_worker_invariant(self):
        cfg = desk_cfg()
        a = downlink_ber.run_downlink_ber(cfg, ["linear_precoded"], "speed", (10.0, 50.0))
        b = downlink_ber.run_downlink_ber(cfg, ["linear_precoded"], "speed", (10.0, 50.0))
        np.testing.assert_array_equal(a.series["linear_precoded"].values,
                                      b.series["linear_precoded"].values)
        c = downlink_ber.run_downlink_ber(cfg, ["linear_precoded"], "speed", (10.0, 50.0),
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
        res = downlink_ber.run_downlink_ber(cfg, ["linear_precoded"], "speed", (10.0, 50.0),
                                  workers=2)
        assert res.series["linear_precoded"].trials.tolist() == [64, 64]
        assert len(pools) == 1

    def test_schemes_share_channel_draws(self):
        # adding a scheme must not change another scheme's series
        cfg = desk_cfg()
        alone = downlink_ber.run_downlink_ber(cfg, ["linear_precoded"], "speed", (50.0,))
        both = downlink_ber.run_downlink_ber(cfg, ["linear_precoded", "qam_ml_baseline"],
                                   "speed", (50.0,))
        np.testing.assert_array_equal(alone.series["linear_precoded"].values,
                                      both.series["linear_precoded"].values)

    def test_joint_requires_small_array(self):
        cfg = desk_cfg()  # 32 antennas exceeds the exhaustive-search cap
        with pytest.raises(Exception):
            downlink_ber.run_downlink_ber(cfg, "linear_joint", "ebn0", (10.0,))

    def test_joint_search_cap_checked_before_any_frame(self, monkeypatch):
        def no_frames(*args):
            raise AssertionError("a frame was built")

        monkeypatch.setattr(hn, "build_downlink_frame", no_frames)
        monkeypatch.setattr(dl, "bipolar_candidates", no_frames)
        with pytest.raises(dl.SearchTooLarge):
            downlink_ber.run_downlink_ber(desk_cfg(n_bs_antennas=17), "linear_joint", "ebn0",
                                (10.0,))

    def test_joint_worker_invariant(self):
        cfg = desk_cfg(n_bs_antennas=4, blocks_per_frame=4, ebn0_db=10.0,
                       mc_min_trials=32, mc_trial_ceiling=32)
        a = downlink_ber.run_downlink_ber(cfg, "linear_joint", "rician_k", (1.0, 10.0),
                                workers=1)
        b = downlink_ber.run_downlink_ber(cfg, "linear_joint", "rician_k", (1.0, 10.0),
                                workers=2)
        for field_name in ("values", "trials"):
            np.testing.assert_array_equal(
                getattr(a.series["linear_joint"], field_name),
                getattr(b.series["linear_joint"], field_name))
        assert a.series["linear_joint"].values.max() > 0.0

    def test_unknown_scheme_or_sweep(self):
        cfg = desk_cfg()
        with pytest.raises(ValueError):
            downlink_ber.run_downlink_ber(cfg, "mystery", "ebn0", (0.0,))
        with pytest.raises(ValueError):
            downlink_ber.run_downlink_ber(cfg, "linear_precoded", "bogus", (0.0,))

    def test_every_registered_scheme_runs(self, tmp_path):
        cfg = desk_cfg(n_users=2, n_bs_antennas=4, n_ris_elements=4,
                       blocks_per_frame=2, symbols_per_block=5,
                       mc_min_trials=4, mc_trial_ceiling=4)
        names = list(downlink_ber.SCHEMES)
        assert len({s.stream_id for s in downlink_ber.SCHEMES.values()}) == len(names)
        path = tmp_path / "all.csv"
        hn.export_csv(downlink_ber.run_downlink_ber(cfg, names, "ebn0", (10.0,)), path)
        res = hn.read_curve_csv(path)
        assert list(res.series) == names
        assert f"schemes={'+'.join(names)}" in res.notes[0]
        noise_note = next(n for n in res.notes if n.startswith("noise map"))
        for name, scheme in downlink_ber.SCHEMES.items():
            assert f"{scheme.label}={scheme.bits(cfg)}" in noise_note
            assert res.series[name].trials[0] == cfg.mc_trial_ceiling
            assert 0.0 <= res.series[name].values[0] <= 1.0

    def test_qam_noiseless_static_is_error_free(self):
        cfg = desk_cfg(noise_sigma2=0.0, speed=0.0,
                       mc_min_errors=1, mc_min_trials=100, mc_trial_ceiling=100)
        res = downlink_ber.run_downlink_ber(cfg, "qam_ml_baseline", "ebn0", (0.0,))
        assert res.series["qam_ml_baseline"].values[0] == 0.0

    def test_halfwidth_is_frame_level(self):
        # the written half-width against t_{0.975, F-1} sd(per-frame BER) / sqrt(F)
        # recomputed frame by frame from the same streams
        cfg = desk_cfg(blocks_per_frame=4, mc_min_trials=40, mc_trial_ceiling=40)
        schemes = ("linear_precoded", "qam_ml_baseline")
        res = downlink_ber.run_downlink_ber(cfg, list(schemes), "ebn0", (4.0, 10.0))
        for pi, ebn0 in enumerate((4.0, 10.0)):
            point = cfg.replace(ebn0_db=ebn0)
            sigma2s = {s: hn.branch_noise_sigma2(point, downlink_ber.SCHEMES[s].bits(point))
                       for s in schemes}
            frames = [downlink_ber._downlink_task((point, schemes, sigma2s, pi, f, f + 1))
                      for f in range(10)]
            for s in schemes:
                ber = np.array([e / n for e, n, _ in (fr[s] for fr in frames)])
                assert ber.std() > 0.0
                series = res.series[s]
                assert series.trials[pi] == 40
                assert series.values[pi] == pytest.approx(ber.mean(), rel=1e-12)
                assert series.half_widths[pi] == pytest.approx(
                    stats.t.ppf(0.975, ber.size - 1) * ber.std(ddof=1) / np.sqrt(ber.size),
                    rel=1e-12)

    def test_halfwidth_needs_two_frames(self):
        cfg = desk_cfg(mc_min_trials=40, mc_trial_ceiling=40)  # one frame of 40 blocks
        res = downlink_ber.run_downlink_ber(cfg, "linear_precoded", "ebn0", (4.0,))
        assert res.series["linear_precoded"].trials[0] == 40
        assert np.isnan(res.series["linear_precoded"].half_widths[0])

    def test_qam_degrades_with_speed(self):
        cfg = desk_cfg(ebn0_db=30.0, mc_min_errors=100, mc_trial_ceiling=1600)
        res = downlink_ber.run_downlink_ber(cfg, "qam_ml_baseline", "speed", (10.0, 50.0))
        v = res.series["qam_ml_baseline"].values
        assert v[1] > v[0]


SEEDS = (1, 7, 20250811)


def scheme_frames(cfg, scheme, seeds=SEEDS, frames=3):
    """(frame, rng) of the first ``frames`` frames of grid point 0 at each
    seed, with ``rng(sub)`` the scheme's own streams, as ``_downlink_task``
    derives them."""
    tag, scheme_id = downlink_ber._TAG_DOWNLINK, downlink_ber.SCHEMES[scheme].stream_id
    for seed in seeds:
        for frame_idx in range(frames):
            frame = build_downlink_frame(cfg, stream(seed, tag, 1, 0, frame_idx),
                                         stream(seed, tag, 2, 0, frame_idx))
            yield frame, (lambda sub, seed=seed, frame_idx=frame_idx:
                          stream(seed, tag, sub, 0, frame_idx, scheme_id))


def per_block_precoded(frame, cfg, sigma2, rng):
    """The linear_precoded frame simulation one block at a time: the true
    block channel through the stale precoder, and |a + v|^2 in complex
    arithmetic on the frame's data noise, drawn once and sliced per block;
    kept as the oracle of the batched precoded link."""
    rng_noise = rng(3)
    pre = dl.zf_precoder(downlink_ber._train(frame, cfg, 1.0, sigma2, rng_noise))
    blocks, syms = cfg.blocks_per_frame, cfg.symbols_per_block
    bits = rng(4).integers(0, 2, size=(blocks, syms, cfg.n_users))
    v = complex_normal(rng_noise, (2,) + bits.shape, sigma2)
    errors = 0
    for b in range(blocks):
        w = dl.equivalent_channel(frame.h_blocks[b]) @ pre.p
        a1 = np.sqrt(pre.rho) * bits[b] @ w.T
        a2 = np.sqrt(pre.rho) * (1 - bits[b]) @ w.T
        z = np.abs(a1 + v[0, b]) ** 2 - np.abs(a2 + v[1, b]) ** 2
        errors += int(np.count_nonzero((z >= 0) != bits[b]))
    return errors, bits.size


@pytest.mark.parametrize("speed", [0.0, 50.0])
def test_precoded_frame_matches_per_block_loop(speed):
    cfg = desk_cfg(speed=speed, ebn0_db=4.0)
    sigma2 = hn.branch_noise_sigma2(cfg, downlink_ber.SCHEMES["linear_precoded"].bits(cfg))
    total_errors = 0
    for frame, rng in scheme_frames(cfg, "linear_precoded"):
        got = downlink_ber._sim_linear_precoded(frame, cfg, sigma2, rng)
        assert got == per_block_precoded(frame, cfg, sigma2, rng)
        total_errors += got[0]
    assert total_errors > 0


def precoded_error_law(a1, a2, bits, sigma2):
    """Each bit's error probability on the precoded link.  With v1, v2
    i.i.d. CN(0, sigma2), P(|a1 + v1|^2 < |a2 + v2|^2) = Q1(a, b)
    - exp(-(a^2 + b^2) / 2) I0(ab) / 2 at a = |a2| / sigma, b = |a1| / sigma
    (Schwartz, Bennett and Stein), with Q1(a, b) = 1 - chndtr(b^2, 2, a^2);
    a 1 bit errs on that event, a 0 bit on its complement."""
    a = np.abs(a2) / np.sqrt(sigma2)
    b = np.abs(a1) / np.sqrt(sigma2)
    less = (1.0 - special.chndtr(b * b, 2, a * a)
            - 0.5 * np.exp(-(a - b) ** 2 / 2.0) * special.ive(0, a * b))
    less = np.clip(less, 0.0, 1.0)  # the difference rounds below 0 deep in the tail
    return np.where(bits == 1, less, 1.0 - less)


def test_precoded_error_law_at_w_identity():
    # at a2 = 0 the law is precoded_ber_exact's 0.5 exp(-rho / (2 sigma2)),
    # down to the 1 - chndtr form's absolute floor of about 1e-16
    rho = np.array([0.0, 1e-3, 0.3, 1.0, 4.0, 25.0])
    for sigma2 in (0.05, 0.5, 2.0):
        law = precoded_error_law(np.sqrt(rho), np.zeros_like(rho), np.ones(rho.size), sigma2)
        np.testing.assert_allclose(law, dl.precoded_ber_exact(rho, sigma2),
                                   rtol=1e-10, atol=1e-15)


@pytest.mark.parametrize("a1, a2, sigma2", [(1.0, 0.5, 1.0), (0.3, 0.2, 0.1),
                                            (2.0, 1.5, 2.0), (0.1, 0.9, 0.5)])
def test_precoded_error_law_matches_complex_monte_carlo(a1, a2, sigma2):
    n = 200_000
    v = complex_normal(np.random.default_rng(7), (2, n), sigma2)
    hits = np.count_nonzero(np.abs(a1 + v[0]) ** 2 < np.abs(a2 + v[1]) ** 2)
    p = precoded_error_law(a1, a2, 1, sigma2)
    assert abs(hits - n * p) < 4.0 * np.sqrt(n * p * (1.0 - p))


@pytest.mark.parametrize("speed", [0.0, 50.0])
def test_precoded_errors_follow_the_exact_law(speed):
    # the frame's error count against the sum of its bits' error
    # probabilities at the amplitudes per_block_precoded forms: given the
    # amplitudes the bits err independently, so the count has mean sum(p)
    # and variance sum(p (1 - p))
    cfg = desk_cfg(speed=speed, ebn0_db=30.0)
    sigma2 = hn.branch_noise_sigma2(cfg, downlink_ber.SCHEMES["linear_precoded"].bits(cfg))
    errors, mean, var = 0, 0.0, 0.0
    for frame, rng in scheme_frames(cfg, "linear_precoded"):
        pre = dl.zf_precoder(downlink_ber._train(frame, cfg, 1.0, sigma2, rng(3)))
        bits = rng(4).integers(0, 2, size=(cfg.blocks_per_frame, cfg.symbols_per_block,
                                           cfg.n_users))
        for b in range(cfg.blocks_per_frame):
            w = dl.equivalent_channel(frame.h_blocks[b]) @ pre.p
            a1 = np.sqrt(pre.rho) * bits[b] @ w.T
            a2 = np.sqrt(pre.rho) * (1 - bits[b]) @ w.T
            p = precoded_error_law(a1, a2, bits[b], sigma2)
            mean += p.sum()
            var += (p * (1.0 - p)).sum()
        errors += downlink_ber._sim_linear_precoded(frame, cfg, sigma2, rng)[0]
    assert 0.05 < mean / (9 * 4000) < 0.45  # away from a coin toss and from zero
    assert abs(errors - mean) < 4.0 * np.sqrt(var)


def per_symbol_joint(frame, cfg, sigma2, rng):
    """The linear_joint frame simulation with one detection call per symbol,
    on the frame's data noise drawn once and sliced per block; kept as the
    oracle of the block-detecting scheme."""
    n_t = cfg.n_bs_antennas
    scale = 1.0 / np.sqrt(n_t)
    rng_noise = rng(3)
    h_hat = downlink_ber._train(frame, cfg, scale, sigma2, rng_noise)
    bits = rng(4).integers(0, 2, size=(cfg.blocks_per_frame, cfg.symbols_per_block, n_t))
    v = complex_normal(rng_noise, (2, cfg.blocks_per_frame, cfg.n_users,
                                   cfg.symbols_per_block), sigma2)
    errors = 0
    for b in range(cfg.blocks_per_frame):
        c1 = scale * (frame.h_blocks[b] @ bits[b].T.astype(float))
        c2 = scale * (frame.h_blocks[b] @ (1.0 - bits[b]).T)
        z = np.abs(c1 + v[0, b]) ** 2 - np.abs(c2 + v[1, b]) ** 2
        for s in range(cfg.symbols_per_block):
            errors += int(np.count_nonzero(dl.joint_detect(z[:, s], h_hat) != bits[b, s]))
    return errors, bits.size


@pytest.mark.parametrize("seed", SEEDS)
def test_joint_frame_matches_per_symbol_loop(seed):
    cfg = desk_cfg(n_bs_antennas=4, speed=50.0, ebn0_db=12.0, seed=seed)
    sigma2 = hn.branch_noise_sigma2(cfg, downlink_ber.SCHEMES["linear_joint"].bits(cfg))
    total_errors = 0
    for frame, rng in scheme_frames(cfg, "linear_joint", seeds=(seed,)):
        got = downlink_ber._sim_linear_joint(frame, cfg, sigma2, rng)
        assert got == per_symbol_joint(frame, cfg, sigma2, rng)
        total_errors += got[0]
    assert total_errors > 0


def per_block_qam(frame, cfg, sigma2, rng, estimate_error):
    """The 4-QAM baseline frame simulation one block at a time, through the
    pseudo-inverse of an explicit estimate H_est = r H + E with
    E = estimate_error(b, H) per block, and the frame's noise drawn once and
    sliced per block; kept as the oracle of the batched baseline."""
    n_k, syms = cfg.n_users, cfg.symbols_per_block
    rng_noise = rng(3)
    bits = rng(4).integers(0, 2, size=(cfg.blocks_per_frame, syms, n_k, 2))
    x = downlink_ber.qam_modulate(bits)
    noise = complex_normal(rng_noise, x.shape, sigma2)
    dnu = 2.0 * np.pi * cfg.doppler_max * cfg.symbol_period
    pilots = dl.hadamard_pilots(cfg.n_bs_antennas).shape[1]
    errors = 0
    for b in range(cfg.blocks_per_frame):
        t0 = pilots + b * syms
        h_true = frame.h_blocks[b]
        h_est = np.exp(1j * dnu * t0) * h_true + estimate_error(b, h_true)
        p_c = np.linalg.pinv(h_est)
        p_c = p_c / np.sqrt(np.trace(p_c.conj().T @ p_c).real)
        gain = np.diag(h_est @ p_c)
        rot = np.exp(1j * dnu * (t0 + np.arange(syms)))
        y = rot[:, None] * (x[b] @ (h_true @ p_c).T) + noise[b]
        errors += int(np.count_nonzero(downlink_ber.qam_demodulate(y / gain[None, :]) != bits[b]))
    return errors, bits.size


def estimate_sigma2(cfg, sigma2):
    return sigma2 / dl.hadamard_pilots(cfg.n_bs_antennas).shape[1]


def full_error(rng_est, sigma2):
    """Brute force: every entry of E drawn, block by block."""
    return lambda b, h: complex_normal(rng_est, h.shape, sigma2)


def rebuilt_error(cfg, sigma2, rng_est):
    """E = A Q^H + T V^H from the baseline's own (A, T) draws, with Q and V
    the first N_k and the next m columns of a full QR of H^H."""
    n_k, n_t = cfg.n_users, cfg.n_bs_antennas
    a, t = downlink_ber._estimate_error(rng_est, n_k, n_t, sigma2, cfg.blocks_per_frame)

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
    sigma2 = hn.branch_noise_sigma2(cfg, downlink_ber.SCHEMES["qam_ml_baseline"].bits(cfg))
    total_errors, worst_cond = 0, 0.0
    for frame, rng in scheme_frames(cfg, "qam_ml_baseline"):
        got = downlink_ber._sim_qam_baseline(frame, cfg, sigma2, rng)
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
    cfg = desk_cfg(**PAPER_SIZES, rician_factor=100.0, ebn0_db=50.0)
    assert check_qam_against_per_block_loop(cfg) > 1e6


def test_qam_refuses_fewer_antennas_than_users():
    cfg = desk_cfg(n_users=4, n_bs_antennas=3)
    frame = build_downlink_frame(cfg, stream(1, 1), stream(1, 2))
    with pytest.raises(dl.RankDeficientChannel, match="baseline estimate"):
        downlink_ber._sim_qam_baseline(frame, cfg, 0.1, lambda sub: stream(1, 3, sub))


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
            e = complex_normal(generator, (self.N // 4,) + h.shape, self.SIGMA2)
            h_est = rot * h + e
            h_est_h = h_est.conj().swapaxes(-1, -2)
            parts.append((h_est @ h_est_h, h @ h_est_h))
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    def check(self, h, seed):
        rot = np.exp(0.7j)
        drawn = downlink_ber._estimate_statistics(np.broadcast_to(h, (self.N,) + h.shape),
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
        sigma2 = hn.branch_noise_sigma2(cfg, downlink_ber.SCHEMES["qam_ml_baseline"].bits(cfg))
        counts = np.zeros((2, 2), dtype=np.int64)
        for frame_idx in range(200):
            frame = build_downlink_frame(cfg, stream(8, 1, frame_idx), stream(8, 2, frame_idx))

            def rng(sub):
                return stream(8, 3, sub, frame_idx)

            counts[0] += downlink_ber._sim_qam_baseline(frame, cfg, sigma2, rng)
            full = full_error(stream(8, 4, frame_idx), estimate_sigma2(cfg, sigma2))
            counts[1] += per_block_qam(frame, cfg, sigma2, rng, full)
        (e1, n1), (e2, n2) = counts
        p = (e1 + e2) / (n1 + n2)
        z = (e1 / n1 - e2 / n2) / np.sqrt(p * (1 - p) * (1 / n1 + 1 / n2))
        assert e1 > 0 and abs(z) < 4.0


def ls_train(frame, cfg, scale, sigma2, rng_noise):
    """``downlink_ber._train``'s pilot observation estimated by the generic
    ``downlink.ls_estimate``, kept as the oracle of the closed-form LS.  The
    observation comes from ``channel.power_difference`` on the same stream,
    so the LS solve is what is checked, bit for bit."""
    pilots = dl.hadamard_pilots(cfg.n_bs_antennas)
    s_t = (1.0 + pilots) / 2.0
    c1 = scale * (frame.h_pilot @ s_t)
    c2 = scale * (frame.h_pilot @ (1.0 - s_t))
    z_t = power_difference(rng_noise, c1, c2, sigma2)
    return dl.ls_estimate(pilots, z_t)


@pytest.mark.parametrize("joint", [False, True], ids=["unit_scale", "joint_scale"])
@pytest.mark.parametrize("n_t", [4, 5, 8, 16, 24, 32, 128])
def test_train_matches_ls_estimate(n_t, joint):
    cfg = desk_cfg(n_bs_antennas=n_t)
    scale = 1.0 / np.sqrt(n_t) if joint else 1.0
    sigma2 = hn.branch_noise_sigma2(cfg, downlink_ber.SCHEMES["linear_precoded"].bits(cfg))
    frame = build_downlink_frame(cfg, stream(3, 1), stream(3, 2))
    got = downlink_ber._train(frame, cfg, scale, sigma2, stream(3, 3))
    assert np.array_equal(got, ls_train(frame, cfg, scale, sigma2, stream(3, 3)))


@pytest.mark.parametrize("n_t", [4, 32, 128])
def test_frame_is_timed_by_the_pilots_training_sends(n_t, monkeypatch):
    # the fading instants, the baseline's estimate noise and the CSV note
    # all count the pilot columns _train actually transmits
    sizes = dict(PAPER_SIZES if n_t == 128 else {}, n_bs_antennas=n_t)
    cfg = desk_cfg(**sizes, mc_min_trials=40, mc_trial_ceiling=40)
    seen = {}
    sample_at, power_diff, statistics = (downlink_ber.channel.JakesFading.sample_at,
                                         downlink_ber.channel.power_difference,
                                         downlink_ber._estimate_statistics)

    def spy_sample_at(self, times):
        seen.setdefault("times", np.array(times))
        return sample_at(self, times)

    def spy_power(rng, c1, c2, sigma2, **kw):
        seen.setdefault("sent", np.shape(c1)[-1])
        return power_diff(rng, c1, c2, sigma2, **kw)

    def spy_statistics(h, rot, sigma2, rng):
        seen.setdefault("est_sigma2", sigma2)
        return statistics(h, rot, sigma2, rng)

    monkeypatch.setattr(downlink_ber.channel.JakesFading, "sample_at", spy_sample_at)
    monkeypatch.setattr(downlink_ber.channel, "power_difference", spy_power)
    monkeypatch.setattr(downlink_ber, "_estimate_statistics", spy_statistics)
    frame = build_downlink_frame(cfg, stream(3, 1), stream(3, 2))
    sigma2 = 0.25
    downlink_ber._train(frame, cfg, 1.0, sigma2, stream(3, 3))
    downlink_ber._sim_qam_baseline(frame, cfg, sigma2, lambda sub: stream(3, 4, sub))
    pilots = seen["sent"]
    assert pilots == n_t
    # the pilot instant, then block b at pilots + b*S symbol periods
    starts = pilots + np.arange(cfg.blocks_per_frame) * cfg.symbols_per_block
    np.testing.assert_allclose(seen["times"] / cfg.symbol_period, np.r_[0, starts],
                               rtol=1e-12, atol=0)
    assert seen["est_sigma2"] == sigma2 / pilots
    note = downlink_ber.run_downlink_ber(cfg, ["linear_precoded"], "speed", grid=(50.0,)).notes[1]
    assert note.endswith(f"40 blocks x 25 symbols + {pilots} pilots")


def test_t95_matches_scipy():
    dofs = np.r_[np.arange(1, 1001), np.geomspace(1000, 1e5, 100).round().astype(int)]
    got = [hn.t95(int(d)) for d in dofs]
    np.testing.assert_allclose(got, stats.t.ppf(0.975, dofs), rtol=1e-9, atol=0)


def test_t95_needs_one_degree_of_freedom():
    with pytest.raises(ValueError, match="dof"):
        hn.t95(0)


def test_ks_statistic_matches_scipy():
    x = np.sort(np.random.default_rng(3).normal(0.2, 1.3, 5000))
    ref = stats.kstest(x, "norm", args=(0.1, 1.2)).statistic
    assert abs(pdf_fit._ks_statistic(x, lambda v: stats.norm.cdf(v, 0.1, 1.2)) - ref) < 1e-12


def full_array_ks(model_cdf):
    """The scorer's previous form, kept as its oracle: max(D+, D-) over the
    model CDF at every sample, with the same float operations."""
    n = model_cdf.size
    ecdf = np.arange(1.0, n + 1.0)
    ecdf /= n
    gap = np.subtract(ecdf, model_cdf)
    d_plus = gap.max()
    ecdf -= 1.0 / n
    np.subtract(model_cdf, ecdf, out=gap)
    return float(max(d_plus, gap.max()))


def absolute_gap_ks(model_cdf):
    """An older KS form, kept as the oracle's oracle: the larger absolute gap
    between the model and the empirical CDF just after and just before
    each sample."""
    n = model_cdf.size
    ecdf_hi = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(np.abs(ecdf_hi - model_cdf),
                                   np.abs(ecdf_hi - 1.0 / n - model_cdf))))


def check_scorer(x, cdf):
    """The block scorer equals the full-array oracle bit for bit, and only
    reads the samples."""
    kept = x.copy()
    got = pdf_fit._ks_statistic(x, cdf)
    assert np.array_equal(x, kept)
    want = full_array_ks(cdf(x))
    assert got == want or (np.isnan(got) and np.isnan(want)), (got, want)
    return got


def tabulated(table):
    """An elementwise CDF of the samples 0, 1, ..., n-1 read off ``table``."""
    return lambda v: table[v.astype(np.intp)]


@pytest.mark.parametrize("n, shift", [
    (1, 0.0), (7, 0.4), (5000, 0.0), (5000, 0.3), (5000, -0.3), (100_003, 0.01),
])
def test_ks_statistic_bit_equal_to_absolute_gaps(n, shift):
    x = np.sort(np.random.default_rng(n).normal(size=n))
    got = check_scorer(x, lambda v: special.ndtr(v - shift))
    assert got == absolute_gap_ks(special.ndtr(x - shift))


@pytest.mark.parametrize("n", [1, 10, 4096])
def test_ks_statistic_bit_equal_on_the_steps(n):
    # a model CDF exactly on the empirical steps, or halfway between them
    x = np.arange(float(n))
    steps = np.arange(1, n + 1) / n
    for table in (steps, steps - 1.0 / n, steps - 0.5 / n):
        got = check_scorer(x, tabulated(table))
        assert got == absolute_gap_ks(table)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 4097, 1_000_003])
@pytest.mark.parametrize("shift", [0.0, 0.002, -0.05, 0.5, 9.0, -9.0])
def test_ks_statistic_bit_equal_to_full_array_oracle(n, shift):
    # every block layout: fewer samples than a block, whole blocks only and
    # a last partial block; shifts of +-9 put the statistic near 1
    x = np.sort(np.random.default_rng(n).normal(size=n))
    got = check_scorer(x, lambda v: special.ndtr((v - shift) / 1.01))
    if abs(shift) == 9.0:
        assert got > 0.99


@pytest.mark.parametrize("n", [1, 64, 200, 5000])
def test_ks_statistic_near_one_at_either_end(n):
    # all model mass above the samples (D+ = 1 at the last) or below them
    # (D- = 1 at the first)
    x = np.sort(np.random.default_rng(n).normal(size=n))
    assert check_scorer(x, np.zeros_like) == 1.0
    assert check_scorer(x, np.ones_like) == 1.0


@pytest.mark.parametrize("n", [130, 5000, 100_000])
def test_ks_statistic_on_duplicate_samples(n):
    x = np.sort(np.round(np.random.default_rng(n).normal(size=n), 1))
    assert np.unique(x).size < n // 2
    for shift in (0.0, 0.05, -0.3):
        check_scorer(x, lambda v: special.ndtr(v - shift))


@pytest.mark.parametrize("n", [7, 64, 1000, 100_001])
def test_ks_statistic_against_a_step_cdf(n):
    # a discrete model on five atoms, with samples on and between them
    atoms = np.array([-1.0, -0.25, 0.0, 0.5, 2.0])
    probs = np.array([0.1, 0.3, 0.2, 0.3, 0.1])
    cum = np.concatenate([[0.0], np.cumsum(probs)])

    def cdf(v):
        return cum[np.searchsorted(atoms, v, "right")]

    g = np.random.default_rng(n)
    for x in (np.sort(g.choice(atoms, n, p=probs)),
              np.sort(g.choice(atoms, n, p=probs[::-1])),
              np.sort(g.uniform(-1.5, 2.5, n))):
        check_scorer(x, cdf)


def test_ks_statistic_absorbs_a_dip_below_the_margin():
    # the gaps at a block's ends decide whether it is scored; a CDF that
    # falls by less than the margin between a block's first and last sample
    # (rounding, or the ulp wobble of np.interp at a knot) must not hide the
    # statistic sitting at that last sample
    n = 4 * pdf_fit.KS_BLOCK + 5
    end = 2 * pdf_fit.KS_BLOCK - 1
    table = np.where(np.arange(n) <= end, 0.01, 0.6)
    table[end] -= 1e-12
    x = np.arange(float(n))
    got = check_scorer(x, tabulated(table))
    assert got == (end + 1.0) / n - table[end]


@pytest.mark.parametrize("n", [1, 64, 5000])
def test_ks_statistic_nan_in_nan_out(n):
    # a NaN density normalizes to an all-NaN CDF table; a NaN at one sample
    # of an otherwise good model spoils the statistic too
    x = np.sort(np.random.default_rng(n).normal(size=n))
    fine = np.linspace(-5.0, 5.0, 2001)
    nan_table = np.full(fine.size, np.nan)
    assert np.isnan(check_scorer(x, lambda v: np.interp(v, fine, nan_table)))
    assert np.isnan(check_scorer(x, lambda v: special.ndtr((v - 0.1) / np.nan)))

    def one_nan(v):
        f = special.ndtr(v)
        f[v == x[-1]] = np.nan
        return f

    assert np.isnan(check_scorer(x, one_nan))


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
    assert np.array_equal(pdf_fit._density_histogram(samples, edges), ref)


class TestQamHelpers:
    def test_modulate_demodulate_roundtrip(self):
        g = np.random.default_rng(0)
        bits = g.integers(0, 2, (100, 2))
        np.testing.assert_array_equal(downlink_ber.qam_demodulate(downlink_ber.qam_modulate(bits)), bits)

    def test_half_turn_flips_decisions(self):
        # a pi rotation mid-block with stale equalization inverts every bit
        g = np.random.default_rng(1)
        bits = g.integers(0, 2, (50, 2))
        y = downlink_ber.qam_modulate(bits) * np.exp(1j * np.pi)
        np.testing.assert_array_equal(downlink_ber.qam_demodulate(y), 1 - bits)


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
            output_snr.run_output_snr(cfg, (8,))

    def test_worker_invariance(self):
        cfg = desk_cfg(n_users=4, snr_channel_draws=50)
        a = output_snr.run_output_snr(cfg, (16, 32), workers=1)
        b = output_snr.run_output_snr(cfg, (16, 32), workers=2)
        np.testing.assert_array_equal(a.series["simulated"].values,
                                      b.series["simulated"].values)
        np.testing.assert_array_equal(a.series["simulated"].half_widths,
                                      b.series["simulated"].half_widths)

    def test_exact_is_mean_law_over_the_draws(self):
        n_k, n_t, draws, sigma2 = 4, 16, 30, 0.5
        cfg = desk_cfg(n_users=n_k, snr_channel_draws=draws, noise_sigma2=sigma2)
        res = output_snr.run_output_snr(cfg, (n_t,))
        h_bars = [stream(cfg.seed, output_snr._TAG_OUTPUT_SNR, 0, d).standard_normal((n_k, n_t))
                  for d in range(draws)]
        laws = [dl.output_snr_exact(dl.zf_precoder(h_bar).rho, sigma2) for h_bar in h_bars]
        assert res.series["exact"].values[0] == np.mean(laws)
        assert res.series["exact"].trials[0] == draws

    def test_simulated_halfwidth_is_t_interval(self):
        # t_{0.975, D-1} sd(eta) / sqrt(D) over the D draws' simulated SNRs
        n_t, draws, sigma2 = 16, 30, 0.5
        cfg = desk_cfg(n_users=4, snr_channel_draws=draws, noise_sigma2=sigma2)
        res = output_snr.run_output_snr(cfg, (n_t,))
        etas = np.array(output_snr._output_snr_task(
            (cfg.replace(n_bs_antennas=n_t), 0, 0, draws, sigma2, 256)))[:, 0]
        assert res.series["simulated"].values[0] == pytest.approx(etas.mean(), rel=1e-12)
        assert res.series["simulated"].half_widths[0] == pytest.approx(
            stats.t.ppf(0.975, draws - 1) * etas.std(ddof=1) / np.sqrt(draws), rel=1e-12)

    def test_one_precoder_per_draw(self, monkeypatch):
        # the exact law reads the draw's own ZF gain; no second factorization
        calls = []
        zf_precoder = dl.zf_precoder

        def counting(h_bar):
            calls.append(h_bar)
            return zf_precoder(h_bar)

        monkeypatch.setattr(output_snr.downlink, "zf_precoder", counting)
        cfg = desk_cfg(n_bs_antennas=16)
        etas = output_snr._output_snr_task((cfg, 0, 0, 7, 0.5, 64))
        assert len(etas) == 7
        assert len(calls) == 7

    def test_simulated_close_to_prediction_small(self):
        cfg = desk_cfg(n_users=4, snr_channel_draws=50)
        res = output_snr.run_output_snr(cfg, (16, 32))
        sim = res.series["simulated"].values
        pred = res.series["closed_form"].values
        assert np.all(np.abs(10 * np.log10(sim / pred)) < 1.0)


class TestUplinkSer:
    def test_zero_noise_both_modes_zero(self):
        cfg = desk_cfg(noise_sigma2=0.0, n_bs_antennas=64, ris_phase_mode="random")
        res = uplink_ser.run_uplink_ser(cfg, "both", (0.0, 10.0))
        np.testing.assert_array_equal(res.series["monte_carlo"].values, [0.0, 0.0])
        np.testing.assert_array_equal(res.series["closed_form"].values, [0.0, 0.0])

    def test_zero_noise_degenerate_rows_count_the_same_errors(self, monkeypatch):
        # two users with equal gains share the middle region: its second
        # point always errs, so both rows read 1/4 at sigma2 = 0
        a = np.ones((4, 2), dtype=complex)
        chans = ul.UplinkChannelSet(a=a, b=np.zeros_like(a), o=np.zeros_like(a))
        monkeypatch.setattr(hn, "build_uplink_instance", lambda cfg, r1, r2: (chans, 1.0))
        res = uplink_ser.run_uplink_ser(desk_cfg(n_users=2, noise_sigma2=0.0), "both", (0.0,))
        assert "degenerate_regions=True" in res.notes
        np.testing.assert_array_equal(res.series["monte_carlo"].values, [0.25])
        np.testing.assert_array_equal(res.series["closed_form"].values, [0.25])
        # an exact count over the constellation, not a sample: no interval
        np.testing.assert_array_equal(res.series["monte_carlo"].half_widths, [0.0])

    def test_zero_errors_keep_a_wilson_halfwidth(self, monkeypatch):
        # one user far above the noise: no symbol errs, and the half-width
        # is Wilson's Z95^2 / (n + Z95^2), not Wald's 0
        a = np.ones((4, 1), dtype=complex)
        chans = ul.UplinkChannelSet(a=a, b=np.zeros_like(a), o=np.zeros_like(a))
        monkeypatch.setattr(hn, "build_uplink_instance", lambda cfg, r1, r2: (chans, 1.0))
        cfg = desk_cfg(n_users=1, noise_sigma2=1e-3, mc_symbol_chunk=2000,
                       mc_min_trials=8000, mc_symbol_ceiling=8000)
        series = uplink_ser.run_uplink_ser(cfg, "monte_carlo", (0.0,)).series["monte_carlo"]
        assert series.values[0] == 0.0
        assert series.trials[0] == 8000
        assert series.half_widths[0] == pytest.approx(hn.Z95 ** 2 / (8000 + hn.Z95 ** 2),
                                                      rel=1e-12)

    def test_modes(self):
        cfg = desk_cfg(n_bs_antennas=64, ris_phase_mode="random",
                       mc_min_errors=50, mc_min_trials=2000,
                       mc_symbol_chunk=2000, mc_symbol_ceiling=8000)
        mc = uplink_ser.run_uplink_ser(cfg, "monte_carlo", (6.0,))
        cf = uplink_ser.run_uplink_ser(cfg, "closed_form", (6.0,))
        both = uplink_ser.run_uplink_ser(cfg, "both", (6.0,))
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
        a = uplink_ser.run_uplink_ser(cfg, "monte_carlo", (6.0,), workers=1)
        b = uplink_ser.run_uplink_ser(cfg, "monte_carlo", (6.0,), workers=3)
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
        uplink_ser.run_uplink_ser(cfg, "monte_carlo", (0.0, 6.0, 12.0))
        assert len(keys) == 2 + 3 * 4
        states = {tuple(stream(*k).bit_generator.seed_seq.generate_state(4))
                  for k in keys}
        assert len(states) == len(keys)


class TestRateHalfwidth:
    @staticmethod
    def score_ends(errors, total):
        """Ends of the Wilson score interval, the roots q of
        (p - q)^2 total = Z95^2 q (1 - q) at p = errors / total."""
        p, z2 = errors / total, hn.Z95 ** 2
        return np.sort(np.roots([total + z2, -(2 * errors + z2), errors * p]).real)

    @pytest.mark.parametrize("total", [1, 10, 2_000_000])
    def test_zero_and_all_errors(self, total):
        wilson = hn.Z95 ** 2 / (total + hn.Z95 ** 2)
        assert hn.rate_halfwidth(0, total) == pytest.approx(wilson, rel=1e-12)
        assert hn.rate_halfwidth(total, total) == pytest.approx(wilson, rel=1e-12)
        if total == 2_000_000:
            assert hn.rate_halfwidth(0, total) == pytest.approx(1.92e-6, rel=1e-3)

    @pytest.mark.parametrize("errors, total", [(0, 50), (1, 50), (7, 50), (25, 50),
                                               (49, 50), (3, 20000), (1234, 5000)])
    def test_larger_distance_to_a_score_interval_end(self, errors, total):
        lower, upper = self.score_ends(errors, total)
        p = errors / total
        assert hn.rate_halfwidth(errors, total) == pytest.approx(
            max(p - lower, upper - p), rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("p", [0.01, 0.2, 0.5, 0.9])
    def test_agrees_with_wald_at_large_n(self, p):
        total = 2_000_000
        errors = round(p * total)
        wald = hn.Z95 * math.sqrt(p * (1.0 - p) / total)
        assert abs(hn.rate_halfwidth(errors, total) / wald - 1.0) < 0.01


class TestUplinkSampler:
    """The averaged-observation sampler (one gamma and two normals a symbol)
    against the per-antenna sum of ``uplink.antenna_observation`` (the
    brute-force oracle)."""

    N = 20_000

    @pytest.mark.parametrize("ebn0_db, symbol, n_t, zero", [
        (0.0, 5, 64, False), (15.0, 5, 64, False), (0.0, -1, 64, False),
        (15.0, -1, 64, False), (0.0, 5, 1, False), (15.0, 5, 1, False),
        (15.0, -1, 1, False), (0.0, 5, 64, True), (0.0, 5, 1, True),
    ], ids=["low_snr", "high_snr", "all_ones_low_snr", "all_ones_high_snr",
            "one_antenna_low_snr", "one_antenna_high_snr", "one_antenna_all_ones",
            "zero_energies", "one_antenna_zero_energies"])
    def test_matches_per_antenna_sum(self, ebn0_db, symbol, n_t, zero):
        cfg = desk_cfg(n_bs_antennas=n_t, ris_phase_mode="random")
        chans, _ = build_uplink_instance(cfg, stream(3, 1), stream(3, 2))
        c = np.zeros_like(chans.c) if zero else chans.c
        s = ((dl.bipolar_candidates(cfg.n_users)[symbol] + 1.0) / 2.0).astype(int)
        sigma2 = 10.0 ** (-ebn0_db / 10.0)

        v = complex_normal(stream(3, 4), (2, self.N, n_t), sigma2)
        oracle = ul.antenna_observation(c, s, (v[0], v[1])).mean(axis=1)

        a = np.sqrt(2.0 * np.sum(np.abs(c @ s) ** 2) / sigma2)
        b = np.sqrt(2.0 * np.sum(np.abs(c @ (1 - s)) ** 2) / sigma2)
        if symbol == -1:
            assert b == 0.0  # 1 - s = 0
        if zero:
            assert a == b == 0.0
        drawn = sigma2 / (2.0 * n_t) * uplink_ser._ncx2_difference(
            stream(3, 5), np.full(self.N, a - b), np.full(self.N, a + b), n_t)
        assert stats.ks_2samp(drawn, oracle).pvalue > 0.01


class TestUplinkExactLaw:
    """The whole uplink Monte Carlo path (channel, regions, grouping, pieces,
    sampler) at one user, where the SER has a closed form: binary orthogonal
    signalling with L-fold square-law combining (Proakis and Salehi),
    P = 2^(1-2L) e^(-g/2) sum_{n<L} c_n (g/2)^n with
    c_n = (1/n!) sum_{k <= L-1-n} C(2L-1, k), L = N_t and g = e1 / sigma2."""

    @staticmethod
    def law(n_t, snr):
        c = [sum(math.comb(2 * n_t - 1, k) for k in range(n_t - n)) / math.factorial(n)
             for n in range(n_t)]
        return 2.0 ** (1 - 2 * n_t) * math.exp(-snr / 2.0) * sum(
            c_n * (snr / 2.0) ** n for n, c_n in enumerate(c))

    def test_law_reference_value(self):
        assert abs(self.law(4, 3.0) - 0.20406) < 1e-5
        assert self.law(1, 4.0) == pytest.approx(0.5 * math.exp(-2.0), rel=1e-15)

    @pytest.mark.parametrize("n_t, snr", [(1, 4.0), (4, 3.0), (64, 24.0)])
    def test_binomial_z(self, n_t, snr):
        n = 400_000
        cfg = desk_cfg(n_users=1, n_bs_antennas=n_t, ris_phase_mode="random",
                       mc_min_errors=10 ** 9, mc_min_trials=n, mc_symbol_chunk=n // 4,
                       mc_symbol_ceiling=n)
        chans, _ = build_uplink_instance(cfg, stream(cfg.seed, uplink_ser._TAG_UPLINK, 1),
                                         stream(cfg.seed, uplink_ser._TAG_UPLINK, 2))
        energy = float(np.sum(np.abs(chans.c[:, 0]) ** 2))
        res = uplink_ser.run_uplink_ser(cfg.replace(noise_sigma2=energy / snr), "monte_carlo", (0.0,))
        mc = res.series["monte_carlo"]
        p = self.law(n_t, snr)
        assert 1e-2 < p < 0.3
        assert mc.trials[0] == n
        assert abs(mc.values[0] - p) < 4.0 * math.sqrt(p * (1.0 - p) / n)


class TestPdfFit:
    def test_densities_normalized_on_grid(self):
        cfg = desk_cfg(n_bs_antennas=16, pdf_fit_samples=200_000)
        res = pdf_fit.run_pdf_fit(cfg, (15.0, 5.0))
        dx = np.diff(res.x_values)
        for name, series in res.series.items():
            total = np.sum((series.values[1:] + series.values[:-1]) / 2.0 * dx)
            assert abs(total - 1.0) < 1e-3, name

    def test_series_beats_gaussian_at_low_snr(self):
        cfg = desk_cfg(n_bs_antennas=16, pdf_fit_samples=500_000)
        res = pdf_fit.run_pdf_fit(cfg, (15.0, 2.0))
        ks = self.ks_by_point(res)
        lowest = ks["2dB"]
        assert lowest[1] <= lowest[0]

    def test_gaussian_fits_tightly_at_high_snr(self):
        cfg = desk_cfg(n_bs_antennas=16, pdf_fit_samples=1_000_000)
        res = pdf_fit.run_pdf_fit(cfg, (18.0,))
        assert self.ks_by_point(res)["18dB"][0] < 0.02

    @pytest.mark.parametrize("n_users", [1, 4])
    def test_gaussian_bit_equal_to_scipy_norm(self, monkeypatch, n_users):
        # pdf-fit writes norm.pdf / norm.cdf out by hand; scipy.stats.norm
        # stays the oracle, and the match must be exact, not approximate
        cfg = desk_cfg(n_users=n_users, n_bs_antennas=16, pdf_fit_samples=20_000)
        snr_points = (18.0, 10.0, 3.0)
        model_cdfs = []
        ks_statistic = pdf_fit._ks_statistic

        def recording_ks(ascending, cdf):
            model_cdfs.append(cdf(ascending))
            return ks_statistic(ascending, cdf)

        monkeypatch.setattr(pdf_fit, "_ks_statistic", recording_ks)
        res = pdf_fit.run_pdf_fit(cfg, snr_points)

        chans, _ = build_uplink_instance(cfg, stream(cfg.seed, pdf_fit._TAG_PDF, 1),
                                         stream(cfg.seed, pdf_fit._TAG_PDF, 2))
        row = chans.c[0]
        s_ref = np.arange(cfg.n_users) % 2
        c1, c2 = row @ s_ref, row @ (1 - s_ref)
        gamma_ref = max(float(np.abs(c1) ** 2), float(np.abs(c2) ** 2))
        ks = self.ks_by_point(res)
        for pi, snr_db in enumerate(snr_points):
            sv2 = gamma_ref / (2.0 * 10.0 ** (snr_db / 10.0))
            samples = np.sort(power_difference(
                stream(cfg.seed, pdf_fit._TAG_PDF, 3, pi), c1, c2,
                2.0 * sv2, (cfg.pdf_fit_samples,)))
            mu, var = analysis.gaussian_approx(np.abs(c1) ** 2, np.abs(c2) ** 2, sv2)
            sd = np.sqrt(var)
            tag = format(snr_db, "g")
            assert np.array_equal(res.series[f"gaussian_{tag}dB"].values,
                                  stats.norm.pdf(res.x_values, mu, sd))
            cdf = stats.norm.cdf(samples, mu, sd)
            assert np.array_equal(model_cdfs[2 * pi], cdf)
            assert ks[f"{tag}dB"][0] == float("%.9g" % full_array_ks(cdf))

    @pytest.mark.parametrize("n_users", [1, 4])
    def test_ks_bit_equal_to_oracle_on_the_runs_samples(self, monkeypatch, n_users):
        # both model CDFs of every point, on the sorted samples the run made
        calls = []
        ks_statistic = pdf_fit._ks_statistic

        def checked_ks(ascending, cdf):
            got = ks_statistic(ascending, cdf)
            calls.append((got, full_array_ks(cdf(ascending))))
            return got

        monkeypatch.setattr(pdf_fit, "_ks_statistic", checked_ks)
        cfg = desk_cfg(n_users=n_users, n_bs_antennas=16, pdf_fit_samples=200_000)
        pdf_fit.run_pdf_fit(cfg, (18.0, 10.0, 3.0))
        assert len(calls) == 6
        for got, want in calls:
            assert got == want

    def test_nan_density_gives_nan_ks(self, monkeypatch):
        # a NaN density makes the normalized CDF table NaN; the series KS
        # must say so rather than score the samples against a partial table
        monkeypatch.setattr(pdf_fit.analysis, "gamma_difference_pdf",
                            lambda x, p1, p2, ctl: np.full(x.shape, np.nan))
        cfg = desk_cfg(n_bs_antennas=16, pdf_fit_samples=5000)
        res = pdf_fit.run_pdf_fit(cfg, (10.0,))
        ks_gauss, ks_series = self.ks_by_point(res)["10dB"]
        assert np.isnan(ks_series)
        assert 0.0 < ks_gauss < 1.0

    def test_truncation_carries_the_grid_density(self, monkeypatch):
        # the series runs on the output grid and the fine CDF grid at once;
        # the error reports the output grid's part, as a grid-only call did
        calls = []

        def truncated(x, p1, p2, ctl):
            calls.append(x)
            raise analysis.SeriesTruncationError("cut", partial_sum=2.0 * x, tail_bound=1.5)

        monkeypatch.setattr(pdf_fit.analysis, "gamma_difference_pdf", truncated)
        cfg = desk_cfg(n_bs_antennas=16, pdf_fit_samples=2000)
        with pytest.raises(analysis.SeriesTruncationError) as err:
            pdf_fit.run_pdf_fit(cfg, (10.0,))
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
        pdf_fit.run_pdf_fit(cfg, snr_points)  # first-call allocations out of the count
        tracemalloc.start()
        try:
            pdf_fit.run_pdf_fit(cfg, snr_points)
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


class TestPoolSize:
    """A pool never has more workers than one ``map`` call has tasks: a
    process pool forks all its workers at the first submit.  The pool is a
    fake that records its size and maps in-process."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(hn, "ProcessPoolExecutor", RecordingPool)
        return sizes

    @staticmethod
    def same(a, b):
        assert a.series.keys() == b.series.keys()
        for name in a.series:
            np.testing.assert_array_equal(a.series[name].values, b.series[name].values)
            np.testing.assert_array_equal(a.series[name].trials, b.series[name].trials)

    @pytest.mark.parametrize("workers, size", [(64, downlink_ber.TASKS_PER_BATCH), (3, 3)])
    def test_downlink(self, sizes, workers, size):
        cfg = desk_cfg(blocks_per_frame=2, mc_min_trials=64, mc_trial_ceiling=64)
        one = downlink_ber.run_downlink_ber(cfg, ["linear_precoded"], "speed", (10.0,))
        assert sizes == []
        self.same(downlink_ber.run_downlink_ber(cfg, ["linear_precoded"], "speed", (10.0,),
                                      workers=workers), one)
        assert sizes == [size]

    def test_uplink(self, sizes):
        cfg = desk_cfg(n_bs_antennas=64, ris_phase_mode="random", mc_min_trials=4000,
                       mc_symbol_chunk=1000, mc_symbol_ceiling=4000)
        one = uplink_ser.run_uplink_ser(cfg, "monte_carlo", (6.0,))
        self.same(uplink_ser.run_uplink_ser(cfg, "monte_carlo", (6.0,), workers=64), one)
        assert sizes == [uplink_ser.UPLINK_TASKS_PER_BATCH]

    @pytest.mark.parametrize("draws, size", [(60, 3), (25, None)])
    def test_output_snr(self, sizes, draws, size):
        # 60 draws are three tasks per point; 25 are one, and need no pool
        cfg = desk_cfg(n_users=4, snr_channel_draws=draws)
        one = output_snr.run_output_snr(cfg, (16,))
        self.same(output_snr.run_output_snr(cfg, (16,), workers=64), one)
        assert sizes == ([] if size is None else [size])
