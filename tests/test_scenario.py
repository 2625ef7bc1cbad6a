import numpy as np
import pytest

from rislink import channel as ch
from rislink import downlink as dl
from rislink import uplink as ul
from rislink.config import ScenarioConfig
from rislink.scenario import (_draw_links, build_downlink_frame, build_uplink_instance,
                              stream)


def desk_cfg(**kw):
    base = dict(n_users=4, n_bs_antennas=32, n_ris_elements=16)
    base.update(kw)
    return ScenarioConfig(**base)


def test_stream_is_deterministic():
    a = stream(1, 2, 3).standard_normal(5)
    b = stream(1, 2, 3).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    c = stream(1, 2, 4).standard_normal(5)
    assert not np.array_equal(a, c)


def test_stream_seeds_above_2_63_do_not_alias():
    # every 64-bit seed the config accepts keys its own streams
    assert ScenarioConfig(seed=2 ** 63 + 5).seed == 2 ** 63 + 5
    high = stream(2 ** 63 + 5, 13, 1).standard_normal(5)
    assert not np.array_equal(high, stream(5, 13, 1).standard_normal(5))
    top = stream(2 ** 64 - 1, 13, 1).standard_normal(5)
    assert not np.array_equal(top, stream(2 ** 63 - 1, 13, 1).standard_normal(5))


def per_instant_frame(cfg, rng_geo, rng_fade):
    """The downlink frame with one hand-formed cascade per instant of the
    ``sample_at(times)`` draw, on the same streams, kept as the oracle of the
    batched builder.  The direct path, when on, fades with its own process
    drawn after the RIS-user one."""
    links = _draw_links(cfg, rng_geo, rng_fade)
    q_omega = np.exp(1j * links.phases)[:, None] * (links.q_los_w + links.q_nlos_w)
    pilots = dl.hadamard_pilots(cfg.n_bs_antennas).shape[1]
    times = np.r_[0.0, pilots + np.arange(cfg.blocks_per_frame)
                  * cfg.symbols_per_block] * cfg.symbol_period
    fades = ch.JakesFading.create((cfg.n_users, cfg.n_ris_elements), cfg.doppler_max,
                                  rng_fade).sample_at(times)
    direct = None
    if links.direct_weight is not None:
        direct = ch.JakesFading.create((cfg.n_users, cfg.n_bs_antennas), cfg.doppler_max,
                                       rng_fade).sample_at(times)

    def cascade_at(k):
        h = (links.g_los_w + links.g_nlos_weight * fades[k]) @ q_omega
        return h if direct is None else h + links.direct_weight * direct[k]

    h_pilot = cascade_at(0)
    scale = 1.0 / np.linalg.norm(h_pilot, axis=1, keepdims=True)
    return h_pilot * scale, np.stack([cascade_at(k) for k in range(1, times.size)]) * scale


def hand_split_uplink(cfg, rng_geo, rng_fade):
    """The uplink a, b, o and RMS scale with the transposed hops multiplied
    out term by term, kept as the oracle of the reciprocal
    ``cascade_decomposition``."""
    links = _draw_links(cfg, rng_geo, rng_fade)
    g_nlos = ch.complex_normal(rng_fade, links.g_los_w.shape)
    omega = np.exp(1j * links.phases)
    left_los = links.q_los_w.T * omega[None, :]
    left_nlos = links.q_nlos_w.T * omega[None, :]
    right_los = links.g_los_w.T
    right_nlos = (links.g_nlos_weight * g_nlos).T
    a = left_los @ right_los
    b = left_los @ right_nlos + left_nlos @ right_los
    o = left_nlos @ right_nlos
    rms = np.sqrt(np.mean(np.abs(a + b + o) ** 2))
    return a / rms, b / rms, o / rms, rms


SCALES = {"desk": dict(n_users=4, n_bs_antennas=32, n_ris_elements=16),
          "paper": dict(n_users=8, n_bs_antennas=128, n_ris_elements=64)}


@pytest.mark.parametrize("direct_link", [False, True], ids=["ris", "direct"])
@pytest.mark.parametrize("speed", [0.0, 50.0])
@pytest.mark.parametrize("scale", list(SCALES))
def test_frame_matches_per_instant_builder(scale, speed, direct_link):
    cfg = ScenarioConfig(**SCALES[scale], speed=speed, direct_link=direct_link)
    for seed in (1, 7, 20250811):
        for frame_idx in range(3):
            keys = (seed, 11, 1, 0, frame_idx), (seed, 11, 2, 0, frame_idx)
            frame = build_downlink_frame(cfg, *(stream(*k) for k in keys))
            h_pilot, h_blocks = per_instant_frame(cfg, *(stream(*k) for k in keys))
            assert frame.h_blocks.shape == h_blocks.shape
            assert np.abs(frame.h_pilot - h_pilot).max() < 1e-12
            assert np.abs(frame.h_blocks - h_blocks).max() < 1e-12


@pytest.mark.parametrize("direct_link", [False, True], ids=["ris", "direct"])
def test_frame_draws_its_fading_through_the_class_once_per_path(direct_link, monkeypatch):
    # the traced spans wrap JakesFading.create and sample_at at the class,
    # so every fading draw of a frame must go through those two names
    calls = {"create": 0, "sample_at": 0}
    create, sample_at = vars(ch.JakesFading)["create"].__func__, ch.JakesFading.sample_at

    def counted_create(cls, *args):
        calls["create"] += 1
        return create(cls, *args)

    def counted_sample_at(self, times):
        calls["sample_at"] += 1
        return sample_at(self, times)

    monkeypatch.setattr(ch.JakesFading, "create", classmethod(counted_create))
    monkeypatch.setattr(ch.JakesFading, "sample_at", counted_sample_at)
    build_downlink_frame(desk_cfg(direct_link=direct_link), stream(9, 1), stream(9, 2))
    paths = 2 if direct_link else 1
    assert calls == {"create": paths, "sample_at": paths}


@pytest.mark.parametrize("mode", ["aligned", "fixed", "random"])
@pytest.mark.parametrize("scale", list(SCALES))
def test_uplink_matches_hand_split(scale, mode):
    cfg = ScenarioConfig(**SCALES[scale], ris_phase_mode=mode)
    for seed in (1, 7, 20250811):
        keys = (seed, 13, 1), (seed, 13, 2)
        chans, rms = build_uplink_instance(cfg, *(stream(*k) for k in keys))
        *parts, rms_ref = hand_split_uplink(cfg, *(stream(*k) for k in keys))
        assert abs(rms - rms_ref) <= 1e-14 * rms_ref
        for got, ref in zip((chans.a, chans.b, chans.o), parts):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def redrawn_phases(cfg, rng_geo):
    """The RIS phases re-derived from the geometry stream: the road
    positions, the BS angle, the RIS's two angles and each user's two angles
    come first, then ``random``'s N uniforms; ``aligned`` co-phases user 0's
    re-drawn LoS row with the BS-RIS LoS."""
    n, (nx, ny) = cfg.n_ris_elements, cfg.ris_grid
    if cfg.ris_phase_mode == "fixed":
        return np.zeros(n)
    if cfg.ris_phase_mode == "random":
        rng_geo.random(cfg.n_users + 3 + 2 * cfg.n_users)
        return rng_geo.uniform(0.0, 2.0 * np.pi, size=n)
    rng_geo.random(cfg.n_users)
    a_bs = ch.ula_steering(rng_geo.uniform(0.0, np.pi), cfg.n_bs_antennas)
    theta, phi = rng_geo.uniform(0.0, np.pi), rng_geo.uniform(0.0, 2.0 * np.pi)
    q_los = ch.los_component(ch.upa_steering(theta, phi, nx, ny), a_bs)
    theta, phi = rng_geo.uniform(0.0, np.pi), rng_geo.uniform(0.0, 2.0 * np.pi)
    return ch.align_phases_to_los(ch.upa_steering(theta, phi, nx, ny).conj(), q_los)


@pytest.mark.parametrize("rician_factor", [0.0, 10.0])
@pytest.mark.parametrize("mode", ["aligned", "fixed", "random"])
@pytest.mark.parametrize("scale", list(SCALES))
def test_phases_keep_their_stream_position(scale, mode, rician_factor):
    cfg = ScenarioConfig(**SCALES[scale], ris_phase_mode=mode, rician_factor=rician_factor)
    for seed in (1, 7, 20250811):
        keys = (seed, 11, 1, 0, 0), (seed, 11, 2, 0, 0)
        links = _draw_links(cfg, *(stream(*k) for k in keys))
        np.testing.assert_array_equal(links.phases, redrawn_phases(cfg, stream(*keys[0])))


def test_frame_rows_unit_normalized_at_start():
    cfg = desk_cfg(speed=50.0, rician_factor=10.0)
    frame = build_downlink_frame(cfg, stream(0, 1), stream(0, 2))
    np.testing.assert_allclose(np.linalg.norm(frame.h_pilot, axis=1), 1.0, atol=1e-12)
    assert frame.h_blocks.shape == (40, 4, 32)


def test_frame_static_when_speed_zero():
    cfg = desk_cfg(speed=0.0, rician_factor=10.0)
    frame = build_downlink_frame(cfg, stream(1, 1), stream(1, 2))
    for b in range(1, 40):
        np.testing.assert_allclose(frame.h_blocks[b], frame.h_blocks[0], atol=1e-12)


def test_frame_varies_with_speed():
    cfg = desk_cfg(speed=50.0, rician_factor=10.0)
    frame = build_downlink_frame(cfg, stream(2, 1), stream(2, 2))
    drift = np.abs(frame.h_blocks[-1] - frame.h_blocks[0]).max()
    assert drift > 1e-3


def test_stronger_rician_factor_reduces_fading_share():
    cfg = desk_cfg()
    drifts = []
    for k in (1.0, 100.0):
        frame = build_downlink_frame(cfg.replace(speed=50.0, rician_factor=k),
                                     stream(3, 1), stream(3, 2))
        drifts.append(np.linalg.norm(frame.h_blocks[-1] - frame.h_blocks[0]))
    assert drifts[1] < drifts[0]


def test_uplink_instance_consistency():
    cfg = desk_cfg(n_bs_antennas=64)
    chans, rms = build_uplink_instance(cfg, stream(4, 1), stream(4, 2))
    assert chans.c.shape == (64, 4)
    assert rms > 0
    # unit RMS after normalization
    assert abs(np.mean(np.abs(chans.c) ** 2) - 1.0) < 1e-12
    # components recompose exactly
    np.testing.assert_allclose(chans.a + chans.b + chans.o, chans.c, atol=1e-12)


def test_uplink_pure_los_limit():
    cfg = desk_cfg(rician_factor=1e9)
    chans, _ = build_uplink_instance(cfg, stream(5, 1), stream(5, 2))
    gains = ul.exact_linear_gains(chans)
    assert np.abs(gains[1:]).max() < 1e-3 * np.abs(gains[0]).max()


def test_direct_link_switch():
    cfg = desk_cfg(direct_link=True, speed=0.0, rician_factor=10.0)
    frame = build_downlink_frame(cfg, stream(6, 1), stream(6, 2))
    cfg_off = cfg.replace(direct_link=False)
    frame_off = build_downlink_frame(cfg_off, stream(6, 1), stream(6, 2))
    assert np.abs(frame.h_pilot - frame_off.h_pilot).max() > 1e-9


def test_direct_path_fades_with_speed():
    # near-pure-LoS hops leave the direct path as the only fading (the
    # BS-RIS hop is static within a frame whatever its factor)
    cfg = desk_cfg(speed=50.0, rician_factor=1e12)
    drift = {}
    for direct_link in (False, True):
        frame = build_downlink_frame(cfg.replace(direct_link=direct_link),
                                     stream(8, 1), stream(8, 2))
        drift[direct_link] = np.abs(frame.h_blocks[-1] - frame.h_blocks[0]).max()
    assert drift[False] < 1e-3
    assert drift[True] > 0.1

