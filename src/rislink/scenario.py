"""Channel synthesis from a scenario configuration.

Angles of arrival/departure are drawn uniformly and frozen per frame; user
positions are drawn along a road segment in front of the RIS and drive the
monomial path-loss amplitudes d^(-alpha/2) (reference distance 1 m).  The
BS-RIS hop is static within a frame while the RIS-user hops evolve with the
time-correlated fading process; only the QAM baseline applies the common
Doppler rotation, which cancels in the magnitude-difference schemes.  The
RIS phases are the ``ris_phase_mode`` entry of ``channel.PHASE_MODES``, called
after every user's LoS angles: ``aligned`` co-phases user 0's LoS cascade,
``fixed`` is all zeros, ``random`` draws uniform phases from the geometry stream.

Both link directions take their cascades from ``channel.cascade``.  A
downlink frame draws its RIS-user fading exactly from Clarke's law in one
``JakesFading.sample_at`` call on the pilot instant t = 0 and every block
start of ``frame_timeline``, then forms all its cascades in one call over the
stacked user rows.  The optional direct BS-user path fades with its own
process at the same Doppler, drawn the same way after the RIS-user one.
The uplink is one snapshot: the transposed downlink cascade terms, by
reciprocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel as ch
from .config import ConfigError, ScenarioConfig
from .downlink import hadamard_order
from .uplink import UplinkChannelSet

# Road in front of the RIS: along x at fixed lateral offset and antenna height.
ROAD_Y = 55.0
ROAD_Z = 1.5


def stream(*key) -> np.random.Generator:
    """Deterministic generator from a tuple of non-negative integer keys.

    ``SeedSequence`` ignores trailing zeros, so ``stream(5, 13, 1)`` and
    ``stream(5, 13, 1, 0)`` are the same generator: two stream families
    under one tag must differ before any trailing index that can be 0.
    """
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def path_amplitude(distance: float, exponent: float) -> float:
    """Monomial path-loss amplitude d^(-alpha/2) with 1 m reference."""
    return float(max(distance, 1.0) ** (-exponent / 2.0))


@dataclass
class LinkSet:
    """Weighted LoS/NLoS pieces of the BS-RIS and RIS-user hops plus the
    RIS phase shifts, shared by both link directions via reciprocity.  The
    BS-RIS hop is static within a frame, so its NLoS draw is part of the set;
    the RIS-user and direct-path fading belong to each direction's builder."""

    q_los_w: np.ndarray      # (N, N_t) BS->RIS LoS, weights and gain applied
    q_nlos_w: np.ndarray     # (N, N_t) BS->RIS NLoS draw, weights and gain applied
    g_los_w: np.ndarray      # (N_k, N) RIS->user LoS rows, weighted
    g_nlos_weight: np.ndarray  # (N_k, 1) per-user NLoS amplitude weight
    phases: np.ndarray       # (N,) RIS phase shifts, realized as diag(exp(j*phases))
    direct_weight: np.ndarray | None  # (N_k, 1) optional direct BS-user amplitude


def _draw_links(cfg: ScenarioConfig, rng_geo: np.random.Generator,
                rng_fade: np.random.Generator) -> LinkSet:
    n = cfg.n_ris_elements
    nx, ny = cfg.ris_grid

    users_x = rng_geo.uniform(-cfg.coverage_length / 2.0,
                              cfg.coverage_length / 2.0, size=cfg.n_users)
    ris = np.asarray(cfg.ris_position, dtype=float)
    bs = np.asarray(cfg.bs_position, dtype=float)
    user_pos = np.stack([ris[0] + users_x,
                         np.full(cfg.n_users, ROAD_Y),
                         np.full(cfg.n_users, ROAD_Z)], axis=1)

    alpha_bu, alpha_br, alpha_ru = cfg.pathloss_exponents
    pg_q = path_amplitude(np.linalg.norm(bs - ris), alpha_br)
    pg_g = np.array([path_amplitude(np.linalg.norm(user_pos[m] - ris), alpha_ru)
                     for m in range(cfg.n_users)])

    # LoS factors with unit-magnitude entries so the Rician mix preserves
    # per-entry power; angles uniform over their ranges, frozen per frame.
    theta_bs = rng_geo.uniform(0.0, np.pi)
    a_bs = ch.ula_steering(theta_bs, cfg.n_bs_antennas)
    theta, phi = rng_geo.uniform(0.0, np.pi), rng_geo.uniform(0.0, 2.0 * np.pi)
    q_los = ch.los_component(ch.upa_steering(theta, phi, nx, ny), a_bs)

    g_los = np.empty((cfg.n_users, n), dtype=complex)
    for m in range(cfg.n_users):
        theta, phi = rng_geo.uniform(0.0, np.pi), rng_geo.uniform(0.0, 2.0 * np.pi)
        g_los[m] = ch.upa_steering(theta, phi, nx, ny).conj()

    w_los, w_nlos = ch.rician_weights(cfg.rician_factor)

    q_los_w = pg_q * w_los * q_los
    g_los_w = (pg_g * w_los)[:, None] * g_los

    phases = ch.PHASE_MODES[cfg.ris_phase_mode](g_los, q_los, rng_geo)

    direct = None
    if cfg.direct_link:
        direct = np.array([[path_amplitude(np.linalg.norm(user_pos[m] - bs), alpha_bu)]
                           for m in range(cfg.n_users)])

    return LinkSet(q_los_w=q_los_w,
                   q_nlos_w=pg_q * w_nlos * ch.complex_normal(rng_fade, q_los_w.shape),
                   g_los_w=g_los_w,
                   g_nlos_weight=(pg_g * w_nlos)[:, None],
                   phases=phases,
                   direct_weight=direct)


@dataclass
class DownlinkFrame:
    """Per-block cascaded channels of one frame, normalized so every user's
    frame-start row has unit Euclidean norm (path loss folded out, which is
    what referencing noise levels to Eb/N0 requires)."""

    h_pilot: np.ndarray    # (N_k, N_t) at the training instant
    h_blocks: np.ndarray   # (B, N_k, N_t) at each block start


def frame_timeline(cfg: ScenarioConfig) -> tuple[int, np.ndarray]:
    """Pilots training sends, hadamard_order(N_t), and block starts pilots + b*S."""
    pilots = hadamard_order(cfg.n_bs_antennas)
    return pilots, pilots + np.arange(cfg.blocks_per_frame) * cfg.symbols_per_block


def build_downlink_frame(cfg: ScenarioConfig, rng_geo: np.random.Generator,
                         rng_fade: np.random.Generator) -> DownlinkFrame:
    """One frame at the config's speed and Rician factor."""
    links = _draw_links(cfg, rng_geo, rng_fade)
    # the pilot instant, then every block start
    times = np.r_[0.0, frame_timeline(cfg)[1]] * cfg.symbol_period
    jakes = ch.JakesFading.create((cfg.n_users, cfg.n_ris_elements), cfg.doppler_max,
                                  rng_fade)
    # updated in place: each frame-sized array is allocated once
    g = jakes.sample_at(times)  # (B+1, N_k, N)
    g *= links.g_nlos_weight
    g += links.g_los_w
    h = ch.cascade(g, links.phases, links.q_los_w + links.q_nlos_w)  # (B+1, N_k, N_t)
    if links.direct_weight is not None:
        direct = ch.JakesFading.create((cfg.n_users, cfg.n_bs_antennas), cfg.doppler_max,
                                       rng_fade)
        h += links.direct_weight * direct.sample_at(times)
    h *= 1.0 / np.linalg.norm(h[0], axis=1, keepdims=True)
    return DownlinkFrame(h[0], h[1:])  # (pilot, blocks)


def build_uplink_instance(cfg: ScenarioConfig, rng_geo: np.random.Generator,
                          rng_fade: np.random.Generator):
    """Snapshot uplink channel set via TDD reciprocity.

    The user-to-array rows are the transposed downlink cascade terms: ``a``
    the LoS-LoS term, ``b`` the two single-NLoS terms, ``o`` the NLoS-NLoS
    term.  Components are scaled by the RMS cascade entry so noise levels
    reference a unit-mean-power channel; returns the channel set and the
    applied scale.  The uplink model has no direct path, so ``direct_link``
    is refused rather than ignored.
    """
    if cfg.direct_link:
        raise ConfigError("direct_link is downlink-only: the uplink model has no "
                          "direct BS-user path", key="direct_link")
    links = _draw_links(cfg, rng_geo, rng_fade)
    g_nlos_w = links.g_nlos_weight * ch.complex_normal(rng_fade, links.g_los_w.shape)
    los_los, los_nlos, nlos_los, nlos_nlos = ch.cascade_decomposition(
        links.g_los_w, g_nlos_w, links.phases, links.q_los_w, links.q_nlos_w)
    a, b, o = los_los.T, (los_nlos + nlos_los).T, nlos_nlos.T
    rms = np.sqrt(np.mean(np.abs(a + b + o) ** 2))
    return UplinkChannelSet(a=a / rms, b=b / rms, o=o / rms), float(rms)
