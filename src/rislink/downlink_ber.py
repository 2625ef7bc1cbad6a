"""The downlink-ber experiment: Monte Carlo BER of the ``SCHEMES`` against one
``harness.SWEEPS`` axis, every scheme on the same frames.

No downlink frame takes an SVD outside ``downlink.zf_precoder``: training
divides by the Hadamard order in closed form, and the 4-QAM baseline
zero-forces each block through its N_k x N_k Gram matrix, drawn with the
cross product it needs from N_k x N_k statistics of the estimate error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import channel, downlink, harness
from .config import ScenarioConfig
from .scenario import frame_timeline

# fixed batch geometry so adaptive stopping is scheduling-independent
FRAMES_PER_TASK = 2
TASKS_PER_BATCH = 8

_TAG_DOWNLINK = 11


def qam_demodulate(y_eq: np.ndarray) -> np.ndarray:
    """Gray-mapped 4-QAM bit decisions from equalized samples: bit 0 from the
    real axis, bit 1 from the imaginary axis (negative half-plane -> 1)."""
    y = np.asarray(y_eq)
    return np.stack([(y.real < 0), (y.imag < 0)], axis=-1).astype(int)


def qam_modulate(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped unit-power 4-QAM symbols from bit pairs (..., 2)."""
    b = np.asarray(bits)
    return ((1 - 2 * b[..., 0]) + 1j * (1 - 2 * b[..., 1])) / np.sqrt(2.0)


def _train(frame, cfg, scale, sigma2, rng_noise):
    """LS estimate of the real equivalent channel from Hadamard pilots sent
    at amplitude ``scale`` at the frame-start channel; the estimate is
    scale^2 * H_bar.  The pilot Gram matrix is exactly P * I for the P pilots
    of ``frame_timeline``, a power of two, so z_t X^T / P equals
    ``downlink.ls_estimate`` bit for bit without its SVD and solve."""
    pilots = downlink.hadamard_pilots(cfg.n_bs_antennas)
    s_t = (1.0 + pilots) / 2.0
    c1 = scale * (frame.h_pilot @ s_t)
    c2 = scale * (frame.h_pilot @ (1.0 - s_t))
    z_t = channel.power_difference(rng_noise, c1, c2, sigma2)
    return (z_t @ pilots.T) / frame_timeline(cfg)[0]


def _sim_linear_precoded(frame, cfg, sigma2, rng):
    rng_noise = rng(3)
    pre = downlink.zf_precoder(_train(frame, cfg, 1.0, sigma2, rng_noise))
    bits = rng(4).integers(0, 2, size=(cfg.blocks_per_frame, cfg.symbols_per_block,
                                       cfg.n_users))
    # true per-block real equivalent channel through the stale precoder
    w = downlink.equivalent_channel(frame.h_blocks) @ pre.p  # (B, N_k, N_k)
    _, _, z = downlink.precoded_link(w, pre.rho, bits.astype(float), sigma2, rng_noise)
    return int(np.count_nonzero((z >= 0) != bits)), bits.size


def _sim_linear_joint(frame, cfg, sigma2, rng):
    n_t = cfg.n_bs_antennas
    blocks, syms = cfg.blocks_per_frame, cfg.symbols_per_block
    scale = 1.0 / np.sqrt(n_t)  # unit average transmit power over both tones
    rng_noise = rng(3)
    # LS recovers scale^2 * H_bar, consistent with the scaled data symbols
    h_hat = _train(frame, cfg, scale, sigma2, rng_noise)

    bits = rng(4).integers(0, 2, size=(blocks, syms, n_t))
    x = np.swapaxes(bits, -1, -2).astype(float)  # (B, N_t, S)
    c1 = scale * (frame.h_blocks @ x)            # (B, N_k, S)
    c2 = scale * (frame.h_blocks @ (1.0 - x))
    z = channel.power_difference(rng_noise, c1, c2, sigma2)
    # one detection call for the frame's symbols, block-major
    s = downlink.joint_detect(np.swapaxes(z, 0, 1).reshape(cfg.n_users, -1), h_hat)
    return int(np.count_nonzero(s != bits.reshape(-1, n_t))), bits.size


def _estimate_error(rng, n_k, n_t, sigma2, blocks):
    """The part (A, T) of a CN(0, sigma2) estimate error E (N_k x N_t) that
    the QAM baseline reads, for ``blocks`` blocks at once.

    Let H^H = Q R with Q (N_t x N_k) orthonormal, and V (N_t x m) orthonormal
    and orthogonal to Q, m = min(N_k, N_t - N_k).  Then E = A Q^H + T V^H in
    law: A = E Q is CN(0, sigma2)^{N_k x N_k}, and T is the lower-trapezoidal
    Bartlett factor of the complex Wishart matrix left by the rest of E
    (Goodman, Ann. Math. Statist. 34(1), 1963).  Column j of T has a real
    diagonal entry with |T_jj|^2 ~ (sigma2/2) chi^2 on 2 (N_t - N_k - j)
    degrees of freedom and CN(0, sigma2) entries below it.  A is drawn
    first, then the chi-squares, then the entries below the diagonal; no draw
    is made at sigma2 == 0.  Needs N_t >= N_k."""
    m = min(n_k, n_t - n_k)
    a = channel.complex_normal(rng, (blocks, n_k, n_k), sigma2)
    t = np.zeros((blocks, n_k, m), dtype=complex)
    if sigma2 != 0.0:
        diag = np.arange(m)
        t[:, diag, diag] = np.sqrt(sigma2 / 2.0 * rng.chisquare(
            2 * (n_t - n_k - diag), size=(blocks, m)))
        below = np.tril_indices(n_k, -1, m)
        t[:, below[0], below[1]] = channel.complex_normal(rng, (blocks, below[0].size),
                                                          sigma2)
    return a, t


def _estimate_statistics(h, rot, sigma2, rng):
    """The Gram G = H_est H_est^H and the cross product H H_est^H of the
    estimates H_est = rot H + E of a stack of channels ``h`` (B, N_k, N_t),
    with ``rot`` (B,) unit rotations and E ~ CN(0, sigma2) i.i.d.

    Both are drawn exactly from N_k x N_k statistics, never from E itself:
    with H^H = Q R and (A, T) from ``_estimate_error``, H E^H = R^H A^H and
    E E^H = A A^H + T T^H, so G = R^H R + rot H E^H + conj(rot) (H E^H)^H
    + E E^H and H H_est^H = conj(rot) R^H R + H E^H.  A QR factor, unlike a
    Cholesky factor of H H^H, exists for a rank-deficient H too."""
    r_h = np.linalg.qr(h.mT.conj(), mode="r").mT.conj()  # R^H, (B, N_k, N_k)
    a, t = _estimate_error(rng, h.shape[-2], h.shape[-1], sigma2, h.shape[0])
    rot = rot[:, None, None]
    hh = r_h @ r_h.mT.conj()                     # H H^H
    he = r_h @ a.mT.conj()                       # H E^H
    gram = hh + rot * he + np.conj(rot) * he.mT.conj() + a @ a.mT.conj() + t @ t.mT.conj()
    return gram, np.conj(rot) * hh + he


def _sim_qam_baseline(frame, cfg, sigma2, rng):
    """4-QAM with a fresh noisy, Doppler-rotated estimate H_est = r H + E per
    block, E ~ CN(0, sigma2 / pilots) for the pilots training sends, and zero
    forcing on it through the N_k x N_k Gram G = H_est H_est^H: the precoder
    H_est^H G^-1 / sqrt(tr G^-1) has unit power, the true channel sees
    (H H_est^H) G^-1 / sqrt(tr G^-1), and the receiver divides by the
    diagonal of H_est times the same precoder.  The scheme reads H_est only
    through G and H H_est^H, which ``_estimate_statistics`` draws.  A block
    whose Gram has lambda_min <= RANK_RTOL * lambda_max, or N_t < N_k, raises
    RankDeficientChannel."""
    n_k, n_t = cfg.n_users, cfg.n_bs_antennas
    if n_t < n_k:
        raise downlink.RankDeficientChannel("baseline estimate is rank deficient")
    blocks, syms = cfg.blocks_per_frame, cfg.symbols_per_block
    pilots, t0 = frame_timeline(cfg)  # t0: block starts, in symbols
    rng_noise, rng_est = rng(3), rng(5)

    bits = rng(4).integers(0, 2, size=(blocks, syms, n_k, 2))
    x = qam_modulate(bits)  # (B, S, N_k)
    dnu = 2.0 * np.pi * cfg.doppler_max * cfg.symbol_period
    rot = np.exp(1j * dnu * (t0[:, None] + np.arange(syms)))  # (B, S)
    # a fresh noisy estimate per block, rotated as the block's first symbol
    gram, cross = _estimate_statistics(frame.h_blocks, rot[:, 0], sigma2 / pilots, rng_est)
    lam = np.linalg.eigvalsh(gram)               # ascending, per block
    if np.any(lam[:, 0] <= downlink.RANK_RTOL * lam[:, -1]):
        raise downlink.RankDeficientChannel("baseline estimate is rank deficient")
    g_inv = np.linalg.inv(gram)
    norm = 1.0 / np.sqrt(np.trace(g_inv, axis1=-2, axis2=-1).real)[:, None, None]
    composite = cross @ g_inv * norm                           # (B, N_k, N_k)
    gain = np.diagonal(gram @ g_inv * norm, axis1=-2, axis2=-1)  # receiver-side
    y = rot[:, :, None] * (x @ composite.mT) \
        + channel.complex_normal(rng_noise, (blocks, syms, n_k), sigma2)
    detected = qam_demodulate(y / gain[:, None, :])
    return int(np.count_nonzero(detected != bits)), bits.size


@dataclass(frozen=True)
class Scheme:
    """One downlink scheme: its frame simulator ``simulate(frame, cfg,
    sigma2, rng) -> (bit_errors, bits)``, where ``rng(sub)`` is the scheme's
    own stream ``sub`` of the frame (3 noise, 4 data, 5 estimation); its
    bits per symbol; its stream id; and its label in the noise-map note."""

    simulate: Callable
    bits: Callable[[ScenarioConfig], int]
    stream_id: int
    label: str


SCHEMES = {
    "linear_precoded": Scheme(_sim_linear_precoded, lambda cfg: cfg.n_users,
                              1, "precoded: N_k"),
    "linear_joint": Scheme(_sim_linear_joint, lambda cfg: cfg.n_bs_antennas,
                           2, "joint: N_t"),
    "qam_ml_baseline": Scheme(_sim_qam_baseline, lambda cfg: 2 * cfg.n_users,
                              3, "qam: 2N_k"),
}


def _downlink_task(args):
    """Simulate a contiguous frame range of one grid point's config for every
    scheme on common channel draws; returns {scheme: [bit_errors, bits, sum
    of squared per-frame bit errors]}."""
    cfg, schemes, sigma2s, point_idx, frame_lo, frame_hi = args
    totals = {s: [0, 0, 0] for s in schemes}
    for frame_idx in range(frame_lo, frame_hi):
        frame = harness.downlink_frame(cfg, _TAG_DOWNLINK, point_idx, frame_idx)
        for name in schemes:
            scheme = SCHEMES[name]

            def rng(sub):
                return harness.stream(cfg.seed, _TAG_DOWNLINK, sub, point_idx, frame_idx,
                                      scheme.stream_id)

            err, bits = scheme.simulate(frame, cfg, sigma2s[name], rng)
            totals[name][0] += err
            totals[name][1] += bits
            totals[name][2] += err * err
    return totals


def run_downlink_ber(cfg: ScenarioConfig, schemes, sweep: str, grid=None,
                     workers: int = 1) -> harness.CurveResult:
    """Monte Carlo downlink BER versus one ``harness.SWEEPS`` axis: speed,
    Eb/N0, or the Rician factor of both hops.

    One trial is one transmission block; frames of ``blocks_per_frame``
    consecutive trials share a channel and training state.  Points stop at
    ``mc_min_errors`` bit errors per scheme or the trial ceiling, never below
    ``mc_min_trials`` trials.  Frames are i.i.d., so the half-widths are
    ``harness.frame_halfwidth``'s: from the spread of the per-frame BER, not
    a binomial over bits.
    """
    if isinstance(schemes, str):
        schemes = [schemes]
    schemes = list(dict.fromkeys(schemes))  # a scheme named twice runs once
    for s in schemes:
        if s not in SCHEMES:
            raise ValueError(f"unknown scheme {s!r}")
    if sweep not in harness.SWEEPS:
        raise ValueError(f"unknown sweep axis {sweep!r}")
    if "linear_joint" in schemes:
        downlink.check_search_size(cfg.n_bs_antennas)  # before any frame is built
    axis = harness.SWEEPS[sweep]
    grid, points = axis.points(cfg, grid)

    bpf = cfg.blocks_per_frame
    min_frames = math.ceil(cfg.mc_min_trials / bpf)
    max_frames = math.ceil(cfg.mc_trial_ceiling / bpf)
    runs = []  # (frames, {scheme: [bit_errors, bits, squares]}) per point
    with harness.task_map(workers, TASKS_PER_BATCH) as task_map:
        for pi, point in enumerate(points):
            sigma2s = {s: harness.branch_noise_sigma2(point, SCHEMES[s].bits(point))
                       for s in schemes}
            runs.append(harness.monte_carlo(
                task_map, _downlink_task, (point, tuple(schemes), sigma2s, pi),
                FRAMES_PER_TASK, TASKS_PER_BATCH, min_frames, max_frames,
                cfg.mc_min_errors))

    result = harness.CurveResult(x_name=axis.x_name, x_values=np.asarray(grid))
    result.notes = (
        "experiment=downlink-ber sweep=%s schemes=%s" % (sweep, "+".join(schemes)),
        "seed=%d trial=block frame=%d blocks x %d symbols + %d pilots"
        % (cfg.seed, bpf, cfg.symbols_per_block, frame_timeline(cfg)[0]),
        "noise map: sigma2 = 10^(-EbN0/10)/bits_per_symbol, bits = {%s}; channel "
        "rows unit-normalized at frame start%s"
        % (", ".join("%s=%d" % (sc.label, sc.bits(cfg)) for sc in SCHEMES.values()),
           "; sigma2 override=%g" % cfg.noise_sigma2 if cfg.noise_sigma2 is not None else ""),
    )
    for s in schemes:
        result.add(s, [totals[s][0] / totals[s][1] for _, totals in runs],
                   [harness.frame_halfwidth(*totals[s], frames) for frames, totals in runs],
                   [frames * bpf for frames, _ in runs])
    return result
