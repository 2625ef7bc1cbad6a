"""The output-snr experiment: the precoded link's output SNR per transmit
array size, simulated on Gaussian equivalent channels, against the
large-array closed form and the exact law.  Draw d of grid point p is the
stream (seed, tag, p, d), read for the channel, the bits and the noise.
"""

from __future__ import annotations

import math

import numpy as np

from . import downlink, harness
from .config import ConfigError, ScenarioConfig

SNR_DRAWS_PER_TASK = 25  # output-snr channel draws

_TAG_OUTPUT_SNR = 12


def _output_snr_task(args):
    """(simulated, exact) output SNR of each draw in [draw_lo, draw_hi): the
    sampled link's signal over noise power, and ``downlink.output_snr_exact``
    at the draw's ZF gain."""
    cfg, point_idx, draw_lo, draw_hi, sigma2, n_sym = args
    n_k, n_t = cfg.n_users, cfg.n_bs_antennas
    etas = []
    for d in range(draw_lo, draw_hi):
        rng = harness.stream(cfg.seed, _TAG_OUTPUT_SNR, point_idx, d)
        h_bar = rng.standard_normal((n_k, n_t))
        pre = downlink.zf_precoder(h_bar)
        bits = rng.integers(0, 2, size=(n_sym, n_k)).astype(float)
        a1, a2, z_noisy = downlink.precoded_link(h_bar @ pre.p, pre.rho, bits, sigma2, rng)
        z_clean = a1 ** 2 - a2 ** 2
        noise = z_noisy - z_clean
        etas.append((np.mean(z_clean ** 2) / np.mean(noise ** 2),
                     downlink.output_snr_exact(pre.rho, sigma2)))
    return etas


def run_output_snr(cfg: ScenarioConfig, nt_grid=None,
                   workers: int = 1) -> harness.CurveResult:
    """Simulated precoded output SNR (signal power over post-detection noise
    power) against the large-array closed form and the exact law, per
    transmit-array size.  ``exact`` is the mean over the same channel draws
    of ``downlink.output_snr_exact`` at each draw's channel."""
    nt_grid, points = harness.ARRAY_SWEEP.points(cfg, nt_grid)
    sigma2 = cfg.noise_sigma2 if cfg.noise_sigma2 is not None else 0.01
    if sigma2 <= 0:
        raise ConfigError("output SNR experiment needs sigma2 > 0", key="noise_sigma2")
    for point in points:
        if point.n_bs_antennas <= cfg.n_users + 1:
            raise ConfigError(f"every grid point must satisfy n_t > n_k + 1 = "
                              f"{cfg.n_users + 1}, got {point.n_bs_antennas}")
    draws, n_sym = cfg.snr_channel_draws, 256
    if draws < 2:
        raise ConfigError("output SNR experiment needs at least 2 channel draws "
                          "for its confidence half-width", key="snr_channel_draws")

    result = harness.CurveResult(x_name=harness.ARRAY_SWEEP.x_name,
                                 x_values=np.asarray(nt_grid))
    sim_vals, sim_hw, predicted, exact = [], [], [], []
    with harness.task_map(workers, math.ceil(draws / SNR_DRAWS_PER_TASK)) as task_map:
        for pi, point in enumerate(points):
            tasks = [(point, pi, lo, min(lo + SNR_DRAWS_PER_TASK, draws), sigma2, n_sym)
                     for lo in range(0, draws, SNR_DRAWS_PER_TASK)]
            etas, laws = np.asarray([e for part in task_map(_output_snr_task, tasks)
                                     for e in part]).T
            sim_vals.append(etas.mean())
            sim_hw.append(harness.t95(etas.size - 1) * etas.std(ddof=1)
                          / np.sqrt(etas.size))
            predicted.append(downlink.output_snr_asymptotic(point.n_bs_antennas,
                                                            cfg.n_users, sigma2))
            exact.append(laws.mean())
    result.notes = ("experiment=output-snr seed=%d sigma2=%g draws=%d users=%d"
                    % (cfg.seed, sigma2, draws, cfg.n_users),
                    "channel draws: unit-variance Gaussian equivalent rows")
    result.add("simulated", sim_vals, sim_hw, [draws] * len(nt_grid))
    result.add("closed_form", predicted, [0.0] * len(nt_grid), [0] * len(nt_grid))
    result.add("exact", exact, [0.0] * len(nt_grid), [draws] * len(nt_grid))
    return result
