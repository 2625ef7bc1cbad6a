"""The uplink-ser experiment: SER of the averaged-observation uplink on one
frozen channel instance (``harness.uplink_instance``), by Monte Carlo, the
closed form, or both.  The Monte Carlo chunks draw from sub-stream 3.
"""

from __future__ import annotations

import numpy as np

from . import analysis, channel, downlink, harness, uplink
from .config import ScenarioConfig

UPLINK_TASKS_PER_BATCH = 4  # of mc_symbol_chunk symbols each

_TAG_UPLINK = 13


def _symbol_errors(xi, lo, hi):
    """Observations outside their own symbol's decision interval [lo, hi),
    which is exactly where ``uplink.region_detect`` errs."""
    return int(xi.size - np.count_nonzero((lo <= xi) & (xi < hi)))


def _uplink_task(args):
    """Monte Carlo symbol errors of one uplink grid point over the symbol
    range [first, last); e1/e2 hold every constellation point's noiseless
    branch energies summed over the n_t antennas, and lo/hi its decision
    interval (``DecisionRegions.intervals``).  The chunk stream is sub-stream
    3 of the uplink tag (1 and 2 draw the channel).

    Symbols are i.i.d. and only their error count is kept, so they are drawn
    grouped by constellation point: the bincount of n uniform point indices
    has the law of the multinomial counts, without its O(R) binomials.  Each
    point's branch amplitudes sqrt(e1), sqrt(e2) are repeated over its
    symbols, and ``channel.power_difference`` draws the n_t-antenna sum of
    their observations, which is scored against the interval scaled by n_t.
    The kernel writes its draw into one array of n, and the amplitudes are
    released before the intervals are repeated, so a task holds at most
    three float arrays of n."""
    e1, e2, n_t, lo, hi, sigma2, seed, point_idx, first, last = args
    rng = harness.stream(seed, _TAG_UPLINK, 3, point_idx, first)
    counts = np.bincount(rng.integers(0, e1.size, size=last - first), minlength=e1.size)
    a, b = np.repeat(np.sqrt(e1), counts), np.repeat(np.sqrt(e2), counts)
    xi = channel.power_difference(rng, a, b, sigma2, n_t=n_t)
    del a, b
    errors = _symbol_errors(xi, np.repeat(n_t * lo, counts), np.repeat(n_t * hi, counts))
    return {"monte_carlo": (errors, xi.size)}


def run_uplink_ser(cfg: ScenarioConfig, mode: str = "both", grid=None,
                   workers: int = 1) -> harness.CurveResult:
    """SER of the averaged-observation uplink on one frozen channel instance,
    by Monte Carlo, the closed form, or both (paired on the same instance).

    The Monte Carlo and the noiseless points see the channel only through
    each symbol's branch energies summed over the array, computed once per
    run; from them ``_uplink_task`` draws the observation's sum over the
    array exactly through ``channel.power_difference`` (two normals and one
    gamma a symbol), and the closed form takes its Gaussian law from the
    same energies.
    """
    if mode not in ("monte_carlo", "closed_form", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    grid, points = harness.SWEEPS["ebn0"].points(cfg, grid)

    chans, rms = harness.uplink_instance(cfg, _TAG_UPLINK)
    gains = uplink.exact_linear_gains(chans).sum(axis=0)
    const = downlink.bipolar_candidates(cfg.n_users)
    regions = uplink.build_regions(gains, const)
    lo, hi = regions.intervals()
    s_all = (const + 1.0) / 2.0
    n_t = chans.n_antennas
    # (R,) noiseless branch energies sum_m |amp_b|^2 per constellation point
    e1 = np.sum(np.abs(chans.c @ s_all.T) ** 2, axis=0)
    e2 = np.sum(np.abs(chans.c @ (1.0 - s_all).T) ** 2, axis=0)

    mc, cf = [], []
    with harness.task_map(workers, UPLINK_TASKS_PER_BATCH) as task_map:
        for pi, point in enumerate(points):
            sigma2 = harness.branch_noise_sigma2(point)
            if sigma2 == 0.0:
                # every constellation point once, noiselessly: an exact
                # count, so no interval
                errors = _symbol_errors((e1 - e2) / n_t, lo, hi)
                mc.append((errors, const.shape[0], 0.0))
                cf.append(errors / const.shape[0])
                continue
            if mode != "closed_form":
                _, totals = harness.monte_carlo(
                    task_map, _uplink_task, (e1, e2, n_t, lo, hi, sigma2, cfg.seed, pi),
                    cfg.mc_symbol_chunk, UPLINK_TASKS_PER_BATCH, cfg.mc_min_trials,
                    cfg.mc_symbol_ceiling, cfg.mc_min_errors)
                errors, symbols = totals["monte_carlo"]
                mc.append((errors, symbols, harness.rate_halfwidth(errors, symbols)))
            if mode != "monte_carlo":
                cf.append(analysis.closed_form_ser(lo, hi, e1, e2, n_t, sigma2))

    result = harness.CurveResult(x_name="ebn0_db", x_values=np.asarray(grid))
    result.notes = ("experiment=uplink-ser seed=%d users=%d antennas=%d mode=%s"
                    % (cfg.seed, cfg.n_users, cfg.n_bs_antennas, mode),
                    "noise map: sigma2 = 10^(-EbN0/10) per branch at one antenna; "
                    "cascade normalized to unit RMS entry (raw RMS %.6g)" % rms,
                    "degenerate_regions=%s" % regions.degenerate)
    if mode != "closed_form":
        result.add("monte_carlo", [e / n for e, n, _ in mc], [h for _, _, h in mc],
                   [n for _, n, _ in mc])
    if mode != "monte_carlo":
        result.add("closed_form", cf, [0.0] * len(grid), [0] * len(grid))
    return result
