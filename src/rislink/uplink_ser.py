"""The uplink-ser experiment: SER of the averaged-observation uplink on one
frozen channel instance (``harness.uplink_instance``), by Monte Carlo, the
closed form, or both.  The Monte Carlo chunks draw from sub-stream 3.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, downlink, harness, uplink
from .config import ScenarioConfig

UPLINK_TASKS_PER_BATCH = 4  # of mc_symbol_chunk symbols each
UPLINK_PIECE = 2 ** 14  # symbols drawn at once; a piece's arrays stay in cache

_TAG_UPLINK = 13


def _ncx2_difference(rng, diff, total, n_t):
    """Draws of Y1 - Y2 for independent noncentral chi-squares Y_b on 2 N_t
    degrees of freedom with noncentralities a^2 and b^2, given per symbol
    a - b (``diff``) and a + b (``total``): one gamma and two normals a
    symbol, in that stream order.

    With CN(0, sigma2) noise per branch and antenna, sum_m |a_m + v_m|^2 is
    exactly (sigma2/2) Y_b at a^2 = 2 sum_m |a_m|^2 / sigma2, so the
    antenna-averaged observation is sigma2 / (2 N_t) (Y1 - Y2).  Y_b is a
    chi-square on 2 N_t - 1 degrees of freedom plus (Z_b + a_b)^2.  The two
    central parts differ by sqrt(8 W) Z3 in law, W ~ Gamma(N_t - 1/2): both
    characteristic functions are (1 + 4t^2)^-(N_t - 1/2).  The squares
    differ by (U + a - b)(V + a + b) with U = Z1 - Z2 and V = Z1 + Z2
    independent N(0, 2).  Given V and W the difference is Gaussian, so with
    s = V + a + b it is (a - b) s + sqrt(2 s^2 + 8 W) Z."""
    w = rng.standard_gamma(n_t - 0.5, diff.size)
    s = rng.standard_normal(diff.size)
    s *= math.sqrt(2.0)
    s += total
    w *= 8.0
    w += 2.0 * s * s
    np.sqrt(w, out=w)
    w *= rng.standard_normal(diff.size)
    s *= diff
    s += w
    return s


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
    point's a - b, a + b and interval (scaled by 2 N_t / sigma2, so the draw
    is compared unscaled) are repeated over its symbols, and the draws run
    in stream order, ``UPLINK_PIECE`` symbols at a time."""
    e1, e2, n_t, lo, hi, sigma2, seed, point_idx, first, last = args
    rng = harness.stream(seed, _TAG_UPLINK, 3, point_idx, first)
    n = last - first
    counts = np.bincount(rng.integers(0, e1.size, size=n), minlength=e1.size)
    a, b = np.sqrt(2.0 * e1 / sigma2), np.sqrt(2.0 * e2 / sigma2)
    scale = 2.0 * n_t / sigma2
    per_symbol = np.repeat(np.stack([a - b, a + b, scale * lo, scale * hi], axis=1),
                           counts, axis=0)
    errors = 0
    for p in range(0, n, UPLINK_PIECE):
        diff, total, low, high = per_symbol[p:p + UPLINK_PIECE].T
        errors += _symbol_errors(_ncx2_difference(rng, diff, total, n_t), low, high)
    return {"monte_carlo": (errors, n)}


def run_uplink_ser(cfg: ScenarioConfig, mode: str = "both", grid=None,
                   workers: int = 1) -> harness.CurveResult:
    """SER of the averaged-observation uplink on one frozen channel instance,
    by Monte Carlo, the closed form, or both (paired on the same instance).

    The Monte Carlo and the noiseless points see the channel only through
    each symbol's branch energies summed over the array, computed once per
    run; from them ``_uplink_task`` draws the averaged observation exactly,
    one gamma and two normals per symbol, and the closed form takes its
    Gaussian law from the same energies.
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
