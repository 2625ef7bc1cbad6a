"""The pdf-fit experiment: empirical, series and Gaussian densities of one
antenna observation, and the KS statistics of both models, per branch SNR.
It runs in one process, on user 0's row of ``harness.uplink_instance``.

Importing the module loads no scipy; a run loads ``scipy.special`` (``ndtr``
here, ``gammaln`` and ``ive`` in the series), which at module level was
about half of every other experiment's start-up time and 17 MB of its peak
memory.  ``run_pdf_fit`` writes the Gaussian density and CDF out with the
arithmetic ``scipy.stats.norm`` runs, because importing ``scipy.stats`` (and
the ``scipy.linalg`` it loads) took most of a CLI run's start-up time and
about 40 MB.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import analysis, channel, harness
from .config import ScenarioConfig, check_db

_TAG_PDF = 14

KS_BLOCK = 64       # samples per block of the KS scorer's bounds
KS_MARGIN = 1e-9    # slack on those bounds, far above any rounding in them


def _ks_gaps(index, model, n):
    """The one-sided gaps D+ = (i+1)/n - F and D- = F - i/n at 0-based
    sample ``index`` with model CDF values ``model``."""
    ecdf = (index + 1.0) / n
    return ecdf - model, model - (ecdf - 1.0 / n)


def _ks_statistic(ascending: np.ndarray, cdf: Callable) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of n ascending samples against
    the elementwise model CDF ``cdf``: max(D+, D-), the largest gap by which
    the empirical CDF just after a sample exceeds the model, or the model
    exceeds it just before.  i/n - 1/n rounds to at most i/n, so the two
    one-sided maxima cover both absolute gaps at either step bit for bit.

    ``cdf`` runs on a few percent of the samples.  The samples are cut into
    blocks of ``KS_BLOCK``; the gaps at each block's first and last sample
    bound the statistic from below by L.  For a non-decreasing CDF a block
    [a, b] has D+ <= (b+1)/n - F(x_a) and D- <= F(x_b) - a/n, so only blocks
    whose bound comes within ``KS_MARGIN`` of L are scored in full; the
    margin absorbs rounding and the ulp-level wobble of ``ndtr`` and
    ``np.interp``.  A NaN at any block's first or last sample (a NaN density
    makes the whole series table NaN) keeps every block, so NaN comes out.
    ``ascending`` is only read."""
    n = ascending.size
    first = np.arange(0, n, KS_BLOCK)
    last = np.minimum(first + (KS_BLOCK - 1), n - 1)
    f_first, f_last = cdf(ascending[first]), cdf(ascending[last])
    lower = np.max(_ks_gaps(first, f_first, n) + _ks_gaps(last, f_last, n))
    bound = np.maximum((last + 1.0) / n - f_first, f_last - first / n)
    kept = np.flatnonzero(~(bound + KS_MARGIN < lower))
    index = (kept[:, None] * KS_BLOCK + np.arange(KS_BLOCK)).ravel()
    index = index[index < n]
    d_plus, d_minus = _ks_gaps(index, cdf(ascending[index]), n)
    return float(max(d_plus.max(), d_minus.max()))


def _density_histogram(ascending: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``np.histogram(samples, edges, density=True)`` of samples already in
    ascending order, by numpy's own counting rule without its block sort:
    every edge but the last searched from the left, the last from the
    right (so it closes the last bin), then the differences."""
    cum = np.concatenate([ascending.searchsorted(edges[:-1], "left"),
                          ascending.searchsorted(edges[-1:], "right")])
    counts = np.diff(cum)
    return counts / np.diff(edges) / counts.sum()


def _sample_fit(samples, edges, mu, sd, fine, series_cdf):
    """Histogram density on ``edges`` and the KS statistics against N(mu,
    sd^2) and against the series CDF tabulated on ``fine``, all read off
    ``samples`` after sorting it in place.  No other array of n is made, so
    the fit holds n floats, below the kernel's 2n peak: ``_ks_statistic``
    evaluates each model CDF at a few percent of the samples.  The Gaussian
    CDF is ``scipy.stats.norm.cdf``'s arithmetic."""
    from scipy.special import ndtr

    samples.sort()
    return (_density_histogram(samples, edges),
            _ks_statistic(samples, lambda x: ndtr((x - mu) / sd)),
            _ks_statistic(samples, lambda x: np.interp(x, fine, series_cdf)))


def run_pdf_fit(cfg: ScenarioConfig, snr_points=None) -> harness.CurveResult:
    """Empirical, series, and Gaussian densities of one antenna observation
    on a shared grid, one group of series per branch SNR point (dB).

    A point evaluates the series once, on the output grid and the fine CDF
    grid together, then draws its samples into one array that
    ``_sample_fit`` sorts in place and reads the histogram and both KS
    statistics off.  The draw streams its noise through one buffer of
    ``channel.NOISE_CHUNK`` normals into the two branch powers and returns
    their difference in the first one's storage, so a point peaks at 2n
    floats plus that buffer."""
    # default top point keeps the density series inside the diagonal budget
    # below; genuinely high-SNR requests still fail loudly with the bound
    snr_points = harness.distinct_grid((18.0, 10.0, 3.0) if snr_points is None
                                       else snr_points)
    check_db(snr_points)
    chans, _ = harness.uplink_instance(cfg, _TAG_PDF)
    row = chans.c[0]
    s_ref = np.arange(cfg.n_users) % 2  # alternating bit pattern
    c1, c2 = row @ s_ref, row @ (1 - s_ref)
    g1 = float(np.abs(c1) ** 2)
    g2 = float(np.abs(c2) ** 2)
    gamma_ref = max(g1, g2)

    # moments at the widest noise fix the shared grid
    sv2_max = gamma_ref / (2.0 * 10.0 ** (min(snr_points) / 10.0))
    mu, var = analysis.gaussian_approx(g1, g2, sv2_max)
    lo = mu - 8.0 * np.sqrt(var)
    hi = mu + 8.0 * np.sqrt(var)
    grid = np.linspace(lo, hi, 401)
    edges = np.concatenate([[lo - (hi - lo) / 800.0],
                            0.5 * (grid[1:] + grid[:-1]),
                            [hi + (hi - lo) / 800.0]])
    fine = np.linspace(lo, hi, 2001)
    both_grids = np.concatenate([grid, fine])

    result = harness.CurveResult(x_name="observation", x_values=grid)
    notes = ["experiment=pdf-fit seed=%d samples=%d gamma_ref=%.9g"
             % (cfg.seed, cfg.pdf_fit_samples, gamma_ref),
             "noise map: sigma_v2 = gamma_ref / (2 * 10^(SNRdB/10)) per point"]
    n = cfg.pdf_fit_samples
    for pi, snr_db in enumerate(snr_points):
        tag = harness.fmt(snr_db)  # the one printed form, as distinct_grid reads it
        sv2 = gamma_ref / (2.0 * 10.0 ** (snr_db / 10.0))
        mu, var = analysis.gaussian_approx(g1, g2, sv2)
        # scipy.stats.norm.pdf and .cdf, operation for operation
        sd = np.sqrt(var)
        u = (grid - mu) / sd
        gauss = np.exp(-u ** 2 / 2.0) / np.sqrt(2 * np.pi) / sd
        try:
            density = analysis.gamma_difference_pdf(both_grids, g1, g2, 2.0 * sv2)
        except analysis.SeriesTruncationError as exc:
            raise analysis.SeriesTruncationError(
                f"series truncation at SNR point {snr_db} dB: {exc}",
                partial_sum=exc.partial_sum[:grid.size],
                tail_bound=exc.tail_bound) from exc
        series, fine_pdf = density[:grid.size], density[grid.size:]
        cdf = np.concatenate([[0.0], np.cumsum(
            (fine_pdf[1:] + fine_pdf[:-1]) / 2.0 * np.diff(fine))])
        cdf = np.clip(cdf / max(cdf[-1], 1e-300), 0.0, 1.0)

        # the samples live only inside this call, so no point's array
        # outlives it into the next point's draw
        hist, ks_gauss, ks_series = _sample_fit(
            channel.power_difference(harness.stream(cfg.seed, _TAG_PDF, 3, pi),
                                     c1, c2, 2.0 * sv2, (n,)),
            edges, mu, sd, fine, cdf)
        notes.append("snr=%sdB sigma_v2=%.9g ks_gauss=%.9g ks_series=%.9g"
                     % (tag, sv2, ks_gauss, ks_series))
        result.add(f"empirical_{tag}dB", hist, np.zeros_like(hist), [n] * grid.size)
        result.add(f"series_{tag}dB", series, np.zeros_like(series), [0] * grid.size)
        result.add(f"gaussian_{tag}dB", gauss, np.zeros_like(gauss), [0] * grid.size)
    result.notes = tuple(notes)
    return result
