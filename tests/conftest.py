"""Shared test helpers: seeded streams and goodness-of-fit machinery."""

import numpy as np
from scipy import stats


def rng(seed=0):
    return np.random.default_rng(seed)


def complex_gauss(generator, shape, sigma2=1.0):
    scale = np.sqrt(sigma2 / 2.0)
    return scale * (generator.standard_normal(shape)
                    + 1j * generator.standard_normal(shape))


def chi2_gof_pvalue(samples, pdf, lo, hi, bins=50, grid_points=200_001):
    """Chi-square goodness of fit with equal-expected-mass bins.

    Bin edges are quantiles of the analytic CDF (fine-grid trapezoid), so
    every expected count is n/bins; the pdf parameters are fixed, not
    fitted, hence df = bins - 1.
    """
    samples = np.asarray(samples)
    grid = np.linspace(lo, hi, grid_points)
    dens = pdf(grid)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))])
    cdf /= cdf[-1]
    qs = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    edges = np.interp(qs, cdf, grid)
    obs = np.histogram(samples, bins=np.concatenate([[-np.inf], edges, [np.inf]]))[0]
    expected = np.full(bins, samples.size / bins)
    return stats.chisquare(obs, expected).pvalue


def three_plane_difference(c1, c2, sigma2, g, n_t=1):
    """The observation ``channel.power_difference`` forms from its three
    planes ``g``, (3,) + shape, as one full-array expression with the
    kernel's operations: d S + sqrt(S^2 + Q) sigma Z with d = |c1| - |c2|,
    S = |c1| + |c2| + sigma g[0] and Z = g[2].  Q is (sigma g[1])^2 for
    standard normals g[1] at n_t == 1, and 2 sigma2 g[1] for
    Gamma(n_t - 1/2) draws g[1] at n_t > 1."""
    sigma = np.sqrt(sigma2)
    a, b = np.abs(c1), np.abs(c2)
    s = (a + b) + sigma * g[0]
    if n_t == 1:
        v = sigma * g[1]
        q = v * v
    else:
        q = (2.0 * sigma2) * g[1]
    return (a - b) * s + np.sqrt(s * s + q) * (sigma * g[2])
