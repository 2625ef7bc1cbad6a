"""Closed-form statistics of the magnitude-difference receiver.

The squared envelope of a nonzero-mean complex Gaussian branch follows a
generalized gamma law; the difference of the two branch powers follows a
two-sided double series, which at high SNR collapses to a Gaussian whose
moments are available in closed form.  Symbol probabilities then reduce to
error-function masses of midpoint decision regions, giving the average
symbol error rate without simulation.

Throughout, ``sigma_v2`` is the per-quadrature variance of one correlator
branch noise (half the complex variance), which is the parameterization under
which every printed formula here is the exact moment of the sampled system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gammaln, ive


@dataclass(frozen=True)
class GammaParams:
    """Generalized gamma parameters: shape alpha (1 for every use here),
    scale beta = 2 * sigma_v2, noncentrality gamma = squared branch mean."""

    beta: float
    gamma: float
    alpha: float = 1.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the double series: terms are accumulated in
    increasing diagonal order k + m, and the tail is bounded through the
    ratio of consecutive Poisson diagonal weights."""

    max_terms: int = 200
    tail_tol: float = 1e-12

    def __post_init__(self):
        if self.max_terms < 1 or self.tail_tol <= 0:
            raise ValueError("need max_terms >= 1 and tail_tol > 0")


class SeriesTruncationError(ArithmeticError):
    """Series did not meet the tail tolerance within the term budget."""

    def __init__(self, message, partial_sum=None, tail_bound=None):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.tail_bound = tail_bound


def generalized_gamma_pdf(x, p: GammaParams) -> np.ndarray:
    """Density (1/beta) (x/gamma)^{(alpha-1)/2} I_{alpha-1}(2 sqrt(gamma x)/beta)
    exp(-(gamma+x)/beta) on x >= 0.

    Evaluated through the scaled Bessel function, so the exponent reduces to
    -(sqrt(x) - sqrt(gamma))^2 / beta and large noncentralities do not
    overflow.  For alpha = 1 the power factor is 1 and gamma = 0 degenerates
    to the exponential density analytically.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x >= 0
    xs = x[pos]
    order = p.alpha - 1.0
    if p.gamma == 0.0:
        if p.alpha != 1.0:
            raise ValueError("gamma = 0 limit is defined here only for alpha = 1")
        out[pos] = np.exp(-xs / p.beta) / p.beta
        return out if x.ndim else float(out)
    z = 2.0 * np.sqrt(p.gamma * xs) / p.beta
    body = ive(order, z) * np.exp(-((np.sqrt(xs) - np.sqrt(p.gamma)) ** 2) / p.beta)
    if order != 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            power = np.where(xs > 0, (xs / p.gamma) ** (order / 2.0), 0.0)
        body = body * power
    out[pos] = body / p.beta
    return out if x.ndim else float(out)


def rician_envelope_pdf(t, r_bar: float, sigma_v2: float) -> np.ndarray:
    """Rician envelope density (t/s2) I0(r t/s2) exp(-(r^2+t^2)/(2 s2)) on
    t >= 0, with s2 the per-quadrature variance; r = 0 gives Rayleigh."""
    if sigma_v2 <= 0:
        raise ValueError("sigma_v2 must be > 0")
    if r_bar < 0:
        raise ValueError("r_bar must be >= 0")
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t >= 0
    ts = t[pos]
    z = r_bar * ts / sigma_v2
    out[pos] = (ts / sigma_v2) * ive(0, z) * np.exp(-((ts - r_bar) ** 2) / (2.0 * sigma_v2))
    return out if t.ndim else float(out)


def _poisson_logpmf(k: np.ndarray, lam: float) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if lam == 0.0:
        return np.where(k == 0, 0.0, -np.inf)
    return -lam + k * np.log(lam) - gammaln(k + 1.0)


def _branch_log_coeffs(lam_same: float, lam_other: float,
                       ctl: SeriesControl, beta: float):
    """Log power-series coefficients of one branch of the difference density.

    The branch density for t = |x|/beta is (1/beta) e^{-t} sum_j A_j t^j with
    A_j = sum_{n,m} Pois(n+j; lam_same) Pois(m; lam_other)
          C(m+n, n) / (2^{1+m+n} j!).
    Accumulation runs over diagonals d = k + m (k = n + j); once d exceeds
    lam_same + lam_other the remaining Poisson diagonal mass is geometrically
    dominated and bounds the density tail by usable absolute amounts.
    """
    lam_total = lam_same + lam_other
    ln2 = np.log(2.0)
    coeffs = np.zeros(ctl.max_terms + 1)
    for d in range(ctl.max_terms + 1):
        ks = np.arange(d + 1)
        logw = _poisson_logpmf(ks, lam_same) + _poisson_logpmf(d - ks, lam_other)
        keep = logw > (logw.max() - 46.0) if np.any(np.isfinite(logw)) else []
        for k in ks[keep]:
            m = d - k
            ns = np.arange(k + 1)
            logc = (gammaln(m + ns + 1.0) - gammaln(ns + 1.0) - gammaln(m + 1.0)
                    - (1.0 + m + ns) * ln2 - gammaln(k - ns + 1.0))
            np.add.at(coeffs, k - ns, np.exp(logw[k] + logc))
        if d > lam_total:
            ratio = lam_total / (d + 1.0)
            diag_mass = np.exp(_poisson_logpmf(np.array(d), lam_total))
            tail = diag_mass * ratio / (1.0 - ratio) / beta
            if tail < ctl.tail_tol:
                with np.errstate(divide="ignore"):
                    return np.log(coeffs), None
        elif d == ctl.max_terms:
            tail = np.inf
    with np.errstate(divide="ignore"):
        return np.log(coeffs), float(tail)


def _branch_eval(t: np.ndarray, log_coeffs: np.ndarray, beta: float) -> np.ndarray:
    """Evaluate (1/beta) e^{-t} sum_j exp(log A_j) t^j in log space."""
    out = np.zeros_like(t)
    finite = np.isfinite(log_coeffs)
    if not np.any(finite):
        return out
    la = log_coeffs[finite]
    js = np.arange(log_coeffs.size)[finite].astype(float)
    zero = t == 0.0
    if np.any(zero):
        out[zero] = (np.exp(log_coeffs[0]) if np.isfinite(log_coeffs[0]) else 0.0) / beta
    idx = np.flatnonzero(~zero)
    for lo in range(0, idx.size, 20_000):  # bound the (coeffs x grid) workspace
        sel = idx[lo:lo + 20_000]
        ts = t[sel]
        terms = la[:, None] + js[:, None] * np.log(ts)[None, :]
        peak = terms.max(axis=0)
        out[sel] = np.exp(peak - ts) * np.exp(terms - peak).sum(axis=0) / beta
    return out


def gamma_difference_pdf(x, p: GammaParams, p_prime: GammaParams,
                         ctl: SeriesControl = SeriesControl()) -> np.ndarray:
    """Two-sided density of the difference of two generalized gamma variates
    with common scale, via the truncated double series.

    The x >= 0 branch sums over n <= k and the x < 0 branch is the same
    construction with the two noncentralities exchanged.  Raises
    SeriesTruncationError (carrying the partial density and the tail bound)
    when the diagonal tail bound cannot reach ``ctl.tail_tol`` within
    ``ctl.max_terms`` diagonals.
    """
    if p.alpha != 1.0 or p_prime.alpha != 1.0:
        raise ValueError("difference series implemented for alpha = 1")
    if not np.isclose(p.beta, p_prime.beta, rtol=1e-12):
        raise ValueError("branches must share the scale parameter")
    beta = p.beta
    lam, lam_p = p.gamma / beta, p_prime.gamma / beta
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)

    log_pos, tail_pos = _branch_log_coeffs(lam, lam_p, ctl, beta)
    log_neg, tail_neg = _branch_log_coeffs(lam_p, lam, ctl, beta)

    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = _branch_eval(x[pos] / beta, log_pos, beta)
    out[~pos] = _branch_eval(-x[~pos] / beta, log_neg, beta)

    bad = [t for t in (tail_pos, tail_neg) if t is not None]
    if bad:
        raise SeriesTruncationError(
            f"series tail bound {max(bad):.3e} above tolerance {ctl.tail_tol:.1e} "
            f"after {ctl.max_terms} diagonals",
            partial_sum=out if not scalar else float(out[0]),
            tail_bound=max(bad))
    return float(out[0]) if scalar else out


def gaussian_approx(e1, e2, sigma_v2: float, n: int = 1):
    """High-SNR Gaussian surrogate (mean, variance) of the antenna average
    of n observations whose two branch energies, summed over the n antennas,
    are e1 = sum_m |c_m s|^2 and e2 = sum_m |c_m s_bar|^2:
    mu = (e1 - e2) / n and
    var = (4 sigma_v2 (e1 + e2) + 8 sigma_v2^2 n) / n^2.

    Both moments are exact for the sampled observation; only the shape is
    approximate.  The branch powers |v|^2 are exponential with mean
    2 sigma_v2, hence the 8 sigma_v2^2 term per antenna.  Scalars or arrays.
    """
    if sigma_v2 < 0:
        raise ValueError("sigma_v2 must be >= 0")
    return (e1 - e2) / n, (4.0 * sigma_v2 * (e1 + e2) + 8.0 * sigma_v2 ** 2 * n) / n ** 2


def closed_form_ser(regions, e1: np.ndarray, e2: np.ndarray, n_t: int,
                    sigma2: float) -> float:
    """Average symbol error rate under the Gaussian surrogate.

    Constellation point i, with array-summed branch energies e1[i], e2[i]
    and complex branch noise variance sigma2 (sigma_v2 = sigma2 / 2), errs
    with the Gaussian mass outside its own region [lo, hi), written as two
    erfc tails so that small rates keep their digits.  Points that share a
    collapsed region are counted as errors outright.  ``regions`` (an
    ``uplink.DecisionRegions``) may come from other gains than the ones
    behind (e1, e2): that is the SER of a receiver with mismatched gains.
    """
    if sigma2 <= 0:
        raise ValueError("noise variance must be > 0 for the closed form")
    mu, var = gaussian_approx(e1, e2, sigma2 / 2.0, n_t)
    edges = np.concatenate([[-np.inf], regions.boundaries, [np.inf]])
    reg = regions.symbol_region
    denom = np.sqrt(2.0 * var)
    err = 0.5 * (erfc((edges[reg + 1] - mu) / denom) + erfc((mu - edges[reg]) / denom))
    err[regions.region_sizes[reg] > 1] = 1.0
    return float(err.mean())
