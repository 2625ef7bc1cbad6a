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
from scipy.special import erf, gammaln, ive

from .uplink import DecisionRegions, LinearGains, UplinkChannelSet, build_regions
from .waveform import ComplementarySymbol, NoiseModel


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


@dataclass(frozen=True)
class GaussianSerModel:
    """Gaussian surrogate (mean, variance) for one observation."""

    mu: float
    sigma2: float


@dataclass(frozen=True)
class SerResult:
    """Closed-form average symbol error rate with degeneracy diagnostics."""

    probability: float
    degenerate: bool
    per_symbol_correct: np.ndarray


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


def branch_power_params(chan_row: np.ndarray, sym: ComplementarySymbol,
                        sigma_v2: float) -> tuple[GammaParams, GammaParams]:
    """Generalized gamma parameters of the two branch powers for one
    cascaded row: beta = 2 sigma_v2, noncentralities |c s|^2 and |c s_bar|^2."""
    c = np.asarray(chan_row)
    return (GammaParams(beta=2.0 * sigma_v2, gamma=float(np.abs(c @ sym.s) ** 2)),
            GammaParams(beta=2.0 * sigma_v2, gamma=float(np.abs(c @ sym.s_bar) ** 2)))


def gaussian_approx(chan_row: np.ndarray, sym: ComplementarySymbol,
                    sigma_v2: float) -> GaussianSerModel:
    """High-SNR Gaussian surrogate of one antenna observation:
    mu = |c s|^2 - |c s_bar|^2 and
    sigma^2 = 4 sigma_v2 (|c s|^2 + |c s_bar|^2) + 8 sigma_v2^2.

    Both moments are exact for the sampled observation; only the shape is
    approximate.  The branch powers |v|^2 are exponential with mean
    2 sigma_v2, hence the 8 sigma_v2^2 term.
    """
    if sigma_v2 < 0:
        raise ValueError("sigma_v2 must be >= 0")
    c = np.asarray(chan_row)
    g1 = float(np.abs(c @ sym.s) ** 2)
    g2 = float(np.abs(c @ sym.s_bar) ** 2)
    return GaussianSerModel(mu=g1 - g2,
                            sigma2=4.0 * sigma_v2 * (g1 + g2) + 8.0 * sigma_v2 ** 2)


def candidate_xi_models(chans: UplinkChannelSet, constellation: np.ndarray,
                        sigma_v2: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-constellation-point (mu, sigma^2) of the averaged observation,
    vectorized over the binary constellation given as bipolar rows."""
    if sigma_v2 < 0:
        raise ValueError("sigma_v2 must be >= 0")
    c = chans.c
    n_t = c.shape[0]
    s = (np.asarray(constellation, dtype=float) + 1.0) / 2.0
    g1 = np.abs(c @ s.T) ** 2          # (n_t, n_points)
    g2 = np.abs(c @ (1.0 - s).T) ** 2
    mu = (g1 - g2).mean(axis=0)
    s2 = (4.0 * sigma_v2 * (g1 + g2) + 8.0 * sigma_v2 ** 2).sum(axis=0) / n_t ** 2
    return mu, s2


def gaussian_interval_prob(lo: float, hi: float, mu: float, sigma2: float) -> float:
    """Gaussian mass of [lo, hi) via the error function; infinite endpoints
    contribute erf terms of -1/+1."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    denom = np.sqrt(2.0 * sigma2)
    e_hi = 1.0 if np.isposinf(hi) else erf((hi - mu) / denom)
    e_lo = -1.0 if np.isneginf(lo) else erf((lo - mu) / denom)
    return float(0.5 * (e_hi - e_lo))


def symbol_prob(region_index: int, regions: DecisionRegions,
                model: GaussianSerModel) -> float:
    """Probability that the observation lands in one decision region under
    the Gaussian surrogate.

    The error-function argument uses the standard deviation sqrt(sigma2), the
    only scaling under which these masses integrate the surrogate density.
    """
    b = regions.boundaries
    lo = b[region_index - 1] if region_index > 0 else -np.inf
    hi = b[region_index] if region_index < b.size else np.inf
    return gaussian_interval_prob(lo, hi, model.mu, model.sigma2)


def closed_form_ser(gains: LinearGains, noise: NoiseModel,
                    chans: UplinkChannelSet, constellation: np.ndarray) -> SerResult:
    """Average symbol error rate 1 - mean_r P(region(r) | transmit r).

    Each candidate's correct-decision probability is the Gaussian mass of its
    own midpoint region under the (mu, sigma^2) conditioned on transmitting
    it.  Constellation points that share a collapsed region are counted as
    errors outright and flagged as degenerate.
    """
    constellation = np.asarray(constellation, dtype=float)
    regions = build_regions(gains, constellation)
    mu, s2 = candidate_xi_models(chans, constellation, noise.sigma_v2)
    if np.any(s2 <= 0):
        raise ValueError("noise variance must be > 0 for the closed form")
    n_points = constellation.shape[0]
    correct = np.zeros(n_points)
    for i in range(n_points):
        reg = int(regions.symbol_region[i])
        if regions.region_sizes[reg] > 1:
            continue  # indistinguishable point: counted as an error
        correct[i] = symbol_prob(reg, regions,
                                 GaussianSerModel(float(mu[i]), float(s2[i])))
    return SerResult(probability=float(1.0 - correct.mean()),
                     degenerate=regions.degenerate,
                     per_symbol_correct=correct)
