"""Real-domain linear model of the downlink: equivalent channel, least-squares
training, joint minimum-distance detection, and zero-forcing precoding.

The equivalent channel relates bipolar symbols to the magnitude-difference
observation and is real by construction, so a common Doppler rotation of the
underlying complex channel leaves it unchanged.

Training pilots are rows of the Sylvester-Hadamard matrix of order
``hadamard_order(n_rows, length)``, a power of two, so their Gram matrix is
exactly order * I and the least-squares estimate is z_t x_t^T / order with
no rounding in the division; ``ls_estimate`` is the generic estimator for any
full-rank pilot block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .waveform import ComplementarySymbol

JOINT_SEARCH_CAP = 2 ** 16

# Largest residual array (users x symbols x candidates) joint detection of a
# block holds at once; a block is scored in slices of symbols below it.
JOINT_SLICE_ELEMENTS = 2 ** 20

# Relative singular-value floor below which a channel is treated as rank
# deficient instead of being silently regularized.
RANK_RTOL = 1e-10


class RankDeficientChannel(np.linalg.LinAlgError):
    """Equivalent channel Gram matrix is singular beyond tolerance."""


class RankDeficientPilots(np.linalg.LinAlgError):
    """Pilot Gram matrix is singular; pilots cannot support LS estimation."""


class SearchTooLarge(ValueError):
    """Joint detection constellation exceeds the exhaustive-search cap."""


@dataclass(frozen=True)
class Precoder:
    """Zero-forcing precoder with its amplitude gain under a power budget."""

    p: np.ndarray
    rho: float
    power_budget: float = 1.0


@dataclass
class PilotBlock:
    """Equivalent pilot symbols (rows = transmit elements) and the received
    real observations (rows = users)."""

    x_bar_t: np.ndarray
    z_t: np.ndarray


def equivalent_channel(h: np.ndarray) -> np.ndarray:
    """Real equivalent channel: row m equals Re(conj(sum(h_m)) * h_m].

    The output dtype is real by construction; row sums are the squared
    magnitudes of the per-row complex sums and therefore nonnegative.
    """
    h = np.asarray(h)
    if not np.all(np.isfinite(h)):
        raise ValueError("channel matrix must be finite")
    lam = np.conj(h.sum(axis=-1, keepdims=True))
    return np.real(lam * h)


def hadamard_order(n_rows: int, length: int | None = None) -> int:
    """Order of the Hadamard pilot matrix: the smallest power of two that is
    at least n_rows and at least ``length``; also the pilot symbol count."""
    return 1 << (max(n_rows, length or 0, 1) - 1).bit_length()


def hadamard_pilots(n_rows: int, length: int | None = None) -> np.ndarray:
    """The first n_rows rows of the Sylvester-Hadamard matrix of order
    ``hadamard_order(n_rows, length)``, as floats.

    Sylvester's construction doubles H to [[H, H], [H, -H]] from H = [[1]].
    Rows are mutually orthogonal, so the pilot Gram matrix is order * I.
    """
    order = hadamard_order(n_rows, length)
    h = np.ones((1, 1))
    while h.shape[0] < order:
        h = np.vstack([np.hstack([h, h]), np.hstack([h, -h])])
    return h[:n_rows]


def ls_estimate(pilots: PilotBlock) -> np.ndarray:
    """Least-squares estimate z_t x_t^T (x_t x_t^T)^{-1} of the equivalent
    channel, one row per user."""
    x = np.asarray(pilots.x_bar_t, dtype=float)
    z = np.atleast_2d(np.asarray(pilots.z_t, dtype=float))
    gram = x @ x.T
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
        raise RankDeficientPilots("pilot Gram matrix is rank deficient")
    return np.linalg.solve(gram, (z @ x.T).T).T


def check_search_size(n: int, levels: int = 2) -> None:
    """Raise SearchTooLarge when an n-element alphabet of size ``levels``
    has more than JOINT_SEARCH_CAP candidates; builds no table."""
    if levels ** n > JOINT_SEARCH_CAP:
        raise SearchTooLarge(f"{levels}**{n} candidates exceed the search cap")


def bipolar_candidates(n: int, levels: int = 2) -> np.ndarray:
    """All bipolar symbol rows x_bar for an n-element alphabet of size
    ``levels``, enumerated in lexicographic order of s (element 0 most
    significant).  Capped at JOINT_SEARCH_CAP candidates."""
    check_search_size(n, levels)
    total = levels ** n
    idx = np.arange(total)
    digits = np.empty((total, n), dtype=int)
    for j in range(n - 1, -1, -1):
        digits[:, j] = idx % levels
        idx //= levels
    return (2.0 * digits - (levels - 1)) / (levels - 1)


def joint_detect(z: np.ndarray, h_bar: np.ndarray,
                 levels: int = 2) -> ComplementarySymbol:
    """Exhaustive minimum-Euclidean-norm detection over the full symbol set.

    ``z`` is one observation (N_k,) or a block of M observations (N_k, M);
    the result's ``s`` is (N_t,) or (M, N_t).  Each observation is scored by
    its exact residual against every candidate, and ties break toward the
    lexicographically smallest s.  Symbols are scored in slices whose
    residual holds at most JOINT_SLICE_ELEMENTS values (one symbol at least).
    Exponential in the element count; intended for small-array experiments
    only.
    """
    z = np.asarray(z, dtype=float)
    h_bar = np.asarray(h_bar, dtype=float)
    cands = bipolar_candidates(h_bar.shape[1], levels)
    hc = h_bar @ cands.T  # (N_k, C)
    zs = z.reshape(z.shape[0], -1)
    step = max(1, JOINT_SLICE_ELEMENTS // hc.size)
    best = np.empty(zs.shape[1], dtype=int)
    for lo in range(0, zs.shape[1], step):
        resid = zs[:, lo:lo + step, None] - hc[:, None, :]
        best[lo:lo + step] = np.argmin(np.einsum("ijk,ijk->jk", resid, resid), axis=1)
    s = ((cands[best] * (levels - 1) + (levels - 1)) / 2.0).round().astype(int)
    return ComplementarySymbol(s.reshape(z.shape[1:] + s.shape[1:]), levels=levels)


def zf_precoder(h_bar: np.ndarray, power_budget: float = 1.0) -> Precoder:
    """Zero-forcing precoder P = H^T (H H^T)^{-1} with amplitude gain
    rho = power_budget / (2 tr((H H^T)^{-1})).

    With unit-power symbol streams on both tones the scaled average transmit
    power equals the budget.  Raises RankDeficientChannel when the smallest
    singular value of H falls below RANK_RTOL times the largest.
    """
    h_bar = np.asarray(h_bar, dtype=float)
    n_k, n_t = h_bar.shape
    if n_t < n_k:
        raise RankDeficientChannel("need at least as many transmit elements as users")
    sv = np.linalg.svd(h_bar, compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
        raise RankDeficientChannel("equivalent channel is rank deficient")
    gram = h_bar @ h_bar.T
    p = np.linalg.solve(gram, h_bar).T
    # tr((H H^T)^{-1}) equals tr(P^T P) for the pseudoinverse precoder
    trace_rinv = float(np.sum(1.0 / sv ** 2))
    rho = power_budget / (2.0 * trace_rinv)
    return Precoder(p=p, rho=rho, power_budget=power_budget)


def precoded_roundtrip(h_bar: np.ndarray, precoder: Precoder,
                       sym: ComplementarySymbol) -> np.ndarray:
    """Noiseless magnitude-difference output of the precoded linear model:
    |HP (1+x)/2|^2 - |HP (1-x)/2|^2 elementwise, which recovers the bipolar
    symbol exactly when HP = I."""
    if sym.levels != 2:
        raise ValueError("roundtrip contract is defined for the binary alphabet")
    w = np.asarray(h_bar, dtype=float) @ precoder.p
    a = w @ sym.s
    b = w @ sym.s_bar
    return a * a - b * b


def output_snr_exact(h_bar: np.ndarray, sigma2: float,
                     power_budget: float = 1.0) -> float:
    """Closed-form precoded output SNR rho / (2 sigma^2 + 3 sigma^4 / 4).

    The denominator constants are taken as printed in the source analysis;
    the Monte Carlo harness cross-checks them rather than assuming them.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    rho = zf_precoder(h_bar, power_budget).rho
    return rho / (2.0 * sigma2 + 0.75 * sigma2 ** 2)


def precoded_ber_exact(rho, sigma2: float):
    """Per-bit error probability 0.5 exp(-rho / (2 sigma^2)) of the precoded
    link when the equivalent channel through the precoder is the identity
    (zero forcing on the true channel): the bit errs exactly when
    |sqrt(rho) + v1|^2 < |v2|^2 with v1, v2 ~ CN(0, sigma^2).  Elementwise
    in rho, so a frame's per-block gains give the law for each block."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    return 0.5 * np.exp(-rho / (2.0 * sigma2))


def output_snr_asymptotic(n_t: int, n_k: int, sigma2: float) -> float:
    """Large-array output SNR (N_t - N_k - 1) / (4 N_k sigma^2); valid for
    unit-variance equivalent-channel entries and N_t > N_k + 1."""
    if n_t <= n_k + 1:
        raise ValueError("asymptotic form requires n_t > n_k + 1")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    return (n_t - n_k - 1) / (4.0 * n_k * sigma2)
