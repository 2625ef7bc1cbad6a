"""Real-domain linear model of the downlink: equivalent channel, least-squares
training, joint minimum-distance detection, zero-forcing precoding, and the
precoded link (``precoded_link``) that downlink-ber and output-snr simulate.

The equivalent channel relates bipolar symbols to the magnitude-difference
observation and is real by construction, so a common Doppler rotation of the
underlying complex channel leaves it unchanged.

Training pilots are rows of the Sylvester-Hadamard matrix of order
``hadamard_order(n_rows)``, a power of two, so their Gram matrix is
exactly order * I and the least-squares estimate is z_t x_t^T / order with
no rounding in the division; ``ls_estimate`` is the generic estimator for any
full-rank pilot block.

Symbols are 0/1 arrays s with complement 1 - s; joint detection returns them
as int arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import channel
from .config import ConfigError

JOINT_SEARCH_CAP = 2 ** 16

# Largest residual array (users x symbols x candidates) joint detection of a
# block holds at once; a block is scored in slices of symbols below it.
JOINT_SLICE_ELEMENTS = 2 ** 20

# Relative singular-value floor below which a channel is treated as rank
# deficient instead of being silently regularized.
RANK_RTOL = 1e-10


class RankDeficientChannel(np.linalg.LinAlgError):
    """Equivalent channel Gram matrix is singular beyond tolerance."""


class SearchTooLarge(ConfigError):
    """Joint detection constellation exceeds the exhaustive-search cap: a
    configuration fault, raised before any Monte Carlo sampling."""


@dataclass(frozen=True)
class Precoder:
    """Zero-forcing precoder with its amplitude gain under unit power."""

    p: np.ndarray
    rho: float


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


def hadamard_order(n_rows: int) -> int:
    """Order of the Hadamard pilot matrix: the smallest power of two that is
    at least n_rows; also the pilot symbol count."""
    return 1 << (max(n_rows, 1) - 1).bit_length()


@lru_cache(maxsize=16)
def hadamard_pilots(n_rows: int) -> np.ndarray:
    """The first n_rows rows of the Sylvester-Hadamard matrix of order
    ``hadamard_order(n_rows)``, as floats.

    Sylvester's construction doubles H to [[H, H], [H, -H]] from H = [[1]].
    Rows are mutually orthogonal, so the pilot Gram matrix is order * I.
    The 16 most recent results are cached, so they are read-only.
    """
    order = hadamard_order(n_rows)
    h = np.ones((1, 1))
    while h.shape[0] < order:
        h = np.vstack([np.hstack([h, h]), np.hstack([h, -h])])
    h = h[:n_rows]
    h.flags.writeable = False
    return h


@lru_cache(maxsize=16)
def pilot_tones(n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The on-off tone patterns (1 + x) / 2 and (1 - x) / 2 of the
    ``hadamard_pilots(n_rows)`` rows x, 0s and 1s stored as complex so that
    a complex channel multiplies them without a cast on every frame.
    Cached and read-only like the pilots."""
    pilots = hadamard_pilots(n_rows)
    tones = tuple(((1.0 + sign * pilots) / 2.0).astype(complex) for sign in (1.0, -1.0))
    for tone in tones:
        tone.flags.writeable = False
    return tones


def ls_estimate(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Least-squares estimate z x^T (x x^T)^{-1} of the equivalent channel
    from bipolar pilots ``x`` (rows = transmit elements) and the received
    real observations ``z`` (rows = users), one row per user.  Raises
    ``np.linalg.LinAlgError`` when the pilot Gram matrix is rank deficient."""
    x = np.asarray(x, dtype=float)
    z = np.atleast_2d(np.asarray(z, dtype=float))
    gram = x @ x.T
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
        raise np.linalg.LinAlgError("pilot Gram matrix is rank deficient")
    return np.linalg.solve(gram, (z @ x.T).T).T


def check_search_size(n: int) -> None:
    """Raise SearchTooLarge when n binary elements have more than
    JOINT_SEARCH_CAP candidates; builds no table."""
    if 2 ** n > JOINT_SEARCH_CAP:
        raise SearchTooLarge(f"2**{n} candidates exceed the search cap")


def bipolar_candidates(n: int) -> np.ndarray:
    """All bipolar symbol rows 2s - 1 of n binary elements, enumerated in
    lexicographic order of s (element 0 most significant).  Capped at
    JOINT_SEARCH_CAP candidates."""
    check_search_size(n)
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return 2.0 * bits - 1.0


def joint_detect(z: np.ndarray, h_bar: np.ndarray) -> np.ndarray:
    """Exhaustive minimum-Euclidean-norm detection over the full symbol set.

    ``z`` is one observation (N_k,) or a block of M observations (N_k, M);
    the result is the 0/1 int array s, (N_t,) or (M, N_t).  Each observation
    is scored by its exact residual against every candidate, and ties break
    toward the lexicographically smallest s.  Symbols are scored in slices
    whose residual holds at most JOINT_SLICE_ELEMENTS values (one symbol at
    least).  Exponential in the element count; intended for small-array
    experiments only.
    """
    z = np.asarray(z, dtype=float)
    h_bar = np.asarray(h_bar, dtype=float)
    cands = bipolar_candidates(h_bar.shape[1])
    hc = h_bar @ cands.T  # (N_k, C)
    zs = z.reshape(z.shape[0], -1)
    step = max(1, JOINT_SLICE_ELEMENTS // hc.size)
    best = np.empty(zs.shape[1], dtype=int)
    for lo in range(0, zs.shape[1], step):
        resid = zs[:, lo:lo + step, None] - hc[:, None, :]
        best[lo:lo + step] = np.argmin(np.einsum("ijk,ijk->jk", resid, resid), axis=1)
    s = (cands[best] > 0).astype(int)
    return s.reshape(z.shape[1:] + s.shape[1:])


def zf_precoder(h_bar: np.ndarray) -> Precoder:
    """Zero-forcing precoder P = H^T (H H^T)^{-1} with amplitude gain
    rho = 1 / (2 tr((H H^T)^{-1})).

    With unit-power symbol streams on both tones the scaled average transmit
    power is one.  Raises RankDeficientChannel when the smallest singular
    value of H falls below RANK_RTOL times the largest.
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
    return Precoder(p=p, rho=1.0 / (2.0 * trace_rinv))


def precoded_roundtrip(h_bar: np.ndarray, precoder: Precoder, s) -> np.ndarray:
    """Noiseless magnitude-difference output of the precoded linear model:
    |HP s|^2 - |HP (1 - s)|^2 elementwise, which recovers the bipolar
    symbol 2s - 1 exactly when HP = I."""
    w = np.asarray(h_bar, dtype=float) @ precoder.p
    s = np.asarray(s)
    a = w @ s
    b = w @ (1 - s)
    return a * a - b * b


def precoded_link(w, rho, bits, sigma2, rng):
    """Branch amplitudes a1, a2 of float bit rows sent through the real
    precoded link ``w`` (..., N_k, N_k) at amplitude gain rho, and the
    magnitude-difference observation z under complex branch noise."""
    w_t = np.swapaxes(w, -1, -2)
    amp = np.sqrt(rho)
    a1 = amp * bits @ w_t
    a2 = amp * (1.0 - bits) @ w_t
    return a1, a2, channel.power_difference(rng, a1, a2, sigma2)


def output_snr_exact(rho: float, sigma2: float) -> float:
    """Precoded output SNR rho / (2 sigma^2 + 2 sigma^4 / rho) of a
    zero-forced channel with amplitude gain ``rho`` (``zf_precoder``'s).

    Through W = I a bit's clean output is rho (2b - 1), and its noise
    2 sqrt(rho) Re(v) + |v1|^2 - |v2|^2 under CN(0, sigma^2) branch noise
    has power 2 rho sigma^2 + 2 sigma^4.  The source analysis prints
    rho / (2 sigma^2 + 3 sigma^4 / 4), which no noise convention gives.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    return rho / (2.0 * sigma2 + 2.0 * sigma2 ** 2 / rho)


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
