"""Geometric Rician channel synthesis for RIS-assisted links.

Builds steering vectors for the base-station ULA and the RIS UPA, rank-one
line-of-sight matrices, Rician mixtures with seeded NLoS draws, fading
drawn exactly from Clarke's law (a Gaussian process with the J0
autocorrelation of the classical Doppler spectrum) on any set of instants,
and cascaded source-RIS-destination products with their four-term LoS/NLoS
decomposition.

All randomness flows through explicit ``numpy.random.Generator`` streams, so
every function is pure given its stream and safe to use concurrently as long
as each caller owns its generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s

# observations per piece of power_difference's draw; the stream of a call of
# more observations depends on it
NOISE_CHUNK = 2 ** 16


def doppler_shift(speed: float, carrier_freq: float) -> float:
    """Maximum Doppler shift speed * carrier_freq / c in Hz."""
    return speed * carrier_freq / SPEED_OF_LIGHT


def complex_normal(rng: np.random.Generator, shape, sigma2: float = 1.0) -> np.ndarray:
    """I.i.d. circular complex Gaussian entries with total variance sigma2.

    The stream is read like ``standard_normal((2,) + shape)``: all the real
    parts, then all the imaginary parts.  For sigma2 == 0 the result is
    zeros and the stream is left untouched.
    """
    shape = tuple(np.atleast_1d(shape).astype(int))
    if sigma2 == 0.0:
        return np.zeros(shape, dtype=complex)
    out = np.empty(shape, dtype=complex)
    g = rng.standard_normal((2,) + shape)
    g *= np.sqrt(sigma2 / 2.0)
    out.real = g[0]
    out.imag = g[1]
    return out


def power_difference(rng: np.random.Generator, c1, c2, sigma2: float,
                     shape=None, n_t: int = 1) -> np.ndarray:
    """Magnitude-difference observation summed over n_t antennas,
    sum_m |c1_m + v1_m|^2 - |c2_m + v2_m|^2 with every v i.i.d.
    CN(0, sigma2), drawn exactly in law from three values per observation,
    in real arithmetic only: no complex array is made.

    Circular noise is invariant under any unitary turn of the antennas, so
    a branch's clean amplitudes matter only through their norm: c1 and c2
    (real or complex) hold the norms a = |c1| and b = |c2| (at n_t == 1, the
    amplitudes themselves) and broadcast to ``shape``, by default their
    common shape.  Turn the clean amplitude onto one antenna's real
    quadrature and let d = a - b and s = a + b.  With the noise quadratures
    x_k ~ N(0, sigma2/2), that quadrature gives
    (a + x1)^2 - (b + x2)^2 = (d + U)(s + V), and each of the other
    2 n_t - 1 quadrature pairs gives x1^2 - x2^2 = U'V', with every U, V,
    U', V' i.i.d. N(0, sigma2).  Given S = s + V and Q = sum V'^2 the
    observation is N(d S, sigma2 (S^2 + Q)), and Q, sigma2 times a
    chi-square on 2 n_t - 1 degrees of freedom, is 2 sigma2 W with
    W ~ Gamma(n_t - 1/2).  So it is drawn as d S + sigma sqrt(S^2 + Q) Z.

    The stream is read in pieces of ``NOISE_CHUNK`` observations, and each
    piece in three planes: plane 1 gives S = s + sigma N1, plane 2 gives Q,
    plane 3 gives Z.  At n_t == 1, Q is (sigma N2)^2 (the law of
    2 sigma2 Gamma(1/2)) and a piece of k observations is read like
    ``standard_normal((3, k))``, so a call of at most ``NOISE_CHUNK``
    observations reads like ``standard_normal((3,) + shape)``; at n_t > 1,
    plane 2 is ``standard_gamma(n_t - 1/2)`` scaled by 2 sigma2.  Above one
    piece the stream therefore depends on ``NOISE_CHUNK``.  Each piece is
    drawn and folded in one pass: |c1| and |c2| are read from its
    amplitudes, its observations go straight into the result, and two piece
    buffers hold d (then d S) and the draw.  A call holds n floats and two
    pieces; an amplitude broadcast along some axes but not all is expanded
    once to n values.
    For sigma2 == 0 the result is the clean difference
    (re1^2 + im1^2) - (re2^2 + im2^2) and the stream is left untouched.
    """
    c1, c2 = np.asarray(c1), np.asarray(c2)
    shape = np.broadcast(c1, c2).shape if shape is None else tuple(shape)
    if sigma2 == 0.0:
        return np.subtract(_power(c1), _power(c2), out=np.empty(shape))
    n = math.prod(shape)
    sigma = np.sqrt(sigma2)
    c1, c2 = _flat(c1, shape), _flat(c2, shape)
    out = np.empty(n)
    d_buf, draw_buf = np.empty((2, min(n, NOISE_CHUNK)))
    for lo in range(0, n, NOISE_CHUNK):
        part = slice(lo, lo + NOISE_CHUNK)
        z = out[part]
        d, draw = d_buf[:z.size], draw_buf[:z.size]
        # plane 1: S = |c1| + |c2| + sigma N1 into z, d = |c1| - |c2|
        np.abs(c1[part], out=d)
        np.abs(c2[part], out=draw)
        np.add(d, draw, out=z)
        d -= draw
        rng.standard_normal(out=draw)
        draw *= sigma
        z += draw
        # plane 2: the conditional mean d S, and S^2 + Q into z
        if n_t == 1:
            rng.standard_normal(out=draw)
            draw *= sigma
            draw *= draw
        else:
            rng.standard_gamma(n_t - 0.5, out=draw)
            draw *= 2.0 * sigma2
        d *= z
        z *= z
        z += draw
        # plane 3: d S + sqrt(S^2 + Q) sigma Z
        rng.standard_normal(out=draw)
        draw *= sigma
        np.sqrt(z, out=z)
        z *= draw
        z += d
    return out.reshape(shape)


def _power(c: np.ndarray) -> np.ndarray:
    """|c|^2 as re^2 + im^2, or c^2 for a real amplitude."""
    if c.dtype.kind == "c":
        return c.real * c.real + c.imag * c.imag
    return c * c


def _flat(x: np.ndarray, shape: tuple) -> np.ndarray:
    """``x`` broadcast to ``shape`` and flattened: a view, unless x is
    broadcast along some axes but not all."""
    if x.shape != shape:
        x = np.broadcast_to(x, shape)
    return x.reshape(-1)


def rician_weights(k: float) -> tuple[float, float]:
    """(LoS, NLoS) amplitude weights sqrt(K/(1+K)), sqrt(1/(1+K)) of a Rician
    mix; with unit-magnitude LoS entries and unit-variance NLoS entries the
    mix keeps unit power per entry."""
    if k < 0:
        raise ValueError("rician factor must be >= 0")
    return np.sqrt(k / (1.0 + k)), np.sqrt(1.0 / (1.0 + k))


def ula_steering(theta: float, n: int) -> np.ndarray:
    """Unit-magnitude response of an n-element half-wavelength ULA; element
    k carries phase pi*k*sin(theta) and element 0 equals 1."""
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.exp(1j * np.pi * np.arange(n) * np.sin(theta))


def upa_steering(theta: float, phi: float, nx: int, ny: int) -> np.ndarray:
    """Unit-magnitude response of an nx-by-ny half-wavelength UPA as the
    Kronecker product of two 1-D responses, for elevation theta and azimuth
    phi in radians: element (m, n) carries phase
    pi*(m*sin(phi)*sin(theta) + n*cos(theta))."""
    u = np.exp(1j * np.pi * np.arange(nx) * np.sin(phi) * np.sin(theta))
    v = np.exp(1j * np.pi * np.arange(ny) * np.cos(theta))
    return np.outer(u, v).reshape(-1)


def los_component(rx_steering: np.ndarray, tx_steering: np.ndarray) -> np.ndarray:
    """Rank-one LoS matrix: outer product rx * tx^H."""
    rx = np.asarray(rx_steering)
    tx = np.asarray(tx_steering)
    if rx.size == 0 or tx.size == 0:
        raise ValueError("steering vectors must be non-empty")
    return np.outer(rx, tx.conj())


@dataclass
class JakesFading:
    """Fading drawn exactly from Clarke's law.

    Every entry of ``shape`` is an independent zero-mean, unit-power
    circular complex Gaussian process with autocorrelation
    J0(2*pi*f_max*tau), so on instants t_1..t_n it is CN(0, R) with
    R_ij = J0(2*pi*f_max*|t_i - t_j|).  ``create`` keeps the entry shape,
    f_max and the fading stream ``rng``; ``sample_at`` draws every entry at
    all its instants at once.
    """

    shape: tuple
    f_max: float
    rng: np.random.Generator

    @classmethod
    def create(cls, shape, f_max: float, rng: np.random.Generator) -> "JakesFading":
        if not f_max >= 0:
            raise ValueError("f_max must be >= 0")
        return cls(shape=tuple(np.atleast_1d(shape).astype(int)), f_max=float(f_max),
                   rng=rng)

    def sample_at(self, times) -> np.ndarray:
        """Fading at the given instants in seconds, (len(times),) + shape, in
        one joint draw: ``standard_normal((r, 2 * entries))`` from the stream
        times the cached (len(times), r) factor F of ``clarke_factor``; the
        product's columns pair up as each entry's real and imaginary parts."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
            raise ValueError("times must be a non-empty 1-D array of finite instants")
        factor = clarke_factor(self.f_max, tuple(times.tolist()))
        z = self.rng.standard_normal((factor.shape[1], 2 * math.prod(self.shape)))
        return (factor @ z).view(complex).reshape(times.shape + self.shape)


@lru_cache(maxsize=32)
def clarke_factor(f_max: float, times: tuple) -> np.ndarray:
    """Read-only (n, r) factor F with 2*F*F^T = R, the Clarke correlation
    J0(2*pi*f_max*|t_i - t_j|) of the n instants: the Karhunen-Loeve
    truncation of eigh(R) to its eigenvalues above 1e-13 times the largest.
    Its rank r is about 2*f_max*(t_n - t_1) plus a few, and 1 at f_max = 0.
    J0 is evaluated once per distinct lag."""
    t = np.asarray(times, dtype=float)
    lags = np.abs(t[:, None] - t).ravel()
    distinct, where = np.unique(lags, return_inverse=True)
    r = bessel_j0(2.0 * np.pi * f_max * distinct)[where].reshape(t.size, t.size)
    w, v = np.linalg.eigh(r)
    keep = w > 1e-13 * w[-1]
    factor = v[:, keep] * np.sqrt(w[keep] / 2.0)
    factor.flags.writeable = False
    return factor


def bessel_j0(x) -> np.ndarray:
    """Bessel J0 in numpy alone, (1/pi) * integral_0^pi cos(x*sin(theta))
    by the midpoint rule on max(64, 2*max|x| + 64) nodes.  The integrand is
    smooth and periodic, so the rule converges spectrally: within 5e-15 of
    scipy.special.j0 on [0, 400]."""
    x = np.abs(np.asarray(x, dtype=float))
    n = int(max(64.0, 2.0 * x.max(initial=0.0) + 64.0))
    sin = np.sin((np.arange(n) + 0.5) * (np.pi / n))
    return np.cos(np.multiply.outer(x, sin)).mean(axis=-1)


def cascade(g: np.ndarray, phases: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Cascaded link g * diag(exp(j*phases)) * Q, the one place a cascade is
    formed.

    The RIS phase shifts are applied to the rows of Q, and any stack of
    RIS-side rows ``g`` of shape (..., N) goes through one 2-D product,
    giving (...,) + Q.shape[1:].
    """
    g = np.asarray(g)
    q = np.asarray(q)
    n = phases.shape[0]
    if q.ndim != 2 or g.shape[-1] != n or q.shape[0] != n:
        raise ValueError(
            f"dimension mismatch: g has {g.shape[-1]} columns, {n} phases, "
            f"Q has shape {q.shape}")
    q_omega = np.exp(1j * phases)[:, None] * q
    return (g.reshape(-1, n) @ q_omega).reshape(g.shape[:-1] + q.shape[1:])


def cascade_decomposition(g_los: np.ndarray, g_nlos: np.ndarray, phases: np.ndarray,
                          q_los: np.ndarray, q_nlos: np.ndarray):
    """Four cascade terms (LoS*LoS, LoS*NLoS, NLoS*LoS, NLoS*NLoS).

    Inputs are the already weighted link components (Rician weights and path
    gains applied), so the four terms sum to the full cascade exactly.
    """
    return (
        cascade(g_los, phases, q_los),
        cascade(g_los, phases, q_nlos),
        cascade(g_nlos, phases, q_los),
        cascade(g_nlos, phases, q_nlos),
    )


def align_phases_to_los(q_los: np.ndarray, big_los: np.ndarray) -> np.ndarray:
    """Reflection phases that co-phase every term of the cascaded LoS sum
    for the first destination column, maximizing its magnitude.

    Stands in for an offline AoA-indexed coefficient database: with a
    rank-one LoS on both sides the same phases co-phase every column.
    """
    q_los = np.asarray(q_los).reshape(-1)
    big_los = np.asarray(big_los)
    if big_los.shape[0] != q_los.shape[0]:
        raise ValueError("q_los length must match big_los row count")
    return -np.angle(q_los * big_los[:, 0])
