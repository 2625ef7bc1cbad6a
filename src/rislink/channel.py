"""Geometric Rician channel synthesis for RIS-assisted links.

Builds steering vectors for the base-station ULA and the RIS UPA, rank-one
line-of-sight matrices, Rician mixtures with seeded NLoS draws, a
sum-of-sinusoids fading process whose block-to-block autocorrelation follows
the classical Doppler spectrum, and cascaded source-RIS-destination products
with their four-term LoS/NLoS decomposition.

All randomness flows through explicit ``numpy.random.Generator`` streams, so
every function is pure given its stream and safe to use concurrently as long
as each caller owns its generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s

_TWO_PI = 2.0 * np.pi
JAKES_OSCILLATORS = 16  # sinusoids summed per fading entry


def doppler_shift(speed: float, carrier_freq: float) -> float:
    """Maximum Doppler shift speed * carrier_freq / c in Hz."""
    return speed * carrier_freq / SPEED_OF_LIGHT


def complex_normal(rng: np.random.Generator, shape, sigma2: float = 1.0,
                   blocks: int | None = None) -> np.ndarray:
    """I.i.d. circular complex Gaussian entries with total variance sigma2.

    One block of ``shape`` draws all its real parts, then all its imaginary
    parts.  With ``blocks=n`` the result is (n,) + shape and block k is
    exactly what the k-th of n successive calls with ``shape`` would return:
    the stream is consumed in the same order and left in the same state.
    For sigma2 == 0 the result is zeros and the stream is left untouched.
    """
    shape = tuple(np.atleast_1d(shape).astype(int))
    n = 1 if blocks is None else blocks
    if sigma2 == 0.0:
        out = np.zeros((n,) + shape, dtype=complex)
    else:
        out = np.empty((n,) + shape, dtype=complex)
        g = rng.standard_normal((n, 2) + shape)
        g *= np.sqrt(sigma2 / 2.0)
        out.real = g[:, 0]
        out.imag = g[:, 1]
    return out[0] if blocks is None else out


def power_difference(rng: np.random.Generator, c1, c2, sigma2: float, shape=None,
                     *, branch_major: bool = False, axis: int = 0) -> np.ndarray:
    """Magnitude-difference observation |c1 + v1|^2 - |c2 + v2|^2 with v1, v2
    i.i.d. CN(0, sigma2), in real arithmetic only: no complex array is made.

    The clean branch amplitudes c1, c2 (real or complex) broadcast to
    ``shape``, by default their common shape.  The standard normals fill one
    array of shape shape[:axis] + (2, 2) + shape[axis:] whose (2, 2) axes are
    (part, branch): the real parts of v1 and v2, then their imaginary parts;
    or, with ``branch_major``, (branch, part): v1's real and imaginary parts,
    then v2's.  So the stream is read as ``complex_normal`` would read it for
    the same noise: part-major is complex_normal(rng, (2,) + shape, sigma2),
    branch-major at axis 0 is complex_normal(rng, shape, sigma2, blocks=2),
    and at axis k those two blocks are drawn for each index of the first k
    axes in turn.  Each branch power is re^2 + im^2, within a few ulps of
    np.abs(c + v)**2.  For sigma2 == 0 the result is the clean difference
    and the stream is left untouched.
    """
    c1, c2 = np.asarray(c1), np.asarray(c2)
    shape = np.broadcast(c1, c2).shape if shape is None else tuple(shape)
    draw = shape[:axis] + (2, 2) + shape[axis:]
    g = np.zeros(draw) if sigma2 == 0.0 else rng.standard_normal(draw)
    first = (axis + 1, axis) if branch_major else (axis, axis + 1)
    planes = g.transpose(first + tuple(range(axis)) + tuple(range(axis + 2, g.ndim)))
    if axis:
        # the blocks interleave the planes: gather them once, scaled
        g = planes = np.multiply(planes, np.sqrt(sigma2 / 2.0), order="C")
    else:
        g *= np.sqrt(sigma2 / 2.0)
    # views, also when shape is () (plain indexing would return scalars)
    re1, re2 = planes[0, 0, ...], planes[0, 1, ...]
    im1, im2 = planes[1, 0, ...], planes[1, 1, ...]
    re1 += c1.real
    re2 += c2.real
    if c1.dtype.kind == "c":
        im1 += c1.imag
    if c2.dtype.kind == "c":
        im2 += c2.imag
    g *= g
    re1 += im1
    re2 += im2
    return np.subtract(re1, re2)


def rician_weights(k: float) -> tuple[float, float]:
    """(LoS, NLoS) amplitude weights sqrt(K/(1+K)), sqrt(1/(1+K)) of a Rician
    mix; with unit-magnitude LoS entries and unit-variance NLoS entries the
    mix keeps unit power per entry."""
    if k < 0:
        raise ValueError("rician factor must be >= 0")
    return np.sqrt(k / (1.0 + k)), np.sqrt(1.0 / (1.0 + k))


def ula_steering(theta: float, n: int, spacing: float, wavelength: float) -> np.ndarray:
    """Array response of an n-element ULA; element k carries phase
    2*pi*k*(spacing/wavelength)*sin(theta) and element 0 equals 1."""
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(n)
    return np.exp(1j * _TWO_PI * k * (spacing / wavelength) * np.sin(theta))


def upa_steering(theta: float, phi: float, nx: int, ny: int, spacing: float,
                 wavelength: float) -> np.ndarray:
    """Unit-norm response of an nx-by-ny UPA as the Kronecker product of two
    1-D responses, for elevation theta and azimuth phi in radians.

    Element (m, n) carries phase (2*pi/lambda)*d*(m*sin(phi)*sin(theta)
    + n*cos(theta)); the 1/sqrt(nx*ny) factor makes the Euclidean norm 1.
    """
    scale = _TWO_PI * spacing / wavelength
    u = np.exp(1j * scale * np.arange(nx) * np.sin(phi) * np.sin(theta))
    v = np.exp(1j * scale * np.arange(ny) * np.cos(theta))
    return np.outer(u, v).reshape(-1) / np.sqrt(nx * ny)


def los_component(rx_steering: np.ndarray, tx_steering: np.ndarray) -> np.ndarray:
    """Rank-one LoS matrix: outer product rx * tx^H."""
    rx = np.asarray(rx_steering)
    tx = np.asarray(tx_steering)
    if rx.size == 0 or tx.size == 0:
        raise ValueError("steering vectors must be non-empty")
    return np.outer(rx, tx.conj())


@dataclass
class JakesFading:
    """Sum-of-sinusoids fading with the classical Doppler autocorrelation.

    Each entry sums ``JAKES_OSCILLATORS`` sinusoids whose arrival angles tile a
    quarter circle with a per-entry random offset, so the ensemble
    autocorrelation at lag tau equals J0(2*pi*f_max*tau) exactly in
    expectation while the marginal stays zero-mean unit-variance complex
    Gaussian (by the CLT over oscillators).
    """

    f_max: float
    cos_alpha: np.ndarray
    sin_alpha: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    @classmethod
    def create(cls, shape, f_max: float, rng: np.random.Generator) -> "JakesFading":
        if f_max < 0:
            raise ValueError("f_max must be >= 0")
        shape = tuple(np.atleast_1d(shape).astype(int))
        m = np.arange(1, JAKES_OSCILLATORS + 1)
        theta = rng.uniform(-np.pi, np.pi, size=shape + (1,))
        alpha = (_TWO_PI * m - np.pi + theta) / (4.0 * JAKES_OSCILLATORS)
        phi = rng.uniform(-np.pi, np.pi, size=shape + (JAKES_OSCILLATORS,))
        psi = rng.uniform(-np.pi, np.pi, size=shape + (JAKES_OSCILLATORS,))
        return cls(f_max=float(f_max), cos_alpha=np.cos(alpha),
                   sin_alpha=np.sin(alpha), phi=phi, psi=psi)

    def sample_at(self, t: float) -> np.ndarray:
        """Fading matrix at absolute time t seconds."""
        rate, phase = self._oscillators()
        cos = np.zeros(rate.shape, dtype=complex)  # only the real parts are summed
        np.cos(rate * t + phase, out=cos.real)
        return self._entries(_real_sums(cos))

    def sample_grid(self, t0: float, dt: float, count: int) -> np.ndarray:
        """Fading matrices at t0 + k*dt for k < count, stacked as
        (count,) + entry shape.

        On evenly spaced instants each oscillator's phasor advances by the
        fixed factor exp(j*w_d*dt*c) per step (c the cosine or sine of its
        arrival angle), so the grid costs one cosine and one sine pass to set
        the phasors up, then one complex multiply and one matrix-vector sum
        per instant instead of a cosine pass per instant.  Agrees with
        ``sample_at`` to rounding, and bit for bit at f_max = 0; the rounding
        of the repeated product grows with k.
        """
        rate, phase = self._oscillators()
        phasor = _unit_phasor(rate * t0 + phase)
        step = _unit_phasor(rate * dt)
        sums = np.empty((count, rate.shape[0]))
        for k in range(count):
            _real_sums(phasor, out=sums[k])
            phasor *= step
        return self._entries(sums)

    def _oscillators(self):
        """Angular rate and initial phase of every oscillator as rows of
        (2 * entries, oscillators): the real parts' rows, then the
        imaginary parts'."""
        m = self.phi.shape[-1]
        rate = _TWO_PI * self.f_max * np.stack([self.cos_alpha, self.sin_alpha])
        return rate.reshape(-1, m), np.stack([self.phi, self.psi]).reshape(-1, m)

    def _entries(self, sums: np.ndarray) -> np.ndarray:
        """Oscillator sums (..., 2 * entries) as (...,) + entry shape complex
        fading of unit power."""
        shape = sums.shape[:-1] + self.phi.shape[:-1]
        half = sums.shape[-1] // 2
        return (sums[..., :half].reshape(shape) + 1j * sums[..., half:].reshape(shape)) \
            / np.sqrt(self.phi.shape[-1])


def _unit_phasor(x: np.ndarray) -> np.ndarray:
    """exp(j*x) for real x, bit for bit, with its cosine and sine written
    straight into one complex buffer."""
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _real_sums(phasor: np.ndarray, out=None) -> np.ndarray:
    """Row sums of the real parts of a C-contiguous complex 2-D array, as
    one BLAS matrix-vector product over its interleaved (re, im) float view
    with weights 1, 0: no strided reduction.  A finite imaginary part adds
    an exact zero, so equal real parts give equal sums bit for bit; every
    oscillator sum goes through here."""
    pick = np.zeros(2 * phasor.shape[-1])
    pick[::2] = 1.0
    return np.matmul(phasor.view(float), pick, out=out)


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
