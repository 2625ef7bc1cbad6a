"""Dual-tone complementary amplitude waveform and its magnitude detector.

Each transmit element carries a bit s in {0, 1} as the amplitude pair
(s, 1 - s) on two orthogonal tones, so the receiver can form a real
observation from the difference of the two correlator output powers.  A
symbol is a plain 0/1 array; its bipolar equivalent is 2s - 1.  A common
phase rotation (e.g. from Doppler) multiplies both correlator outputs and
cancels in the magnitude difference.

Baseband convention: the first tone sits at 0 Hz offset and the second at an
integer multiple of 1/T_s, which keeps the discrete-time correlator exact for
pure tones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TonePair:
    """Two orthogonal tone frequencies with f2 - f1 = 1/symbol_period."""

    f1: float
    f2: float
    symbol_period: float

    def __post_init__(self):
        if self.symbol_period <= 0:
            raise ValueError("symbol_period must be > 0")
        gap = self.f2 - self.f1
        if not np.isclose(gap * self.symbol_period, 1.0, rtol=1e-9, atol=0.0):
            raise ValueError("tones must satisfy f2 - f1 = 1/symbol_period")

    @classmethod
    def baseband(cls, symbol_period: float) -> "TonePair":
        return cls(0.0, 1.0 / symbol_period, symbol_period)


@dataclass
class CorrelatorPair:
    """Outputs of the two tone correlators for one symbol."""

    y1: complex | np.ndarray
    y2: complex | np.ndarray


def modulate(s, tones: TonePair, sample_rate: float) -> np.ndarray:
    """Sampled baseband waveform, one row per transmit element.

    Element n carries s_n e^{j w1 t} + (1 - s_n) e^{j w2 t} on a uniform
    grid over one symbol.  Requires an integer number of samples per
    symbol (>= 8) and integer cycles of both tones so the correlator sums
    are exact.
    """
    n_samples = sample_rate * tones.symbol_period
    if abs(n_samples - round(n_samples)) > 1e-9 or round(n_samples) < 8:
        raise ValueError("sample_rate * symbol_period must be an integer >= 8")
    n_samples = int(round(n_samples))
    for f in (tones.f1, tones.f2):
        cycles = f * tones.symbol_period
        if abs(cycles - round(cycles)) > 1e-9:
            raise ValueError("each tone must complete integer cycles per symbol")
    t = np.arange(n_samples) / sample_rate
    s = np.asarray(s)
    tone1 = np.exp(2j * np.pi * tones.f1 * t)
    tone2 = np.exp(2j * np.pi * tones.f2 * t)
    return np.outer(s, tone1) + np.outer(1 - s, tone2)


def correlate(samples: np.ndarray, tone_freq: float, symbol_period: float):
    """Riemann-sum correlator (1/T_s) * integral of y(t) e^{-j w t} dt over
    one symbol; exact for integer-cycle tones on the sample grid."""
    samples = np.asarray(samples)
    n = samples.shape[-1]
    t = np.arange(n) * (symbol_period / n)
    ref = np.exp(-2j * np.pi * tone_freq * t)
    return (samples * ref).mean(axis=-1)


def apply_doppler(x, nu: float):
    """Multiply samples or a correlator pair by the unit-modulus e^{j nu}."""
    rot = np.exp(1j * nu)
    if isinstance(x, CorrelatorPair):
        return CorrelatorPair(x.y1 * rot, x.y2 * rot)
    return np.asarray(x) * rot


def magnitude_difference(pair: CorrelatorPair):
    """Real observation |y1|^2 - |y2|^2.

    Invariant to a common phase rotation of the pair; in the noiseless
    complementary case the result equals the real equivalent channel row
    times the bipolar symbol.
    """
    return np.abs(pair.y1) ** 2 - np.abs(pair.y2) ** 2


def equivalent_noise(h: np.ndarray, s, n1: complex, n2: complex) -> float:
    """Post-detection noise 2*Re(hs n1*) + |n1|^2 - 2*Re(h(1-s) n2*) - |n2|^2.

    Equals magnitude_difference(noisy) - magnitude_difference(noiseless)
    exactly for the same branch noise draws.
    """
    s = np.asarray(s)
    c1 = np.dot(np.asarray(h), s)
    c2 = np.dot(np.asarray(h), 1 - s)
    return float(2.0 * np.real(c1 * np.conj(n1)) + abs(n1) ** 2
                 - 2.0 * np.real(c2 * np.conj(n2)) - abs(n2) ** 2)


def branch_outputs(h: np.ndarray, s, nu: float = 0.0,
                   noise: tuple = (0.0, 0.0)) -> CorrelatorPair:
    """Noiseless-channel correlator pair e^{j nu} * (h s, h (1 - s)) plus
    per-branch additive noise; convenience for link-level tests."""
    s = np.asarray(s)
    rot = np.exp(1j * nu)
    h = np.asarray(h)
    return CorrelatorPair(rot * np.dot(h, s) + noise[0],
                          rot * np.dot(h, 1 - s) + noise[1])
