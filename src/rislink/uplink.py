"""Improved uplink linear model: per-antenna magnitude observations, the
antenna-averaged scalar, its per-user gain decomposition, pilot estimation,
and decision-region detection on the scalar observation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel


@dataclass
class UplinkChannelSet:
    """Cascaded user-to-array rows c = a + b + o.

    ``a`` is the pure-LoS term, ``b`` collects the two single-NLoS cross
    terms, and ``o`` is the double-NLoS term (all Rician weights and path
    gains applied), so the three parts sum to the cascade exactly.
    """

    a: np.ndarray
    b: np.ndarray
    o: np.ndarray

    def __post_init__(self):
        if not (self.a.shape == self.b.shape == self.o.shape):
            raise ValueError("component shapes must agree")

    @property
    def c(self) -> np.ndarray:
        return self.a + self.b + self.o

    @property
    def n_antennas(self) -> int:
        return self.a.shape[0]

    @property
    def n_users(self) -> int:
        return self.a.shape[1]


@dataclass
class DecisionRegions:
    """Midpoint partition of the real line separating sorted noiseless means.

    ``boundaries`` are the ascending region edges; ``representatives[r]`` is
    the lowest constellation index whose mean falls in region r, and
    ``symbol_region[i]`` maps constellation index i to its region.  Points
    that share a region are indistinguishable, so the partition is
    degenerate when there are fewer regions than points.
    """

    boundaries: np.ndarray
    representatives: np.ndarray
    symbol_region: np.ndarray

    @property
    def degenerate(self) -> bool:
        return self.representatives.size < self.symbol_region.size

    def locate(self, xi) -> np.ndarray | int:
        """Region index with d_{r-1} <= xi < d_r (boundary goes up)."""
        idx = np.searchsorted(self.boundaries, xi, side="right")
        return idx if np.ndim(xi) else int(idx)

    def intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Per constellation index i, the half-open [lo_i, hi_i) of the
        observations ``region_detect`` maps to i: its region's interval when
        i is the region's representative, else the empty [+inf, -inf)."""
        edges = np.concatenate([[-np.inf], self.boundaries, [np.inf]])
        region = self.symbol_region
        own = self.representatives[region] == np.arange(region.size)
        return (np.where(own, edges[region], np.inf),
                np.where(own, edges[region + 1], -np.inf))


def antenna_observation(chan_row: np.ndarray, s, noise: tuple = (0.0, 0.0)):
    """Per-antenna observation |c s + v1|^2 - |c (1 - s) + v2|^2 for one
    cascaded row and 0/1 symbol s; equals the linear form
    Re(c* 1 c) (2s - 1) without noise."""
    c = np.asarray(chan_row)
    s = np.asarray(s)
    return (np.abs(c @ s + noise[0]) ** 2
            - np.abs(c @ (1 - s) + noise[1]) ** 2)


def _pair_gain(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    # (1/N_t) sum_m Re(conj(sum_j u_mj) * w_mn), vector over n
    return np.real(np.conj(u.sum(axis=1))[:, None] * w).mean(axis=0)


def exact_linear_gains(chans: UplinkChannelSet) -> np.ndarray:
    """Per-user gains of the averaged observation from the channel
    components, as parts-first (4, n_users) rows grouped by NLoS order.

    Part 0 uses only the LoS term; part 1 the LoS/single-NLoS crosses; part 2
    the terms quadratic in one NLoS factor; part 3 everything of higher NLoS
    order, which vanishes with many antennas since the NLoS mean is zero.
    The parts sum (over axis 0) to the exact gains: the noiseless averaged
    observation equals gains.sum(axis=0) . x_bar for every bipolar symbol.
    """
    a, b, o = chans.a, chans.b, chans.o
    xi1 = _pair_gain(a, a)
    xi2 = _pair_gain(a, b) + _pair_gain(b, a)
    xi3 = _pair_gain(b, b) + _pair_gain(a, o) + _pair_gain(o, a)
    xi4 = _pair_gain(b, o) + _pair_gain(o, b) + _pair_gain(o, o)
    return np.stack([xi1, xi2, xi3, xi4])


def pilot_gain_estimate(chans: UplinkChannelSet, user: int,
                        noise_sigma2: float = 0.0,
                        rng: np.random.Generator | None = None,
                        repeats: int = 1) -> float:
    """Estimate one user's gain from the half-amplitude pilot pattern.

    The probed user transmits amplitude 1 and every other user 1/2, so the
    interferers' bipolar equivalents vanish and the noiseless averaged
    observation equals the probed gain exactly.  The pilot amplitudes live
    outside the binary data alphabet; complements are still 1 - s.

    With noise, each of the ``repeats`` antenna averages is drawn exactly in
    law by ``channel.power_difference`` at n_t = N_t: circular noise sees
    the branch amplitudes c s and c (1 - s) only through their norms.
    """
    c = chans.c
    n_t, n_k = c.shape
    s = np.full(n_k, 0.5)
    s[user] = 1.0
    cs = c @ s
    cbar = c @ (1.0 - s)
    if noise_sigma2 == 0.0 or rng is None:
        z = np.abs(cs) ** 2 - np.abs(cbar) ** 2
        return float(z.mean())
    z = channel.power_difference(rng, np.linalg.norm(cs), np.linalg.norm(cbar),
                                 noise_sigma2, (repeats,), n_t=n_t)
    return float((z / n_t).mean())


def build_regions(total: np.ndarray, constellation: np.ndarray) -> DecisionRegions:
    """Decision regions from the noiseless means ``constellation @ total`` of
    every constellation point, for the (n_users,) per-user gains ``total``.

    Means are sorted ascending (stably), and a new region starts wherever two
    consecutive sorted means differ by more than ``tol``, 1e-12 of their
    range (at least 1e-12).  A region's representative is its lowest
    constellation index; boundaries sit at midpoints of the lowest means of
    consecutive regions.  Ties chain: three or more means each within
    ``tol`` of the next form one region even when the chain spans more than
    ``tol``.
    """
    means = np.asarray(constellation, dtype=float) @ np.asarray(total)
    order = np.argsort(means, kind="stable")
    sorted_means = means[order]
    tol = 1e-12 * max(1.0, float(np.ptp(means)))
    first = np.concatenate([[True], np.diff(sorted_means) > tol])  # opens a region
    starts = np.flatnonzero(first)
    symbol_region = np.empty(means.size, dtype=int)
    symbol_region[order] = np.cumsum(first) - 1
    lowest = sorted_means[starts]
    return DecisionRegions(boundaries=0.5 * (lowest[:-1] + lowest[1:]),
                           representatives=np.minimum.reduceat(order, starts),
                           symbol_region=symbol_region)


def region_detect(xi, regions: DecisionRegions):
    """Symbol index for the region containing xi (half-open intervals with
    boundary values assigned upward); scalar in, scalar out."""
    idx = regions.locate(xi)
    return regions.representatives[idx] if np.ndim(xi) else int(regions.representatives[idx])
