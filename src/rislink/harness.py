"""Seeded Monte Carlo experiment harness with CSV export.

An experiment's x axis is a ``Sweep`` (``SWEEPS``, ``ARRAY_SWEEP``), and
``Sweep.points`` makes each grid value one validated config; an integer key
takes only integral values.  Grid values have one printed form, ``_fmt``'s 9
significant digits with -0 as 0, which names the CSV x and pdf-fit's
columns, and ``_distinct_grid`` refuses two values that print alike.  Every
experiment derives per-chunk random streams from (seed, experiment tag, grid
point, chunk index), so results are bit-identical regardless of the worker
count, and all schemes inside one run see exactly the same channel draws
(common random numbers).  Downlink and uplink error-rate points share one
stopping rule: fixed-size batches until every series meets the error target
or the trial ceiling is met, never fewer than the configured minimum number
of trials.  A run uses one worker pool.

No downlink frame takes an SVD outside ``downlink.zf_precoder``: training
divides by the Hadamard order in closed form, and the 4-QAM baseline
zero-forces each block through its N_k x N_k Gram matrix, drawn with the
cross product it needs from N_k x N_k statistics of the estimate error.

Importing the module loads no scipy.  Only pdf-fit uses it, and loads
``scipy.special`` when it runs (``ndtr`` here, ``gammaln`` and ``ive`` in
the series): at module level that import was about half of every other
experiment's start-up time and 17 MB of its peak memory.  ``run_pdf_fit``
writes the Gaussian density and CDF out with the arithmetic
``scipy.stats.norm`` runs, because importing ``scipy.stats`` (and the
``scipy.linalg`` it loads) took most of a CLI run's start-up time and about
40 MB.  ``harness.stats`` still resolves: a module ``__getattr__`` imports
``scipy.stats`` the first time the name is asked for, and nothing in the
package asks for it.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import analysis, channel, downlink, uplink
from .config import _PARSERS, ConfigError, ScenarioConfig, check_db
from .scenario import build_downlink_frame, build_uplink_instance, frame_timeline, stream

# fixed batch geometry so adaptive stopping is scheduling-independent
FRAMES_PER_TASK = 2
TASKS_PER_BATCH = 8
UPLINK_TASKS_PER_BATCH = 4  # of mc_symbol_chunk symbols each
SNR_DRAWS_PER_TASK = 25  # output-snr channel draws

_TAG_DOWNLINK = 11
_TAG_OUTPUT_SNR = 12
_TAG_UPLINK = 13
_TAG_PDF = 14

Z95 = 1.959963984540054  # two-sided 95% normal quantile


def t95(dof: int) -> float:
    """Two-sided 95% Student t quantile t_{0.975, dof} for an integer dof >= 1.

    Newton's method from Z95 on the closed-form CDF of an integer dof
    (Abramowitz and Stegun 26.7.3-4).  The CDF is concave above zero, so
    the iterates rise to the root from below.  Agrees with
    ``scipy.stats.t.ppf(0.975, dof)`` to 1e-9 relative, with numpy and math
    only."""
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    log_pdf_norm = (math.lgamma((dof + 1) / 2.0) - math.lgamma(dof / 2.0)
                    - 0.5 * math.log(dof * math.pi))
    t = Z95
    for _ in range(100):
        pdf = math.exp(log_pdf_norm - (dof + 1) / 2.0 * math.log1p(t * t / dof))
        # P(|T| <= t) = 2 F(t) - 1 against 0.95
        step = (_t_central_mass(t, dof) - 0.95) / (2.0 * pdf)
        t -= step
        if abs(step) <= 4.0 * np.finfo(float).eps * t:
            break
    return t


def _t_central_mass(t: float, dof: int) -> float:
    """P(|T| <= t) for Student's T on an integer dof, as the finite series
    in cos^2 of theta = atan(t / sqrt(dof))."""
    cos2 = dof / (dof + t * t)
    sin = t / math.sqrt(dof + t * t)
    if dof % 2 == 0:
        k = np.arange(1, dof // 2)
        return sin * (1.0 + np.cumprod((2 * k - 1) / (2 * k) * cos2).sum())
    theta = math.atan(t / math.sqrt(dof))
    if dof == 1:
        return 2.0 / math.pi * theta
    k = np.arange(1, (dof - 1) // 2)
    series = 1.0 + np.cumprod(2 * k / (2 * k + 1) * cos2).sum()
    return 2.0 / math.pi * (theta + sin * math.sqrt(cos2) * series)


def __getattr__(name):
    # Only because perfbench/spans.py wraps ``harness.stats.kstest`` by name;
    # goes away with that span in the next change to the benchmark.
    if name == "stats":
        import scipy.stats
        return scipy.stats
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class Series:
    values: np.ndarray
    half_widths: np.ndarray
    trials: np.ndarray


@dataclass
class CurveResult:
    """One experiment curve: shared x grid, named series with 95% confidence
    half-widths and per-point trial counts, plus auditable header notes."""

    x_name: str
    x_values: np.ndarray
    series: dict[str, Series] = field(default_factory=dict)
    notes: tuple = ()

    def add(self, name, values, half_widths, trials):
        self.series[name] = Series(np.asarray(values, dtype=float),
                                   np.asarray(half_widths, dtype=float),
                                   np.asarray(trials, dtype=np.int64))


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def export_csv(result: CurveResult, path) -> None:
    """Write a CurveResult deterministically: note lines prefixed with '#',
    a mandatory header row, one row per grid point, 9-significant-digit
    floats with '.' decimals."""
    lines = [f"# {note}" for note in result.notes]
    header = [result.x_name]
    for name in result.series:
        header += [name, f"{name}_halfwidth", f"{name}_trials"]
    lines.append(",".join(header))
    for i, x in enumerate(result.x_values):
        row = [_fmt(x)]
        for s in result.series.values():
            row += [_fmt(s.values[i]), _fmt(s.half_widths[i]), str(int(s.trials[i]))]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_curve_csv(path) -> CurveResult:
    """Parse a file written by export_csv back into a CurveResult."""
    notes, header, rows = [], None, []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                notes.append(line[2:] if line.startswith("# ") else line[1:])
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: missing header row")
    data = np.asarray(rows, dtype=float) if rows else np.empty((0, len(header)))
    result = CurveResult(x_name=header[0], x_values=data[:, 0] if rows else np.array([]),
                         notes=tuple(notes))
    for j in range(1, len(header), 3):
        name = header[j]
        result.add(name, data[:, j] if rows else [],
                   data[:, j + 1] if rows else [],
                   data[:, j + 2].astype(np.int64) if rows else [])
    return result


@contextmanager
def _task_map(workers: int, tasks_per_map: int):
    """The ``map`` a run sends its tasks through: the builtin at one worker,
    otherwise one process pool's, open for the whole run.  No ``map`` call
    gets more than ``tasks_per_map`` tasks, so the pool has no more workers
    than that: a pool forks all its workers at the first submit."""
    workers = min(workers, tasks_per_map)
    if workers <= 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def _monte_carlo(task_map, task, args, unit, tasks_per_batch, min_units,
                 ceiling, min_errors):
    """Run ``task(args + (lo, hi))`` over consecutive ranges of ``unit``
    units, ``tasks_per_batch`` per batch, summing the partials ``{series:
    (errors, trials, ...)}`` term by term; stop at the ceiling (never below
    ``min_units``) or once past ``min_units`` with ``min_errors`` in every
    series.  Returns the units run and ``{series: [errors, trials, ...]}``."""
    ceiling = max(min_units, ceiling)
    totals = {}
    done = 0
    while True:
        hi = min(done + unit * tasks_per_batch, ceiling)
        tasks = [args + (lo, min(lo + unit, hi)) for lo in range(done, hi, unit)]
        for partial in task_map(task, tasks):
            for name, terms in partial.items():
                acc = totals.setdefault(name, [0] * len(terms))
                for k, term in enumerate(terms):
                    acc[k] += term
        done = hi
        if done >= ceiling or (done >= min_units and
                               all(t[0] >= min_errors for t in totals.values())):
            return done, totals


def _rate_halfwidth(errors: int, total: int) -> float:
    """95% half-width of a rate over independent trials: the Wilson score
    interval's larger distance from p = errors / total to either end.  It
    is Z95^2 / (total + Z95^2) at zero or at all errors, where the Wald
    interval has width 0, and approaches the Wald half-width as total grows."""
    p = errors / total
    z2 = Z95 * Z95 / total
    center = (p + z2 / 2.0) / (1.0 + z2)
    spread = Z95 * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total)) / (1.0 + z2)
    return spread + abs(center - p)


def _frame_halfwidth(errors: int, bits: int, sq_errors: int, frames: int) -> float:
    """95% half-width of a BER over ``frames`` i.i.d. frames of equal bit
    count, t95(F - 1) sd(per-frame BER) / sqrt(F), from the sums of the per-frame
    error counts and of their squares.  The bits of a frame share its
    channel and training, so the frame, not the bit, is the independent
    trial.  NaN below two frames, which give no sample sd."""
    if frames < 2:
        return math.nan
    # F (F - 1) times the sample variance of the counts, in exact integers
    spread = frames * sq_errors - errors * errors
    return t95(frames - 1) * math.sqrt(spread / (frames - 1)) / bits


# --------------------------------------------------------------------------
# downlink BER
# --------------------------------------------------------------------------

def branch_noise_sigma2(cfg: ScenarioConfig, bits: int = 1) -> float:
    """Per-branch complex noise variance 10^(-EbN0/10) / bits from the
    config's Eb/N0, for a unit transmit budget per symbol carrying ``bits``
    bits over a unit-normalized channel; a configured noise_sigma2
    overrides the mapping.

    Downlink schemes pass their bits per symbol from SCHEMES: N_k (precoded,
    1 bit/user), N_t (joint, 1 bit/antenna), 2*N_k (4-QAM).  The uplink
    carries one bit per user at one antenna, so bits = 1.
    """
    if cfg.noise_sigma2 is not None:
        return float(cfg.noise_sigma2)
    return 10.0 ** (-cfg.ebn0_db / 10.0) / bits


def qam_demodulate(y_eq: np.ndarray) -> np.ndarray:
    """Gray-mapped 4-QAM bit decisions from equalized samples: bit 0 from the
    real axis, bit 1 from the imaginary axis (negative half-plane -> 1)."""
    y = np.asarray(y_eq)
    return np.stack([(y.real < 0), (y.imag < 0)], axis=-1).astype(int)


def qam_modulate(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped unit-power 4-QAM symbols from bit pairs (..., 2)."""
    b = np.asarray(bits)
    return ((1 - 2 * b[..., 0]) + 1j * (1 - 2 * b[..., 1])) / np.sqrt(2.0)


def _train(frame, cfg, scale, sigma2, rng_noise):
    """LS estimate of the real equivalent channel from Hadamard pilots sent
    at amplitude ``scale`` at the frame-start channel; the estimate is
    scale^2 * H_bar.  The pilot Gram matrix is exactly P * I for the P pilots
    of ``frame_timeline``, a power of two, so z_t X^T / P equals
    ``downlink.ls_estimate`` bit for bit without its SVD and solve."""
    pilots = downlink.hadamard_pilots(cfg.n_bs_antennas)
    s_t = (1.0 + pilots) / 2.0
    c1 = scale * (frame.h_pilot @ s_t)
    c2 = scale * (frame.h_pilot @ (1.0 - s_t))
    z_t = channel.power_difference(rng_noise, c1, c2, sigma2)
    return (z_t @ pilots.T) / frame_timeline(cfg)[0]


def _precoded_link(w, rho, bits, sigma2, rng):
    """Branch amplitudes a1, a2 of float bit rows sent through the real
    precoded link ``w`` (..., N_k, N_k) at amplitude gain rho, and the
    magnitude-difference observation z under complex branch noise."""
    w_t = np.swapaxes(w, -1, -2)
    amp = np.sqrt(rho)
    a1 = amp * bits @ w_t
    a2 = amp * (1.0 - bits) @ w_t
    return a1, a2, channel.power_difference(rng, a1, a2, sigma2)


def _sim_linear_precoded(frame, cfg, sigma2, rng):
    rng_noise = rng(3)
    pre = downlink.zf_precoder(_train(frame, cfg, 1.0, sigma2, rng_noise))
    bits = rng(4).integers(0, 2, size=(cfg.blocks_per_frame, cfg.symbols_per_block,
                                       cfg.n_users))
    # true per-block real equivalent channel through the stale precoder
    w = downlink.equivalent_channel(frame.h_blocks) @ pre.p  # (B, N_k, N_k)
    _, _, z = _precoded_link(w, pre.rho, bits.astype(float), sigma2, rng_noise)
    return int(np.count_nonzero((z >= 0) != bits)), bits.size


def _sim_linear_joint(frame, cfg, sigma2, rng):
    n_t = cfg.n_bs_antennas
    blocks, syms = cfg.blocks_per_frame, cfg.symbols_per_block
    scale = 1.0 / np.sqrt(n_t)  # unit average transmit power over both tones
    rng_noise = rng(3)
    # LS recovers scale^2 * H_bar, consistent with the scaled data symbols
    h_hat = _train(frame, cfg, scale, sigma2, rng_noise)

    bits = rng(4).integers(0, 2, size=(blocks, syms, n_t))
    x = np.swapaxes(bits, -1, -2).astype(float)  # (B, N_t, S)
    c1 = scale * (frame.h_blocks @ x)            # (B, N_k, S)
    c2 = scale * (frame.h_blocks @ (1.0 - x))
    z = channel.power_difference(rng_noise, c1, c2, sigma2)
    # one detection call for the frame's symbols, block-major
    s = downlink.joint_detect(np.swapaxes(z, 0, 1).reshape(cfg.n_users, -1), h_hat)
    return int(np.count_nonzero(s != bits.reshape(-1, n_t))), bits.size


def _estimate_error(rng, n_k, n_t, sigma2, blocks):
    """The part (A, T) of a CN(0, sigma2) estimate error E (N_k x N_t) that
    the QAM baseline reads, for ``blocks`` blocks at once.

    Let H^H = Q R with Q (N_t x N_k) orthonormal, and V (N_t x m) orthonormal
    and orthogonal to Q, m = min(N_k, N_t - N_k).  Then E = A Q^H + T V^H in
    law: A = E Q is CN(0, sigma2)^{N_k x N_k}, and T is the lower-trapezoidal
    Bartlett factor of the complex Wishart matrix left by the rest of E
    (Goodman, Ann. Math. Statist. 34(1), 1963).  Column j of T has a real
    diagonal entry with |T_jj|^2 ~ (sigma2/2) chi^2 on 2 (N_t - N_k - j)
    degrees of freedom and CN(0, sigma2) entries below it.  A is drawn
    first, then the chi-squares, then the entries below the diagonal; no draw
    is made at sigma2 == 0.  Needs N_t >= N_k."""
    m = min(n_k, n_t - n_k)
    a = channel.complex_normal(rng, (blocks, n_k, n_k), sigma2)
    t = np.zeros((blocks, n_k, m), dtype=complex)
    if sigma2 != 0.0:
        diag = np.arange(m)
        t[:, diag, diag] = np.sqrt(sigma2 / 2.0 * rng.chisquare(
            2 * (n_t - n_k - diag), size=(blocks, m)))
        below = np.tril_indices(n_k, -1, m)
        t[:, below[0], below[1]] = channel.complex_normal(rng, (blocks, below[0].size),
                                                          sigma2)
    return a, t


def _estimate_statistics(h, rot, sigma2, rng):
    """The Gram G = H_est H_est^H and the cross product H H_est^H of the
    estimates H_est = rot H + E of a stack of channels ``h`` (B, N_k, N_t),
    with ``rot`` (B,) unit rotations and E ~ CN(0, sigma2) i.i.d.

    Both are drawn exactly from N_k x N_k statistics, never from E itself:
    with H^H = Q R and (A, T) from ``_estimate_error``, H E^H = R^H A^H and
    E E^H = A A^H + T T^H, so G = R^H R + rot H E^H + conj(rot) (H E^H)^H
    + E E^H and H H_est^H = conj(rot) R^H R + H E^H.  A QR factor, unlike a
    Cholesky factor of H H^H, exists for a rank-deficient H too."""
    r_h = np.linalg.qr(h.mT.conj(), mode="r").mT.conj()  # R^H, (B, N_k, N_k)
    a, t = _estimate_error(rng, h.shape[-2], h.shape[-1], sigma2, h.shape[0])
    rot = rot[:, None, None]
    hh = r_h @ r_h.mT.conj()                     # H H^H
    he = r_h @ a.mT.conj()                       # H E^H
    gram = hh + rot * he + np.conj(rot) * he.mT.conj() + a @ a.mT.conj() + t @ t.mT.conj()
    return gram, np.conj(rot) * hh + he


def _sim_qam_baseline(frame, cfg, sigma2, rng):
    """4-QAM with a fresh noisy, Doppler-rotated estimate H_est = r H + E per
    block, E ~ CN(0, sigma2 / pilots) for the pilots training sends, and zero
    forcing on it through the N_k x N_k Gram G = H_est H_est^H: the precoder
    H_est^H G^-1 / sqrt(tr G^-1) has unit power, the true channel sees
    (H H_est^H) G^-1 / sqrt(tr G^-1), and the receiver divides by the
    diagonal of H_est times the same precoder.  The scheme reads H_est only
    through G and H H_est^H, which ``_estimate_statistics`` draws.  A block
    whose Gram has lambda_min <= RANK_RTOL * lambda_max, or N_t < N_k, raises
    RankDeficientChannel."""
    n_k, n_t = cfg.n_users, cfg.n_bs_antennas
    if n_t < n_k:
        raise downlink.RankDeficientChannel("baseline estimate is rank deficient")
    blocks, syms = cfg.blocks_per_frame, cfg.symbols_per_block
    pilots, t0 = frame_timeline(cfg)  # t0: block starts, in symbols
    rng_noise, rng_est = rng(3), rng(5)

    bits = rng(4).integers(0, 2, size=(blocks, syms, n_k, 2))
    x = qam_modulate(bits)  # (B, S, N_k)
    dnu = 2.0 * np.pi * cfg.doppler_max * cfg.symbol_period
    rot = np.exp(1j * dnu * (t0[:, None] + np.arange(syms)))  # (B, S)
    # a fresh noisy estimate per block, rotated as the block's first symbol
    gram, cross = _estimate_statistics(frame.h_blocks, rot[:, 0], sigma2 / pilots, rng_est)
    lam = np.linalg.eigvalsh(gram)               # ascending, per block
    if np.any(lam[:, 0] <= downlink.RANK_RTOL * lam[:, -1]):
        raise downlink.RankDeficientChannel("baseline estimate is rank deficient")
    g_inv = np.linalg.inv(gram)
    norm = 1.0 / np.sqrt(np.trace(g_inv, axis1=-2, axis2=-1).real)[:, None, None]
    composite = cross @ g_inv * norm                           # (B, N_k, N_k)
    gain = np.diagonal(gram @ g_inv * norm, axis1=-2, axis2=-1)  # receiver-side
    y = rot[:, :, None] * (x @ composite.mT) \
        + channel.complex_normal(rng_noise, (blocks, syms, n_k), sigma2)
    detected = qam_demodulate(y / gain[:, None, :])
    return int(np.count_nonzero(detected != bits)), bits.size


@dataclass(frozen=True)
class Scheme:
    """One downlink scheme: its frame simulator ``simulate(frame, cfg,
    sigma2, rng) -> (bit_errors, bits)``, where ``rng(sub)`` is the scheme's
    own stream ``sub`` of the frame (3 noise, 4 data, 5 estimation); its
    bits per symbol; its stream id; and its label in the noise-map note."""

    simulate: Callable
    bits: Callable[[ScenarioConfig], int]
    stream_id: int
    label: str


SCHEMES = {
    "linear_precoded": Scheme(_sim_linear_precoded, lambda cfg: cfg.n_users,
                              1, "precoded: N_k"),
    "linear_joint": Scheme(_sim_linear_joint, lambda cfg: cfg.n_bs_antennas,
                           2, "joint: N_t"),
    "qam_ml_baseline": Scheme(_sim_qam_baseline, lambda cfg: 2 * cfg.n_users,
                              3, "qam: 2N_k"),
}


def _distinct_grid(grid) -> tuple:
    """``grid`` as floats, -0 as 0, or a ``ConfigError`` if two values print
    as one ``_fmt`` form: two CSV rows or columns could not be told apart,
    and a repeated value would run its point twice."""
    grid = tuple(float(g) + 0.0 for g in grid)  # + 0.0 makes -0 print as 0
    xs = [_fmt(g) for g in grid]
    repeated = list(dict.fromkeys(x for x in xs if xs.count(x) > 1))
    if repeated:
        raise ConfigError("grid values must be distinct, got %s more than once"
                          % ", ".join(repeated))
    return grid


@dataclass(frozen=True)
class Sweep:
    """One experiment's x axis: its CSV x name, the config field a grid
    value sets, and its default grid.  ``points`` is the one way a grid
    becomes point configs."""

    x_name: str
    field: str
    default_grid: tuple

    def points(self, cfg: ScenarioConfig, grid=None) -> tuple[tuple, list]:
        """(grid, configs): the grid (the default when None) through
        ``_distinct_grid``, and one validated ``cfg.replace`` per value.  A
        field annotated ``int`` takes only integral values, cast to int."""
        grid = _distinct_grid(self.default_grid if grid is None else grid)
        integral = _PARSERS[self.field] is int  # the annotation, as files are parsed
        if integral and not all(g.is_integer() for g in grid):
            raise ConfigError("%s values must be integers, got %s"
                              % (self.field, ", ".join(map(_fmt, grid))), key=self.field)
        return grid, [cfg.replace(**{self.field: int(g) if integral else g}) for g in grid]


SWEEPS = {
    "speed": Sweep("speed_mps", "speed", (10, 30, 50)),
    "ebn0": Sweep("ebn0_db", "ebn0_db", (0, 4, 8, 12, 16)),
    "rician_k": Sweep("rician_k", "rician_factor", (1, 10, 100)),
}
ARRAY_SWEEP = Sweep("n_bs_antennas", "n_bs_antennas", (32, 64, 128))  # output-snr's axis


def _downlink_task(args):
    """Simulate a contiguous frame range of one grid point's config for every
    scheme on common channel draws; returns {scheme: [bit_errors, bits, sum
    of squared per-frame bit errors]}."""
    cfg, schemes, sigma2s, point_idx, frame_lo, frame_hi = args
    totals = {s: [0, 0, 0] for s in schemes}
    for frame_idx in range(frame_lo, frame_hi):
        rng_geo = stream(cfg.seed, _TAG_DOWNLINK, 1, point_idx, frame_idx)
        rng_fade = stream(cfg.seed, _TAG_DOWNLINK, 2, point_idx, frame_idx)
        frame = build_downlink_frame(cfg, rng_geo, rng_fade)
        for name in schemes:
            scheme = SCHEMES[name]

            def rng(sub):
                return stream(cfg.seed, _TAG_DOWNLINK, sub, point_idx, frame_idx,
                              scheme.stream_id)

            err, bits = scheme.simulate(frame, cfg, sigma2s[name], rng)
            totals[name][0] += err
            totals[name][1] += bits
            totals[name][2] += err * err
    return totals


def run_downlink_ber(cfg: ScenarioConfig, schemes, sweep: str, grid=None,
                     workers: int = 1) -> CurveResult:
    """Monte Carlo downlink BER versus one ``SWEEPS`` axis: speed, Eb/N0, or
    the Rician factor of both hops.

    One trial is one transmission block; frames of ``blocks_per_frame``
    consecutive trials share a channel and training state.  Points stop at
    ``mc_min_errors`` bit errors per scheme or the trial ceiling, never below
    ``mc_min_trials`` trials.  Frames are i.i.d., so the half-widths are
    ``_frame_halfwidth``'s: from the spread of the per-frame BER, not a
    binomial over bits.
    """
    if isinstance(schemes, str):
        schemes = [schemes]
    schemes = list(dict.fromkeys(schemes))  # a scheme named twice runs once
    for s in schemes:
        if s not in SCHEMES:
            raise ValueError(f"unknown scheme {s!r}")
    if sweep not in SWEEPS:
        raise ValueError(f"unknown sweep axis {sweep!r}")
    if "linear_joint" in schemes:
        downlink.check_search_size(cfg.n_bs_antennas)  # before any frame is built
    axis = SWEEPS[sweep]
    grid, points = axis.points(cfg, grid)

    bpf = cfg.blocks_per_frame
    min_frames = math.ceil(cfg.mc_min_trials / bpf)
    max_frames = math.ceil(cfg.mc_trial_ceiling / bpf)
    runs = []  # (frames, {scheme: [bit_errors, bits, squares]}) per point
    with _task_map(workers, TASKS_PER_BATCH) as task_map:
        for pi, point in enumerate(points):
            sigma2s = {s: branch_noise_sigma2(point, SCHEMES[s].bits(point))
                       for s in schemes}
            runs.append(_monte_carlo(
                task_map, _downlink_task, (point, tuple(schemes), sigma2s, pi),
                FRAMES_PER_TASK, TASKS_PER_BATCH, min_frames, max_frames,
                cfg.mc_min_errors))

    result = CurveResult(x_name=axis.x_name, x_values=np.asarray(grid))
    result.notes = (
        "experiment=downlink-ber sweep=%s schemes=%s" % (sweep, "+".join(schemes)),
        "seed=%d trial=block frame=%d blocks x %d symbols + %d pilots"
        % (cfg.seed, bpf, cfg.symbols_per_block, frame_timeline(cfg)[0]),
        "noise map: sigma2 = 10^(-EbN0/10)/bits_per_symbol, bits = {%s}; channel "
        "rows unit-normalized at frame start%s"
        % (", ".join("%s=%d" % (sc.label, sc.bits(cfg)) for sc in SCHEMES.values()),
           "; sigma2 override=%g" % cfg.noise_sigma2 if cfg.noise_sigma2 is not None else ""),
    )
    for s in schemes:
        result.add(s, [totals[s][0] / totals[s][1] for _, totals in runs],
                   [_frame_halfwidth(*totals[s], frames) for frames, totals in runs],
                   [frames * bpf for frames, _ in runs])
    return result


# --------------------------------------------------------------------------
# precoded output SNR
# --------------------------------------------------------------------------

def _output_snr_task(args):
    """(simulated, exact) output SNR of each draw in [draw_lo, draw_hi): the
    sampled link's signal over noise power, and ``downlink.output_snr_exact``
    at the draw's ZF gain."""
    cfg, point_idx, draw_lo, draw_hi, sigma2, n_sym = args
    n_k, n_t = cfg.n_users, cfg.n_bs_antennas
    etas = []
    for d in range(draw_lo, draw_hi):
        rng = stream(cfg.seed, _TAG_OUTPUT_SNR, point_idx, d)
        h_bar = rng.standard_normal((n_k, n_t))
        pre = downlink.zf_precoder(h_bar)
        bits = rng.integers(0, 2, size=(n_sym, n_k)).astype(float)
        a1, a2, z_noisy = _precoded_link(h_bar @ pre.p, pre.rho, bits, sigma2, rng)
        z_clean = a1 ** 2 - a2 ** 2
        noise = z_noisy - z_clean
        etas.append((np.mean(z_clean ** 2) / np.mean(noise ** 2),
                     downlink.output_snr_exact(pre.rho, sigma2)))
    return etas


def run_output_snr(cfg: ScenarioConfig, nt_grid=None, workers: int = 1) -> CurveResult:
    """Simulated precoded output SNR (signal power over post-detection noise
    power) against the large-array closed form and the exact law, per
    transmit-array size.  ``exact`` is the mean over the same channel draws
    of ``downlink.output_snr_exact`` at each draw's channel."""
    nt_grid, points = ARRAY_SWEEP.points(cfg, nt_grid)
    sigma2 = cfg.noise_sigma2 if cfg.noise_sigma2 is not None else 0.01
    if sigma2 <= 0:
        raise ConfigError("output SNR experiment needs sigma2 > 0", key="noise_sigma2")
    for point in points:
        if point.n_bs_antennas <= cfg.n_users + 1:
            raise ConfigError(f"every grid point must satisfy n_t > n_k + 1 = "
                              f"{cfg.n_users + 1}, got {point.n_bs_antennas}")
    draws, n_sym = cfg.snr_channel_draws, 256
    if draws < 2:
        raise ConfigError("output SNR experiment needs at least 2 channel draws "
                          "for its confidence half-width", key="snr_channel_draws")

    result = CurveResult(x_name=ARRAY_SWEEP.x_name, x_values=np.asarray(nt_grid))
    sim_vals, sim_hw, predicted, exact = [], [], [], []
    with _task_map(workers, math.ceil(draws / SNR_DRAWS_PER_TASK)) as task_map:
        for pi, point in enumerate(points):
            tasks = [(point, pi, lo, min(lo + SNR_DRAWS_PER_TASK, draws), sigma2, n_sym)
                     for lo in range(0, draws, SNR_DRAWS_PER_TASK)]
            etas, laws = np.asarray([e for part in task_map(_output_snr_task, tasks)
                                     for e in part]).T
            sim_vals.append(etas.mean())
            sim_hw.append(t95(etas.size - 1) * etas.std(ddof=1) / np.sqrt(etas.size))
            predicted.append(downlink.output_snr_asymptotic(point.n_bs_antennas,
                                                            cfg.n_users, sigma2))
            exact.append(laws.mean())
    result.notes = ("experiment=output-snr seed=%d sigma2=%g draws=%d users=%d"
                    % (cfg.seed, sigma2, draws, cfg.n_users),
                    "channel draws: unit-variance Gaussian equivalent rows")
    result.add("simulated", sim_vals, sim_hw, [draws] * len(nt_grid))
    result.add("closed_form", predicted, [0.0] * len(nt_grid), [0] * len(nt_grid))
    result.add("exact", exact, [0.0] * len(nt_grid), [draws] * len(nt_grid))
    return result


# --------------------------------------------------------------------------
# uplink SER
# --------------------------------------------------------------------------

UPLINK_PIECE = 2 ** 14  # symbols drawn at once; a piece's arrays stay in cache


def _ncx2_difference(rng, diff, total, n_t):
    """Draws of Y1 - Y2 for independent noncentral chi-squares Y_b on 2 N_t
    degrees of freedom with noncentralities a^2 and b^2, given per symbol
    a - b (``diff``) and a + b (``total``): one gamma and two normals a
    symbol, in that stream order.

    With CN(0, sigma2) noise per branch and antenna, sum_m |a_m + v_m|^2 is
    exactly (sigma2/2) Y_b at a^2 = 2 sum_m |a_m|^2 / sigma2, so the
    antenna-averaged observation is sigma2 / (2 N_t) (Y1 - Y2).  Y_b is a
    chi-square on 2 N_t - 1 degrees of freedom plus (Z_b + a_b)^2.  The two
    central parts differ by sqrt(8 W) Z3 in law, W ~ Gamma(N_t - 1/2): both
    characteristic functions are (1 + 4t^2)^-(N_t - 1/2).  The squares
    differ by (U + a - b)(V + a + b) with U = Z1 - Z2 and V = Z1 + Z2
    independent N(0, 2).  Given V and W the difference is Gaussian, so with
    s = V + a + b it is (a - b) s + sqrt(2 s^2 + 8 W) Z."""
    w = rng.standard_gamma(n_t - 0.5, diff.size)
    s = rng.standard_normal(diff.size)
    s *= math.sqrt(2.0)
    s += total
    w *= 8.0
    w += 2.0 * s * s
    np.sqrt(w, out=w)
    w *= rng.standard_normal(diff.size)
    s *= diff
    s += w
    return s


def _symbol_errors(xi, lo, hi):
    """Observations outside their own symbol's decision interval [lo, hi),
    which is exactly where ``uplink.region_detect`` errs."""
    return int(xi.size - np.count_nonzero((lo <= xi) & (xi < hi)))


def _uplink_task(args):
    """Monte Carlo symbol errors of one uplink grid point over the symbol
    range [first, last); e1/e2 hold every constellation point's noiseless
    branch energies summed over the n_t antennas, and lo/hi its decision
    interval (``DecisionRegions.intervals``).  The chunk stream is sub-stream
    3 of the uplink tag (1 and 2 draw the channel).

    Symbols are i.i.d. and only their error count is kept, so they are drawn
    grouped by constellation point: the bincount of n uniform point indices
    has the law of the multinomial counts, without its O(R) binomials.  Each
    point's a - b, a + b and interval (scaled by 2 N_t / sigma2, so the draw
    is compared unscaled) are repeated over its symbols, and the draws run
    in stream order, ``UPLINK_PIECE`` symbols at a time."""
    e1, e2, n_t, lo, hi, sigma2, seed, point_idx, first, last = args
    rng = stream(seed, _TAG_UPLINK, 3, point_idx, first)
    n = last - first
    counts = np.bincount(rng.integers(0, e1.size, size=n), minlength=e1.size)
    a, b = np.sqrt(2.0 * e1 / sigma2), np.sqrt(2.0 * e2 / sigma2)
    scale = 2.0 * n_t / sigma2
    per_symbol = np.repeat(np.stack([a - b, a + b, scale * lo, scale * hi], axis=1),
                           counts, axis=0)
    errors = 0
    for p in range(0, n, UPLINK_PIECE):
        diff, total, low, high = per_symbol[p:p + UPLINK_PIECE].T
        errors += _symbol_errors(_ncx2_difference(rng, diff, total, n_t), low, high)
    return {"monte_carlo": (errors, n)}


def run_uplink_ser(cfg: ScenarioConfig, mode: str = "both", grid=None,
                   workers: int = 1) -> CurveResult:
    """SER of the averaged-observation uplink on one frozen channel instance,
    by Monte Carlo, the closed form, or both (paired on the same instance).

    The Monte Carlo and the noiseless points see the channel only through
    each symbol's branch energies summed over the array, computed once per
    run; from them ``_uplink_task`` draws the averaged observation exactly,
    one gamma and two normals per symbol, and the closed form takes its
    Gaussian law from the same energies.
    """
    if mode not in ("monte_carlo", "closed_form", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    grid, points = SWEEPS["ebn0"].points(cfg, grid)

    chans, rms = build_uplink_instance(cfg, stream(cfg.seed, _TAG_UPLINK, 1),
                                       stream(cfg.seed, _TAG_UPLINK, 2))
    gains = uplink.exact_linear_gains(chans).sum(axis=0)
    const = downlink.bipolar_candidates(cfg.n_users)
    regions = uplink.build_regions(gains, const)
    lo, hi = regions.intervals()
    s_all = (const + 1.0) / 2.0
    n_t = chans.n_antennas
    # (R,) noiseless branch energies sum_m |amp_b|^2 per constellation point
    e1 = np.sum(np.abs(chans.c @ s_all.T) ** 2, axis=0)
    e2 = np.sum(np.abs(chans.c @ (1.0 - s_all).T) ** 2, axis=0)

    mc, cf = [], []
    with _task_map(workers, UPLINK_TASKS_PER_BATCH) as task_map:
        for pi, point in enumerate(points):
            sigma2 = branch_noise_sigma2(point)
            if sigma2 == 0.0:
                # every constellation point once, noiselessly: an exact
                # count, so no interval
                errors = _symbol_errors((e1 - e2) / n_t, lo, hi)
                mc.append((errors, const.shape[0], 0.0))
                cf.append(errors / const.shape[0])
                continue
            if mode != "closed_form":
                _, totals = _monte_carlo(
                    task_map, _uplink_task, (e1, e2, n_t, lo, hi, sigma2, cfg.seed, pi),
                    cfg.mc_symbol_chunk, UPLINK_TASKS_PER_BATCH, cfg.mc_min_trials,
                    cfg.mc_symbol_ceiling, cfg.mc_min_errors)
                errors, symbols = totals["monte_carlo"]
                mc.append((errors, symbols, _rate_halfwidth(errors, symbols)))
            if mode != "monte_carlo":
                cf.append(analysis.closed_form_ser(lo, hi, e1, e2, n_t, sigma2))

    result = CurveResult(x_name="ebn0_db", x_values=np.asarray(grid))
    result.notes = ("experiment=uplink-ser seed=%d users=%d antennas=%d mode=%s"
                    % (cfg.seed, cfg.n_users, cfg.n_bs_antennas, mode),
                    "noise map: sigma2 = 10^(-EbN0/10) per branch at one antenna; "
                    "cascade normalized to unit RMS entry (raw RMS %.6g)" % rms,
                    "degenerate_regions=%s" % regions.degenerate)
    if mode != "closed_form":
        result.add("monte_carlo", [e / n for e, n, _ in mc], [h for _, _, h in mc],
                   [n for _, n, _ in mc])
    if mode != "monte_carlo":
        result.add("closed_form", cf, [0.0] * len(grid), [0] * len(grid))
    return result


# --------------------------------------------------------------------------
# observation pdf fit
# --------------------------------------------------------------------------

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


def run_pdf_fit(cfg: ScenarioConfig, snr_points=None) -> CurveResult:
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
    snr_points = _distinct_grid((18.0, 10.0, 3.0) if snr_points is None else snr_points)
    check_db(snr_points)
    chans, _ = build_uplink_instance(cfg, stream(cfg.seed, _TAG_PDF, 1),
                                     stream(cfg.seed, _TAG_PDF, 2))
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

    result = CurveResult(x_name="observation", x_values=grid)
    notes = ["experiment=pdf-fit seed=%d samples=%d gamma_ref=%.9g"
             % (cfg.seed, cfg.pdf_fit_samples, gamma_ref),
             "noise map: sigma_v2 = gamma_ref / (2 * 10^(SNRdB/10)) per point"]
    n = cfg.pdf_fit_samples
    for pi, snr_db in enumerate(snr_points):
        tag = _fmt(snr_db)  # the one printed form, as _distinct_grid reads it
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
            channel.power_difference(stream(cfg.seed, _TAG_PDF, 3, pi),
                                     c1, c2, 2.0 * sv2, (n,)),
            edges, mu, sd, fine, cdf)
        notes.append("snr=%sdB sigma_v2=%.9g ks_gauss=%.9g ks_series=%.9g"
                     % (tag, sv2, ks_gauss, ks_series))
        result.add(f"empirical_{tag}dB", hist, np.zeros_like(hist), [n] * grid.size)
        result.add(f"series_{tag}dB", series, np.zeros_like(series), [0] * grid.size)
        result.add(f"gaussian_{tag}dB", gauss, np.zeros_like(gauss), [0] * grid.size)
    result.notes = tuple(notes)
    return result
