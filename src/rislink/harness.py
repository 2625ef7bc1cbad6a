"""The seeded Monte Carlo engine of every experiment, with CSV export.

An experiment's x axis is a ``Sweep`` (``SWEEPS``, ``ARRAY_SWEEP``), and
``Sweep.points`` makes each grid value one validated config; an integer key
takes only integral values.  Grid values have one printed form, ``fmt``'s 9
significant digits with -0 as 0, which names the CSV x and pdf-fit's
columns, and ``distinct_grid`` refuses two values that print alike.  Every
experiment derives per-chunk random streams from (seed, experiment tag, grid
point, chunk index), so results are bit-identical regardless of the worker
count, and all schemes inside one run see exactly the same channel draws
(common random numbers); ``downlink_frame`` and ``uplink_instance`` draw the
channel.  Downlink and uplink error-rate points share one stopping rule:
fixed-size batches until every series meets the error target or the trial
ceiling is met, never fewer than the configured minimum number of trials.
A run uses one worker pool.

Experiments call the engine as ``harness.<name>``, so a name replaced here
is the one they call.  Importing the module loads no scipy; ``harness.stats``
imports ``scipy.stats`` the first time it is asked for, and nothing in the
package asks for it.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .config import _PARSERS, ConfigError, ScenarioConfig
from .scenario import build_downlink_frame, build_uplink_instance, stream

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


def fmt(x: float) -> str:
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
        row = [fmt(x)]
        for s in result.series.values():
            row += [fmt(s.values[i]), fmt(s.half_widths[i]), str(int(s.trials[i]))]
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
def task_map(workers: int, tasks_per_map: int):
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


def monte_carlo(task_map, task, args, unit, tasks_per_batch, min_units,
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


def rate_halfwidth(errors: int, total: int) -> float:
    """95% half-width of a rate over independent trials: the Wilson score
    interval's larger distance from p = errors / total to either end.  It
    is Z95^2 / (total + Z95^2) at zero or at all errors, where the Wald
    interval has width 0, and approaches the Wald half-width as total grows."""
    p = errors / total
    z2 = Z95 * Z95 / total
    center = (p + z2 / 2.0) / (1.0 + z2)
    spread = Z95 * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total)) / (1.0 + z2)
    return spread + abs(center - p)


def frame_halfwidth(errors: int, bits: int, sq_errors: int, frames: int) -> float:
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


def branch_noise_sigma2(cfg: ScenarioConfig, bits: int = 1) -> float:
    """Per-branch complex noise variance 10^(-EbN0/10) / bits from the
    config's Eb/N0, for a unit transmit budget per symbol carrying ``bits``
    bits over a unit-normalized channel; a configured noise_sigma2
    overrides the mapping.

    Downlink schemes pass their bits per symbol from
    ``downlink_ber.SCHEMES``: N_k (precoded, 1 bit/user), N_t (joint, 1
    bit/antenna), 2*N_k (4-QAM).  The uplink carries one bit per user at one
    antenna, so bits = 1.
    """
    if cfg.noise_sigma2 is not None:
        return float(cfg.noise_sigma2)
    return 10.0 ** (-cfg.ebn0_db / 10.0) / bits


def downlink_frame(cfg: ScenarioConfig, tag: int, point: int, frame: int):
    """Frame ``frame`` of grid point ``point`` of the experiment ``tag``:
    geometry from sub-stream 1 and fading from sub-stream 2."""
    return build_downlink_frame(cfg, stream(cfg.seed, tag, 1, point, frame),
                                stream(cfg.seed, tag, 2, point, frame))


def uplink_instance(cfg: ScenarioConfig, tag: int):
    """The experiment ``tag``'s one uplink channel instance and its raw RMS:
    geometry from sub-stream 1 and fading from sub-stream 2."""
    return build_uplink_instance(cfg, stream(cfg.seed, tag, 1), stream(cfg.seed, tag, 2))


def distinct_grid(grid) -> tuple:
    """``grid`` as floats, -0 as 0, or a ``ConfigError`` if two values print
    as one ``fmt`` form: two CSV rows or columns could not be told apart,
    and a repeated value would run its point twice."""
    grid = tuple(float(g) + 0.0 for g in grid)  # + 0.0 makes -0 print as 0
    xs = [fmt(g) for g in grid]
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
        ``distinct_grid``, and one validated ``cfg.replace`` per value.  A
        field annotated ``int`` takes only integral values, cast to int."""
        grid = distinct_grid(self.default_grid if grid is None else grid)
        integral = _PARSERS[self.field] is int  # the annotation, as files are parsed
        if integral and not all(g.is_integer() for g in grid):
            raise ConfigError("%s values must be integers, got %s"
                              % (self.field, ", ".join(map(fmt, grid))), key=self.field)
        return grid, [cfg.replace(**{self.field: int(g) if integral else g}) for g in grid]


SWEEPS = {
    "speed": Sweep("speed_mps", "speed", (10, 30, 50)),
    "ebn0": Sweep("ebn0_db", "ebn0_db", (0, 4, 8, 12, 16)),
    "rician_k": Sweep("rician_k", "rician_factor", (1, 10, 100)),
}
ARRAY_SWEEP = Sweep("n_bs_antennas", "n_bs_antennas", (32, 64, 128))  # output-snr's axis

