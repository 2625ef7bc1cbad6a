"""rislink benchmark: fixed-work CLI experiments, timed end to end or traced
layer by layer.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; rislink is imported from ``src``.
The benchmark is a closed loop with one client: it calls ``rislink.cli.main``
in-process, one experiment after another, until ``--seconds`` have passed
(at least one experiment).  Each workload writes its own scenario file and
pins ``mc_min_trials`` to the trial ceiling, so every experiment does the
same Monte Carlo work and a change cannot gain by stopping early.  The
workload seed reaches the program only through the CLI's ``--seed``, and
every experiment of a run repeats the same input.

BLAS and OpenMP are pinned to one thread per process before numpy loads:
with default OpenBLAS threading, two pool workers on a 2-core machine
oversubscribe the scheduler and the wall time measures that instead of the
program.

``--trace 0`` reports the end-to-end metrics: median ``wall_s`` of the
``cli.main`` call, median ``mc_samples_per_s``, ``setup_s`` (median wall
time of several fresh interpreters that import rislink, parse the arguments
and load the scenario) and ``peak_rss_mb`` (the larger of this process's and
its reaped children's maximum RSS).  ``--trace 1`` alternates untraced and
traced experiments at one worker and reports each layer's calls, total and
self time, pool counts and the tracing overhead.  Every experiment is
checked; a grid point fails when the CLI fails, its CSV row or trial count
is wrong, the workload's correctness gate fails, or its CSV differs from the
run's first CSV: the input is the same, traced or not, at any worker count.
The last stdout line is one JSON object: correct, attempted and failed grid
points, and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from spans import PoolCounter, Tracer, span_names, span_targets

BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
SMOKE_SETUP_REPEATS = 2
MAX_SEED = 2 ** 63

END_TO_END = {"wall_s": "s", "mc_samples_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}


# --------------------------------------------------------------------------
# workload checks: each returns one pass flag per grid point
# --------------------------------------------------------------------------

def _fixed_trials(res, series, n):
    """Per point: every named series ran exactly n trials."""
    return [all(int(res.series[s].trials[i]) == n for s in series)
            for i in range(len(res.x_values))]


def check_uplink(res, cfg):
    """Acceptance 07: Monte Carlo within 10% of closed form where SER >= 1e-3."""
    ok = _fixed_trials(res, ["monte_carlo"], cfg.mc_symbol_ceiling)
    mc, cf = res.series["monte_carlo"].values, res.series["closed_form"].values
    for i, (m, c) in enumerate(zip(mc, cf)):
        if m >= 1e-3 and not abs(c - m) / m < 0.10:
            ok[i] = False
    return ok


def check_downlink_paper(res, cfg):
    """Acceptance 08's baseline half: qam BER at 50 m/s above that at 10 m/s.
    The linear_precoded BER is printed but not gated."""
    ok = _fixed_trials(res, list(res.series), cfg.mc_trial_ceiling)
    speeds = [float(x) for x in res.x_values]
    qam = res.series["qam_ml_baseline"].values
    lo, hi = speeds.index(10.0), speeds.index(50.0)
    if not qam[hi] > qam[lo]:
        ok[lo] = ok[hi] = False
    return ok


def check_downlink_joint(res, cfg):
    """Acceptance 09: BER does not increase as the Rician factor rises."""
    ok = _fixed_trials(res, list(res.series), cfg.mc_trial_ceiling)
    ber = res.series["linear_joint"].values
    for i in range(len(ber) - 1):
        if ber[i + 1] > ber[i]:
            ok[i] = ok[i + 1] = False
    return ok


_KS_NOTE = re.compile(r"snr=(\S+)dB .*ks_gauss=(\S+) ks_series=(\S+)")


def check_pdf_fit(res, cfg):
    """Per SNR point: KS statistics present in the notes and finite, and the
    empirical series built from exactly pdf_fit_samples observations."""
    ks = {}
    for note in res.notes:
        m = _KS_NOTE.search(note)
        if m:
            ks[m.group(1)] = (float(m.group(2)), float(m.group(3)))
    ok = []
    for tag in _pdf_tags(res):
        stats = ks.get(tag)
        trials = res.series[f"empirical_{tag}dB"].trials
        ok.append(stats is not None and all(math.isfinite(v) for v in stats)
                  and bool((trials == cfg.pdf_fit_samples).all()))
    return ok


def _pdf_tags(res):
    return [name[len("empirical_"):-len("dB")] for name in res.series
            if name.startswith("empirical_")]


# --------------------------------------------------------------------------
# Monte Carlo sample counts, read from the CSV trial columns
# --------------------------------------------------------------------------

def uplink_samples(res, cfg):
    """One detected uplink symbol per trial."""
    return int(res.series["monte_carlo"].trials.sum())


def downlink_samples(res, cfg):
    """One detected bit; a block trial carries symbols_per_block symbols of
    the scheme's bits per symbol (same map as the harness's Eb/N0)."""
    bits = {"linear_precoded": cfg.n_users, "linear_joint": cfg.n_bs_antennas,
            "qam_ml_baseline": 2 * cfg.n_users}
    return int(sum(s.trials.sum() * cfg.symbols_per_block * bits[name]
                   for name, s in res.series.items()))


def pdf_samples(res, cfg):
    """One observation per empirical sample, per SNR point."""
    return int(sum(res.series[f"empirical_{t}dB"].trials[0] for t in _pdf_tags(res)))


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """One fixed-work CLI experiment.  ``argv`` excludes --config, --seed,
    --workers and --out, which Bench.argv adds; ``grid`` is passed as --grid
    and fixes the grid points; ``smoke`` shrinks the scenario for the smoke
    test."""

    argv: tuple
    grid: str
    scenario: dict
    smoke: dict
    workers: int
    check: Callable
    samples: Callable
    ber_series: bool = False


WORKLOADS = {
    # noise-and-detection kernel; channel synthesis runs once
    "uplink-mc": Workload(
        argv=("uplink-ser", "--scheme", "both"), grid="0,6,12",
        scenario={"n_users": 4, "n_bs_antennas": 64, "n_ris_elements": 16,
                  "rician_factor": 10.0, "ris_phase_mode": "random",
                  "mc_min_trials": 400_000, "mc_symbol_chunk": 100_000,
                  "mc_symbol_ceiling": 400_000},
        smoke={"mc_min_trials": 4000, "mc_symbol_chunk": 1000,
               "mc_symbol_ceiling": 4000},
        workers=1, check=check_uplink, samples=uplink_samples),
    # Jakes fading, cascade and training/ZF at N_t=128; no uplink or analysis
    "downlink-paper": Workload(
        argv=("downlink-ber", "--paper-scale", "--sweep", "speed",
              "--scheme", "linear_precoded", "--scheme", "qam_ml_baseline"),
        grid="10,30,50",
        scenario={"n_users": 8, "n_bs_antennas": 128, "n_ris_elements": 64,
                  "mc_min_trials": 1280, "mc_trial_ceiling": 1280},
        smoke={"mc_min_trials": 80, "mc_trial_ceiling": 80},
        workers=1, check=check_downlink_paper, samples=downlink_samples,
        ber_series=True),
    # per-symbol joint detection through the process pool (2 workers)
    "downlink-joint": Workload(
        argv=("downlink-ber", "--sweep", "rician_k", "--scheme", "linear_joint"),
        grid="1,10,100",
        scenario={"n_users": 4, "n_bs_antennas": 4, "n_ris_elements": 16,
                  "speed": 50.0, "ebn0_db": 28.0,
                  "mc_min_trials": 1280, "mc_trial_ceiling": 1280},
        smoke={"mc_min_trials": 160, "mc_trial_ceiling": 160},
        workers=2, check=check_downlink_joint, samples=downlink_samples,
        ber_series=True),
    # KS statistics and closed-form series of the analysis layer.  One user
    # fixes the branch noncentralities at (SNR, 0) for every channel draw;
    # with the default four users the draw sets them, and with them the
    # series length and whether scipy's exact KS p-value at 10 dB underflows
    # (about 1 s when it does not), so the cost of one seed's experiment
    # ranged from 1.7 to 5.3 s.
    "pdf-fit": Workload(
        argv=("pdf-fit",), grid="18,10,3",
        scenario={"n_users": 1, "pdf_fit_samples": 1_000_000},
        smoke={"pdf_fit_samples": 20_000},
        workers=1, check=check_pdf_fit, samples=pdf_samples),
}


# --------------------------------------------------------------------------
# one experiment
# --------------------------------------------------------------------------

@dataclass
class Outcome:
    wall: float
    csv: bytes | None
    ok: list
    samples: int = 0
    result: object = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    outcomes: list = field(default_factory=list)

    def add(self, outcome):
        self.attempted += len(outcome.ok)
        self.failed += outcome.ok.count(False)
        self.outcomes.append(outcome)

    def check_determinism(self):
        """Every experiment of a run has the same input, so every CSV must
        be byte-identical to the first; a differing one fails all its points."""
        ref = self.outcomes[0].csv
        for out in self.outcomes[1:]:
            if out.csv != ref:
                self.failed += out.ok.count(True)
                out.ok = [False] * len(out.ok)


class Bench:
    def __init__(self, rislink, name, seed, smoke, workdir):
        self.rislink = rislink
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.n_points = len(self.wl.grid.split(","))
        scenario = {**self.wl.scenario, **(self.wl.smoke if smoke else {})}
        self.cfg_path = workdir / "scenario.cfg"
        self.cfg_path.write_text("".join(f"{k}: {v}\n" for k, v in scenario.items()))
        self.cfg = rislink.config.load_scenario(self.cfg_path)
        self.out_path = workdir / "out.csv"

    def argv(self, workers, out=None):
        return [*self.wl.argv, "--grid", self.wl.grid,
                "--config", str(self.cfg_path), "--seed", str(self.seed),
                "--workers", str(workers), "--out", str(out or self.out_path)]

    def _main(self, argv):
        """cli.main's exit code, or None if it raised; its stdout is dropped."""
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return self.rislink.cli.main(argv)
            except (Exception, SystemExit):
                traceback.print_exc()
                return None

    def experiment(self, workers):
        """Time one cli.main call, then check its CSV."""
        argv = self.argv(workers)
        t0 = time.perf_counter()
        rc = self._main(argv)
        wall = time.perf_counter() - t0
        fail = Outcome(wall, None, [False] * self.n_points)
        if rc != 0:
            print(f"rislink exited with {rc}", file=sys.stderr)
            return fail
        try:
            csv = self.out_path.read_bytes()
            res = self.rislink.harness.read_curve_csv(self.out_path)
            ok = self.wl.check(res, self.cfg)
            samples = self.wl.samples(res, self.cfg)
        except (OSError, ValueError, KeyError, IndexError):
            traceback.print_exc()
            return fail
        ok = ok + [False] * (self.n_points - len(ok))
        return Outcome(wall, csv, ok[:self.n_points], samples, res)

    def warm_up(self):
        """Run the smoke-sized experiment once, untimed, so lazy imports and
        first-call costs are not charged to the first timed experiment."""
        scenario = {**self.wl.scenario, **self.wl.smoke}
        path = self.workdir / "warmup.cfg"
        path.write_text("".join(f"{k}: {v}\n" for k, v in scenario.items()))
        argv = self.argv(1, out=self.workdir / "warmup.csv")
        argv[argv.index("--config") + 1] = str(path)
        self._main(argv)

    def setup_s(self, repeats):
        """Median wall time of fresh interpreters that stop before the
        experiment call."""
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
               *self.argv(self.wl.workers)]
        walls = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
            walls.append(time.perf_counter() - t0)
        return walls


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# --------------------------------------------------------------------------
# timed and traced runs
# --------------------------------------------------------------------------

def fits(last_wall, deadline):
    """Start another experiment only if one as long as the last still ends
    by the deadline, so a run lasts about --seconds however long each
    experiment is."""
    return time.perf_counter() + last_wall <= deadline


def timed_run(bench, seconds, setup_repeats):
    """Untraced experiments at the workload's worker count, then the
    set-up probes; returns the end-to-end metrics."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while not tally.outcomes or fits(tally.outcomes[-1].wall, deadline):
        tally.add(bench.experiment(bench.wl.workers))
    tally.check_determinism()
    rss = peak_rss_mb()  # read before the set-up probes become children
    setup = bench.setup_s(setup_repeats)
    walls = [o.wall for o in tally.outcomes]
    rates = [o.samples / o.wall for o in tally.outcomes]
    print(f"wall_s runs: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"setup_s runs: {' '.join(f'{w:.4f}' for w in setup)}")
    metrics = {"wall_s": statistics.median(walls),
               "mc_samples_per_s": statistics.median(rates),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": rss}
    return metrics, tally


def per_layer_names(rislink):
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for span in span_names(span_targets(rislink)):
        names[f"{span}.calls"] = "count"
        names[f"{span}.total_s"] = "s"
        names[f"{span}.self_s"] = "s"
    names.update({"harness.export_csv.bytes": "B",
                  "harness.pools_created": "count", "harness.tasks": "count",
                  "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
                  "trace.overhead_s": "s"})
    return names


def traced_run(bench, seconds):
    """Alternate untraced and traced experiments at one worker, where every
    span is visible; workloads that use a pool add one run at their worker
    count that counts pools in the parent."""
    rislink = bench.rislink
    targets = span_targets(rislink)
    tally = Tally()
    layers, untraced, traced = [], [], []
    deadline = time.perf_counter() + seconds
    while not layers or fits(untraced[-1] + traced[-1], deadline):
        out = bench.experiment(1)
        tally.add(out)
        untraced.append(out.wall)
        with Tracer(targets) as tr, PoolCounter(rislink.harness) as pc:
            out = bench.experiment(1)
        tally.add(out)
        traced.append(out.wall)
        values = {}
        for span in span_names(targets):
            values[f"{span}.calls"] = tr.calls[span]
            values[f"{span}.total_s"] = tr.total[span]
            values[f"{span}.self_s"] = tr.self_time(span)
        values["harness.export_csv.bytes"] = len(out.csv or b"")
        values["harness.pools_created"] = pc.pools
        values["harness.tasks"] = pc.tasks
        layers.append(values)
    if bench.wl.workers > 1:
        with PoolCounter(rislink.harness) as pc:
            tally.add(bench.experiment(bench.wl.workers))
        for values in layers:
            values["harness.pools_created"] = pc.pools
            values["harness.tasks"] = pc.tasks
    tally.check_determinism()
    metrics = {k: statistics.median(v[k] for v in layers) for k in layers[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = (metrics["trace.traced_wall_s"]
                                   - metrics["trace.untraced_wall_s"])
    print(f"traced runs: {len(traced)} at 1 worker"
          + (f", pool counts from one run at {bench.wl.workers} workers"
             if bench.wl.workers > 1 else ""))
    return metrics, tally


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------

def environment(seed):
    import numpy as np
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_PIN,
            "seed": seed}


def print_ber(result):
    """BER per scheme and grid point, gated or not."""
    for name, s in result.series.items():
        pts = " ".join(f"{result.x_name}={x:g}:{v:.6g}"
                       for x, v in zip(result.x_values, s.values))
        print(f"ber {name}: {pts}")


def import_rislink():
    """Import rislink from this checkout's src, never from site-packages."""
    sys.path.insert(0, str(SRC))
    try:
        import rislink
        import rislink.cli
    except ImportError as exc:
        sys.exit(f"cannot import rislink from {SRC}: {exc}")
    if not Path(rislink.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"rislink resolved to {rislink.__file__}, outside {SRC}")
    return rislink


def seed_arg(raw):
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
    if not 0 <= value < MAX_SEED:
        raise argparse.ArgumentTypeError(f"seed must be in [0, {MAX_SEED}): {raw}")
    return value


def positive_int(raw):
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {raw}")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=seed_arg)
    p.add_argument("--seconds", required=True, type=positive_int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own smoke test")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(BLAS_PIN)  # before numpy loads; inherited by workers
    rislink = import_rislink()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(rislink, args.workload, args.seed, args.smoke, workdir)
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
              f"trace {args.trace} workers {bench.wl.workers}")
        bench.warm_up()
        if args.trace:
            metrics, tally = traced_run(bench, args.seconds)
            units = per_layer_names(rislink)
        else:
            repeats = SMOKE_SETUP_REPEATS if args.smoke else SETUP_REPEATS
            metrics, tally = timed_run(bench, args.seconds, repeats)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    first = tally.outcomes[0].result
    if bench.wl.ber_series and first is not None:
        print_ber(first)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    frac = tally.failed / tally.attempted
    print(f"ops_failed_frac = {frac:.6g} ({tally.failed}/{tally.attempted} grid points, "
          f"{len(tally.outcomes)} experiments)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
