"""Command-line front end: one subcommand per experiment, CSV output.

Each subcommand is one ``EXPERIMENTS`` entry, from which ``build_parser``
makes its subparser and ``main`` makes its one call.

Exit codes: 0 success, 2 configuration error (including a search above
the exhaustive-search cap), 3 numerical failure (rank deficiency or series
truncation), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import SeriesTruncationError
from .config import ConfigError, ScenarioConfig, load_scenario
from .downlink_ber import SCHEMES, run_downlink_ber
from .harness import SWEEPS, export_csv
from .output_snr import run_output_snr
from .pdf_fit import run_pdf_fit
from .uplink_ser import run_uplink_ser

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# the evaluation setup's array sizes; ScenarioConfig defaults to desk scale
PAPER_SCALE = {"n_bs_antennas": 128, "n_users": 8, "n_ris_elements": 64}


@dataclass(frozen=True)
class Experiment:
    """One subcommand: its help line, its own options as ``(flag,
    add_argument keywords)`` pairs, and ``run(args, cfg, grid)``, which calls
    its ``run_*`` under its name in this module, looked up at call time."""

    help: str
    options: tuple
    run: Callable


EXPERIMENTS = {
    "downlink-ber": Experiment(
        "BER sweep for the downlink schemes",
        (("--sweep", dict(choices=tuple(SWEEPS), default="ebn0")),
         ("--scheme", dict(action="append", choices=tuple(SCHEMES),
                           help="repeatable; defaults to linear_precoded + qam_ml_baseline"))),
        lambda args, cfg, grid: run_downlink_ber(
            cfg, args.scheme or ["linear_precoded", "qam_ml_baseline"], args.sweep, grid,
            workers=args.workers)),
    "uplink-ser": Experiment(
        "uplink SER: Monte Carlo vs closed form",
        (("--scheme", dict(choices=("monte_carlo", "closed_form", "both"), default="both",
                           help="which series to produce")),),
        lambda args, cfg, grid: run_uplink_ser(cfg, args.scheme, grid, workers=args.workers)),
    "output-snr": Experiment(
        "precoded output SNR vs array size", (),
        lambda args, cfg, grid: run_output_snr(cfg, grid, workers=args.workers)),
    "pdf-fit": Experiment(
        "observation density: empirical/series/Gaussian", (),
        lambda args, cfg, grid: run_pdf_fit(cfg, grid)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rislink",
        description="Link-level experiments for the RIS-aided linear model")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, experiment in EXPERIMENTS.items():
        sub = subs.add_parser(name, help=experiment.help)
        sub.add_argument("--config", default=None, help="scenario file (key: value lines)")
        sub.add_argument("--seed", type=int, default=None, help="override the master seed")
        sub.add_argument("--grid", default=None, help="comma-separated sweep values")
        sub.add_argument("--paper-scale", action="store_true",
                         help="use the full evaluation array sizes, over the file's")
        sub.add_argument("--out", required=True, help="output CSV path")
        sub.add_argument("--workers", type=int, default=1,
                         help="worker processes (pdf-fit runs in one process)")
        for flag, kwargs in experiment.options:
            sub.add_argument(flag, **kwargs)
    return parser


def _load_config(args) -> ScenarioConfig:
    cfg = load_scenario(args.config) if args.config else ScenarioConfig()
    overrides = dict(PAPER_SCALE) if args.paper_scale else {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    return cfg.replace(**overrides) if overrides else cfg


def _parse_grid(raw):
    if raw is None:
        return None
    try:
        values = tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad --grid value: {exc}") from exc
    if not values:
        raise ConfigError("--grid must contain at least one value")
    return values


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        cfg = _load_config(args)
        grid = _parse_grid(args.grid)
        export_csv(EXPERIMENTS[args.command].run(args, cfg, grid), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SeriesTruncationError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
