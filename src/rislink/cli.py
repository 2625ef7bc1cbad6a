"""Command-line front end: one subcommand per experiment, CSV output.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(rank deficiency or series truncation), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import SeriesTruncationError
from .config import ConfigError, ScenarioConfig, load_scenario
from .harness import (SCHEMES, SWEEPS, export_csv, run_downlink_ber, run_output_snr,
                      run_pdf_fit, run_uplink_ser)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# evaluation-setup array sizes vs the fast defaults used for sweeps
PAPER_SCALE = {"n_bs_antennas": 128, "n_users": 8, "n_ris_elements": 64}
DESK_SCALE = {"n_bs_antennas": 32, "n_users": 4, "n_ris_elements": 16}


def _add_common(sub):
    sub.add_argument("--config", default=None, help="scenario file (key: value lines)")
    sub.add_argument("--seed", type=int, default=None, help="override the master seed")
    sub.add_argument("--grid", default=None, help="comma-separated sweep values")
    sub.add_argument("--paper-scale", action="store_true",
                     help="use the full evaluation array sizes instead of desk scale")
    sub.add_argument("--out", required=True, help="output CSV path")
    sub.add_argument("--workers", type=int, default=1, help="worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rislink",
        description="Link-level experiments for the RIS-aided linear model")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("downlink-ber", help="BER sweep for the downlink schemes")
    _add_common(p)
    p.add_argument("--sweep", choices=tuple(SWEEPS), default="ebn0")
    p.add_argument("--scheme", action="append", choices=tuple(SCHEMES),
                   help="repeatable; defaults to linear_precoded + qam_ml_baseline")

    p = subs.add_parser("uplink-ser", help="uplink SER: Monte Carlo vs closed form")
    _add_common(p)
    p.add_argument("--scheme", choices=("monte_carlo", "closed_form", "both"),
                   default="both", help="which series to produce")

    p = subs.add_parser("output-snr", help="precoded output SNR vs array size")
    _add_common(p)

    p = subs.add_parser("pdf-fit", help="observation density: empirical/series/Gaussian")
    _add_common(p)
    return parser


def _load_config(args) -> ScenarioConfig:
    cfg = load_scenario(args.config) if args.config else ScenarioConfig()
    scale = PAPER_SCALE if args.paper_scale else DESK_SCALE
    overrides = {k: v for k, v in scale.items()
                 if args.paper_scale or k not in cfg.explicit_keys}
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
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"--grid values must be finite, got {raw!r}")
    return values


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        cfg = _load_config(args)
        grid = _parse_grid(args.grid)
        if args.command == "downlink-ber":
            schemes = args.scheme or ["linear_precoded", "qam_ml_baseline"]
            result = run_downlink_ber(cfg, schemes, args.sweep, grid,
                                      workers=args.workers)
        elif args.command == "uplink-ser":
            result = run_uplink_ser(cfg, args.scheme, grid, workers=args.workers)
        elif args.command == "output-snr":
            result = run_output_snr(cfg, grid, workers=args.workers)
        else:
            result = run_pdf_fit(cfg, grid)
        export_csv(result, args.out)
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
