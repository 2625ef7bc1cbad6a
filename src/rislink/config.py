"""Scenario configuration: flat key-value files with validated defaults.

The default configuration is desk scale: 4 users, a 16-element RIS and a
32-antenna base station, with Rician factor 10 on both hops, a 5.9 GHz
carrier with 8 us symbols, 50 m/s mobility, and a frame of 40 blocks of 25
symbols after its 32 training pilots.  The paper's evaluation sizes (8
users, 64 elements, 128 antennas) are ``cli.PAPER_SCALE``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields

import numpy as np

from .channel import doppler_shift


class ConfigError(ValueError):
    """Configuration problem, carrying the offending key and line."""

    def __init__(self, message, key=None, line=None):
        loc = ""
        if line is not None:
            loc += f" (line {line})"
        if key is not None:
            loc += f" [key: {key}]"
        super().__init__(message + loc)
        self.key = key
        self.line = line


# annotations of the real-valued fields (scalar, optional or tuple)
_REAL_TYPES = ("float", "float | None", "tuple")


def check_db(values, key=None) -> None:
    """Raise ConfigError unless every dB value x keeps its linear ratio
    r = 10^(x/10) usable: r^2 = 10^(x/5) and 1/r^2 must both be finite
    positive floats, so |x| < 1541.27 dB.  Signal and noise levels are
    formed from r or 1/r, and noise variances also enter squared (the
    sigma_v2^2 term of the Gaussian surrogate's variance)."""
    for x in np.atleast_1d(values):
        try:
            squares = (10.0 ** (float(x) / 5.0), 10.0 ** (-float(x) / 5.0))
        except OverflowError:
            squares = (0.0,)
        if not all(0.0 < q < np.inf for q in squares):
            raise ConfigError(f"{float(x):g} dB is out of range: 10^(x/5) and its "
                              f"reciprocal must be finite positive floats "
                              f"(|x| < 1541.27 dB)", key=key)


@dataclass
class ScenarioConfig:
    """Full geometric and radio parameterization of one experiment."""

    bs_position: tuple = (20.0, -15.0, 25.0)
    ris_position: tuple = (-5.0, 45.0, 10.0)
    coverage_length: float = 100.0
    n_users: int = 4
    n_ris_elements: int = 16
    n_bs_antennas: int = 32
    rician_factor: float = 10.0     # both hops
    pathloss_exponents: tuple = (2.5, 2.3, 2.1)  # bs_user, bs_ris, ris_user
    carrier_f1: float = 5.9e9
    symbol_period: float = 8e-6
    speed: float = 50.0
    blocks_per_frame: int = 40
    symbols_per_block: int = 25
    noise_sigma2: float | None = None
    ebn0_db: float = 10.0
    seed: int = 20250811
    ris_phase_mode: str = "aligned"
    direct_link: bool = False
    # Monte Carlo controls
    mc_min_errors: int = 100
    mc_min_trials: int = 1000
    mc_trial_ceiling: int = 20000
    mc_symbol_chunk: int = 50000
    mc_symbol_ceiling: int = 2_000_000
    snr_channel_draws: int = 200
    pdf_fit_samples: int = 1_000_000

    def __post_init__(self):
        self.validate()

    def validate(self):
        # nan passes every sign check below, so reject it (and inf) first
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in _REAL_TYPES and value is not None and not np.all(np.isfinite(value)):
                raise ConfigError(f"{f.name} must be finite", key=f.name)
        # every integer key but the seed is a count or a size
        for f in fields(self):
            if f.type == "int" and f.name != "seed" and int(getattr(self, f.name)) < 1:
                raise ConfigError(f"{f.name} must be >= 1", key=f.name)
        for key in ("coverage_length", "carrier_f1", "symbol_period"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be > 0", key=key)
        if self.speed < 0:
            raise ConfigError("speed must be >= 0", key="speed")
        if self.rician_factor < 0:
            raise ConfigError("rician_factor must be >= 0", key="rician_factor")
        if len(self.bs_position) != 3 or len(self.ris_position) != 3:
            raise ConfigError("positions must be 3-vectors", key="bs_position")
        if len(self.pathloss_exponents) != 3 or any(a <= 0 for a in self.pathloss_exponents):
            raise ConfigError("pathloss_exponents must be 3 positive values",
                              key="pathloss_exponents")
        if self.noise_sigma2 is not None and self.noise_sigma2 < 0:
            raise ConfigError("noise_sigma2 must be >= 0", key="noise_sigma2")
        check_db(self.ebn0_db, key="ebn0_db")
        if self.ris_phase_mode not in ("aligned", "fixed", "random"):
            raise ConfigError(f"unknown ris_phase_mode {self.ris_phase_mode!r}",
                              key="ris_phase_mode")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits", key="seed")

    # ---- derived quantities -------------------------------------------------

    @property
    def doppler_max(self) -> float:
        return doppler_shift(self.speed, self.carrier_f1)

    @property
    def ris_grid(self) -> tuple[int, int]:
        """Squarest (nx, ny) factorization of the RIS element count."""
        n = self.n_ris_elements
        for nx in range(int(np.sqrt(n)), 0, -1):
            if n % nx == 0:
                return (n // nx, nx)
        return (n, 1)

    def replace(self, **kwargs) -> "ScenarioConfig":
        return dataclasses.replace(self, **kwargs)


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_floats(raw: str) -> tuple:
    return tuple(float(v) for v in raw.replace(",", " ").split())


# one parser per field, chosen by its annotation
_PARSERS = {f.name: {"int": int, "float": float, "float | None": float,
                     "tuple": _parse_floats, "bool": _parse_bool, "str": str}[f.type]
            for f in fields(ScenarioConfig)}


def load_scenario(path) -> ScenarioConfig:
    """Parse a flat ``key: value`` (or ``key = value``) scenario file.

    Keys are exactly the ScenarioConfig field names in SI units; ``#`` starts
    a comment; absent keys take the built-in defaults.  Parse and invariant
    violations raise ConfigError with the offending line or key.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    values = {}
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        for sep in (":", "="):
            if sep in text:
                key, _, rest = text.partition(sep)
                break
        else:
            raise ConfigError(f"expected 'key: value', got {text!r}", line=lineno)
        key = key.strip()
        rest = rest.strip()
        if key not in _PARSERS:
            raise ConfigError(f"unknown key {key!r}", key=key, line=lineno)
        if not rest:
            raise ConfigError("missing value", key=key, line=lineno)
        try:
            values[key] = _PARSERS[key](rest)
        except ValueError as exc:
            raise ConfigError(f"bad value {rest!r}: {exc}", key=key, line=lineno) from exc

    try:
        return ScenarioConfig(**values)
    except TypeError as exc:  # pragma: no cover - guarded by _PARSERS
        raise ConfigError(str(exc)) from exc
