"""INI-style run configuration with strict unknown-key rejection.

A run is described by four sections: [channel] (optical downlink),
[dv] (decoy-state protocol plus finite-size knobs), [cv] (modulated
coherent-state protocol plus excess-noise knob) and [sweep] (grid
ranges and orchestration choices).  SECTIONS is the one place that says
which record holds which key: the key schema, each key's parser, the
record build and the resolved provenance block are all read from it.
Every key has a default, so an empty or missing file is a valid
configuration.  Unknown sections or keys raise ConfigError naming the
offender; silent typos in physics parameters are the dominant failure
mode this guards against.
"""

from __future__ import annotations

import configparser
import math

from .cvqkd import CvProtocolParams, PhaseEncodingNoise
from .dvqkd import DecoyProtocolParams, FiniteSizeConfig
from .fso import FsoChannelParams
from .record import Record

__all__ = [
    "ConfigError",
    "SECTIONS",
    "SweepRanges",
    "SimulationConfig",
    "load_config",
    "resolved_items",
]


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad value, or failed validation."""


# the most points one sweep axis may have: far above the 1000-point fig4
# axis, far below a grid that would exhaust memory before it is rejected
MAX_AXIS_POINTS = 1_000_000


class SweepRanges(Record):
    """Grid definitions and orchestration choices for the batch runner.

    Altitude ranges drive dv-sweep/cv-sweep, the frequency range drives
    atmos-grid and thermal-grid, the slant range and elevation belong to
    atmos-grid, and the temperature range to thermal-grid.  block_sizes
    lists the finite block sizes (math.inf for the asymptotic curve) and
    protocol selects the rate model used by max-altitude.
    """

    altitude_start_km: float = 100.0
    altitude_stop_km: float = 700.0
    altitude_step_km: float = 10.0
    freq_start_ghz: float = 1.0
    freq_stop_ghz: float = 1000.0
    freq_step_ghz: float = 1.0
    slant_start_km: float = 5.0
    slant_stop_km: float = 40.0
    slant_step_km: float = 5.0
    elevation_deg: float = 45.0
    temp_start_k: float = 295.0
    temp_stop_k: float = 295.0
    temp_step_k: float = 5.0
    block_sizes: tuple[float, ...] = (1e9, 1e10, 1e11, math.inf)
    protocol: str = "dv"

    def _validate(self) -> None:
        ranges = (
            ("altitude_start_km", "altitude_stop_km", "altitude_step_km"),
            ("freq_start_ghz", "freq_stop_ghz", "freq_step_ghz"),
            ("slant_start_km", "slant_stop_km", "slant_step_km"),
            ("temp_start_k", "temp_stop_k", "temp_step_k"),
        )
        for start_name, stop_name, step_name in ranges:
            for name in (start_name, stop_name, step_name):
                value = getattr(self, name)
                if not math.isfinite(value):
                    raise ConfigError(f"sweep.{name} must be finite: {value!r}")
            start = getattr(self, start_name)
            stop = getattr(self, stop_name)
            step = getattr(self, step_name)
            if not step > 0.0:
                raise ConfigError(f"sweep.{step_name} must be > 0: {step!r}")
            if stop < start:
                raise ConfigError(f"sweep.{stop_name} must be >= sweep.{start_name}: {stop!r}")
            # counted as a float, which may be inf: never point by point
            steps = _steps(start, stop, step)
            if steps >= MAX_AXIS_POINTS:
                axis = start_name.split("_")[0]
                raise ConfigError(
                    f"sweep.{axis} has {steps + 1.0:.7g} points, more than the "
                    f"{MAX_AXIS_POINTS} one axis may have: {start!r} to {stop!r} "
                    f"in steps of {step!r}"
                )
        if not self.block_sizes:
            raise ConfigError("sweep.block_sizes must not be empty")
        for i, n in enumerate(self.block_sizes):
            if not (math.isinf(n) or n >= 1.0):
                raise ConfigError(f"sweep.block_sizes entries must be >= 1 or inf: {n!r}")
            if n in self.block_sizes[:i]:
                raise ConfigError(f"sweep.block_sizes must not repeat an entry: {n!r}")
        if self.protocol not in ("dv", "cv"):
            raise ConfigError(f"sweep.protocol must be 'dv' or 'cv': {self.protocol!r}")
        if not 0.0 < self.elevation_deg <= 90.0:
            raise ConfigError(f"sweep.elevation_deg must lie in (0, 90]: {self.elevation_deg!r}")

    def altitudes_km(self) -> tuple[float, ...]:
        return _inclusive_range(self.altitude_start_km, self.altitude_stop_km, self.altitude_step_km)

    def frequencies_ghz(self) -> tuple[float, ...]:
        return _inclusive_range(self.freq_start_ghz, self.freq_stop_ghz, self.freq_step_ghz)

    def slants_km(self) -> tuple[float, ...]:
        return _inclusive_range(self.slant_start_km, self.slant_stop_km, self.slant_step_km)

    def temperatures_k(self) -> tuple[float, ...]:
        return _inclusive_range(self.temp_start_k, self.temp_stop_k, self.temp_step_k)


def _steps(start: float, stop: float, step: float) -> float:
    # the 1e-9 slack admits stops that are an exact multiple of step despite
    # binary rounding
    return (stop - start) / step + 1e-9


def _inclusive_range(start: float, stop: float, step: float) -> tuple[float, ...]:
    # index-based to avoid accumulation drift
    count = int(math.floor(_steps(start, stop, step))) + 1
    return tuple(start + i * step for i in range(count))


class SimulationConfig(Record):
    """Fully resolved run configuration (defaults merged with file and overrides)."""

    channel: FsoChannelParams
    dv: DecoyProtocolParams
    dv_finite: FiniteSizeConfig
    cv: CvProtocolParams
    cv_noise: PhaseEncodingNoise
    sweep: SweepRanges

    def dv_fs(self, block_size_n: float) -> FiniteSizeConfig:
        """Finite-size knobs with the block size swapped in."""
        return self.dv_finite.replace(block_size_n=block_size_n)


def _parse_float(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        raise ValueError("nan is not a valid parameter value")
    return value


def _parse_block_sizes(text: str) -> tuple[float, ...]:
    sizes = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() == "inf":
            sizes.append(math.inf)
        else:
            sizes.append(_parse_float(token))
    return tuple(sizes)


def _parse_protocol(text: str) -> str:
    return text.strip().lower()


# INI section -> the (SimulationConfig field, record class) pairs that hold
# its keys, in header order.  The key names are the external file format:
# a section's keys are its records' field names, less block_size_n, which
# every run takes from sweep.block_sizes.
SECTIONS = {
    "channel": (("channel", FsoChannelParams),),
    "dv": (("dv", DecoyProtocolParams), ("dv_finite", FiniteSizeConfig)),
    "cv": (("cv", CvProtocolParams), ("cv_noise", PhaseEncodingNoise)),
    "sweep": (("sweep", SweepRanges),),
}

# each key is parsed by the type of its default
_PARSERS = {float: _parse_float, int: int, tuple: _parse_block_sizes, str: _parse_protocol}

# section -> key -> (SimulationConfig field, parser)
_SCHEMA = {
    section: {
        key: (field, _PARSERS[type(getattr(record, key))])
        for field, record in holders
        for key in record._fields
        if key != "block_size_n"
    }
    for section, holders in SECTIONS.items()
}


def _collect(path: str | None, overrides: list[str] | tuple[str, ...]) -> dict[str, dict[str, object]]:
    """Parse file + overrides into {field: {key: typed value}} with strict checks."""
    values: dict[str, dict[str, object]] = {field: {} for field in SimulationConfig._fields}

    def assign(section: str, key: str, raw: str, where: str) -> None:
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section '{section}' in {where}")
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key '{section}.{key}' in {where}")
        field, parse = _SCHEMA[section][key]
        try:
            values[field][key] = parse(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for '{section}.{key}' in {where}: {exc}") from exc

    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
        for section in parser.sections():
            for key, raw in parser.items(section):
                assign(section, key, raw, f"config file {path!r}")

    for item in overrides:
        head, sep, raw = item.partition("=")
        section, dot, key = head.strip().partition(".")
        if not sep or not dot or not section or not key:
            raise ConfigError(
                f"override {item!r} must look like section.key=value"
            )
        assign(section, key.strip(), raw.strip(), "command-line override")

    return values


def load_config(path: str | None = None, overrides: list[str] | tuple[str, ...] = ()) -> SimulationConfig:
    """Build a SimulationConfig from defaults, an optional INI file, and overrides.

    Overrides take the form 'section.key=value' and win over the file.
    Raises ConfigError for unknown keys, parse failures, or any value a
    component record rejects.
    """
    values = _collect(path, overrides)
    records = {}
    for section, holders in SECTIONS.items():
        for field, record in holders:
            try:
                records[field] = record(**values[field])
            except ValueError as exc:
                raise ConfigError(f"invalid [{section}] settings: {exc}") from exc
    return SimulationConfig(**records)


def _format_value(value: object) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(value)
    return str(value)


def resolved_items(cfg: SimulationConfig) -> tuple[tuple[str, str, str], ...]:
    """Every (section, key, value) of the fully resolved config, schema order.

    This is the provenance block embedded at the top of CSV outputs, so
    it must be deterministic and complete: re-running with the printed
    values reproduces the table byte for byte.
    """
    return tuple(
        (section, key, _format_value(getattr(getattr(cfg, field), key)))
        for section, schema in _SCHEMA.items()
        for key, (field, _) in schema.items()
    )
