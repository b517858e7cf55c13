"""Batch sweeps over altitude/frequency/temperature grids plus bisection.

Rows are computed in process from immutable inputs (frozen
dataclasses), then sorted by their grid coordinates, so output is
byte-identical for identical configuration.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable

from .config import SimulationConfig, resolved_items
from .cvqkd import ThermalLossChannel, composable_key_rate
from .dvqkd import finite_key_rate
from .mathfn import thermal_photon_number

__all__ = [
    "InfeasibleScenario",
    "SCENARIOS",
    "Scenario",
    "SecureAltitudeResult",
    "SweepTable",
    "dv_sweep",
    "cv_sweep",
    "atmos_grid",
    "thermal_grid",
    "max_altitude_table",
    "max_secure_altitude",
    "run_scenario",
    "render_csv",
]

DV_COLUMNS = (
    "altitude_km",
    "block_size",
    "key_rate_bits_per_use",
    "payload_rate_bits_per_use",
    "transmissivity",
)
CV_COLUMNS = (
    "altitude_km",
    "block_size",
    "key_rate_bits_per_use",
    "classical_rate_bits_per_use",
    "snr",
    "chi_e",
)
ATMOS_COLUMNS = ("frequency_ghz", "slant_km", "attenuation_db")
THERMAL_COLUMNS = ("frequency_hz", "temperature_k", "mean_photons")
MAX_ALT_COLUMNS = (
    "block_size",
    "max_secure_altitude_km",
    "rate_at_max_bits_per_use",
    "iterations",
    "unbounded",
)

# bisection bracket and resolution for the maximum secure altitude
ALTITUDE_BRACKET_KM = (100.0, 2000.0)
ALTITUDE_TOL_KM = 1.0


class InfeasibleScenario(RuntimeError):
    """No positive rate even at the lower altitude bracket."""


@dataclass(frozen=True)
class SweepTable:
    """One scenario's worth of rows under a fixed column contract."""

    scenario: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} does not match {len(self.columns)} columns"
                )

    def column(self, name: str) -> tuple[float, ...]:
        idx = self.columns.index(name)
        return tuple(row[idx] for row in self.rows)


@dataclass(frozen=True)
class SecureAltitudeResult:
    """Highest altitude with a positive key rate, found by bisection."""

    block_size: float
    max_secure_altitude_km: float
    rate_at_max: float
    iterations: int
    unbounded: bool = False

    def __post_init__(self) -> None:
        if not self.rate_at_max > 0.0:
            raise ValueError(f"rate at the reported altitude must be > 0: {self.rate_at_max!r}")
        if self.iterations < 0:
            raise ValueError("iteration count must be >= 0")


def _row_error(
    scenario: str, altitude_km: float, block_n: float, tau: float | None, exc: ValueError
) -> ValueError:
    """A kernel's complaint, prefixed with the row inputs that reproduce it."""
    where = f"{scenario} row at altitude_km={altitude_km!r}, block_size={block_n!r}"
    if tau is not None:
        where += f", tau={tau!r}"
    return ValueError(f"{where}: {exc}")


def _dv_row(
    altitude_km: float, block_n: float, cfg: SimulationConfig, scenario: str = "dv-sweep"
) -> tuple[float, ...]:
    tau = None
    try:
        out = cfg.channel.at_altitude(altitude_km)
        tau = out.transmissivity
        res = finite_key_rate(tau * cfg.dv.eta_receiver, cfg.dv, cfg.dv_fs(block_n))
    except ValueError as exc:
        raise _row_error(scenario, altitude_km, block_n, tau, exc) from exc
    return (altitude_km, block_n, res.key_rate, res.payload_rate, tau)


def _cv_row(
    altitude_km: float, block_n: float, cfg: SimulationConfig, scenario: str = "cv-sweep"
) -> tuple[float, ...]:
    tau = None
    try:
        tau = cfg.channel.at_altitude(altitude_km).transmissivity
        ch = ThermalLossChannel(tau=tau, n_thermal=cfg.cv.n_bg)
        res = composable_key_rate(ch, cfg.cv, cfg.cv_noise, block_size_n=block_n)
    except ValueError as exc:
        raise _row_error(scenario, altitude_km, block_n, tau, exc) from exc
    d = res.diagnostics
    return (altitude_km, block_n, res.key_rate, res.classical_rate, d.snr, d.chi_e)


def dv_sweep(cfg: SimulationConfig) -> SweepTable:
    """Decoy-state key and payload rates over the altitude grid, one curve per block size."""
    rows = [
        _dv_row(alt, n, cfg)
        for n in sorted(cfg.sweep.block_sizes)
        for alt in cfg.sweep.altitudes_km()
    ]
    rows.sort(key=lambda r: (r[1], r[0]))
    return SweepTable("dv-sweep", DV_COLUMNS, tuple(rows))


def cv_sweep(cfg: SimulationConfig) -> SweepTable:
    """Composable coherent-state key and classical rates over the altitude grid."""
    rows = [
        _cv_row(alt, n, cfg)
        for n in sorted(cfg.sweep.block_sizes)
        for alt in cfg.sweep.altitudes_km()
    ]
    rows.sort(key=lambda r: (r[1], r[0]))
    return SweepTable("cv-sweep", CV_COLUMNS, tuple(rows))


def atmos_grid(cfg: SimulationConfig) -> SweepTable:
    """Gaseous slant-path attenuation over the frequency x slant-distance grid.

    Every slant starts on the ground at the one configured elevation, so
    all of them are integrated from one gamma grid, in process.  The
    atmosphere module, and with it numpy, is imported here on first use,
    so that the other scenarios never load it.
    """
    from .atmosphere import slant_attenuation_spectra

    freqs = cfg.sweep.frequencies_ghz()
    slants = cfg.sweep.slants_km()
    att = slant_attenuation_spectra(cfg.sweep.elevation_deg, 0.0, slants, freqs)
    rows = [(f, s, a) for s, row in zip(slants, att.tolist()) for f, a in zip(freqs, row)]
    rows.sort(key=lambda r: (r[0], r[1]))
    return SweepTable("atmos-grid", ATMOS_COLUMNS, tuple(rows))


def thermal_grid(cfg: SimulationConfig) -> SweepTable:
    """Blackbody mean photon occupancy over the frequency x temperature grid."""
    rows = [
        (f_ghz * 1e9, t, thermal_photon_number(f_ghz * 1e9, t))
        for f_ghz in cfg.sweep.frequencies_ghz()
        for t in cfg.sweep.temperatures_k()
    ]
    rows.sort(key=lambda r: (r[0], r[1]))
    return SweepTable("thermal-grid", THERMAL_COLUMNS, tuple(rows))


def _rate_at_altitude(protocol: str, altitude_km: float, block_n: float, cfg: SimulationConfig) -> float:
    if protocol == "dv":
        return _dv_row(altitude_km, block_n, cfg, "max-altitude")[2]
    if protocol == "cv":
        return _cv_row(altitude_km, block_n, cfg, "max-altitude")[2]
    raise ValueError(f"protocol must be 'dv' or 'cv': {protocol!r}")


def max_secure_altitude(
    protocol: str, block_n: float, cfg: SimulationConfig
) -> SecureAltitudeResult:
    """Bisect the highest altitude with positive key rate over [100, 2000] km.

    Relies on the rate being monotone non-increasing in altitude.  Raises
    InfeasibleScenario when the rate is already non-positive at 100 km;
    reports 2000 km with the unbounded flag when still positive there.
    """
    lo, hi = ALTITUDE_BRACKET_KM
    rate_lo = _rate_at_altitude(protocol, lo, block_n, cfg)
    iterations = 1
    if not rate_lo > 0.0:
        raise InfeasibleScenario(
            f"{protocol} rate is non-positive at the {lo:.0f} km bracket "
            f"(block_size={block_n:g})"
        )
    rate_hi = _rate_at_altitude(protocol, hi, block_n, cfg)
    iterations += 1
    if rate_hi > 0.0:
        return SecureAltitudeResult(block_n, hi, rate_hi, iterations, unbounded=True)
    best_alt, best_rate = lo, rate_lo
    while hi - best_alt > ALTITUDE_TOL_KM:
        mid = 0.5 * (best_alt + hi)
        rate_mid = _rate_at_altitude(protocol, mid, block_n, cfg)
        iterations += 1
        if rate_mid > 0.0:
            best_alt, best_rate = mid, rate_mid
        else:
            hi = mid
    return SecureAltitudeResult(block_n, best_alt, best_rate, iterations)


def max_altitude_table(cfg: SimulationConfig) -> SweepTable:
    """One bisection result per configured block size for sweep.protocol."""
    rows = []
    for block_n in sorted(cfg.sweep.block_sizes):
        res = max_secure_altitude(cfg.sweep.protocol, block_n, cfg)
        rows.append(
            (
                res.block_size,
                res.max_secure_altitude_km,
                res.rate_at_max,
                float(res.iterations),
                float(res.unbounded),
            )
        )
    return SweepTable("max-altitude", MAX_ALT_COLUMNS, tuple(rows))


@dataclass(frozen=True)
class Scenario:
    """One CLI subcommand: its table builder, help line and golden table.

    golden names configs/<golden>.ini and data/<golden>.csv, the committed
    table the scenario regenerates, or is None when no table is committed.
    """

    run: Callable[[SimulationConfig], SweepTable]
    help: str
    golden: str | None


# the one list of scenarios: the CLI, the regeneration script and the
# golden-table test all read it
SCENARIOS = {
    "dv-sweep": Scenario(
        dv_sweep, "decoy-state key/payload rates over the altitude grid", "fig2_dv_rates"
    ),
    "cv-sweep": Scenario(
        cv_sweep, "coherent-state key/classical rates over the altitude grid", "fig3_cv_rates"
    ),
    "atmos-grid": Scenario(
        atmos_grid, "gaseous slant attenuation over frequency x slant distance", "fig4_attenuation"
    ),
    "thermal-grid": Scenario(
        thermal_grid, "blackbody photon occupancy over frequency x temperature", "fig5_thermal"
    ),
    "max-altitude": Scenario(
        max_altitude_table, "bisect the maximum secure altitude per block size", None
    ),
}


def run_scenario(scenario: str, cfg: SimulationConfig) -> SweepTable:
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    return SCENARIOS[scenario].run(cfg)


def _format_cell(value: float) -> str:
    f = float(value)
    if math.isinf(f):
        return "inf"
    if f == int(f) and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def render_csv(table: SweepTable, cfg: SimulationConfig) -> str:
    """Render rows as CSV with a '#'-prefixed resolved-config header block.

    The header records scenario plus every resolved parameter, so the
    file regenerates itself; formatting is fixed (repr floats, '\\n'
    newlines) to keep repeated runs byte-identical.
    """
    buf = io.StringIO()
    buf.write(f"# scenario = {table.scenario}\n")
    for section, key, value in resolved_items(cfg):
        buf.write(f"# {section}.{key} = {value}\n")
    buf.write(",".join(table.columns) + "\n")
    for row in table.rows:
        buf.write(",".join(_format_cell(v) for v in row) + "\n")
    return buf.getvalue()
