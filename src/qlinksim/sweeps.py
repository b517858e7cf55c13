"""Batch sweeps over altitude/frequency/temperature grids, and secure ceilings.

Rows are computed in process from immutable records (see record.Record),
then sorted by their grid coordinates, so output is byte-identical for
identical configuration.

Both protocols see the channel only through its transmissivity tau, and
every rate here is evaluated through _rate_of_tau.  So the maximum secure
altitude splits in two: secure_threshold solves for the smallest tau with
a positive key rate, by regula falsi on the signed rate in ln(tau), using
the protocol records alone, and FsoChannelParams.altitude_at maps that tau
to an altitude in closed form.
"""

from __future__ import annotations

import io
import math
from collections.abc import Callable

from .config import SimulationConfig, resolved_items
from .cvqkd import CvRateResult, ThermalLossChannel, composable_key_rate
from .dvqkd import DvRateResult, finite_key_rate
from .mathfn import thermal_photon_number
from .record import Record

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
    "secure_threshold",
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

# altitude bracket of the maximum secure altitude; the key rate is <= 0
# ALTITUDE_TOL_KM above every ceiling reported inside it
ALTITUDE_BRACKET_KM = (100.0, 2000.0)
ALTITUDE_TOL_KM = 1.0
# width in ln(tau) to which the threshold solve closes its bracket: 17-43 cm
# of altitude at the default ceilings (altitude_at(tau* e^-1e-6) - altitude_at(tau*))
THRESHOLD_TOL_LN = 1e-6
# the search for the lower end of the threshold bracket doubles -ln(tau)
# from 1 and gives up below this ln(tau), tau = 4e-223
_THRESHOLD_FLOOR_LN = -512.0
# steps of one ulp down from the closed-form ceiling before giving up; it
# lies a rounding error from a transmissivity with a positive rate
_CEILING_STEPS = 64

# a protocol's rate result at one transmissivity, and the map from tau to it
RateResult = DvRateResult | CvRateResult
RateOfTau = Callable[[float], RateResult]


class InfeasibleScenario(RuntimeError):
    """No positive rate at the lower altitude bracket, or at any transmissivity."""


class SweepTable(Record):
    """One scenario's worth of rows under a fixed column contract."""

    scenario: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def _validate(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} does not match {len(self.columns)} columns"
                )

    def column(self, name: str) -> tuple[float, ...]:
        idx = self.columns.index(name)
        return tuple(row[idx] for row in self.rows)


class SecureAltitudeResult(Record):
    """Highest altitude with a positive key rate.

    rate is the protocol's rate result probed at that altitude;
    iterations counts the rate probes the call made.
    """

    block_size: float
    max_secure_altitude_km: float
    rate: RateResult
    iterations: int
    unbounded: bool = False

    def _validate(self) -> None:
        if not self.rate.key_rate > 0.0:
            raise ValueError(f"rate at the reported altitude must be > 0: {self.rate.key_rate!r}")
        if self.iterations < 0:
            raise ValueError("iteration count must be >= 0")


def _rate_of_tau(protocol: str, block_n: float, cfg: SimulationConfig) -> RateOfTau:
    """The protocol's rate result as a function of the channel transmissivity alone.

    The one place that knows how each protocol is evaluated.  Reads only
    the records of the protocol's config section, config.SECTIONS[protocol];
    the finite-size record is built once, here.
    """
    if protocol == "dv":
        dv, fs = cfg.dv, cfg.dv_fs(block_n)
        return lambda tau: finite_key_rate(tau * dv.eta_receiver, dv, fs)
    if protocol == "cv":
        cv, noise = cfg.cv, cfg.cv_noise
        return lambda tau: composable_key_rate(
            ThermalLossChannel(tau=tau, n_thermal=cv.n_bg), cv, noise, block_size_n=block_n
        )
    raise ValueError(f"protocol must be 'dv' or 'cv': {protocol!r}")


def _rate_at_altitude(
    scenario: str, rate_of: RateOfTau, altitude_km: float, block_n: float, cfg: SimulationConfig
) -> tuple[float, RateResult]:
    """(tau, rate result) at altitude_km; errors are prefixed with the row that reproduces them."""
    tau = None
    try:
        tau = cfg.channel.at_altitude(altitude_km).transmissivity
        return tau, rate_of(tau)
    except ValueError as exc:
        where = f"{scenario} row at altitude_km={altitude_km!r}, block_size={block_n!r}"
        if tau is not None:
            where += f", tau={tau!r}"
        raise ValueError(f"{where}: {exc}") from exc


def _altitude_sweep(
    scenario: str,
    protocol: str,
    columns: tuple[str, ...],
    pick: Callable[[float, RateResult], tuple[float, ...]],
    cfg: SimulationConfig,
) -> SweepTable:
    """Rows (altitude, block size) + pick(tau, rate result) over the altitude grid."""
    rows = []
    for n in sorted(cfg.sweep.block_sizes):
        rate_of = _rate_of_tau(protocol, n, cfg)
        for alt in cfg.sweep.altitudes_km():
            tau, res = _rate_at_altitude(scenario, rate_of, alt, n, cfg)
            rows.append((alt, n) + pick(tau, res))
    rows.sort(key=lambda r: (r[1], r[0]))
    return SweepTable(scenario, columns, tuple(rows))


def dv_sweep(cfg: SimulationConfig) -> SweepTable:
    """Decoy-state key and payload rates over the altitude grid, one curve per block size."""
    return _altitude_sweep(
        "dv-sweep", "dv", DV_COLUMNS, lambda tau, r: (r.key_rate, r.payload_rate, tau), cfg
    )


def cv_sweep(cfg: SimulationConfig) -> SweepTable:
    """Composable coherent-state key and classical rates over the altitude grid."""
    return _altitude_sweep(
        "cv-sweep",
        "cv",
        CV_COLUMNS,
        lambda tau, r: (r.key_rate, r.classical_rate, r.diagnostics.snr, r.diagnostics.chi_e),
        cfg,
    )


def atmos_grid(cfg: SimulationConfig) -> SweepTable:
    """Gaseous slant-path attenuation over the frequency x slant-distance grid.

    Every slant starts on the ground at the one configured elevation, so
    all of them are integrated from one gamma grid, in process.  The
    atmosphere module, and with it numpy, is imported here on first use,
    so that the other scenarios never load it.  Errors are prefixed with
    the elevation and the first slant that reproduces them on its own.
    """
    from .atmosphere import SlantPathSpec, slant_attenuation_spectra

    freqs = cfg.sweep.frequencies_ghz()
    slants = cfg.sweep.slants_km()
    elevation = cfg.sweep.elevation_deg
    try:
        att = slant_attenuation_spectra(elevation, 0.0, slants, freqs)
    except ValueError as exc:
        # an error no one slant's path causes (a frequency) is every slant's
        culprit = slants[0]
        for slant in slants:
            try:
                SlantPathSpec(elevation, 0.0, slant)
            except ValueError:
                culprit = slant
                break
        raise ValueError(
            f"atmos-grid slant at elevation_deg={elevation!r}, slant_km={culprit!r}: {exc}"
        ) from exc
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


def _solve_threshold(
    rate_of: RateOfTau, protocol: str, block_n: float
) -> tuple[float, int]:
    """(smallest probed tau with a positive rate, number of probes).

    Solves for the sign change of the signed rate in x = ln(tau), to
    THRESHOLD_TOL_LN, assuming the sign changes once in tau.  The
    bracket is probed at both ends: tau = 1 must give a positive rate, and
    the lower end is found by doubling -ln(tau) from 1 until the rate is
    <= 0.  Inside it, each probe is an Illinois (regula falsi) step on the
    signed rate, or a bisection step while the lower end's signed rate is
    -inf (no finite margin) or 0 (a rate that has rounded to zero, which
    points the secant at that end whatever the crossing).  Every probe
    stays at least half the tolerance inside the bracket, so a step that
    lands next to the crossing is followed by one that closes the bracket.
    """
    probes = 0

    def signed_rate(tau: float) -> float:
        nonlocal probes
        probes += 1
        try:
            return rate_of(tau).signed_rate
        except ValueError as exc:
            raise ValueError(
                f"{protocol} threshold probe at tau={tau!r}, block_size={block_n!r}: {exc}"
            ) from exc

    f_hi = signed_rate(1.0)
    if not f_hi > 0.0:
        raise InfeasibleScenario(
            f"{protocol} rate is non-positive even at tau=1 (block_size={block_n:g})"
        )
    hi, tau_hi, lo = 0.0, 1.0, -1.0
    f_lo = signed_rate(math.exp(lo))
    while f_lo > 0.0:
        if lo <= _THRESHOLD_FLOOR_LN:
            raise ValueError(
                f"{protocol} rate stays positive down to tau={math.exp(lo)!r} "
                f"(block_size={block_n!r})"
            )
        hi, tau_hi, f_hi, lo = lo, math.exp(lo), f_lo, 2.0 * lo
        f_lo = signed_rate(math.exp(lo))
    half_tol = 0.5 * THRESHOLD_TOL_LN
    side = 0  # +1 after the upper end moved, -1 after the lower end moved
    while hi - lo > THRESHOLD_TOL_LN:
        if -math.inf < f_lo < 0.0:
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            x = min(max(x, lo + half_tol), hi - half_tol)
        else:
            x = 0.5 * (lo + hi)
        tau_x = math.exp(x)
        f_x = signed_rate(tau_x)
        if f_x > 0.0:
            hi, tau_hi, f_hi = x, tau_x, f_x
            if side == 1:
                f_lo *= 0.5  # Illinois: the lower end stayed twice
            side = 1
        else:
            lo, f_lo = x, f_x
            if side == -1:
                f_hi *= 0.5
            side = -1
    return tau_hi, probes


def secure_threshold(protocol: str, block_n: float, cfg: SimulationConfig) -> float:
    """The smallest transmissivity tau with a positive key rate, to THRESHOLD_TOL_LN in ln(tau).

    The rate is positive at the returned tau and non-positive at
    tau * exp(-THRESHOLD_TOL_LN).  No channel parameter enters: only the
    protocol records of cfg, whose signed rate _solve_threshold drives to
    zero in 10-13 probes at the defaults.  Raises InfeasibleScenario when
    even tau = 1 gives no key.
    """
    return _solve_threshold(_rate_of_tau(protocol, block_n, cfg), protocol, block_n)[0]


def max_secure_altitude(
    protocol: str, block_n: float, cfg: SimulationConfig, threshold: float | None = None
) -> SecureAltitudeResult:
    """The highest altitude in [100, 2000] km with a positive key rate.

    threshold, when given, is secure_threshold(protocol, block_n, cfg),
    solved by the caller; otherwise this call solves it.  The channel
    alone places that tau* in the bracket, and the rate is probed once:
    at 2000 km, flagged unbounded, when the channel still passes tau*
    there; at 100 km when it passes less than tau* there, raising
    InfeasibleScenario if the rate is non-positive; otherwise at the
    altitude where the channel delivers tau*, in closed form, within
    half a metre below the exact crossing (17-43 cm at the default
    ladders).  That closed-form altitude is computed first: the channel
    is evaluated at 100 km and 2000 km only when it lies within
    ALTITUDE_TOL_KM of either, or when no altitude gives tau*, so a
    ceiling inside the bracket evaluates the channel once, at the probe.
    InfeasibleScenario is also raised when even tau = 1 gives no key.
    iterations counts the rate probes this call made, the threshold's
    included.
    """
    rate_of = _rate_of_tau(protocol, block_n, cfg)
    probes = 0
    if threshold is None:
        threshold, probes = _solve_threshold(rate_of, protocol, block_n)
    lo, hi = ALTITUDE_BRACKET_KM
    try:
        altitude, no_altitude = cfg.channel.altitude_at(threshold), None
    except ValueError as exc:
        altitude, no_altitude = None, exc
    if no_altitude is None and min(abs(altitude - lo), abs(altitude - hi)) > ALTITUDE_TOL_KM:
        # tau falls with altitude, so a closed-form altitude this far from both
        # ends places tau* against tau(100 km) and tau(2000 km) unread
        unbounded, floor = altitude > hi, altitude < lo
    else:
        unbounded = threshold <= cfg.channel.at_altitude(hi).transmissivity
        # at the floor the crossing lies below 100 km, or above it closer
        # than the threshold's resolution
        floor = not unbounded and threshold >= cfg.channel.at_altitude(lo).transmissivity
    if unbounded or floor:
        altitude, steps = (hi if unbounded else lo), 1
    elif no_altitude is not None:
        raise no_altitude
    else:
        steps = _CEILING_STEPS
    for _ in range(steps):
        rate = _rate_at_altitude("max-altitude", rate_of, altitude, block_n, cfg)[1]
        probes += 1
        if rate.key_rate > 0.0:
            return SecureAltitudeResult(block_n, altitude, rate, probes, unbounded)
        altitude = math.nextafter(altitude, lo)
    if floor:
        raise InfeasibleScenario(
            f"{protocol} rate is non-positive at the {lo:.0f} km bracket "
            f"(block_size={block_n:g})"
        )
    raise ValueError(
        f"{protocol} rate is non-positive at every altitude probed ({steps}) where the "
        f"channel passes tau={threshold!r} or more (block_size={block_n!r}); "
        "is it this protocol's threshold?"
    )


def max_altitude_table(cfg: SimulationConfig) -> SweepTable:
    """One secure ceiling per configured block size for sweep.protocol."""
    rows = []
    for block_n in sorted(cfg.sweep.block_sizes):
        res = max_secure_altitude(cfg.sweep.protocol, block_n, cfg)
        rows.append(
            (
                res.block_size,
                res.max_secure_altitude_km,
                res.rate.key_rate,
                float(res.iterations),
                float(res.unbounded),
            )
        )
    return SweepTable("max-altitude", MAX_ALT_COLUMNS, tuple(rows))


class Scenario(Record):
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
        max_altitude_table, "maximum secure altitude per block size", None
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
