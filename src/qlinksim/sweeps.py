"""Batch sweeps over altitude/frequency/temperature grids, and secure ceilings.

Rows are computed in process from immutable records (see record.Record),
in the order of their grid coordinates, each axis ascending, so output is
byte-identical for identical configuration.  A SweepTable holds them as
columns, one tuple of values per column, from the scenario that builds
it to render_csv, which formats it column by column.

Both protocols see the channel only through its transmissivity tau, and
every rate here is evaluated through _rate_of_tau, which gives one
record.RateResult for either protocol: the signed key rate and the
classical throughput carried with it.  So max_secure_altitude, the one
way to a ceiling, works in two steps: _solve_threshold finds the smallest
tau with a positive key rate, the secure threshold tau*, on a fixed lattice
in ln(tau) by Anderson-Bjorck secant steps on the signed rate, using the
protocol records alone, and FsoChannelParams.altitude_at maps tau* to the
highest altitude whose evaluated transmissivity is at least tau*, which is
clamped into the altitude bracket and decides alone whether the ceiling is
the floor, unbounded or inside; the rate is probed there once.  The result
carries tau*, so that a caller can hand it to the next ceiling with the
same protocol records and skip the solve, or, as near, to a ceiling with
other records to seed its solve.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .config import SimulationConfig, resolved_items
from .cvqkd import ThermalLossChannel, composable_key_rate
from .dvqkd import finite_key_rate
from .mathfn import thermal_photon_number
from .record import RateResult, Record

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
    "throughput_at_max_bits_per_use",
    "iterations",
    "unbounded",
)

# altitude bracket of the maximum secure altitude; the key rate is <= 0
# ALTITUDE_TOL_KM above every ceiling reported inside it
ALTITUDE_BRACKET_KM = (100.0, 2000.0)
ALTITUDE_TOL_KM = 1.0
# every threshold probe is a point of one lattice in ln(tau) with this step,
# 2^-20 = 9.5e-7, and the solve closes its bracket to two adjacent points:
# 16-41 cm of altitude at the default ceilings
# (altitude_at(tau* e^-step) - altitude_at(tau*))
_LATTICE_PER_LN = 2**20
THRESHOLD_TOL_LN = 1.0 / _LATTICE_PER_LN
# the search for the lower end of the threshold bracket stops at this
# ln(tau), tau = 4.4e-223: a rate still positive there gives this floor
# tau as the threshold
_THRESHOLD_FLOOR_LN = -512.0
_FLOOR_K = int(_THRESHOLD_FLOOR_LN) * _LATTICE_PER_LN
# secant steps in a row that may leave the threshold bracket wider than
# half its width before them; the next step bisects
_STALE_STEPS = 4

# the map from tau to a protocol's rate result at that transmissivity
RateOfTau = Callable[[float], RateResult]


class InfeasibleScenario(RuntimeError):
    """No positive rate at the lower altitude bracket, or at any transmissivity."""


class SweepTable(Record):
    """One scenario's table under a fixed column contract, held as columns.

    values holds one tuple of floats per name in columns, in that order,
    all of one length: row i is the i-th value of every column.
    """

    scenario: str
    columns: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def _validate(self) -> None:
        lengths = [len(column) for column in self.values]
        if len(lengths) != len(self.columns) or len(set(lengths)) > 1:
            raise ValueError(f"value lengths {lengths} do not match {len(self.columns)} columns")


class SecureAltitudeResult(Record):
    """Highest altitude with a positive key rate.

    threshold is the secure threshold tau* the altitude was placed from,
    solved or handed in, and the channel passes at least tau* at the
    altitude; rate is the record.RateResult of the one probe made there,
    so rate.key_rate and rate.throughput are the key and the classical
    bits per use at the ceiling; iterations counts the rate probes the
    call made, that one included.
    """

    max_secure_altitude_km: float
    threshold: float
    rate: RateResult
    iterations: int
    unbounded: bool = False

    def _validate(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1]: {self.threshold!r}")
        if not self.rate.key_rate > 0.0:
            raise ValueError(f"rate at the reported altitude must be > 0: {self.rate.key_rate!r}")
        if self.iterations < 0:
            raise ValueError("iteration count must be >= 0")


def _rate_of_tau(protocol: str, block_n: float, cfg: SimulationConfig) -> RateOfTau:
    """The protocol's rate result as a function of the channel transmissivity alone.

    The one place that knows how each protocol is evaluated.  Reads only
    the records of the protocol's config section, config.SECTIONS[protocol];
    the finite-size record is built once, here, so the values derived from
    it and from the protocol records (pulse counts, constant Hoeffding
    deviations, exponentials, the CV amplitude and corrections) are
    computed at the first call and read by every later one.  Each call
    builds and checks only what depends on tau.
    """
    if protocol == "dv":
        dv, fs = cfg.dv, cfg.dv_fs(block_n)
        return lambda tau: finite_key_rate(tau * dv.eta_receiver, dv, fs)
    if protocol == "cv":
        cv, noise = cfg.cv, cfg.cv_noise
        # positional: keyword binding costs about a tenth of a CV probe
        return lambda tau: composable_key_rate(ThermalLossChannel(tau, cv.n_bg), cv, noise, block_n)
    raise ValueError(f"protocol must be 'dv' or 'cv': {protocol!r}")


def _rate_at_altitude(
    scenario: str,
    rate_of: RateOfTau,
    altitude_km: float,
    block_n: float,
    cfg: SimulationConfig,
    tau: float | None = None,
) -> tuple[float, RateResult]:
    """(tau, rate result) at altitude_km; errors are prefixed with the row that reproduces them.

    tau, when given, is the channel's transmissivity at altitude_km, read
    earlier; when None, the channel is read here.
    """
    try:
        if tau is None:
            tau = cfg.channel.at_altitude(altitude_km).transmissivity
        return tau, rate_of(tau)
    except (ValueError, ArithmeticError) as exc:  # OverflowError, ZeroDivisionError
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
    """Columns altitude, block size, then pick(tau, rate result), over the altitude grid.

    Rows run block size by block size, each over the whole grid.  The
    channel is read once per altitude, during the first block size, and
    its tau is reused by the others, so the rows, and the first error and
    its message, are those of reading it for every row.
    """
    picked = []
    altitudes = cfg.sweep.altitudes_km()
    sizes = sorted(cfg.sweep.block_sizes)
    taus: list[float | None] = [None] * len(altitudes)
    for n in sizes:
        rate_of = _rate_of_tau(protocol, n, cfg)
        for i, alt in enumerate(altitudes):
            tau, res = _rate_at_altitude(scenario, rate_of, alt, n, cfg, taus[i])
            taus[i] = tau
            picked.append(pick(tau, res))
    axes = (altitudes * len(sizes), tuple(n for n in sizes for _ in altitudes))
    return SweepTable(scenario, columns, axes + tuple(zip(*picked)))


def dv_sweep(cfg: SimulationConfig) -> SweepTable:
    """Decoy-state key and payload rates over the altitude grid, one curve per block size."""
    return _altitude_sweep(
        "dv-sweep", "dv", DV_COLUMNS, lambda tau, r: (r.key_rate, r.throughput, tau), cfg
    )


def cv_sweep(cfg: SimulationConfig) -> SweepTable:
    """Composable coherent-state key and classical rates over the altitude grid."""
    return _altitude_sweep(
        "cv-sweep",
        "cv",
        CV_COLUMNS,
        lambda tau, r: (r.key_rate, r.throughput, r.diagnostics.snr, r.diagnostics.chi_e),
        cfg,
    )


def atmos_grid(cfg: SimulationConfig) -> SweepTable:
    """Gaseous slant-path attenuation over the frequency x slant-distance grid.

    Every slant starts on the ground at the one configured elevation, so
    all of them are integrated from one gamma grid, in process.  The
    atmosphere module, and with it numpy, is imported here on first use,
    so that the other scenarios never load it.  Errors are prefixed with
    the elevation and the slant that reproduces them on its own: the
    first slant that is not > 0, else the first slant.
    """
    from .atmosphere import slant_attenuation_spectra

    freqs = cfg.sweep.frequencies_ghz()
    slants = cfg.sweep.slants_km()
    elevation = cfg.sweep.elevation_deg
    try:
        att = slant_attenuation_spectra(elevation, slants, freqs)
    except ValueError as exc:
        # an error no one slant causes (a frequency, the elevation) is every slant's
        culprit = next((slant for slant in slants if not slant > 0.0), slants[0])
        raise ValueError(
            f"atmos-grid slant at elevation_deg={elevation!r}, slant_km={culprit!r}: {exc}"
        ) from exc
    # frequency-major, as the rows run: att is slants x frequencies
    axes = (tuple(f for f in freqs for _ in slants), slants * len(freqs))
    return SweepTable("atmos-grid", ATMOS_COLUMNS, axes + (tuple(att.T.ravel().tolist()),))


def thermal_grid(cfg: SimulationConfig) -> SweepTable:
    """Blackbody mean photon occupancy over the frequency x temperature grid.

    Errors are prefixed with the row that reproduces them.
    """
    freqs_hz = tuple(f_ghz * 1e9 for f_ghz in cfg.sweep.frequencies_ghz())
    temperatures = cfg.sweep.temperatures_k()
    photons = []
    try:
        for f_hz in freqs_hz:
            for t in temperatures:
                photons.append(thermal_photon_number(f_hz, t))
    except ValueError as exc:
        raise ValueError(
            f"thermal-grid row at frequency_hz={f_hz!r}, temperature_k={t!r}: {exc}"
        ) from exc
    axes = (tuple(f for f in freqs_hz for _ in temperatures), temperatures * len(freqs_hz))
    return SweepTable("thermal-grid", THERMAL_COLUMNS, axes + (tuple(photons),))


def _lattice_tau(k: int) -> float:
    """tau at the k-th point of the threshold lattice, ln(tau) = k THRESHOLD_TOL_LN."""
    return math.exp(k * THRESHOLD_TOL_LN)


def _anderson_bjorck(f_new: float, f_old: float) -> float:
    """Anderson-Bjorck factor for the bracket end that stayed twice.

    f_new and f_old are the signed rates at the new probe and at the one
    it replaces, at the other end: 1 - f_new/f_old when that lies in
    (0, 1), else the Illinois 1/2.
    """
    m = 1.0 - f_new / f_old if f_old else 0.5
    return m if 0.0 < m < 1.0 else 0.5  # NaN, from inf/inf, fails both


def _solve_threshold(
    rate_of: RateOfTau, protocol: str, block_n: float, near: float | None = None
) -> tuple[float, int]:
    """(smallest lattice tau with a positive rate, number of probes).

    Every probe is a point tau = e^(k THRESHOLD_TOL_LN) of one lattice in
    ln(tau), k an integer from _THRESHOLD_FLOOR_LN / THRESHOLD_TOL_LN up
    to 0, and the solve stops when its bracket is two adjacent lattice
    points, returning the upper one.  Assuming the signed rate changes
    sign once in tau, that is the smallest lattice tau with a positive
    rate: a function of the protocol records alone.  near, a tau in (0, 1]
    such as the threshold of a neighbouring block size, seeds the search.
    That it changes the number of probes and not the result rests on that
    single-crossing assumption: for a rate whose sign changes more than
    once (some decoy records do) the hint can pick which crossing is
    found.  At the default records a solve takes 10-12
    probes, or 6-8 seeded from the next smaller block size.

    The bracket search starts at the lattice point k0 of ln(near), or at
    tau = 1 without a hint, and probes k0 -+ s 2^j for j = 0, 1, 2, ...:
    down while the rate stays positive, to the floor, or up while it does
    not, to tau = 1.  s is one unit of ln(tau), so that an unhinted search
    probes tau = 1, e^-1, e^-2, e^-4, ..., or an eighth of one from a hint.
    Inside the bracket, each probe is an Anderson-Bjorck secant step on
    the signed rate, rounded to an interior lattice point, or a bisection
    step while the lower end's signed rate is -inf (no finite margin) or 0
    (a rate that has rounded to zero, which points the secant at that end
    whatever the crossing), or after _STALE_STEPS steps in a row that have
    not halved the bracket.  tau = 1 with no positive rate raises
    InfeasibleScenario.  A rate that stays positive down to the floor,
    tau = e^_THRESHOLD_FLOOR_LN, brackets no crossing: that floor tau is
    returned, and max_secure_altitude decides whether the channel reaches it.
    """
    if near is not None and not 0.0 < near <= 1.0:
        raise ValueError(f"near must be in (0, 1]: {near!r}")
    probes = 0

    def signed_rate(k: int) -> float:
        nonlocal probes
        probes += 1
        tau = _lattice_tau(k)
        try:
            return rate_of(tau).signed_rate
        except (ValueError, ArithmeticError) as exc:  # OverflowError, ZeroDivisionError
            raise ValueError(
                f"{protocol} threshold probe at tau={tau!r}, block_size={block_n!r}: {exc}"
            ) from exc

    if near is None:
        start, step = 0, _LATTICE_PER_LN
    else:
        start = min(max(round(math.log(near) * _LATTICE_PER_LN), _FLOOR_K), 0)
        step = _LATTICE_PER_LN // 8
    k, f = start, signed_rate(start)
    down = f > 0.0  # walk down to a non-positive rate, or up to a positive one
    while True:
        if down and k == _FLOOR_K:
            return _lattice_tau(k), probes
        if not down and k == 0:
            raise InfeasibleScenario(
                f"{protocol} rate is non-positive even at tau=1 (block_size={block_n:g})"
            )
        x = max(start - step, _FLOOR_K) if down else min(start + step, 0)
        f_x = signed_rate(x)
        if (f_x > 0.0) != down:
            break
        k, f, step = x, f_x, 2 * step
    (lo, f_lo), (hi, f_hi) = ((x, f_x), (k, f)) if down else ((k, f), (x, f_x))
    side = 0  # +1 after the upper end moved, -1 after the lower end moved
    stale, width = 0, hi - lo  # steps since the bracket last halved, and its width then
    while hi - lo > 1:
        if stale < _STALE_STEPS and -math.inf < f_lo < 0.0:
            x = round(hi - f_hi * (hi - lo) / (f_hi - f_lo))
            x = min(max(x, lo + 1), hi - 1)
        else:
            x = (lo + hi) // 2
        f_x = signed_rate(x)
        if f_x > 0.0:
            if side == 1:
                f_lo *= _anderson_bjorck(f_x, f_hi)  # the lower end stayed twice
            hi, f_hi, side = x, f_x, 1
        else:
            if side == -1:
                f_hi *= _anderson_bjorck(f_x, f_lo)
            lo, f_lo, side = x, f_x, -1
        if 2 * (hi - lo) <= width:
            stale, width = 0, hi - lo
        else:
            stale += 1
    return _lattice_tau(hi), probes


def max_secure_altitude(
    protocol: str,
    block_n: float,
    cfg: SimulationConfig,
    threshold: float | None = None,
    *,
    near: float | None = None,
) -> SecureAltitudeResult:
    """The highest altitude in [100, 2000] km with a positive key rate.

    threshold, when given, must lie in (0, 1] and be the secure threshold
    tau* of these protocol records, such as the .threshold of an earlier
    result; when None, this call solves it, in 10-12 probes at the
    defaults.  near, used only by that solve, is a tau in (0, 1] to start
    it from, such as the threshold of a neighbouring block size: 6-8
    probes at the default ladders, with the same tau* as without it.  The
    channel alone places tau*: FsoChannelParams.altitude_at(tau*), the
    highest altitude whose evaluated transmissivity is at least tau* (0
    where none does, inf where every one does), clamped into the bracket.
    The rate is probed there, once, and the channel is read there alone.
    At 2000 km the ceiling is unbounded; at 100 km it is the floor, and a
    non-positive rate raises InfeasibleScenario; inside, it lies within
    half a metre below the exact crossing (16-41 cm at the default
    ladders).  A non-positive rate at 2000 km or inside, where the channel
    passes tau*, raises ValueError: tau* is not this protocol's threshold.
    A threshold at or below the solve's floor, tau = e^-512, is a rate
    that stays positive down there: unbounded when the channel passes it
    at 2000 km, a ValueError otherwise.  InfeasibleScenario is also raised
    when even tau = 1 gives no key.  iterations counts the rate probes
    this call made, the threshold's included.
    """
    rate_of = _rate_of_tau(protocol, block_n, cfg)
    lo, hi = ALTITUDE_BRACKET_KM
    probes = 0
    if threshold is None:
        threshold, probes = _solve_threshold(rate_of, protocol, block_n, near)
    elif not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1]: {threshold!r}")
    altitude = min(max(cfg.channel.altitude_at(threshold), lo), hi)
    unbounded = altitude == hi
    if threshold <= math.exp(_THRESHOLD_FLOOR_LN) and not unbounded:
        raise ValueError(
            f"{protocol} rate stays positive down to tau={threshold!r} (block_size={block_n!r})"
        )
    rate = _rate_at_altitude("max-altitude", rate_of, altitude, block_n, cfg)[1]
    if rate.key_rate > 0.0:
        return SecureAltitudeResult(altitude, threshold, rate, probes + 1, unbounded)
    if altitude == lo:
        raise InfeasibleScenario(
            f"{protocol} rate is non-positive at the {lo:.0f} km bracket "
            f"(block_size={block_n:g})"
        )
    raise ValueError(
        f"{protocol} rate is non-positive at altitude_km={altitude!r}, where the channel "
        f"passes tau={threshold!r} or more (block_size={block_n!r}); "
        "is it this protocol's threshold?"
    )


def max_altitude_table(cfg: SimulationConfig) -> SweepTable:
    """One secure ceiling per configured block size for sweep.protocol."""
    rows = []
    near = None
    for block_n in sorted(cfg.sweep.block_sizes):
        res = max_secure_altitude(cfg.sweep.protocol, block_n, cfg, near=near)
        near = res.threshold
        rows.append(
            (
                block_n,
                res.max_secure_altitude_km,
                res.rate.key_rate,
                res.rate.throughput,
                float(res.iterations),
                float(res.unbounded),
            )
        )
    return SweepTable("max-altitude", MAX_ALT_COLUMNS, tuple(zip(*rows)))


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


# rows per block of render_csv: fig2 and fig3 are one block each, and a
# long table such as fig4 (4000 rows) holds only one block's cells at once
_CSV_BLOCK_ROWS = 256


def _format_cell(value: float) -> str:
    # ints, such as iteration counts, have no is_integer before Python 3.12
    f = float(value)
    # infinities are not integers, and repr keeps their sign
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def _format_column(values: tuple[float, ...]) -> list[str]:
    """The column's cells, each distinct value formatted once."""
    distinct = set(values)
    if len(distinct) == len(values):
        return list(map(_format_cell, values))
    formatted = {value: _format_cell(value) for value in distinct}
    return list(map(formatted.__getitem__, values))


def render_csv(table: SweepTable, cfg: SimulationConfig) -> str:
    """Render the table as CSV with a '#'-prefixed resolved-config header block.

    The header records scenario plus every resolved parameter, so the
    file regenerates itself; formatting is fixed (repr floats, '\\n'
    newlines) to keep repeated runs byte-identical.  The table's columns
    are cut into blocks of _CSV_BLOCK_ROWS rows, and each block is
    formatted column by column, each distinct value of a column's slice
    once, into one chunk of lines: equal values format alike (0.0 and
    -0.0 both as "0").
    """
    lines = [f"# scenario = {table.scenario}"]
    lines += [f"# {section}.{key} = {value}" for section, key, value in resolved_items(cfg)]
    lines.append(",".join(table.columns))
    values = table.values
    for start in range(0, max(map(len, values), default=0), _CSV_BLOCK_ROWS):
        cells = [_format_column(column[start : start + _CSV_BLOCK_ROWS]) for column in values]
        lines.append("\n".join(map(",".join, zip(*cells))))
    return "\n".join(lines) + "\n"
