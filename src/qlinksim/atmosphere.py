"""Gas attenuation and thermal background for slant paths through the atmosphere.

Implements the line-by-line specific attenuation of Rec. ITU-R P.676
Annex 1 (44 oxygen lines, 35 water-vapour lines, dry-air continuum),
numerical integration of that attenuation along straight slant rays
through a mean annual global reference atmosphere (Rec. ITU-R P.835
style).  The Bose-Einstein mean thermal photon occupancy lives in mathfn,
which needs no numpy, and is re-exported here.

The spectroscopic coefficients ship as plain-text data files whose
SHA-256 digests are verified at load time against a bundled manifest.
"""

from __future__ import annotations

import contextvars
import hashlib
import math
import os
from collections.abc import Callable, Iterator, Sequence
from functools import lru_cache
from importlib import resources
from threading import Thread

import numpy as np

from .mathfn import thermal_photon_number
from .record import Record

__all__ = [
    "AtmosphericState",
    "ReferenceAtmosphereProfile",
    "SpectralLineTable",
    "SlantPathSpec",
    "default_line_table",
    "specific_attenuation",
    "attenuation_spectrum",
    "slant_attenuation",
    "slant_attenuation_spectrum",
    "slant_attenuation_spectra",
    "thermal_photon_number",
]

FREQ_MIN_GHZ = 1.0
FREQ_MAX_GHZ = 1000.0

# integration ceiling: absorber densities above this altitude contribute
# nothing at the accuracy targets of this model
TOP_ALTITUDE_KM = 100.0
# the line model raises theta = 300/T to powers up to 3.5; theta is finite
# for any T > 1.7e-306 K, but below about 1e-36 K the water-vapour terms
# overflow and the attenuation is NaN.  No atmosphere is near this floor
MIN_TEMPERATURE_K = 1.0


class AtmosphericState(Record):
    """Local thermodynamic state of moist air.

    Parameters
    ----------
    temperature_k : float
        Temperature in kelvin, finite and >= MIN_TEMPERATURE_K.
    pressure_hpa : float
        Total (dry + vapour) barometric pressure in hPa, finite and >= 0.
    water_vapor_density_g_m3 : float
        Water-vapour density in g/m^3, finite and >= 0.
    """

    temperature_k: float
    pressure_hpa: float
    water_vapor_density_g_m3: float

    def _validate(self) -> None:
        # written as "not inside" so that NaN is rejected too
        if not self.temperature_k >= MIN_TEMPERATURE_K:
            raise ValueError(
                f"temperature must be >= {MIN_TEMPERATURE_K} K: {self.temperature_k!r}"
            )
        if not self.pressure_hpa >= 0.0:
            raise ValueError(f"pressure must be >= 0 hPa: {self.pressure_hpa!r}")
        if not self.water_vapor_density_g_m3 >= 0.0:
            raise ValueError(
                f"water vapour density must be >= 0: {self.water_vapor_density_g_m3!r}"
            )
        for name in ("temperature_k", "pressure_hpa", "water_vapor_density_g_m3"):
            value = getattr(self, name)
            if value == math.inf:
                raise ValueError(f"{name} must be finite: {value!r}")


def _read_checked(name: str) -> bytes:
    data_dir = resources.files(__package__) / "data"
    raw = (data_dir / name).read_bytes()
    expected = None
    for line in (data_dir / "MANIFEST.sha256").read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        digest, fname = line.split()
        if fname == name:
            expected = digest
    if expected is None:
        raise ValueError(f"no manifest entry for data file {name!r}")
    actual = hashlib.sha256(raw).hexdigest()
    if actual != expected:
        raise ValueError(
            f"checksum mismatch for data file {name!r}: manifest {expected}, got {actual}"
        )
    return raw


def _parse_line_table(raw: bytes, n_cols: int) -> np.ndarray:
    rows = []
    for line in raw.decode("ascii").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        values = [float(tok) for tok in line.split()]
        if len(values) != n_cols:
            raise ValueError(f"malformed spectral-line row: {line!r}")
        rows.append(values)
    return np.array(rows, dtype=float)


class SpectralLineTable(Record, eq=False):
    """Oxygen and water-vapour resonance-line coefficients.

    Each row holds a line center frequency (GHz) followed by the six
    strength/width/interference coefficients of Rec. ITU-R P.676 Annex 1.
    """

    oxygen: np.ndarray
    water: np.ndarray

    def _validate(self) -> None:
        if self.oxygen.shape != (44, 7):
            raise ValueError(f"expected 44 oxygen lines x 7 columns: {self.oxygen.shape}")
        if self.water.shape != (35, 7):
            raise ValueError(f"expected 35 water lines x 7 columns: {self.water.shape}")
        for name, table in (("oxygen", self.oxygen), ("water", self.water)):
            centers = table[:, 0]
            if not np.all(np.diff(centers) > 0.0):
                raise ValueError(f"{name} line centers must be strictly increasing")

    @classmethod
    def load_bundled(cls) -> "SpectralLineTable":
        """Load the bundled coefficient files, verifying their checksums."""
        oxygen = _parse_line_table(_read_checked("oxygen_lines.txt"), 7)
        water = _parse_line_table(_read_checked("water_lines.txt"), 7)
        return cls(oxygen=oxygen, water=water)


@lru_cache(maxsize=1)
def default_line_table() -> SpectralLineTable:
    return SpectralLineTable.load_bundled()


# ---------------------------------------------------------------------------
# reference atmosphere (mean annual global, Rec. ITU-R P.835 style)
# ---------------------------------------------------------------------------

_GEOPOT_RADIUS_KM = 6356.766
_G_OVER_R = 34.1632  # K/km' : gravity over specific gas constant of dry air
# (geopotential base altitude km', lapse rate K/km') up to 84.852 km'
_LAYERS = (
    (0.0, -6.5),
    (11.0, 0.0),
    (20.0, 1.0),
    (32.0, 2.8),
    (47.0, 0.0),
    (51.0, -2.8),
    (71.0, -2.0),
)
_LAYER_TOP_KM_PRIME = 84.852
# high-altitude pressure fit ln P = sum a_i h^i for 86-100 km geometric
_HIGH_P_COEFF = (95.571899, -4.011801, 6.424731e-2, -4.789660e-4, 1.340543e-6)

SURFACE_TEMPERATURE_K = 288.15
SURFACE_PRESSURE_HPA = 1013.25
SURFACE_WATER_VAPOR_G_M3 = 7.5
_WATER_SCALE_HEIGHT_KM = 2.0
_MIN_MIXING_RATIO = 2.0e-6  # floor on e/P at high altitude


def _layer_bases() -> tuple[tuple[float, float, float, float], ...]:
    # (base altitude km', lapse, base temperature, base pressure) per layer,
    # derived recursively from the surface values so the piecewise closed
    # forms are continuous by construction
    bases = []
    t, p = SURFACE_TEMPERATURE_K, SURFACE_PRESSURE_HPA
    for i, (hb, lapse) in enumerate(_LAYERS):
        bases.append((hb, lapse, t, p))
        h_next = _LAYERS[i + 1][0] if i + 1 < len(_LAYERS) else _LAYER_TOP_KM_PRIME
        dh = h_next - hb
        if lapse == 0.0:
            p = p * math.exp(-_G_OVER_R * dh / t)
        else:
            t_next = t + lapse * dh
            p = p * (t / t_next) ** (_G_OVER_R / lapse)
            t = t_next
    return tuple(bases)


_LAYER_BASES = _layer_bases()


def _standard_t_p(h_km: float) -> tuple[float, float]:
    """Temperature (K) and pressure (hPa) of the mean annual global profile."""
    h_km = min(h_km, TOP_ALTITUDE_KM)
    if h_km <= 86.0:
        hp = _GEOPOT_RADIUS_KM * h_km / (_GEOPOT_RADIUS_KM + h_km)
        hp = min(hp, _LAYER_TOP_KM_PRIME)
        base = _LAYER_BASES[0]
        for cand in _LAYER_BASES:
            if hp >= cand[0]:
                base = cand
        hb, lapse, tb, pb = base
        if lapse == 0.0:
            return tb, pb * math.exp(-_G_OVER_R * (hp - hb) / tb)
        t = tb + lapse * (hp - hb)
        return t, pb * (tb / t) ** (_G_OVER_R / lapse)
    if h_km <= 91.0:
        t = 186.8673
    else:
        t = 263.1905 - 76.3232 * math.sqrt(max(0.0, 1.0 - ((h_km - 91.0) / 19.9429) ** 2))
    a0, a1, a2, a3, a4 = _HIGH_P_COEFF
    p = math.exp(a0 + a1 * h_km + a2 * h_km**2 + a3 * h_km**3 + a4 * h_km**4)
    return t, p


class ReferenceAtmosphereProfile(Record, eq=False):
    """Layered altitude table of atmospheric state with interpolation.

    Temperature interpolates linearly in altitude between nodes; pressure
    and water-vapour density interpolate exponentially (linearly in log)
    wherever the node values are strictly positive, falling back to
    linear interpolation otherwise.
    """

    altitude_km: np.ndarray
    temperature_k: np.ndarray
    pressure_hpa: np.ndarray
    water_vapor_g_m3: np.ndarray

    def _validate(self) -> None:
        n = self.altitude_km.shape[0]
        for name in ("temperature_k", "pressure_hpa", "water_vapor_g_m3"):
            if getattr(self, name).shape != (n,):
                raise ValueError("profile columns must share one length")
        if n < 2:
            raise ValueError("profile needs at least two nodes")
        for name in ("altitude_km", "temperature_k", "pressure_hpa", "water_vapor_g_m3"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"profile {name} values must be finite")
        if not np.all(np.diff(self.altitude_km) > 0.0):
            raise ValueError("profile altitudes must be strictly increasing")
        if self.altitude_km[0] != 0.0:
            raise ValueError("profile must start at altitude 0 km")
        if self.altitude_km[-1] < TOP_ALTITUDE_KM:
            raise ValueError(f"profile must reach {TOP_ALTITUDE_KM} km")
        if not np.all(self.temperature_k >= MIN_TEMPERATURE_K):
            raise ValueError(f"profile temperatures must be >= {MIN_TEMPERATURE_K} K")
        if np.any(self.pressure_hpa < 0.0) or np.any(self.water_vapor_g_m3 < 0.0):
            raise ValueError("profile pressures and densities must be >= 0")
        if np.any(np.diff(self.pressure_hpa) > 0.0):
            raise ValueError("profile pressure must be non-increasing with altitude")

    @classmethod
    def mean_annual_global(cls) -> "ReferenceAtmosphereProfile":
        """Reference profile with 1 km nodes from 0 to 100 km.

        Surface values 288.15 K, 1013.25 hPa, 7.5 g/m^3; water vapour
        decays with a 2 km scale height down to a mixing-ratio floor of
        e/P = 2e-6.
        """
        alts = np.arange(0.0, TOP_ALTITUDE_KM + 0.5, 1.0)
        t = np.empty_like(alts)
        p = np.empty_like(alts)
        rho = np.empty_like(alts)
        for i, h in enumerate(alts):
            t[i], p[i] = _standard_t_p(float(h))
            rho_exp = SURFACE_WATER_VAPOR_G_M3 * math.exp(-h / _WATER_SCALE_HEIGHT_KM)
            rho_floor = 216.7 * _MIN_MIXING_RATIO * p[i] / t[i]
            rho[i] = max(rho_exp, rho_floor)
        return cls(altitude_km=alts, temperature_k=t, pressure_hpa=p, water_vapor_g_m3=rho)

    def states_at(self, h_km: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized (T, P, rho) at the requested altitudes."""
        h = np.asarray(h_km, dtype=float)
        if np.any(h < 0.0) or np.any(h > self.altitude_km[-1]):
            raise ValueError("altitude outside profile range")
        t = np.interp(h, self.altitude_km, self.temperature_k)

        def _interp_pos(values: np.ndarray) -> np.ndarray:
            if np.all(values > 0.0):
                return np.exp(np.interp(h, self.altitude_km, np.log(values)))
            return np.interp(h, self.altitude_km, values)

        return t, _interp_pos(self.pressure_hpa), _interp_pos(self.water_vapor_g_m3)

    def state_at(self, h_km: float) -> AtmosphericState:
        t, p, rho = self.states_at(np.array([h_km]))
        return AtmosphericState(
            temperature_k=float(t[0]),
            pressure_hpa=float(p[0]),
            water_vapor_density_g_m3=float(rho[0]),
        )


@lru_cache(maxsize=1)
def default_profile() -> ReferenceAtmosphereProfile:
    return ReferenceAtmosphereProfile.mean_annual_global()


# ---------------------------------------------------------------------------
# line-by-line specific attenuation
# ---------------------------------------------------------------------------


# frequencies per gamma block: _gamma_blocks' four buffers are (block x nodes),
# and they stay allocated for the whole call, one set per thread of
# _each_block.  The in-process fig4 + fig5 pass on 2 CPUs (2-core Xeon KVM
# host, medians of 4 x 30 passes) read, in peak RSS and time per pass,
# against 38.05 MB and 0.227 s for the one-thread kernel at block 125 with
# the continuum as an expression: block 125 +1.1 MB, 0.146 s; 100 +0.6 MB,
# 0.150 s; 84 +0.2 MB, 0.155 s; 72 -0.1 MB, 0.168 s; 64 -0.4 MB, 0.173 s.
# 84 keeps the peak within 0.5% and most of the speed; it cuts fig4's 1000
# frequencies into 12 blocks, 6 per thread.
# The bytes do not depend on the block (fig4 at 1, 7, 125 and 1000 agree).
_FREQ_BLOCK = 84


def _cpu_count() -> int:
    """CPUs this process may run on: one thread of _each_block per CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _line_factors(
    t_k: np.ndarray,
    p_total_hpa: np.ndarray,
    rho_g_m3: np.ndarray,
    table: SpectralLineTable,
) -> tuple:
    """State-only factors of the line-by-line model, each of shape (1, len(states)).

    Returns ``(p, theta2, d, nitrogen, oxygen, water)``: the dry-air
    partial pressure, theta^2 with theta = 300/T, the Debye width of the
    continuum (1.0 where it is 0, see below), the pressure-induced
    nitrogen numerator 1.4e-12 p theta^1.5, and per line the centre
    frequency with the factors that do not depend on frequency,
    ``(fi, si, df, delta, df*df)`` for oxygen and ``(fi, si, df, df*df)``
    for water vapour.  Computed once per call and shared, read-only, by
    every frequency block and every thread of _each_block.
    """
    t = np.asarray(t_k, dtype=float)[None, :]  # (1, ns)
    theta = 300.0 / t
    e = np.asarray(rho_g_m3, dtype=float)[None, :] * t / 216.7
    # the recommendation parametrizes widths with the dry-air partial pressure
    p = np.maximum(np.asarray(p_total_hpa, dtype=float)[None, :] - e, 0.0)

    # the Debye width is 0 where p + e is (vacuum) or underflows with it; the
    # continuum's prefactor f p is then 0 or subnormal, and a width of 1 makes
    # the term 0 or negligible instead of 0 * inf = NaN.  Where d > 0, no byte
    # changes
    d = 5.6e-4 * (p + e) * theta**0.8
    d = np.where(d > 0.0, d, 1.0)

    oxygen = []
    for fi, a1, a2, a3, a4, a5, a6 in table.oxygen:
        si = a1 * 1e-7 * p * theta**3 * np.exp(a2 * (1.0 - theta))
        df = a3 * 1e-4 * (p * theta ** (0.8 - a4) + 1.1 * e * theta)
        df = np.sqrt(df * df + 2.25e-6)  # Zeeman/Doppler floor
        delta = (a5 + a6 * theta) * 1e-4 * (p + e) * theta**0.8
        oxygen.append((fi, si, df, delta, df * df))

    water = []
    for fi, b1, b2, b3, b4, b5, b6 in table.water:
        si = b1 * 1e-1 * e * theta**3.5 * np.exp(b2 * (1.0 - theta))
        df = b3 * 1e-4 * (p * theta**b4 + b5 * e * theta**b6)
        df = 0.535 * df + np.sqrt(0.217 * df * df + 2.1316e-12 * fi * fi / theta)
        water.append((fi, si, df, df * df))

    return p, theta**2, d, 1.4e-12 * p * theta**1.5, oxygen, water


def _gamma_blocks(f_ghz: np.ndarray, factors: tuple) -> Iterator[tuple[int, np.ndarray]]:
    """Specific attenuation in dB/km, one block of _FREQ_BLOCK frequencies at a time.

    Yields ``(lo, gamma)`` with gamma of shape (block, len(states)) for
    the frequencies ``f_ghz[lo : lo + block]``.  Van Vleck-Weisskopf line
    shapes with pressure-induced interference for oxygen, Doppler-
    broadened shapes for water vapour, plus the non-resonant Debye /
    pressure-induced nitrogen continuum.

    gamma and its work buffers are allocated once per call and
    overwritten by the next block, so consume gamma before advancing.
    Every full-size operation, the continuum's included, is a correctly
    rounded +, -, x or / taken in the per-element order of the
    expression form, which keeps every output byte independent of the
    block size and of the thread that computes the block.  One call
    touches only its own buffers, so calls may run in parallel threads.
    """
    p, theta2, d, nitrogen, oxygen, water = factors
    f_all = np.asarray(f_ghz, dtype=float).reshape(-1, 1)  # (nf, 1)
    rows = min(_FREQ_BLOCK, f_all.shape[0])
    grids = [np.empty((rows, p.shape[1])) for _ in range(4)]
    columns = [np.empty((rows, 1)) for _ in range(5)]

    for lo in range(0, f_all.shape[0], _FREQ_BLOCK):
        f = f_all[lo : lo + _FREQ_BLOCK]
        n_total, x, y, z = (g[: f.shape[0]] for g in grids)
        cols = [c[: f.shape[0]] for c in columns]
        below, above, below2, above2, ratio = cols
        n_total.fill(0.0)

        for fi, si, df, delta, df2 in oxygen:
            _offsets(fi, f, cols)
            # (df - delta (fi - f)) / ((fi - f)^2 + df^2)
            np.multiply(delta, below, out=x)
            np.subtract(df, x, out=x)
            np.add(below2, df2, out=y)
            np.divide(x, y, out=x)
            # + (df - delta (fi + f)) / ((fi + f)^2 + df^2)
            np.multiply(delta, above, out=y)
            np.subtract(df, y, out=y)
            np.add(above2, df2, out=z)
            np.divide(y, z, out=y)
            np.add(x, y, out=x)
            # n_total += si (f / fi) shape
            np.multiply(si, ratio, out=y)
            np.multiply(y, x, out=y)
            np.add(n_total, y, out=n_total)

        # dry continuum: Debye spectrum of oxygen plus pressure-induced nitrogen,
        # n_total += f p theta^2 (6.14e-5 / (d (1 + (f/d)^2))
        #                         + 1.4e-12 p theta^1.5 / (1 + 1.9e-5 f^1.5))
        np.multiply(f, p, out=x)
        np.multiply(x, theta2, out=x)
        np.divide(f, d, out=y)
        np.square(y, out=y)
        np.add(1.0, y, out=y)
        np.multiply(d, y, out=y)
        np.divide(6.14e-5, y, out=y)
        np.power(f, 1.5, out=below)
        np.multiply(1.9e-5, below, out=below)
        np.add(1.0, below, out=below)
        np.divide(nitrogen, below, out=z)
        np.add(y, z, out=y)
        np.multiply(x, y, out=x)
        np.add(n_total, x, out=n_total)

        for fi, si, df, df2 in water:
            _offsets(fi, f, cols)
            # df / ((fi - f)^2 + df^2) + df / ((fi + f)^2 + df^2)
            np.add(below2, df2, out=x)
            np.divide(df, x, out=x)
            np.add(above2, df2, out=y)
            np.divide(df, y, out=y)
            np.add(x, y, out=x)
            np.multiply(si, ratio, out=y)
            np.multiply(y, x, out=y)
            np.add(n_total, y, out=n_total)

        np.multiply(0.1820 * f, n_total, out=n_total)
        yield lo, np.maximum(n_total, 0.0, out=n_total)


def _each_block(
    f_ghz: np.ndarray, factors: tuple, consume: Callable[[int, np.ndarray], None]
) -> None:
    """Hand every gamma block of _gamma_blocks to ``consume(lo, gamma)``, on all CPUs.

    The frequency axis is cut at multiples of _FREQ_BLOCK into one
    contiguous run of whole blocks per usable CPU, at most one run per
    block.  The calling thread computes the first run; each other run
    gets a thread of its own, which drives its own _gamma_blocks, with
    its own buffers, and calls ``consume`` from that thread.  numpy
    releases the GIL inside its loops, so the runs overlap.  ``consume``
    must write only what belongs to rows ``lo : lo + len(gamma)``; then
    no two threads write the same element, and since the blocks are the
    single-threaded ones, the bytes do not depend on the thread count.

    Each thread runs in a copy of the caller's context, so numpy's error
    state (``np.errstate``) holds in all of them.  Every thread is joined
    before this returns; the first exception, in frequency order, is then
    re-raised in the caller.
    """
    f = np.asarray(f_ghz, dtype=float).reshape(-1)
    n_blocks = -(-f.shape[0] // _FREQ_BLOCK)
    if n_blocks == 0:
        return
    n_runs = min(_cpu_count(), n_blocks)
    cuts = [min(n_blocks * k // n_runs * _FREQ_BLOCK, f.shape[0]) for k in range(n_runs + 1)]
    errors: list[BaseException | None] = [None] * n_runs

    def run(k: int) -> None:
        start = cuts[k]
        try:
            for lo, gamma in _gamma_blocks(f[start : cuts[k + 1]], factors):
                consume(start + lo, gamma)
        except BaseException as exc:  # re-raised in the caller
            errors[k] = exc

    threads = [
        Thread(target=contextvars.copy_context().run, args=(run, k)) for k in range(1, n_runs)
    ]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _offsets(fi: float, f: np.ndarray, columns: list[np.ndarray]) -> None:
    """Write fi - f, fi + f, their squares and f / fi for one line into columns."""
    below, above, below2, above2, ratio = columns
    np.subtract(fi, f, out=below)
    np.add(fi, f, out=above)
    np.square(below, out=below2)
    np.square(above, out=above2)
    np.divide(f, fi, out=ratio)


def _check_freq(frequency_ghz: np.ndarray | float) -> None:
    f = np.asarray(frequency_ghz, dtype=float)
    # written as "not inside" so that NaN is rejected too
    bad = f[~((f >= FREQ_MIN_GHZ) & (f <= FREQ_MAX_GHZ))]
    if bad.size:
        raise ValueError(
            f"frequency must lie in [{FREQ_MIN_GHZ}, {FREQ_MAX_GHZ}] GHz: "
            f"{float(bad.flat[0])!r} is out of range ({bad.size} of {f.size} values)"
        )


def specific_attenuation(frequency_ghz: float, state: AtmosphericState) -> float:
    """Gaseous specific attenuation gamma(f) in dB/km at one state point."""
    _check_freq(frequency_ghz)
    return float(attenuation_spectrum(np.array([frequency_ghz]), state)[0])


def attenuation_spectrum(frequency_ghz: np.ndarray, state: AtmosphericState) -> np.ndarray:
    """Vectorized gamma(f) in dB/km at a fixed state."""
    _check_freq(frequency_ghz)
    states = ([state.temperature_k], [state.pressure_hpa], [state.water_vapor_density_g_m3])
    f = np.asarray(frequency_ghz, dtype=float)
    out = np.empty(f.size)

    def consume(lo: int, gamma: np.ndarray) -> None:
        out[lo : lo + gamma.shape[0]] = gamma[:, 0]

    _each_block(f, _line_factors(*states, default_line_table()), consume)
    return out.reshape(f.shape)


# ---------------------------------------------------------------------------
# slant-path integration
# ---------------------------------------------------------------------------


class SlantPathSpec(Record):
    """Straight ray from a start altitude at a fixed elevation angle.

    The path altitude is h(s) = start + s * sin(elevation); contributions
    above 100 km are clipped to zero.
    """

    elevation_deg: float
    start_altitude_km: float = 0.0
    slant_distance_km: float = 1.0

    def _validate(self) -> None:
        # written as "not inside" so that NaN is rejected too
        if not 0.0 < self.elevation_deg <= 90.0:
            raise ValueError(f"elevation must lie in (0, 90] deg: {self.elevation_deg!r}")
        if not self.start_altitude_km >= 0.0:
            raise ValueError(f"start altitude must be >= 0: {self.start_altitude_km!r}")
        if not self.slant_distance_km > 0.0:
            raise ValueError(f"slant distance must be > 0: {self.slant_distance_km!r}")


_FINE_STEP_KM = 0.1  # below 10 km altitude
_COARSE_STEP_KM = 1.0  # above 10 km altitude
_FINE_REGION_TOP_KM = 10.0


def _path_nodes(path: SlantPathSpec, step_scale: float) -> np.ndarray:
    """Integration nodes in path length, fine near the ground (start < 100 km)."""
    sin_el = math.sin(math.radians(path.elevation_deg))
    s_top = (TOP_ALTITUDE_KM - path.start_altitude_km) / sin_el
    s_end = min(path.slant_distance_km, s_top)
    segments = []
    s_lo = 0.0
    if path.start_altitude_km < _FINE_REGION_TOP_KM:
        s_lo = min(s_end, (_FINE_REGION_TOP_KM - path.start_altitude_km) / sin_el)
        n = max(2, int(math.ceil(s_lo / (_FINE_STEP_KM * step_scale))) + 1)
        segments.append(np.linspace(0.0, s_lo, n))
    if s_end > s_lo:
        n = max(2, int(math.ceil((s_end - s_lo) / (_COARSE_STEP_KM * step_scale))) + 1)
        segments.append(np.linspace(s_lo, s_end, n))
    return np.unique(np.concatenate(segments))


def slant_attenuation_spectra(
    elevation_deg: float,
    start_altitude_km: float,
    slants_km: Sequence[float],
    frequency_ghz: np.ndarray,
    step_scale: float = 1.0,
) -> np.ndarray:
    """Total gas attenuation (dB) of slants along one ray, shape (slants, f).

    gamma is evaluated once, on the union of the slants' path-length
    nodes: its state-only line factors in one pass, then blockwise over
    frequency in buffers reused by every block, the blocks split over the
    usable CPUs by _each_block.  Each slant is integrated by the trapezoid
    rule over its own nodes, at most 0.1 km apart below 10 km altitude and
    1 km above (times ``step_scale``, which tests use for convergence
    checks), block by block on the thread that computed the block.  The
    bytes depend neither on the block size nor on the thread count.
    """
    _check_freq(frequency_ghz)
    if not step_scale > 0.0:
        raise ValueError("step_scale must be > 0")
    if len(slants_km) == 0:
        raise ValueError("need at least one slant distance")
    paths = [SlantPathSpec(elevation_deg, start_altitude_km, s) for s in slants_km]
    f = np.asarray(frequency_ghz, dtype=float).reshape(-1)
    out = np.zeros((len(paths), f.shape[0]))
    if start_altitude_km >= TOP_ALTITUDE_KM:
        return out
    nodes = [_path_nodes(path, step_scale) for path in paths]
    union, inverse = np.unique(np.concatenate(nodes), return_inverse=True)
    idx = np.split(inverse, np.cumsum([len(n) for n in nodes[:-1]]))
    h = start_altitude_km + union * math.sin(math.radians(elevation_deg))
    factors = _line_factors(
        *default_profile().states_at(np.clip(h, 0.0, TOP_ALTITUDE_KM)), default_line_table()
    )

    def consume(lo: int, gamma: np.ndarray) -> None:
        for j in range(len(paths)):
            # the copy keeps the one-path summation order: numpy sums the
            # non-contiguous fancy-indexed slice differently, which moved
            # 2911 of 4000 fig4 values by up to 2e-15 relative
            out[j, lo : lo + gamma.shape[0]] = np.trapezoid(
                np.ascontiguousarray(gamma[:, idx[j]]), nodes[j], axis=1
            )

    _each_block(f, factors, consume)
    return out


def slant_attenuation_spectrum(
    path: SlantPathSpec, frequency_ghz: np.ndarray, step_scale: float = 1.0
) -> np.ndarray:
    """Total gas attenuation (dB) along one path, vectorized over frequency."""
    return slant_attenuation_spectra(
        path.elevation_deg, path.start_altitude_km, [path.slant_distance_km],
        frequency_ghz, step_scale,
    )[0]


def slant_attenuation(path: SlantPathSpec, frequency_ghz: float, step_scale: float = 1.0) -> float:
    """Total gas attenuation in dB along a slant path at one frequency."""
    return float(slant_attenuation_spectrum(path, np.array([frequency_ghz]), step_scale)[0])
