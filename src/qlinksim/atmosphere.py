"""Gas attenuation and thermal background for slant paths through the atmosphere.

Implements the line-by-line specific attenuation of Rec. ITU-R P.676
Annex 1 (44 oxygen lines, 35 water-vapour lines, dry-air continuum),
and its integration along straight slant rays from the ground through
the one built-in mean annual global reference atmosphere (Rec. ITU-R
P.835 style), by 3-point Gauss-Legendre panels between the ray's 1 km
altitude crossings.  The Bose-Einstein mean thermal photon occupancy
lives in mathfn, which needs no numpy, and is re-exported here.

The spectroscopic coefficients ship as plain-text data files whose
SHA-256 digests are verified at load time against a bundled manifest.
"""

from __future__ import annotations

import hashlib
import io
import math
from collections.abc import Iterator, Sequence
from functools import lru_cache
from importlib import resources

import numpy as np

from .mathfn import thermal_photon_number
from .record import Record

__all__ = [
    "default_line_table",
    "slant_attenuation_spectrum",
    "slant_attenuation_spectra",
    "thermal_photon_number",
]

FREQ_MIN_GHZ = 1.0
FREQ_MAX_GHZ = 1000.0

# integration ceiling: absorber densities above this altitude contribute
# nothing at the accuracy targets of this model
TOP_ALTITUDE_KM = 100.0


def _read_checked(name: str) -> bytes:
    data_dir = resources.files(__package__) / "data"
    raw = (data_dir / name).read_bytes()
    expected = None
    for line in (data_dir / "MANIFEST.sha256").read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"MANIFEST.sha256 line must be a digest and a file name: {line!r}")
        digest, fname = fields
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


@lru_cache(maxsize=1)
def default_line_table() -> tuple[np.ndarray, np.ndarray]:
    """The bundled (oxygen, water) resonance-line coefficients, checksums verified.

    Each row holds a line centre frequency (GHz) followed by the six
    strength/width/interference coefficients of Rec. ITU-R P.676 Annex 1:
    44 oxygen lines and 35 water-vapour lines, centres strictly increasing.
    """
    tables = []
    for name, lines in (("oxygen", 44), ("water", 35)):
        table = np.loadtxt(io.BytesIO(_read_checked(f"{name}_lines.txt")), ndmin=2)
        if table.shape != (lines, 7):
            raise ValueError(f"expected {lines} {name} lines x 7 columns: {table.shape}")
        if not np.all(np.diff(table[:, 0]) > 0.0):
            raise ValueError(f"{name} line centers must be strictly increasing")
        tables.append(table)
    return tables[0], tables[1]


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


class _ReferenceProfile(Record, eq=False):
    """Altitude table of the reference atmosphere, built by default_profile().

    Temperature interpolates linearly in altitude between nodes; pressure
    and water-vapour density, positive at every node, interpolate
    exponentially (linearly in log).
    """

    altitude_km: np.ndarray
    temperature_k: np.ndarray
    pressure_hpa: np.ndarray
    water_vapor_g_m3: np.ndarray

    def states_at(self, h_km: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized (T, P, rho) at the requested altitudes."""
        h = np.asarray(h_km, dtype=float)
        lo, top = float(self.altitude_km[0]), float(self.altitude_km[-1])
        bad = h[(h < lo) | (h > top)]
        if bad.size:
            raise ValueError(
                f"altitude {float(bad.flat[0])!r} km is outside the profile range "
                f"[{lo!r}, {top!r}] km ({bad.size} of {h.size} values)"
            )
        t = np.interp(h, self.altitude_km, self.temperature_k)
        p, rho = (
            np.exp(np.interp(h, self.altitude_km, np.log(values)))
            for values in (self.pressure_hpa, self.water_vapor_g_m3)
        )
        return t, p, rho


@lru_cache(maxsize=1)
def default_profile() -> _ReferenceProfile:
    """Mean annual global profile with 1 km nodes from 0 to 100 km.

    Surface values 288.15 K, 1013.25 hPa, 7.5 g/m^3; water vapour decays
    with a 2 km scale height down to a mixing-ratio floor of e/P = 2e-6.
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
    return _ReferenceProfile(
        altitude_km=alts, temperature_k=t, pressure_hpa=p, water_vapor_g_m3=rho
    )


# ---------------------------------------------------------------------------
# line-by-line specific attenuation
# ---------------------------------------------------------------------------


# frequencies per gamma block: _gamma_blocks' four buffers hold rows x nodes
# elements and stay allocated for the whole call, and a block costs about
# 1,200 numpy calls whatever its size, each with about 1 us of fixed overhead.
# So a block holds _BLOCK_ELEMENTS // nodes frequencies, but never fewer than
# _FREQ_BLOCK.
# The budget, measured on the unbuffered kernel: on a 2-core KVM host, numpy
# 2.4, one thread, 60 rounds in one process with the budgets in shuffled order,
# the median fig4 + fig5 pass and fig4 gamma call at fig4's 69 nodes read
# 50 / 41 ms at a fixed 84 rows, 38 / 29 ms at 11.6k (168 rows), 34 / 26 ms at
# 17.25k (250 rows), 35 / 27 ms at 20k (289 rows) and 32 / 24 ms at 34.5k
# (500 rows).  A fresh process's peak RSS, 34.5 MB at 84 rows, moved by under
# 0.3 MB up to 20k and by 0.7 MB at 34.5k.  The traced peak of fig4's call
# read 0.51, 0.77, 1.03, 1.16 and 1.83 MB, so 34.5k's gain would break the
# 1.25 MB bound of test_gamma_buffers_bound_the_traced_peak_of_fig4.  17.25k
# is the fastest budget inside it: 250 rows at 69 nodes, 159 at the default
# grid's 108, the floor from 206 up.
# The floor: 2000 slants at 30 degrees (6,102 nodes, 500 frequencies) get 2
# rows from the budget alone, and the per-slant weighted sums, run once per
# block, took that command 5.3-5.6 s against 3.3-3.4 s at 84 rows; a fixed 250
# rows took 3.6-3.8 s.
# The bytes do not depend on the block (fig4 at 1, 7, 125 and 1000 agree).
_BLOCK_ELEMENTS = 17_250
_FREQ_BLOCK = 84


def _block_rows(nodes: int) -> int:
    """Frequencies per gamma block on nodes states: the budget's share, at least _FREQ_BLOCK."""
    return max(_FREQ_BLOCK, _BLOCK_ELEMENTS // nodes)


def _node_major(nodes: int) -> bool:
    """Whether gamma's blocks on nodes states are (nodes x frequencies), frequencies contiguous.

    The longer of the node count and the block's frequency count is the
    contiguous axis.  fig4's 69 nodes with 250 frequencies, and the
    default grid's 108 with 159, run node-major; from 132 nodes up the
    block (130 frequencies, 84 from 206 nodes up) is the shorter axis,
    and gamma is (frequencies x nodes).
    """
    return nodes <= _block_rows(nodes)


def _line_factors(
    t_k: np.ndarray,
    p_total_hpa: np.ndarray,
    rho_g_m3: np.ndarray,
    oxygen_lines: np.ndarray,
    water_lines: np.ndarray,
) -> tuple:
    """State-only factors of the line-by-line model, shaped for gamma's orientation.

    Returns ``(node_major, p, theta2, d, nitrogen, oxygen, water)``: the
    orientation, the dry-air partial pressure, theta^2 with theta =
    300/T, the Debye width of the continuum (1.0 where it is 0, see
    below), the pressure-induced nitrogen numerator 1.4e-12 p theta^1.5,
    and per line the centre frequency with the factors that do not depend
    on frequency, ``(fi, si, df, delta, df*df)`` for oxygen and
    ``(fi, si, df, df*df)`` for water vapour.  Computed once per call and
    shared, read-only, by every frequency block.

    The orientation is _node_major(len(states)).  Node-major factors
    are (len(states), 1) columns, so that gamma's blocks are (nodes x
    frequencies) with the frequencies contiguous; the others are
    (1, len(states)) rows, and the blocks (frequencies x nodes).  Only
    the shapes differ: every element is the same in both.
    """
    t = np.asarray(t_k, dtype=float)
    node_major = _node_major(t.size)
    shape = (-1, 1) if node_major else (1, -1)
    t = t.reshape(shape)
    theta = 300.0 / t
    e = np.asarray(rho_g_m3, dtype=float).reshape(shape) * t / 216.7
    # the recommendation parametrizes widths with the dry-air partial pressure
    p = np.maximum(np.asarray(p_total_hpa, dtype=float).reshape(shape) - e, 0.0)

    # the Debye width is 0 where p + e is (vacuum) or underflows with it; the
    # continuum's prefactor f p is then 0 or subnormal, and a width of 1 makes
    # the term 0 or negligible instead of 0 * inf = NaN.  Where d > 0, no byte
    # changes
    d = 5.6e-4 * (p + e) * theta**0.8
    d = np.where(d > 0.0, d, 1.0)

    oxygen = []
    for fi, a1, a2, a3, a4, a5, a6 in oxygen_lines:
        si = a1 * 1e-7 * p * theta**3 * np.exp(a2 * (1.0 - theta))
        df = a3 * 1e-4 * (p * theta ** (0.8 - a4) + 1.1 * e * theta)
        df = np.sqrt(df * df + 2.25e-6)  # Zeeman/Doppler floor
        delta = (a5 + a6 * theta) * 1e-4 * (p + e) * theta**0.8
        oxygen.append((fi, si, df, delta, df * df))

    water = []
    for fi, b1, b2, b3, b4, b5, b6 in water_lines:
        si = b1 * 1e-1 * e * theta**3.5 * np.exp(b2 * (1.0 - theta))
        df = b3 * 1e-4 * (p * theta**b4 + b5 * e * theta**b6)
        df = 0.535 * df + np.sqrt(0.217 * df * df + 2.1316e-12 * fi * fi / theta)
        water.append((fi, si, df, df * df))

    return node_major, p, theta**2, d, 1.4e-12 * p * theta**1.5, oxygen, water


def _gamma_blocks(f_ghz: np.ndarray, factors: tuple) -> Iterator[tuple[int, np.ndarray]]:
    """Specific attenuation in dB/km, _block_rows(len(states)) frequencies at a time.

    Yields ``(lo, gamma)`` for the frequencies ``f_ghz[lo : lo + block]``,
    gamma C-contiguous and of shape (len(states), block) if the factors
    are node-major (see _line_factors), else (block, len(states)).  Van
    Vleck-Weisskopf line shapes with pressure-induced interference for
    oxygen, Doppler-broadened shapes for water vapour, plus the
    non-resonant Debye / pressure-induced nitrogen continuum.

    gamma and its three work buffers, each of rows x nodes elements, are
    allocated once per call and overwritten by the next block, so
    consume gamma before advancing; each block takes a prefix of each,
    so a short last block is C-contiguous too.  Each line's fi - f,
    fi + f, their squares and f / fi are frequency-only rows (node-major)
    or columns, written as plain expressions: buffers for them saved no
    time.  Every full-size operation, the continuum's included, is a
    correctly rounded +, -, x or / taken in the per-element order of the
    expression form, which keeps every output byte independent of the
    block size and of the orientation.

    The full-size operations broadcast a node column against a frequency
    row.  NumPy copies such an operation through its ufunc buffer (8192
    elements by default) whenever the contiguous axis is shorter than
    that buffer, so each block computes with a 16-element buffer, which
    runs them unbuffered, and along the longer axis (_node_major).  The
    buffer size is scoped to an np.errstate that each block leaves before
    it yields, so the caller's own work, and a generator abandoned
    between blocks, keep the caller's buffer size.
    """
    node_major, p, theta2, d, nitrogen, oxygen, water = factors
    nodes = p.size
    f_all = np.asarray(f_ghz, dtype=float).reshape(-1)
    block = _block_rows(nodes)
    flat = [np.empty(min(block, f_all.size) * nodes) for _ in range(4)]

    for lo in range(0, f_all.size, block):
        f = f_all[lo : lo + block]
        shape = (nodes, f.size) if node_major else (f.size, nodes)
        f = f.reshape((1, -1) if node_major else (-1, 1))
        n_total, x, y, z = (g[: f.size * nodes].reshape(shape) for g in flat)
        with np.errstate():
            np.setbufsize(16)
            n_total.fill(0.0)

            for fi, si, df, delta, df2 in oxygen:
                below, above = fi - f, fi + f
                # (df - delta (fi - f)) / ((fi - f)^2 + df^2)
                np.multiply(delta, below, out=x)
                np.subtract(df, x, out=x)
                np.add(below * below, df2, out=y)
                np.divide(x, y, out=x)
                # + (df - delta (fi + f)) / ((fi + f)^2 + df^2)
                np.multiply(delta, above, out=y)
                np.subtract(df, y, out=y)
                np.add(above * above, df2, out=z)
                np.divide(y, z, out=y)
                np.add(x, y, out=x)
                # n_total += si (f / fi) shape
                np.multiply(si, f / fi, out=y)
                np.multiply(y, x, out=y)
                np.add(n_total, y, out=n_total)

            # dry continuum: Debye spectrum of oxygen plus pressure-induced nitrogen,
            # n_total += f p theta^2 (6.14e-5 / (d (1 + (f/d)^2))
            #                         + 1.4e-12 p theta^1.5 / (1 + 1.9e-5 f^1.5))
            np.multiply(f, p, out=x)
            x *= theta2
            # below about 1e-151 f[GHz] hPa of dry plus vapour pressure, f/d or its
            # square overflows to inf and the Debye term reads its limit, an exact 0;
            # that overflow is the answer, not an error.  No byte changes
            with np.errstate(over="ignore"):
                np.divide(f, d, out=y)
                y *= y
                y += 1.0
                y *= d
            np.divide(6.14e-5, y, out=y)
            np.divide(nitrogen, 1.0 + 1.9e-5 * f**1.5, out=z)
            y += z
            x *= y
            n_total += x

            for fi, si, df, df2 in water:
                below, above = fi - f, fi + f
                # df / ((fi - f)^2 + df^2) + df / ((fi + f)^2 + df^2)
                np.add(below * below, df2, out=x)
                np.divide(df, x, out=x)
                np.add(above * above, df2, out=y)
                np.divide(df, y, out=y)
                np.add(x, y, out=x)
                np.multiply(si, f / fi, out=y)
                np.multiply(y, x, out=y)
                np.add(n_total, y, out=n_total)

            np.multiply(0.1820 * f, n_total, out=n_total)
            np.maximum(n_total, 0.0, out=n_total)
        yield lo, n_total


def _check_freq(frequency_ghz: np.ndarray | float) -> None:
    f = np.asarray(frequency_ghz, dtype=float)
    # written as "not inside" so that NaN is rejected too
    bad = f[~((f >= FREQ_MIN_GHZ) & (f <= FREQ_MAX_GHZ))]
    if bad.size:
        raise ValueError(
            f"frequency must lie in [{FREQ_MIN_GHZ}, {FREQ_MAX_GHZ}] GHz: "
            f"{float(bad.flat[0])!r} is out of range ({bad.size} of {f.size} values)"
        )


# ---------------------------------------------------------------------------
# slant-path integration
# ---------------------------------------------------------------------------


# the 3-point Gauss-Legendre rule on [-1, 1], exact for polynomials up to
# degree 5.  Written out, not taken from numpy.polynomial, whose import
# atmos-grid would pay on every run
_GL_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GL_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def _slant_rule(elevation_deg: float, slant_km: float) -> tuple[np.ndarray, np.ndarray]:
    """Integration nodes and weights in path length, for the integral of gamma along a slant.

    The slant is a straight ray from the ground at elevation_deg, whose
    altitude is h(s) = s * sin(elevation); nothing above 100 km counts.

    The panels are the stretches of the ray between its consecutive
    1 km-altitude crossings, at path lengths k / sin(elevation) for
    k = 0, 1, ..., and the last panel is a partial one that ends at the
    slant's end: the slant distance, or the 100 km crossing if that comes
    first.  The reference profile interpolates between 1 km nodes, so
    gamma is smooth inside each panel, and each panel takes the 3-point
    Gauss-Legendre rule: at most 3 nodes per km of altitude plus 3 for
    the end, 303 in all.  A panel's nodes depend on its two edges alone,
    so the slants of one ray share every panel but their last.  A ray so
    shallow that its sine underflows to 0 never leaves the ground and
    gets the one panel [0, slant].
    """
    sin_el = math.sin(math.radians(elevation_deg))

    def reach(h_km: float) -> float:
        # path length up to altitude h_km; a ray so shallow that its sine
        # underflows to 0 never gets there
        return h_km / sin_el if sin_el > 0.0 else math.inf

    s_end = min(slant_km, reach(TOP_ALTITUDE_KM))
    crossings = (reach(k) for k in range(1, int(TOP_ALTITUDE_KM)))
    edges = np.array([0.0, *(s for s in crossings if s < s_end), s_end])
    mid = ((edges[1:] + edges[:-1]) / 2.0)[:, None]
    half = ((edges[1:] - edges[:-1]) / 2.0)[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def slant_attenuation_spectra(
    elevation_deg: float, slants_km: Sequence[float], frequency_ghz: np.ndarray
) -> np.ndarray:
    """Total gas attenuation (dB) of slants along one ray from the ground, shape (slants, f).

    Each slant is integrated by _slant_rule's Gauss-Legendre panels
    between the ray's 1 km-altitude crossings.  The slants share every
    panel but their last, so gamma is evaluated once, on the union of
    their nodes: its state-only line factors in one pass, then blockwise
    over frequency in buffers reused by every block.  Each block runs
    unbuffered along its longer axis (see _gamma_blocks): node-major,
    gamma (nodes x frequencies), where the union has no more nodes than a
    block has frequencies, as for fig4 and the default grid; else
    (frequencies x nodes), as for a ray of hundreds of slants.  NumPy's
    ufunc buffer size is the caller's again when this returns.  Each
    slant's integral is the sum of gamma times its weights over its own
    nodes, an elementwise product summed along the contiguous axis of a
    (frequencies x that slant's nodes) copy in either orientation.  A
    slant's nodes depend on the ray and that slant alone, so its bytes do
    not depend on the other slants, nor on the block size or the
    orientation.
    """
    _check_freq(frequency_ghz)
    if len(slants_km) == 0:
        raise ValueError("need at least one slant distance")
    # written as "not inside" so that NaN is rejected too
    if not 0.0 < elevation_deg <= 90.0:
        raise ValueError(f"elevation must lie in (0, 90] deg: {elevation_deg!r}")
    for slant in slants_km:
        if not slant > 0.0:
            raise ValueError(f"slant distance must be > 0: {slant!r}")
    rules = [_slant_rule(elevation_deg, s) for s in slants_km]
    f = np.asarray(frequency_ghz, dtype=float).reshape(-1)
    out = np.zeros((len(rules), f.shape[0]))
    union, inverse = np.unique(np.concatenate([nodes for nodes, _ in rules]), return_inverse=True)
    idx = np.split(inverse, np.cumsum([len(nodes) for nodes, _ in rules[:-1]]))
    h = union * math.sin(math.radians(elevation_deg))
    factors = _line_factors(
        *default_profile().states_at(np.clip(h, 0.0, TOP_ALTITUDE_KM)), *default_line_table()
    )
    node_major = factors[0]
    for lo, gamma in _gamma_blocks(f, factors):
        for j, (i, (_, weights)) in enumerate(zip(idx, rules)):
            # np.take, unlike gamma[:, i], returns a C-contiguous copy.  Each
            # slant's sum runs along the contiguous axis of a (frequencies x
            # its nodes) copy, so each row is summed in the same order whatever
            # the block and the orientation; a node-major block's weighted rows
            # are transposed into that copy first
            if node_major:
                part = np.take(gamma, i, axis=0)
                part *= weights[:, None]
                part = np.ascontiguousarray(part.T)
            else:
                part = np.take(gamma, i, axis=1)
                part *= weights
            out[j, lo : lo + part.shape[0]] = part.sum(axis=1)
    return out


def slant_attenuation_spectrum(
    elevation_deg: float, slant_km: float, frequency_ghz: np.ndarray
) -> np.ndarray:
    """Total gas attenuation (dB) along one slant, vectorized over frequency."""
    return slant_attenuation_spectra(elevation_deg, [slant_km], frequency_ghz)[0]
