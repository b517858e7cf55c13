"""Satellite-to-ground optical downlink: geometry, beam spread, transmissivity.

The channel model is deterministic (mean long-term beam): diffraction of
a Gaussian beam, turbulence-induced spread via the spherical-wave
coherence length over a Hufnagel-Valley profile, pointing jitter folded
in as an additive variance, circular-aperture collection, and an
airmass-law extinction factor.  No fading statistics are drawn.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from .mathfn import EARTH_RADIUS_KM
from .record import Record, derived

__all__ = ["ChannelOutput", "FsoChannelParams", "slant_range"]

MAX_ZENITH_DEG = 80.0
# fields the channel formulas square, and the bound that keeps each square finite
_SQUARED_FIELDS = ("wavelength_nm", "w0_m", "aperture_m", "hv_wind", "jitter_urad")
_SQUARE_LIMIT = math.sqrt(sys.float_info.max)
# the smallest 2 a^2 / w^2 at which the evaluated collection, -expm1(-x), is
# 1: from there exp(-x) is under half an ulp of 1
_SATURATED_X = 54.0 * math.log(2.0)


def slant_range(altitude_km: float, zenith_deg: float) -> float:
    """Ground-to-satellite range in km for a spherical Earth.

    z = sqrt((R + h)^2 - R^2 sin^2(zeta)) - R cos(zeta).
    """
    return _slant_range(altitude_km, *_slant_constants(zenith_deg))


def _slant_constants(zenith_deg: float) -> tuple[float, float]:
    """(R^2 sin^2(zeta), R cos(zeta)): the terms of the slant range that no altitude changes."""
    r = EARTH_RADIUS_KM
    zeta = math.radians(zenith_deg)
    return (r * math.sin(zeta)) ** 2, r * math.cos(zeta)


def _slant_range(altitude_km: float, r_sin_sq: float, r_cos: float) -> float:
    """slant_range from its constant terms, as _slant_constants gives them."""
    return math.sqrt((EARTH_RADIUS_KM + altitude_km) ** 2 - r_sin_sq) - r_cos


def _cn2(altitude_m: float, hv_ground_cn2: float, hv_wind_m_s: float) -> float:
    """Hufnagel-Valley structure constant Cn^2(h) in m^(-2/3), h in metres above ground.

    hv_ground_cn2 is the ground-level constant A, hv_wind_m_s the
    upper-air rms wind speed.
    """
    h = altitude_m
    return (
        0.00594 * (hv_wind_m_s / 27.0) ** 2 * (1e-5 * h) ** 10 * math.exp(-h / 1000.0)
        + 2.7e-16 * math.exp(-h / 1500.0)
        + hv_ground_cn2 * math.exp(-h / 100.0)
    )


# turbulence above this altitude is negligible for any HV-style profile
_TURB_TOP_KM = 60.0
# integration nodes in metres, spaced by the HV decay scales: 5 m up to 2 km
# (100 m scale term), 50 m up to 30 km, 500 m up to the turbulence ceiling
_TURB_NODES_M = tuple(
    start + step * i
    for start, stop, step in ((0.0, 2e3, 5.0), (2e3, 30e3, 50.0), (30e3, _TURB_TOP_KM * 1e3, 500.0))
    for i in range(round((stop - start) / step))
) + (_TURB_TOP_KM * 1e3,)


@lru_cache(maxsize=32)
def _turbulence_moment(zenith_deg: float, hv_ground_cn2: float, hv_wind_m_s: float) -> float:
    """Path integral int Cn2(h) * s'(h)^(5/3) ds' with s' the range from ground.

    Independent of the satellite range for end altitudes above the
    turbulent layer, so it is cached per geometry/profile.  Uses the
    spherical ray s'(h) = sqrt(R^2 cos^2(zeta) + 2 R h + h^2) - R cos(zeta)
    with all lengths in metres.
    """
    r = EARTH_RADIUS_KM * 1e3
    cos_z = math.cos(math.radians(zenith_deg))
    h = _TURB_NODES_M
    integrand = []
    for hi in h:
        root = math.sqrt((r * cos_z) ** 2 + 2.0 * r * hi + hi * hi)
        s = root - r * cos_z
        ds_dh = (r + hi) / root
        integrand.append(_cn2(hi, hv_ground_cn2, hv_wind_m_s) * s ** (5.0 / 3.0) * ds_dh)
    # trapezoid terms as numpy.trapezoid forms them, summed exactly
    return math.fsum(
        (h[i + 1] - h[i]) * (integrand[i + 1] + integrand[i]) / 2.0 for i in range(len(h) - 1)
    )


class ChannelOutput(Record):
    """End-to-end optical channel: the factors of its total transmissivity."""

    geometric_collection: float
    extinction: float
    slant_range_km: float
    long_term_beam_radius_m: float

    def _validate(self) -> None:
        for name in ("geometric_collection", "extinction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]: {value!r}")

    @property
    def transmissivity(self) -> float:
        """Total transmissivity: geometric collection times extinction."""
        return self.geometric_collection * self.extinction


class FsoChannelParams(Record):
    """Every downlink parameter except the satellite altitude.

    A Gaussian beam of wavelength wavelength_nm and exit waist w0_m,
    received by a circular aperture of radius aperture_m at zenith angle
    zenith_deg.  hv_ground_cn2 (m^(-2/3)) and hv_wind (m/s) set the
    Hufnagel-Valley profile; jitter_urad is a bias-free radial pointing
    jitter that widens the long-term spot as an additive (z sigma)^2
    variance; tau_zenith is the clear-sky transmissivity at zenith.
    """

    wavelength_nm: float = 800.0
    w0_m: float = 0.20
    aperture_m: float = 0.70
    zenith_deg: float = 80.0
    hv_ground_cn2: float = 1.7e-13
    hv_wind: float = 21.0
    jitter_urad: float = 2.91
    tau_zenith: float = 0.91

    def _validate(self) -> None:
        for name in ("wavelength_nm", "w0_m", "aperture_m"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0: {value!r}")
        for name in ("hv_ground_cn2", "hv_wind", "jitter_urad"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0: {value!r}")
        for name in _SQUARED_FIELDS:
            value = getattr(self, name)
            # the model squares these; a square that overflows raises OverflowError
            if not value < _SQUARE_LIMIT:
                raise ValueError(f"{name} is too large: {value!r}")
        if not 0.0 < self.tau_zenith <= 1.0:
            raise ValueError(f"tau_zenith must lie in (0, 1]: {self.tau_zenith!r}")
        if not 0.0 <= self.zenith_deg <= MAX_ZENITH_DEG:
            # beyond 80 deg the straight-ray and airmass approximations break down
            raise ValueError(f"zenith_deg must lie in [0, {MAX_ZENITH_DEG}]")

    def at_altitude(self, altitude_km: float) -> ChannelOutput:
        """Deterministic mean-channel transmissivity with the satellite at altitude_km.

        rho_0 = [1.46 k^2 sec(zeta) * int Cn2(h(s)) ((z - s)/z)^(5/3) ds]^(-3/5)
        is the spherical-wave coherence length, with s measured from the
        satellite so the (z - s) weighting counts range from the receiver;
        the long-term beam radius is
        w_LT^2 = w_d^2(z) + 2 (lambda z / (pi rho_0))^2 + (z sigma_jitter)^2,
        with w_d the vacuum Gaussian-beam radius at range z.  The aperture
        collects 1 - exp(-2 a^2 / w_LT^2) of the beam, formed as
        -expm1(-2 a^2 / w_LT^2) so that no digit cancels in the far field,
        and extinction follows the airmass law tau_zenith ** sec(zeta).
        All of it is evaluated by _law_at, through _range_law's
        w_LT^2 = A + B z^2, the law whose reads altitude_at checks its
        answer with; a beam radius that is not representable raises
        ValueError.
        """
        if not altitude_km > 0.0:
            raise ValueError(f"altitude must be > 0 km: {altitude_km!r}")
        try:
            z_km, w_sq, collection = self._law_at(altitude_km)
            if not math.isfinite(w_sq):
                raise OverflowError(f"long-term beam radius squared is not finite: {w_sq!r}")
        except ArithmeticError as exc:  # OverflowError, ZeroDivisionError
            raise ValueError(
                f"channel leaves floating-point range at altitude_km={altitude_km!r}: {self!r}"
            ) from exc
        # positional, in field order: (geometric_collection, extinction,
        # slant_range_km, long_term_beam_radius_m)
        return ChannelOutput(collection, self._range_law[2], z_km, math.sqrt(w_sq))

    def _law_at(self, altitude_km: float) -> tuple[float, float, float]:
        """(slant range in km, w_LT^2 in m^2, collected fraction) at altitude_km.

        The collected fraction times the extinction, _range_law[2], is the
        transmissivity, as ChannelOutput forms it.  The slant range is
        slant_range's, from the constant terms that _range_law keeps.
        """
        a, b, _, r_sin_sq, r_cos, two_a_sq = self._range_law
        z_km = _slant_range(altitude_km, r_sin_sq, r_cos)
        z_m = z_km * 1e3
        w_sq = a + b * (z_m * z_m)
        return z_km, w_sq, -math.expm1(-two_a_sq / w_sq)

    @derived
    def _range_law(self) -> tuple[float, float, float, float, float, float]:
        """(A, B, eta_ext, (R sin(zeta))^2, R cos(zeta), 2 a^2): the law both directions read.

        w_LT^2 = A + B z^2 exactly, in m^2 with z the slant range in metres,
        and eta_ext = tau_zenith ** sec(zeta) is the extinction.  The moment
        integral does not depend on z and rho_0 divides it by z^(5/3), so
        rho_0 = c z and the turbulence term 2 (lambda z / (pi rho_0))^2 =
        2 (lambda / (pi c))^2 is constant: A = w0^2 + 2 (lambda / (pi c))^2,
        and B = w0^2 / z_R^2 + sigma^2 collects the diffraction and jitter
        terms that grow as z^2.  The slant range's constant terms
        (_slant_constants) and 2 a^2 complete it, so that no read of the law
        pays for trigonometry.  Computed once per record, on first read; a
        law that leaves floating-point range raises on every read.
        """
        wavelength_m = self.wavelength_nm * 1e-9
        sec_z = 1.0 / math.cos(math.radians(self.zenith_deg))
        moment = _turbulence_moment(self.zenith_deg, self.hv_ground_cn2, self.hv_wind)
        k = 2.0 * math.pi / wavelength_m
        rho0_per_m = (1.46 * k * k * sec_z * moment) ** (-3.0 / 5.0)
        w0 = self.w0_m
        rayleigh_range_m = math.pi * w0**2 / wavelength_m
        a = w0 * w0 + 2.0 * (wavelength_m / (math.pi * rho0_per_m)) ** 2
        b = (w0 / rayleigh_range_m) ** 2 + (self.jitter_urad * 1e-6) ** 2
        extinction = self.tau_zenith**sec_z
        return (a, b, extinction, *_slant_constants(self.zenith_deg), 2.0 * self.aperture_m**2)

    def altitude_at(self, transmissivity: float) -> float:
        """The highest altitude in km that passes at least this transmissivity.

        Passing means at_altitude(h).transmissivity >= eta, rounding
        included.  Total on (0, 1]: 0.0 where no altitude passes eta (above
        eta_ext, the extinction, or the zero-range value), inf where every
        one does.  ValueError for eta outside (0, 1], and for a channel
        whose law leaves floating-point range.

        The closed form inverts the exact law: x* = -log1p(-eta / eta_ext)
        is the 2 a^2 / w^2 that collects eta / eta_ext, w*^2 = 2 a^2 / x*,
        z*^2 = (w*^2 - A) / B, and h* = q / (sqrt(q + R^2) + R) with
        q = z*^2 + 2 z* R cos(zeta), sqrt(q + R^2) - R without its
        cancellation; A, B, eta_ext, R cos(zeta) and 2 a^2 are _range_law's,
        the constants the forward law reads.  z* = inf makes h* inf / inf.
        The evaluated collection is exactly 1 from x = 54 ln 2 up, so
        eta = eta_ext maps to that x.  Rounding can leave h* off the highest
        altitude that passes, either way, so reads of the evaluated law
        (_law_at) correct it: one gallop of 1, 2, 4, ... ulps from h*, up
        while the law passes and down while it does not (0.0 where the way
        down reaches 0 without passing), brackets the answer; then
        bisection to the float above which the law stops passing.  An h*
        whose next float up fails takes two reads.  The
        steps end within 55 reads and the bisection within 53 more while
        the answer lies within a factor of two of h*, which holds while the
        collection stays under 1 - 1e-4 (the answer is then within 1e-9 km
        of h*); closer to 1, where eta hardly resolves the altitude, the
        answer can lie further off, and the steps take one read more per
        further factor of two.  The default ceilings take 2-9 reads in all.
        """
        if not 0.0 < transmissivity <= 1.0:
            raise ValueError(f"transmissivity must lie in (0, 1]: {transmissivity!r}")
        try:
            a, b, eta_ext, _, r_cos, two_a_sq = self._range_law
            if transmissivity > eta_ext:
                return 0.0
            ratio = transmissivity / eta_ext
            x = -math.log1p(-ratio) if ratio < 1.0 else _SATURATED_X
            w_sq = two_a_sq / x
            z_m_sq = (w_sq - a) / b
        except ArithmeticError as exc:  # OverflowError, ZeroDivisionError
            raise ValueError(
                f"transmissivity {transmissivity!r} leaves floating-point range: {self!r}"
            ) from exc
        if not z_m_sq > 0.0:
            return 0.0
        z_km = math.sqrt(z_m_sq) * 1e-3
        r = EARTH_RADIUS_KM
        q = z_km * z_km + 2.0 * z_km * r_cos
        altitude_km = q / (math.sqrt(q + r * r) + r)
        if not math.isfinite(altitude_km):
            return math.inf

        def passes(h: float) -> bool:
            return self._law_at(h)[2] * eta_ext >= transmissivity

        # gallop 1, 2, 4, ... ulps from h*, up while the law passes and down
        # while it does not, keeping the last altitude on h*'s side
        up = passes(altitude_km)
        last, step = altitude_km, math.ulp(altitude_km)
        while True:
            probe = altitude_km + step if up else max(altitude_km - step, 0.0)
            if passes(probe) != up:
                break
            if probe == 0.0:
                return 0.0
            last, step = probe, 2.0 * step
        lo, hi = (last, probe) if up else (probe, last)
        # bisect: lo passes, hi does not
        while True:
            mid = lo + 0.5 * (hi - lo)
            if mid in (lo, hi):
                return lo
            lo, hi = (mid, hi) if passes(mid) else (lo, mid)
