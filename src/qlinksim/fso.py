"""Satellite-to-ground optical downlink: geometry, beam spread, transmissivity.

The channel model is deterministic (mean long-term beam): diffraction of
a Gaussian beam, turbulence-induced spread via the spherical-wave
coherence length over a Hufnagel-Valley profile, pointing jitter folded
in as an additive variance, circular-aperture collection, and an
airmass-law extinction factor.  No fading statistics are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .mathfn import CONSTANTS

__all__ = ["ChannelOutput", "FsoChannelParams", "slant_range"]

MAX_ZENITH_DEG = 80.0


def slant_range(altitude_km: float, zenith_deg: float) -> float:
    """Ground-to-satellite range in km for a spherical Earth.

    z = sqrt((R + h)^2 - R^2 sin^2(zeta)) - R cos(zeta).
    """
    r = CONSTANTS.earth_radius_km
    zeta = math.radians(zenith_deg)
    return math.sqrt((r + altitude_km) ** 2 - (r * math.sin(zeta)) ** 2) - r * math.cos(zeta)


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
    r = CONSTANTS.earth_radius_km * 1e3
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


@dataclass(frozen=True)
class ChannelOutput:
    """End-to-end optical channel: total transmissivity and its factors."""

    transmissivity: float
    geometric_collection: float
    extinction: float
    slant_range_km: float
    long_term_beam_radius_m: float

    def __post_init__(self) -> None:
        for name in ("transmissivity", "geometric_collection", "extinction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]: {value!r}")
        product = self.geometric_collection * self.extinction
        if abs(product - self.transmissivity) > 1e-12 * max(product, 1e-300):
            raise ValueError("transmissivity must equal the product of its components")


@dataclass(frozen=True)
class FsoChannelParams:
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

    def __post_init__(self) -> None:
        for name in ("wavelength_nm", "w0_m", "aperture_m"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0: {value!r}")
        for name in ("hv_ground_cn2", "hv_wind", "jitter_urad"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be >= 0: {value!r}")
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
        collects 1 - exp(-2 a^2 / w_LT^2) of the beam, and extinction
        follows the airmass law tau_zenith ** sec(zeta).
        """
        if not altitude_km > 0.0:
            raise ValueError(f"altitude must be > 0 km: {altitude_km!r}")
        z_km = slant_range(altitude_km, self.zenith_deg)
        z_m = z_km * 1e3
        wavelength_m = self.wavelength_nm * 1e-9
        sec_z = 1.0 / math.cos(math.radians(self.zenith_deg))

        moment = _turbulence_moment(self.zenith_deg, self.hv_ground_cn2, self.hv_wind)
        k = 2.0 * math.pi / wavelength_m
        bracket = 1.46 * k * k * sec_z * moment / z_m ** (5.0 / 3.0)
        if not math.isfinite(bracket):
            raise ValueError("non-physical turbulence integral")
        rho0 = bracket ** (-3.0 / 5.0)

        w0 = self.w0_m
        rayleigh_range_m = math.pi * w0**2 / wavelength_m
        w_diff_sq = w0 * w0 * (1.0 + (z_m / rayleigh_range_m) ** 2)
        w_turb_sq = 2.0 * (wavelength_m * z_m / (math.pi * rho0)) ** 2
        w_jit_sq = (z_m * self.jitter_urad * 1e-6) ** 2
        w_lt = math.sqrt(w_diff_sq + w_turb_sq + w_jit_sq)

        eta_geo = 1.0 - math.exp(-2.0 * self.aperture_m**2 / (w_lt * w_lt))
        eta_ext = self.tau_zenith**sec_z
        return ChannelOutput(
            transmissivity=eta_geo * eta_ext,
            geometric_collection=eta_geo,
            extinction=eta_ext,
            slant_range_km=z_km,
            long_term_beam_radius_m=w_lt,
        )
