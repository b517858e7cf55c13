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

__all__ = [
    "DownlinkGeometry",
    "OpticalBeam",
    "ReceiverAperture",
    "TurbulenceModel",
    "ChannelOutput",
    "FsoChannelParams",
    "slant_range",
    "coherence_length",
    "long_term_beam_radius",
    "collection_efficiency",
    "extinction_transmissivity",
    "channel_transmissivity",
]

MAX_ZENITH_DEG = 80.0


@dataclass(frozen=True)
class DownlinkGeometry:
    """Satellite altitude and ground-station zenith angle on a spherical Earth."""

    altitude_km: float
    zenith_deg: float
    earth_radius_km: float = CONSTANTS.earth_radius_km

    def __post_init__(self) -> None:
        if not self.altitude_km > 0.0:
            raise ValueError(f"altitude must be > 0 km: {self.altitude_km!r}")
        if not 0.0 <= self.zenith_deg <= MAX_ZENITH_DEG:
            # beyond 80 deg the straight-ray and airmass approximations break down
            raise ValueError(f"zenith angle must lie in [0, {MAX_ZENITH_DEG}] deg")
        if not self.earth_radius_km > 0.0:
            raise ValueError("earth radius must be > 0 km")


@dataclass(frozen=True)
class OpticalBeam:
    """Transmitted Gaussian beam: wavelength and waist radius at the exit."""

    wavelength_nm: float = 800.0
    initial_spot_w0_m: float = 0.20

    def __post_init__(self) -> None:
        if not self.wavelength_nm > 0.0:
            raise ValueError(f"wavelength must be > 0: {self.wavelength_nm!r}")
        if not self.initial_spot_w0_m > 0.0:
            raise ValueError(f"beam waist must be > 0: {self.initial_spot_w0_m!r}")

    @property
    def wavelength_m(self) -> float:
        return self.wavelength_nm * 1e-9

    @property
    def rayleigh_range_m(self) -> float:
        return math.pi * self.initial_spot_w0_m**2 / self.wavelength_m


@dataclass(frozen=True)
class ReceiverAperture:
    radius_m: float = 0.70

    def __post_init__(self) -> None:
        if not self.radius_m > 0.0:
            raise ValueError(f"aperture radius must be > 0: {self.radius_m!r}")


@dataclass(frozen=True)
class TurbulenceModel:
    """Hufnagel-Valley refractive-index structure profile plus pointing jitter.

    hv_ground_cn2 is the ground-level structure constant A in m^(-2/3);
    hv_wind_m_s the upper-air rms wind speed; pointing_jitter_urad a
    bias-free radial jitter standard deviation that widens the long-term
    spot as an additive (z * sigma)^2 variance term.  cn2_scale
    multiplies the whole profile (0 switches turbulence off entirely).
    """

    hv_ground_cn2: float = 1.7e-13
    hv_wind_m_s: float = 21.0
    pointing_jitter_urad: float = 2.91
    cn2_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.hv_ground_cn2 < 0.0:
            raise ValueError(f"Cn2 ground value must be >= 0: {self.hv_ground_cn2!r}")
        if self.hv_wind_m_s < 0.0:
            raise ValueError(f"wind speed must be >= 0: {self.hv_wind_m_s!r}")
        if self.pointing_jitter_urad < 0.0:
            raise ValueError(f"jitter must be >= 0: {self.pointing_jitter_urad!r}")
        if self.cn2_scale < 0.0:
            raise ValueError(f"cn2_scale must be >= 0: {self.cn2_scale!r}")

    def cn2(self, altitude_m: float) -> float:
        """Structure constant Cn^2(h) in m^(-2/3) at one altitude h, in metres above ground."""
        h = altitude_m
        return self.cn2_scale * (
            0.00594
            * (self.hv_wind_m_s / 27.0) ** 2
            * (1e-5 * h) ** 10
            * math.exp(-h / 1000.0)
            + 2.7e-16 * math.exp(-h / 1500.0)
            + self.hv_ground_cn2 * math.exp(-h / 100.0)
        )


def slant_range(geom: DownlinkGeometry) -> float:
    """Ground-to-satellite range in km for a spherical Earth.

    z = sqrt((R + h)^2 - R^2 sin^2(zeta)) - R cos(zeta).
    """
    r = geom.earth_radius_km
    zeta = math.radians(geom.zenith_deg)
    return math.sqrt((r + geom.altitude_km) ** 2 - (r * math.sin(zeta)) ** 2) - r * math.cos(
        zeta
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
def _turbulence_moment(
    zenith_deg: float,
    hv_ground_cn2: float,
    hv_wind_m_s: float,
    cn2_scale: float,
    earth_radius_km: float,
) -> float:
    """Path integral int Cn2(h) * s'(h)^(5/3) ds' with s' the range from ground.

    Independent of the satellite range for end altitudes above the
    turbulent layer, so it is cached per geometry/profile.  Uses the
    spherical ray s'(h) = sqrt(R^2 cos^2(zeta) + 2 R h + h^2) - R cos(zeta)
    with all lengths in metres.
    """
    turb = TurbulenceModel(
        hv_ground_cn2=hv_ground_cn2, hv_wind_m_s=hv_wind_m_s, cn2_scale=cn2_scale
    )
    r = earth_radius_km * 1e3
    cos_z = math.cos(math.radians(zenith_deg))
    h = _TURB_NODES_M
    integrand = []
    for hi in h:
        root = math.sqrt((r * cos_z) ** 2 + 2.0 * r * hi + hi * hi)
        s = root - r * cos_z
        ds_dh = (r + hi) / root
        integrand.append(turb.cn2(hi) * s ** (5.0 / 3.0) * ds_dh)
    # trapezoid terms as numpy.trapezoid forms them, summed exactly
    return math.fsum(
        (h[i + 1] - h[i]) * (integrand[i + 1] + integrand[i]) / 2.0 for i in range(len(h) - 1)
    )


def coherence_length(
    beam: OpticalBeam, turb: TurbulenceModel, geom: DownlinkGeometry
) -> float:
    """Spherical-wave coherence length rho_0 in metres for the downlink.

    rho_0 = [1.46 k^2 sec(zeta) * int Cn2(h(s)) ((z - s)/z)^(5/3) ds]^(-3/5)
    with s measured from the satellite, so the (z - s) weighting counts
    range from the receiver.  Returns math.inf for a turbulence-free path.
    """
    z_m = slant_range(geom) * 1e3
    moment = _turbulence_moment(
        geom.zenith_deg,
        turb.hv_ground_cn2,
        turb.hv_wind_m_s,
        turb.cn2_scale,
        geom.earth_radius_km,
    )
    if moment == 0.0:
        return math.inf
    k = 2.0 * math.pi / beam.wavelength_m
    sec_z = 1.0 / math.cos(math.radians(geom.zenith_deg))
    bracket = 1.46 * k * k * sec_z * moment / z_m ** (5.0 / 3.0)
    if not math.isfinite(bracket) or bracket < 0.0:
        raise ValueError("non-physical turbulence integral")
    rho0 = bracket ** (-3.0 / 5.0)
    if rho0 == 0.0:
        raise ValueError("turbulence too strong: coherence length underflowed to 0")
    return rho0


def long_term_beam_radius(
    beam: OpticalBeam, turb: TurbulenceModel, geom: DownlinkGeometry
) -> float:
    """Long-term beam radius w_LT in metres at the receiver plane.

    w_LT^2 = w_d^2(z) + 2 (lambda z / (pi rho_0))^2 + (z sigma_jitter)^2,
    with w_d the vacuum Gaussian-beam radius at range z.
    """
    z_m = slant_range(geom) * 1e3
    w0 = beam.initial_spot_w0_m
    w_diff_sq = w0 * w0 * (1.0 + (z_m / beam.rayleigh_range_m) ** 2)
    rho0 = coherence_length(beam, turb, geom)
    if math.isinf(rho0):
        w_turb_sq = 0.0
    else:
        w_turb_sq = 2.0 * (beam.wavelength_m * z_m / (math.pi * rho0)) ** 2
    w_jit_sq = (z_m * turb.pointing_jitter_urad * 1e-6) ** 2
    return math.sqrt(w_diff_sq + w_turb_sq + w_jit_sq)


def collection_efficiency(w_lt_m: float, aperture: ReceiverAperture) -> float:
    """Fraction of a Gaussian beam of radius w_LT captured by a circular aperture."""
    if not w_lt_m > 0.0:
        raise ValueError(f"beam radius must be > 0: {w_lt_m!r}")
    return 1.0 - math.exp(-2.0 * aperture.radius_m**2 / (w_lt_m * w_lt_m))


def extinction_transmissivity(geom: DownlinkGeometry, zenith_transmissivity: float) -> float:
    """Airmass-law clear-sky extinction: tau_zenith ** sec(zenith)."""
    if not 0.0 < zenith_transmissivity <= 1.0:
        raise ValueError(
            f"zenith transmissivity must lie in (0, 1]: {zenith_transmissivity!r}"
        )
    sec_z = 1.0 / math.cos(math.radians(geom.zenith_deg))
    return zenith_transmissivity**sec_z


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


def channel_transmissivity(
    geom: DownlinkGeometry,
    beam: OpticalBeam,
    turb: TurbulenceModel,
    aperture: ReceiverAperture,
    zenith_transmissivity: float,
) -> ChannelOutput:
    """Deterministic mean-channel transmissivity of the optical downlink."""
    w_lt = long_term_beam_radius(beam, turb, geom)
    eta_geo = collection_efficiency(w_lt, aperture)
    eta_ext = extinction_transmissivity(geom, zenith_transmissivity)
    return ChannelOutput(
        transmissivity=eta_geo * eta_ext,
        geometric_collection=eta_geo,
        extinction=eta_ext,
        slant_range_km=slant_range(geom),
        long_term_beam_radius_m=w_lt,
    )


@dataclass(frozen=True)
class FsoChannelParams:
    """Bundle of every downlink parameter except the satellite altitude.

    Defaults are those of the component records, so each is written once.
    """

    wavelength_nm: float = OpticalBeam.wavelength_nm
    w0_m: float = OpticalBeam.initial_spot_w0_m
    aperture_m: float = ReceiverAperture.radius_m
    zenith_deg: float = 80.0
    hv_ground_cn2: float = TurbulenceModel.hv_ground_cn2
    hv_wind: float = TurbulenceModel.hv_wind_m_s
    jitter_urad: float = TurbulenceModel.pointing_jitter_urad
    tau_zenith: float = 0.91

    def __post_init__(self) -> None:
        # constructing the component records runs their validation
        self.beam()
        self.turbulence()
        self.aperture()
        if not 0.0 < self.tau_zenith <= 1.0:
            raise ValueError(f"tau_zenith must lie in (0, 1]: {self.tau_zenith!r}")
        if not 0.0 <= self.zenith_deg <= MAX_ZENITH_DEG:
            raise ValueError(f"zenith_deg must lie in [0, {MAX_ZENITH_DEG}]")

    def beam(self) -> OpticalBeam:
        return OpticalBeam(wavelength_nm=self.wavelength_nm, initial_spot_w0_m=self.w0_m)

    def turbulence(self) -> TurbulenceModel:
        return TurbulenceModel(
            hv_ground_cn2=self.hv_ground_cn2,
            hv_wind_m_s=self.hv_wind,
            pointing_jitter_urad=self.jitter_urad,
        )

    def aperture(self) -> ReceiverAperture:
        return ReceiverAperture(radius_m=self.aperture_m)

    def at_altitude(self, altitude_km: float) -> ChannelOutput:
        geom = DownlinkGeometry(altitude_km=altitude_km, zenith_deg=self.zenith_deg)
        return channel_transmissivity(
            geom, self.beam(), self.turbulence(), self.aperture(), self.tau_zenith
        )
