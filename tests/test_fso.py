from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlinksim.fso import (
    ChannelOutput,
    FsoChannelParams,
    _TURB_NODES_M,
    _cn2,
    _turbulence_moment,
    slant_range,
)

PARAMS = FsoChannelParams()
# no pointing jitter: w_LT^2 is diffraction plus the turbulence term
NO_JITTER = FsoChannelParams(jitter_urad=0.0)


def _w_diff_sq(params: FsoChannelParams, slant_km: float) -> float:
    """Vacuum Gaussian-beam radius squared, w0^2 (1 + (z / z_R)^2)."""
    w0 = params.w0_m
    rayleigh_range_m = math.pi * w0**2 / (params.wavelength_nm * 1e-9)
    return w0 * w0 * (1.0 + (slant_km * 1e3 / rayleigh_range_m) ** 2)


def _turbulence_spread_sq(params: FsoChannelParams, altitude_km: float) -> float:
    """The turbulence term 2 (lambda z / (pi rho_0))^2 of w_LT^2."""
    out = params.at_altitude(altitude_km)
    jitter_sq = (out.slant_range_km * 1e3 * params.jitter_urad * 1e-6) ** 2
    return out.long_term_beam_radius_m**2 - _w_diff_sq(params, out.slant_range_km) - jitter_sq


def _coherence_length(params: FsoChannelParams, altitude_km: float) -> float:
    """rho_0 in metres, solved from the turbulence term of the beam radius."""
    z_m = params.at_altitude(altitude_km).slant_range_km * 1e3
    wavelength_m = params.wavelength_nm * 1e-9
    return wavelength_m * z_m / (math.pi * math.sqrt(_turbulence_spread_sq(params, altitude_km) / 2.0))


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def test_slant_range_zenith_equals_altitude():
    assert slant_range(500.0, 0.0) == pytest.approx(500.0, abs=1e-9)
    out = FsoChannelParams(zenith_deg=0.0).at_altitude(500.0)
    assert out.slant_range_km == slant_range(500.0, 0.0)


def test_slant_range_low_elevation_reference_points():
    # spherical-Earth chord: sqrt((R+h)^2 - R^2 sin^2 z) - R cos z
    assert slant_range(305.0, 80.0) == pytest.approx(1174.75, abs=0.5)
    assert slant_range(500.0, 80.0) == pytest.approx(1694.57, abs=0.5)


def test_slant_range_exceeds_flat_earth_secant_at_low_elevation():
    # the spherical path is shorter than h / cos(z) for large zenith angles
    flat = 500.0 / math.cos(math.radians(80.0))
    assert slant_range(500.0, 80.0) < flat


@given(
    st.floats(min_value=100.0, max_value=2000.0),
    st.floats(min_value=0.0, max_value=80.0),
)
def test_slant_range_monotone_in_altitude_and_zenith(alt, zen):
    z = slant_range(alt, zen)
    assert z >= alt - 1e-9
    assert slant_range(alt + 50.0, zen) > z
    if zen <= 79.0:
        assert slant_range(alt, zen + 1.0) > z


def test_geometry_validation():
    with pytest.raises(ValueError, match="altitude"):
        PARAMS.at_altitude(0.0)
    with pytest.raises(ValueError, match="altitude"):
        PARAMS.at_altitude(-10.0)
    with pytest.raises(ValueError):
        FsoChannelParams(zenith_deg=80.5)
    with pytest.raises(ValueError):
        FsoChannelParams(zenith_deg=-1.0)


# ---------------------------------------------------------------------------
# record validation and the Cn2 profile
# ---------------------------------------------------------------------------


def test_beam_derived_quantities():
    with pytest.raises(ValueError, match="wavelength_nm"):
        FsoChannelParams(wavelength_nm=0.0)
    with pytest.raises(ValueError, match="w0_m"):
        FsoChannelParams(w0_m=-0.1)
    # only the diffraction term depends on the waist, so two waists differ
    # by w_d^2(0.2 m) - w_d^2(0.3 m) with z_R = pi w0^2 / lambda
    wide = FsoChannelParams(w0_m=0.3, jitter_urad=0.0)
    z_km = slant_range(500.0, 80.0)
    got = (
        NO_JITTER.at_altitude(500.0).long_term_beam_radius_m ** 2
        - wide.at_altitude(500.0).long_term_beam_radius_m ** 2
    )
    z_m = z_km * 1e3
    want = (0.04 + (z_m * 800e-9 / (math.pi * 0.2)) ** 2) - (
        0.09 + (z_m * 800e-9 / (math.pi * 0.3)) ** 2
    )
    assert got == pytest.approx(want, rel=1e-12)
    assert _w_diff_sq(NO_JITTER, z_km) - _w_diff_sq(wide, z_km) == pytest.approx(want, rel=1e-12)


def test_turbulence_model_validation_and_profile():
    with pytest.raises(ValueError, match="hv_ground_cn2"):
        FsoChannelParams(hv_ground_cn2=-1e-15)
    with pytest.raises(ValueError, match="hv_wind"):
        FsoChannelParams(hv_wind=-1.0)
    with pytest.raises(ValueError, match="jitter_urad"):
        FsoChannelParams(jitter_urad=-0.1)
    # ground value dominated by the A exp(-h/100) term
    assert _cn2(0.0, 1.7e-13, 21.0) == pytest.approx(1.7e-13 + 2.7e-16, rel=1e-9)
    # without a ground term or wind only the 2.7e-16 floor remains
    assert _cn2(0.0, 0.0, 0.0) == 2.7e-16
    # high-altitude wind term peaks near 10 km and decays above
    assert _cn2(10e3, 1.7e-13, 21.0) > _cn2(30e3, 1.7e-13, 21.0) > _cn2(50e3, 1.7e-13, 21.0)


def test_aperture_validation():
    with pytest.raises(ValueError, match="aperture_m"):
        FsoChannelParams(aperture_m=0.0)


# ---------------------------------------------------------------------------
# coherence length and beam spread
# ---------------------------------------------------------------------------


def _numpy_nodes() -> np.ndarray:
    return np.unique(
        np.concatenate(
            [
                np.arange(0.0, 2e3 + 1.0, 5.0),
                np.arange(2e3, 30e3 + 1.0, 50.0),
                np.arange(30e3, 60e3 + 1.0, 500.0),
            ]
        )
    )


def _numpy_moment(zenith_deg, ground_cn2, wind, earth_radius_km=6371.0):
    """The same trapezoid in array form, with numpy's pairwise sum."""
    h = _numpy_nodes()
    r = earth_radius_km * 1e3
    cos_z = math.cos(math.radians(zenith_deg))
    root = np.sqrt((r * cos_z) ** 2 + 2.0 * r * h + h * h)
    s = root - r * cos_z
    ds_dh = (r + h) / root
    cn2 = (
        0.00594 * (wind / 27.0) ** 2 * (1e-5 * h) ** 10 * np.exp(-h / 1000.0)
        + 2.7e-16 * np.exp(-h / 1500.0)
        + ground_cn2 * np.exp(-h / 100.0)
    )
    return float(np.trapezoid(cn2 * s ** (5.0 / 3.0) * ds_dh, h))


def test_turbulence_moment_matches_numpy_trapezoid():
    assert list(_TURB_NODES_M) == _numpy_nodes().tolist()
    # the default 80 deg geometry behind every golden rate table: bit for bit
    golden = _turbulence_moment(80.0, 1.7e-13, 21.0)
    assert golden == _numpy_moment(80.0, 1.7e-13, 21.0) == 8.92734020527528e-05
    # elsewhere fsum and the pairwise sum may part in the last bits only
    for zenith, ground, wind in itertools.product(
        (0.0, 30.0, 60.0, 75.0, 80.0), (0.0, 1e-15, 1.7e-13, 1e-12), (0.0, 21.0, 40.0)
    ):
        want = _numpy_moment(zenith, ground, wind)
        got = _turbulence_moment(zenith, ground, wind)
        assert abs(got - want) <= 1e-15 * want, (zenith, ground, wind)


def test_coherence_length_decreases_with_turbulence_strength():
    weak = FsoChannelParams(zenith_deg=45.0, hv_ground_cn2=0.85e-13, jitter_urad=0.0)
    base = FsoChannelParams(zenith_deg=45.0, jitter_urad=0.0)
    strong = FsoChannelParams(zenith_deg=45.0, hv_ground_cn2=3.4e-13, jitter_urad=0.0)
    rho_weak = _coherence_length(weak, 500.0)
    rho_base = _coherence_length(base, 500.0)
    rho_strong = _coherence_length(strong, 500.0)
    assert rho_weak > rho_base > rho_strong > 0.0


def test_coherence_length_decreases_with_zenith_angle():
    rho_high = _coherence_length(FsoChannelParams(zenith_deg=0.0, jitter_urad=0.0), 500.0)
    rho_low = _coherence_length(NO_JITTER, 500.0)
    assert rho_high > rho_low > 0.0


def test_coherence_length_grows_with_altitude_for_downlink():
    # turbulence sits near the ground where the path weighting is small,
    # so a higher transmitter sees a larger normalized coherence length
    params = FsoChannelParams(zenith_deg=60.0, jitter_urad=0.0)
    rho_300 = _coherence_length(params, 300.0)
    rho_900 = _coherence_length(params, 900.0)
    assert rho_900 > rho_300 > 0.0
    # the moment does not depend on the range, so rho_0 is proportional to
    # z and the turbulence term of w_LT^2 is the same at every altitude
    assert _turbulence_spread_sq(params, 900.0) == pytest.approx(
        _turbulence_spread_sq(params, 300.0), rel=1e-12
    )


def test_beam_radius_vacuum_diffraction_reference():
    # turbulence cannot be switched off: with no ground term, no wind and
    # no jitter only the 2.7e-16 floor adds to diffraction, under 1%
    floor = FsoChannelParams(hv_ground_cn2=0.0, hv_wind=0.0, jitter_urad=0.0)
    z_m = slant_range(500.0, 80.0) * 1e3
    w_d = 0.20 * math.sqrt(1.0 + (z_m / (math.pi * 0.04 / 800e-9)) ** 2)
    assert w_d == pytest.approx(2.1668, abs=2e-3)
    w = floor.at_altitude(500.0).long_term_beam_radius_m
    assert w_d < w < 1.01 * w_d


def test_beam_radius_orders_by_spread_mechanism():
    w_diff = math.sqrt(_w_diff_sq(PARAMS, slant_range(500.0, 80.0)))
    w_turb = NO_JITTER.at_altitude(500.0).long_term_beam_radius_m
    w_all = PARAMS.at_altitude(500.0).long_term_beam_radius_m
    assert w_diff < w_turb < w_all


@given(st.floats(min_value=150.0, max_value=1500.0))
def test_beam_radius_grows_with_altitude(alt):
    params = FsoChannelParams(zenith_deg=60.0)
    w_lo = params.at_altitude(alt).long_term_beam_radius_m
    w_hi = params.at_altitude(alt + 100.0).long_term_beam_radius_m
    assert w_hi > w_lo


@given(st.floats(min_value=0.0, max_value=10.0))
def test_beam_radius_grows_with_jitter(jitter):
    w_a = FsoChannelParams(zenith_deg=45.0, jitter_urad=jitter).at_altitude(500.0)
    w_b = FsoChannelParams(zenith_deg=45.0, jitter_urad=jitter + 0.5).at_altitude(500.0)
    assert w_b.long_term_beam_radius_m > w_a.long_term_beam_radius_m


# ---------------------------------------------------------------------------
# collection, extinction and the combined channel
# ---------------------------------------------------------------------------


def test_collection_efficiency_limits():
    out = PARAMS.at_altitude(500.0)
    w = out.long_term_beam_radius_m
    assert out.geometric_collection == pytest.approx(
        1.0 - math.exp(-2.0 * 0.70**2 / (w * w)), rel=1e-12
    )
    # the beam radius does not depend on the aperture
    wide = FsoChannelParams(aperture_m=1e3).at_altitude(500.0)
    narrow = FsoChannelParams(aperture_m=1e-6).at_altitude(500.0)
    assert wide.long_term_beam_radius_m == narrow.long_term_beam_radius_m == w
    assert wide.geometric_collection == pytest.approx(1.0, abs=1e-12)
    assert narrow.geometric_collection == pytest.approx(0.0, abs=1e-9)
    # aperture radius = beam radius: 1 - exp(-2)
    matched = FsoChannelParams(aperture_m=w).at_altitude(500.0)
    assert matched.geometric_collection == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)


def test_extinction_airmass_law():
    assert FsoChannelParams(zenith_deg=0.0).at_altitude(500.0).extinction == pytest.approx(
        0.91, rel=1e-12
    )
    sec80 = 1.0 / math.cos(math.radians(80.0))
    assert PARAMS.at_altitude(500.0).extinction == pytest.approx(0.91**sec80, rel=1e-12)
    with pytest.raises(ValueError):
        FsoChannelParams(tau_zenith=0.0)
    with pytest.raises(ValueError):
        FsoChannelParams(tau_zenith=1.1)


def test_channel_output_product_identity_enforced():
    out = PARAMS.at_altitude(500.0)
    assert out.transmissivity == pytest.approx(
        out.geometric_collection * out.extinction, rel=1e-12
    )
    with pytest.raises(ValueError):
        ChannelOutput(
            transmissivity=0.5,
            geometric_collection=0.9,
            extinction=0.9,
            slant_range_km=1000.0,
            long_term_beam_radius_m=2.0,
        )


def _layered_at_altitude(p: FsoChannelParams, altitude_km: float) -> tuple[float, ...]:
    """The channel as separate geometry, beam, turbulence and aperture steps.

    Each step keeps its own operand order: slant range, coherence length,
    long-term beam radius, collection, extinction.  The moment integral
    is shared; test_turbulence_moment_matches_numpy_trapezoid pins it.
    """
    r = 6371.0
    zeta = math.radians(p.zenith_deg)
    z_km = math.sqrt((r + altitude_km) ** 2 - (r * math.sin(zeta)) ** 2) - r * math.cos(zeta)
    z_m = z_km * 1e3
    wavelength_m = p.wavelength_nm * 1e-9
    # coherence length
    moment = _turbulence_moment(p.zenith_deg, p.hv_ground_cn2, p.hv_wind)
    k = 2.0 * math.pi / wavelength_m
    sec_z = 1.0 / math.cos(math.radians(p.zenith_deg))
    rho0 = (1.46 * k * k * sec_z * moment / z_m ** (5.0 / 3.0)) ** (-3.0 / 5.0)
    # long-term beam radius
    w0 = p.w0_m
    rayleigh_range_m = math.pi * p.w0_m**2 / wavelength_m
    w_diff_sq = w0 * w0 * (1.0 + (z_m / rayleigh_range_m) ** 2)
    w_turb_sq = 2.0 * (wavelength_m * z_m / (math.pi * rho0)) ** 2
    w_jit_sq = (z_m * p.jitter_urad * 1e-6) ** 2
    w_lt = math.sqrt(w_diff_sq + w_turb_sq + w_jit_sq)
    # collection and extinction
    eta_geo = 1.0 - math.exp(-2.0 * p.aperture_m**2 / (w_lt * w_lt))
    eta_ext = p.tau_zenith ** (1.0 / math.cos(math.radians(p.zenith_deg)))
    return eta_geo * eta_ext, eta_geo, eta_ext, z_km, w_lt


def test_channel_params_at_altitude_matches_components():
    rng = random.Random(20261018)
    for i in range(200):
        params = FsoChannelParams(
            wavelength_nm=rng.uniform(400.0, 2000.0),
            w0_m=rng.uniform(0.01, 0.5),
            aperture_m=rng.uniform(0.05, 2.0),
            zenith_deg=(0.0, 80.0, rng.uniform(0.0, 80.0))[i % 3],
            hv_ground_cn2=0.0 if i % 5 == 0 else rng.uniform(0.0, 1e-12),
            hv_wind=0.0 if i % 7 == 0 else rng.uniform(0.0, 40.0),
            jitter_urad=0.0 if i % 4 == 0 else rng.uniform(0.0, 10.0),
            tau_zenith=rng.uniform(0.05, 1.0),
        )
        altitude_km = rng.uniform(100.0, 2000.0)
        out = params.at_altitude(altitude_km)
        got = (
            out.transmissivity,
            out.geometric_collection,
            out.extinction,
            out.slant_range_km,
            out.long_term_beam_radius_m,
        )
        assert got == _layered_at_altitude(params, altitude_km), (params, altitude_km)
    assert 0.0 < PARAMS.at_altitude(500.0).transmissivity < 1.0


def test_channel_params_validation():
    with pytest.raises(ValueError):
        FsoChannelParams(zenith_deg=85.0)
    with pytest.raises(ValueError):
        FsoChannelParams(tau_zenith=0.0)
    with pytest.raises(ValueError):
        FsoChannelParams(w0_m=-0.2)


@given(st.floats(min_value=150.0, max_value=1900.0))
def test_transmissivity_decreases_with_altitude(alt):
    assert PARAMS.at_altitude(alt + 50.0).transmissivity < PARAMS.at_altitude(alt).transmissivity


@given(st.floats(min_value=0.0, max_value=79.0))
def test_transmissivity_decreases_with_zenith(zen):
    lo = FsoChannelParams(zenith_deg=zen).at_altitude(500.0)
    hi = FsoChannelParams(zenith_deg=zen + 1.0).at_altitude(500.0)
    assert hi.transmissivity < lo.transmissivity


@given(st.floats(min_value=1.7e-14, max_value=6.8e-13))
def test_transmissivity_decreases_with_ground_cn2(ground):
    out_a = FsoChannelParams(hv_ground_cn2=ground).at_altitude(500.0)
    out_b = FsoChannelParams(hv_ground_cn2=ground * 1.5).at_altitude(500.0)
    assert out_b.transmissivity < out_a.transmissivity


def test_transmissivity_default_operating_point_magnitude():
    # the 500 km / 80 deg default link loses between 15 and 25 dB
    out = PARAMS.at_altitude(500.0)
    loss_db = -10.0 * math.log10(out.transmissivity)
    assert 15.0 < loss_db < 25.0
