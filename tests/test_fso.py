from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlinksim.fso import (
    ChannelOutput,
    DownlinkGeometry,
    FsoChannelParams,
    OpticalBeam,
    ReceiverAperture,
    TurbulenceModel,
    _TURB_NODES_M,
    _turbulence_moment,
    channel_transmissivity,
    coherence_length,
    collection_efficiency,
    extinction_transmissivity,
    long_term_beam_radius,
    slant_range,
)

BEAM = OpticalBeam()
APERTURE = ReceiverAperture()
TURB = TurbulenceModel()


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def test_slant_range_zenith_equals_altitude():
    assert slant_range(DownlinkGeometry(500.0, 0.0)) == pytest.approx(500.0, abs=1e-9)


def test_slant_range_low_elevation_reference_points():
    # spherical-Earth chord: sqrt((R+h)^2 - R^2 sin^2 z) - R cos z
    assert slant_range(DownlinkGeometry(305.0, 80.0)) == pytest.approx(1174.75, abs=0.5)
    assert slant_range(DownlinkGeometry(500.0, 80.0)) == pytest.approx(1694.57, abs=0.5)


def test_slant_range_exceeds_flat_earth_secant_at_low_elevation():
    # the spherical path is shorter than h / cos(z) for large zenith angles
    geom = DownlinkGeometry(500.0, 80.0)
    flat = 500.0 / math.cos(math.radians(80.0))
    assert slant_range(geom) < flat


@given(
    st.floats(min_value=100.0, max_value=2000.0),
    st.floats(min_value=0.0, max_value=80.0),
)
def test_slant_range_monotone_in_altitude_and_zenith(alt, zen):
    z = slant_range(DownlinkGeometry(alt, zen))
    assert z >= alt - 1e-9
    assert slant_range(DownlinkGeometry(alt + 50.0, zen)) > z
    if zen <= 79.0:
        assert slant_range(DownlinkGeometry(alt, zen + 1.0)) > z


def test_geometry_validation():
    with pytest.raises(ValueError):
        DownlinkGeometry(0.0, 45.0)
    with pytest.raises(ValueError):
        DownlinkGeometry(500.0, 80.5)
    with pytest.raises(ValueError):
        DownlinkGeometry(500.0, -1.0)


# ---------------------------------------------------------------------------
# component records
# ---------------------------------------------------------------------------


def test_beam_derived_quantities():
    assert BEAM.wavelength_m == pytest.approx(800e-9, rel=1e-12)
    assert BEAM.rayleigh_range_m == pytest.approx(
        math.pi * 0.04 / 800e-9, rel=1e-12
    )
    with pytest.raises(ValueError):
        OpticalBeam(wavelength_nm=0.0)
    with pytest.raises(ValueError):
        OpticalBeam(initial_spot_w0_m=-0.1)


def test_turbulence_model_validation_and_profile():
    with pytest.raises(ValueError):
        TurbulenceModel(hv_ground_cn2=-1e-15)
    with pytest.raises(ValueError):
        TurbulenceModel(pointing_jitter_urad=-0.1)
    with pytest.raises(ValueError):
        TurbulenceModel(cn2_scale=-1.0)
    # ground value dominated by the A exp(-h/100) term
    assert TURB.cn2(0.0) == pytest.approx(1.7e-13 + 2.7e-16, rel=1e-9)
    assert TurbulenceModel(cn2_scale=0.0).cn2(0.0) == 0.0
    # high-altitude wind term peaks near 10 km and decays above
    assert TURB.cn2(10e3) > TURB.cn2(30e3) > TURB.cn2(50e3)


def test_aperture_validation():
    with pytest.raises(ValueError):
        ReceiverAperture(radius_m=0.0)


# ---------------------------------------------------------------------------
# coherence length and beam spread
# ---------------------------------------------------------------------------


def test_coherence_length_infinite_without_turbulence():
    geom = DownlinkGeometry(500.0, 45.0)
    assert coherence_length(BEAM, TurbulenceModel(cn2_scale=0.0), geom) == math.inf


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


def _numpy_moment(zenith_deg, ground_cn2, wind, cn2_scale, earth_radius_km=6371.0):
    """The same trapezoid in array form, with numpy's pairwise sum."""
    h = _numpy_nodes()
    r = earth_radius_km * 1e3
    cos_z = math.cos(math.radians(zenith_deg))
    root = np.sqrt((r * cos_z) ** 2 + 2.0 * r * h + h * h)
    s = root - r * cos_z
    ds_dh = (r + h) / root
    cn2 = cn2_scale * (
        0.00594 * (wind / 27.0) ** 2 * (1e-5 * h) ** 10 * np.exp(-h / 1000.0)
        + 2.7e-16 * np.exp(-h / 1500.0)
        + ground_cn2 * np.exp(-h / 100.0)
    )
    return float(np.trapezoid(cn2 * s ** (5.0 / 3.0) * ds_dh, h))


def test_turbulence_moment_matches_numpy_trapezoid():
    assert list(_TURB_NODES_M) == _numpy_nodes().tolist()
    # the default 80 deg geometry behind every golden rate table: bit for bit
    golden = _turbulence_moment(80.0, 1.7e-13, 21.0, 1.0, 6371.0)
    assert golden == _numpy_moment(80.0, 1.7e-13, 21.0, 1.0) == 8.92734020527528e-05
    # elsewhere fsum and the pairwise sum may part in the last bits only
    for zenith, ground, wind, scale in itertools.product(
        (0.0, 30.0, 60.0, 75.0, 80.0), (1e-15, 1.7e-13, 1e-12), (0.0, 21.0, 40.0), (0.5, 1.0, 2.0)
    ):
        want = _numpy_moment(zenith, ground, wind, scale)
        got = _turbulence_moment(zenith, ground, wind, scale, 6371.0)
        assert abs(got - want) <= 1e-15 * want, (zenith, ground, wind, scale)
    assert _turbulence_moment(45.0, 1.7e-13, 21.0, 0.0, 6371.0) == 0.0


def test_coherence_length_decreases_with_turbulence_strength():
    geom = DownlinkGeometry(500.0, 45.0)
    rho_weak = coherence_length(BEAM, TurbulenceModel(cn2_scale=0.5), geom)
    rho_base = coherence_length(BEAM, TURB, geom)
    rho_strong = coherence_length(BEAM, TurbulenceModel(cn2_scale=2.0), geom)
    assert rho_weak > rho_base > rho_strong > 0.0


def test_coherence_length_decreases_with_zenith_angle():
    rho_high = coherence_length(BEAM, TURB, DownlinkGeometry(500.0, 0.0))
    rho_low = coherence_length(BEAM, TURB, DownlinkGeometry(500.0, 80.0))
    assert rho_high > rho_low > 0.0


def test_coherence_length_grows_with_altitude_for_downlink():
    # turbulence sits near the ground where the path weighting is small,
    # so a higher transmitter sees a larger normalized coherence length
    rho_300 = coherence_length(BEAM, TURB, DownlinkGeometry(300.0, 60.0))
    rho_900 = coherence_length(BEAM, TURB, DownlinkGeometry(900.0, 60.0))
    assert rho_900 > rho_300 > 0.0


def test_beam_radius_vacuum_diffraction_reference():
    # with turbulence and jitter off only diffraction spreads the beam
    geom = DownlinkGeometry(500.0, 80.0)
    quiet = TurbulenceModel(cn2_scale=0.0, pointing_jitter_urad=0.0)
    w = long_term_beam_radius(BEAM, quiet, geom)
    assert w == pytest.approx(2.1668, abs=2e-3)
    z_m = slant_range(geom) * 1e3
    expected = 0.20 * math.sqrt(1.0 + (z_m / BEAM.rayleigh_range_m) ** 2)
    assert w == pytest.approx(expected, rel=1e-12)


def test_beam_radius_orders_by_spread_mechanism():
    geom = DownlinkGeometry(500.0, 80.0)
    w_diff = long_term_beam_radius(
        BEAM, TurbulenceModel(cn2_scale=0.0, pointing_jitter_urad=0.0), geom
    )
    w_turb = long_term_beam_radius(
        BEAM, TurbulenceModel(pointing_jitter_urad=0.0), geom
    )
    w_all = long_term_beam_radius(BEAM, TURB, geom)
    assert w_diff < w_turb < w_all


@given(st.floats(min_value=150.0, max_value=1500.0))
def test_beam_radius_grows_with_altitude(alt):
    w_lo = long_term_beam_radius(BEAM, TURB, DownlinkGeometry(alt, 60.0))
    w_hi = long_term_beam_radius(BEAM, TURB, DownlinkGeometry(alt + 100.0, 60.0))
    assert w_hi > w_lo


@given(st.floats(min_value=0.0, max_value=10.0))
def test_beam_radius_grows_with_jitter(jitter):
    geom = DownlinkGeometry(500.0, 45.0)
    w_a = long_term_beam_radius(
        BEAM, TurbulenceModel(pointing_jitter_urad=jitter), geom
    )
    w_b = long_term_beam_radius(
        BEAM, TurbulenceModel(pointing_jitter_urad=jitter + 0.5), geom
    )
    assert w_b > w_a


# ---------------------------------------------------------------------------
# collection, extinction and the combined channel
# ---------------------------------------------------------------------------


def test_collection_efficiency_limits():
    assert collection_efficiency(1e-6, APERTURE) == pytest.approx(1.0, abs=1e-12)
    assert collection_efficiency(1e6, APERTURE) == pytest.approx(0.0, abs=1e-9)
    # w = aperture radius: 1 - exp(-2)
    assert collection_efficiency(0.70, APERTURE) == pytest.approx(
        1.0 - math.exp(-2.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        collection_efficiency(0.0, APERTURE)


def test_extinction_airmass_law():
    assert extinction_transmissivity(
        DownlinkGeometry(500.0, 0.0), 0.91
    ) == pytest.approx(0.91, rel=1e-12)
    sec80 = 1.0 / math.cos(math.radians(80.0))
    assert extinction_transmissivity(
        DownlinkGeometry(500.0, 80.0), 0.91
    ) == pytest.approx(0.91**sec80, rel=1e-12)
    with pytest.raises(ValueError):
        extinction_transmissivity(DownlinkGeometry(500.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        extinction_transmissivity(DownlinkGeometry(500.0, 0.0), 1.1)


def test_channel_output_product_identity_enforced():
    out = channel_transmissivity(
        DownlinkGeometry(500.0, 80.0), BEAM, TURB, APERTURE, 0.91
    )
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


def test_channel_params_at_altitude_matches_components():
    params = FsoChannelParams()
    out = params.at_altitude(500.0)
    direct = channel_transmissivity(
        DownlinkGeometry(500.0, params.zenith_deg),
        params.beam(),
        params.turbulence(),
        params.aperture(),
        params.tau_zenith,
    )
    assert out == direct
    assert 0.0 < out.transmissivity < 1.0


def test_channel_params_validation():
    with pytest.raises(ValueError):
        FsoChannelParams(zenith_deg=85.0)
    with pytest.raises(ValueError):
        FsoChannelParams(tau_zenith=0.0)
    with pytest.raises(ValueError):
        FsoChannelParams(w0_m=-0.2)


@given(st.floats(min_value=150.0, max_value=1900.0))
def test_transmissivity_decreases_with_altitude(alt):
    params = FsoChannelParams()
    assert (
        params.at_altitude(alt + 50.0).transmissivity
        < params.at_altitude(alt).transmissivity
    )


@given(st.floats(min_value=0.0, max_value=79.0))
def test_transmissivity_decreases_with_zenith(zen):
    lo = FsoChannelParams(zenith_deg=zen).at_altitude(500.0)
    hi = FsoChannelParams(zenith_deg=zen + 1.0).at_altitude(500.0)
    assert hi.transmissivity < lo.transmissivity


@given(st.floats(min_value=0.1, max_value=4.0))
def test_transmissivity_decreases_with_cn2_scale(scale):
    geom = DownlinkGeometry(500.0, 80.0)
    out_a = channel_transmissivity(
        geom, BEAM, TurbulenceModel(cn2_scale=scale), APERTURE, 0.91
    )
    out_b = channel_transmissivity(
        geom, BEAM, TurbulenceModel(cn2_scale=scale * 1.5), APERTURE, 0.91
    )
    assert out_b.transmissivity < out_a.transmissivity


def test_transmissivity_default_operating_point_magnitude():
    # the 500 km / 80 deg default link loses between 15 and 25 dB
    out = FsoChannelParams().at_altitude(500.0)
    loss_db = -10.0 * math.log10(out.transmissivity)
    assert 15.0 < loss_db < 25.0
