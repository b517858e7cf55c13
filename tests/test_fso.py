from __future__ import annotations

import itertools
import math
import random

import mpmath
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
from qlinksim.mathfn import EARTH_RADIUS_KM

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
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert _w_diff_sq(NO_JITTER, z_km) - _w_diff_sq(wide, z_km) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_turbulence_model_validation_and_profile():
    with pytest.raises(ValueError, match="hv_ground_cn2"):
        FsoChannelParams(hv_ground_cn2=-1e-15)
    with pytest.raises(ValueError, match="hv_wind"):
        FsoChannelParams(hv_wind=-1.0)
    with pytest.raises(ValueError, match="jitter_urad"):
        FsoChannelParams(jitter_urad=-0.1)
    # ground value dominated by the A exp(-h/100) term
    assert _cn2(0.0, 1.7e-13, 21.0) == pytest.approx(1.7e-13 + 2.7e-16, rel=1e-9, abs=0.0)
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
        _turbulence_spread_sq(params, 300.0), rel=1e-12, abs=0.0
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
        1.0 - math.exp(-2.0 * 0.70**2 / (w * w)), rel=1e-12, abs=0.0
    )
    # the beam radius does not depend on the aperture
    wide = FsoChannelParams(aperture_m=1e3).at_altitude(500.0)
    narrow = FsoChannelParams(aperture_m=1e-6).at_altitude(500.0)
    assert wide.long_term_beam_radius_m == narrow.long_term_beam_radius_m == w
    assert wide.geometric_collection == pytest.approx(1.0, abs=1e-12)
    assert narrow.geometric_collection == pytest.approx(0.0, abs=1e-9)
    # aperture radius = beam radius: 1 - exp(-2)
    matched = FsoChannelParams(aperture_m=w).at_altitude(500.0)
    assert matched.geometric_collection == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12, abs=0.0)


def test_extinction_airmass_law():
    assert FsoChannelParams(zenith_deg=0.0).at_altitude(500.0).extinction == pytest.approx(
        0.91, rel=1e-12, abs=0.0
    )
    sec80 = 1.0 / math.cos(math.radians(80.0))
    assert PARAMS.at_altitude(500.0).extinction == pytest.approx(0.91**sec80, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError):
        FsoChannelParams(tau_zenith=0.0)
    with pytest.raises(ValueError):
        FsoChannelParams(tau_zenith=1.1)


def test_channel_output_product_identity_enforced():
    # the transmissivity is derived from its factors, so it cannot disagree with them
    out = PARAMS.at_altitude(500.0)
    assert out.transmissivity == out.geometric_collection * out.extinction
    assert ChannelOutput(0.9, 0.5, 1000.0, 2.0).transmissivity == 0.9 * 0.5
    with pytest.raises(TypeError):
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
    eta_geo = -math.expm1(-2.0 * p.aperture_m**2 / (w_lt * w_lt))
    eta_ext = p.tau_zenith ** (1.0 / math.cos(math.radians(p.zenith_deg)))
    return eta_geo * eta_ext, eta_geo, eta_ext, z_km, w_lt


def _random_channels(seed: int, count: int):
    """(params, altitude_km) pairs spread over every channel field, some fields 0."""
    rng = random.Random(seed)
    for i in range(count):
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
        yield params, rng.uniform(100.0, 2000.0)


# at_altitude sums w_LT^2 as A + B z^2, the layered oracle as three z-dependent
# terms; over the 200 cases below the two differ by at most 5.8e-15 relative
_LAYERED_REL_TOL = 1e-13


def test_channel_params_at_altitude_matches_components():
    for params, altitude_km in _random_channels(20261018, 200):
        out = params.at_altitude(altitude_km)
        got = (
            out.transmissivity,
            out.geometric_collection,
            out.extinction,
            out.slant_range_km,
            out.long_term_beam_radius_m,
        )
        want = _layered_at_altitude(params, altitude_km)
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=_LAYERED_REL_TOL, abs_tol=0.0), (
                params,
                altitude_km,
                got,
                want,
            )
    assert 0.0 < PARAMS.at_altitude(500.0).transmissivity < 1.0


def test_at_altitude_evaluates_the_range_law():
    # the law altitude_at inverts is the one at_altitude evaluates, to the last bit
    for params, altitude_km in _random_channels(20261020, 200):
        a, b, eta_ext, r_sin_sq, r_cos, two_a_sq = params._range_law
        zeta = math.radians(params.zenith_deg)
        assert (r_sin_sq, r_cos) == ((EARTH_RADIUS_KM * math.sin(zeta)) ** 2,
                                     EARTH_RADIUS_KM * math.cos(zeta))
        assert two_a_sq == 2.0 * params.aperture_m**2
        z_m = slant_range(altitude_km, params.zenith_deg) * 1e3
        w_sq = a + b * (z_m * z_m)
        out = params.at_altitude(altitude_km)
        assert out.long_term_beam_radius_m == math.sqrt(w_sq), (params, altitude_km)
        assert out.extinction == eta_ext
        eta_geo = -math.expm1(-2.0 * params.aperture_m**2 / w_sq)
        assert out.transmissivity == eta_geo * eta_ext, (params, altitude_km)


def test_channel_output_fields_are_the_laws_reads():
    # each field holds what it names: the collection and slant range from
    # _law_at, the extinction from _range_law, the radius from w_LT^2; and
    # _law_at's slant range is slant_range's, to the last bit
    for params, altitude_km in _random_channels(20261023, 50):
        z_km, w_sq, collection = params._law_at(altitude_km)
        assert z_km == slant_range(altitude_km, params.zenith_deg)
        out = params.at_altitude(altitude_km)
        fields = (
            out.geometric_collection,
            out.extinction,
            out.slant_range_km,
            out.long_term_beam_radius_m,
        )
        assert fields == (collection, params._range_law[2], z_km, math.sqrt(w_sq))


# far-field channels: at 1343 km the first collects 1.6e-6 of the beam
FAR_FIELD = (
    (FsoChannelParams(aperture_m=0.109, w0_m=0.0118, wavelength_nm=1320.0), 1343.0),
    (FsoChannelParams(aperture_m=0.01, w0_m=0.01, wavelength_nm=2000.0, jitter_urad=10.0), 2000.0),
)


def test_collection_keeps_its_digits_in_the_far_field():
    # against 1 - exp(-x) at 60 digits, from the same x = 2 a^2 / w_LT^2; the
    # float form 1 - exp(-x) loses about log10(1/x) digits here
    channels = [*FAR_FIELD, *_random_channels(20261022, 200)]
    smallest = 1.0
    for params, altitude_km in channels:
        _, w_sq, collection = params._law_at(altitude_km)
        x = 2.0 * params.aperture_m**2 / w_sq
        with mpmath.workdps(60):
            exact = -mpmath.expm1(-mpmath.mpf(x))
            assert abs(collection - exact) <= 2.0**-52 * exact, (params, altitude_km)
        assert params.at_altitude(altitude_km).geometric_collection == collection
        smallest = min(smallest, collection)
    assert smallest < 1e-7


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


# ---------------------------------------------------------------------------
# closed-form inverse and floating-point range
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "params",
    [FsoChannelParams(zenith_deg=0.0), PARAMS, NO_JITTER, *(p for p, _ in FAR_FIELD)],
    ids=["zenith0", "zenith80", "jitter0", "far-field", "far-field-narrow"],
)
def test_altitude_at_inverts_at_altitude(params):
    for i in range(191):
        altitude_km = 100.0 + 10.0 * i
        eta = params.at_altitude(altitude_km).transmissivity
        assert abs(params.altitude_at(eta) - altitude_km) <= 1e-9, altitude_km


def test_altitude_at_rejects_transmissivities_no_altitude_gives():
    eta_ext = PARAMS.at_altitude(500.0).extinction
    for bad in (0.0, -0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"transmissivity must lie in \(0, 1\]"):
            PARAMS.altitude_at(bad)
    # no altitude passes the extinction (the default beam never fills the
    # aperture), 1, or just below the extinction (more than the beam
    # delivers at zero range)
    for eta in (eta_ext, 1.0, math.nextafter(eta_ext, 0.0)):
        assert PARAMS.altitude_at(eta) == 0.0, eta
    # every altitude passes the smallest subnormal
    assert PARAMS.altitude_at(5e-324) == math.inf


def test_altitude_at_is_the_highest_altitude_that_passes_eta(monkeypatch):
    rng = random.Random(20261021)
    reads = []
    real = FsoChannelParams._law_at

    def counted(self, altitude_km):
        reads.append(altitude_km)
        return real(self, altitude_km)

    monkeypatch.setattr(FsoChannelParams, "_law_at", counted)
    most_reads = 0
    for params, altitude_km in _random_channels(20261021, 200):
        eta_ext = params._range_law[2]
        above = [math.nextafter(eta_ext, 1.0), 0.5 * (eta_ext + 1.0), 1.0]
        for eta in above:
            assert params.altitude_at(eta) == 0.0, (params, eta)
        # log-uniform over (5e-324, 1], with the extinction, its neighbours and
        # taus (1 - 10^-u) of it for u up to 16, where the collection saturates
        etas = sorted(
            [5e-324, eta_ext, math.nextafter(eta_ext, 0.0)]
            + [math.exp(-744.0 * rng.random()) for _ in range(40)]
            + [eta_ext * (1.0 - 10.0 ** -rng.uniform(0.0, 16.0)) for _ in range(10)]
            + above
        )
        altitudes = []
        for eta in etas:
            reads.clear()
            altitude = params.altitude_at(eta)
            altitudes.append(altitude)
            count = len(reads)
            if 0.0 < altitude < math.inf:
                _assert_last_float_that_passes(params, eta, altitude)
                if params.at_altitude(altitude).geometric_collection > 1.0 - 1e-4:
                    # near saturation: a bound of its own (reads[0] is h*)
                    assert count <= _saturated_read_bound(reads[0], altitude), (params, eta)
                    continue
            most_reads = max(most_reads, count)
        assert altitudes == sorted(altitudes, reverse=True), params
        # the inverse, down into the far field: everywhere but where the
        # collected fraction is so close to 1 that tau no longer resolves the altitude
        out = params.at_altitude(altitude_km)
        if out.geometric_collection <= 1.0 - 1e-4:
            assert abs(params.altitude_at(out.transmissivity) - altitude_km) <= 1e-9, (
                params,
                altitude_km,
            )
    # the closed form and its correction, wherever the collection at the
    # answer is at most 1 - 1e-4: a bounded number of reads of the law
    assert 1 < most_reads <= 64


def _saturated_read_bound(h_star, altitude):
    """Reads of the law that altitude_at may take from h* to an answer near saturation.

    55 steps and 53 bisections while the answer lies within a factor of
    two of h*, and one step more per further factor of two.
    """
    ratio = max(altitude / h_star, h_star / altitude)
    return 108 + max(0, math.ceil(math.log2(ratio)) - 1)


def _assert_last_float_that_passes(params, eta, altitude):
    """altitude passes eta, as at_altitude evaluates it, and the next float up does not."""
    assert params.at_altitude(altitude).transmissivity >= eta, (params, eta, altitude)
    up = math.nextafter(altitude, math.inf)
    assert params.at_altitude(up).transmissivity < eta, (params, eta, altitude)


def test_altitude_at_searches_up_from_a_closed_form_that_passes(monkeypatch):
    # at tau = 0.30503 the closed form of 42 of these channels passes but is
    # not the highest altitude that does: up to 9.1e-13 km below it
    found = 0
    for params, _ in _random_channels(20261021, 200):
        altitude = params.altitude_at(0.30503)
        if 0.0 < altitude < math.inf:
            _assert_last_float_that_passes(params, 0.30503, altitude)
            found += 1
    assert found >= 80
    # near saturation: this channel collects 1 - 1.7e-15 of the beam there,
    # and its closed form, 0.594 km, passes while every altitude up to 1.897 km does
    params = FsoChannelParams(
        wavelength_nm=764.0997039803797, w0_m=0.37581183328459283,
        aperture_m=1.551946543266186, zenith_deg=31.2994928722404,
        hv_ground_cn2=8.681235136775984e-13, hv_wind=0.0,
        jitter_urad=5.506215077640491, tau_zenith=0.3625663221286152,
    )
    eta = 0.3050282653401504
    reads = []
    real = FsoChannelParams._law_at

    def counted(self, altitude_km):
        reads.append(altitude_km)
        return real(self, altitude_km)

    monkeypatch.setattr(FsoChannelParams, "_law_at", counted)
    altitude = params.altitude_at(eta)
    assert reads[0] == 0.594478401232517
    # 3.2 times h*: 108 reads, one under the bound
    assert len(reads) <= _saturated_read_bound(reads[0], altitude) == 109
    monkeypatch.undo()
    assert 1.89 < altitude < 1.90
    _assert_last_float_that_passes(params, eta, altitude)
    assert params.at_altitude(0.594478401232517).transmissivity >= eta


def test_the_extinction_maps_to_where_the_collection_saturates():
    # a 4.98 m aperture collects all of a 425 nm beam, to rounding, up to
    # 2749 km: the channel passes its extinction exactly up to there
    params = FsoChannelParams(
        aperture_m=4.98, w0_m=0.338, wavelength_nm=425.0, zenith_deg=0.0,
        tau_zenith=0.8399253004912931, jitter_urad=0.0,
    )
    eta_ext = params._range_law[2]
    altitude = params.altitude_at(eta_ext)
    assert 2748.0 < altitude < 2749.0
    assert params.at_altitude(altitude).transmissivity == eta_ext
    assert params.at_altitude(math.nextafter(altitude, math.inf)).transmissivity < eta_ext
    # where 2 a^2 / w_LT^2 falls to 54 ln 2
    _, w_sq, _ = params._law_at(altitude)
    assert math.isclose(2.0 * params.aperture_m**2 / w_sq, 54.0 * math.log(2.0), rel_tol=1e-12)


def test_out_of_range_channel_values_raise_value_error():
    # each of these squares past the largest double
    for name in ("wavelength_nm", "w0_m", "aperture_m", "hv_wind", "jitter_urad"):
        with pytest.raises(ValueError, match=f"{name} is too large: 1e\\+200"):
            FsoChannelParams(**{name: 1e200})
    # representable fields whose combination is not, and a huge altitude
    for params, altitude_km in ((FsoChannelParams(w0_m=1e-155), 500.0), (PARAMS, 1e300)):
        with pytest.raises(ValueError, match="leaves floating-point range") as info:
            params.at_altitude(altitude_km)
        assert isinstance(info.value.__cause__, ArithmeticError)
    # rejected exactly when the beam radius is not representable: at w0 = 1e-150
    # the law gives w_LT^2 ~ 1.9e299 at 500 km, a finite radius that collects
    # 2 a^2 / w_LT^2 ~ 5e-300 of the beam
    out = FsoChannelParams(w0_m=1e-150).at_altitude(500.0)
    assert math.isfinite(out.long_term_beam_radius_m)
    assert 0.0 < out.transmissivity < 1e-299
