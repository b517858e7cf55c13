from __future__ import annotations

import hashlib
import math
import random
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracle_p676 import OXYGEN_LINES, WATER_LINES, specific_attenuation_db_km
from qlinksim.atmosphere import (
    AtmosphericState,
    ReferenceAtmosphereProfile,
    SlantPathSpec,
    SpectralLineTable,
    attenuation_spectrum,
    default_line_table,
    default_profile,
    slant_attenuation,
    slant_attenuation_spectra,
    slant_attenuation_spectrum,
    specific_attenuation,
    thermal_photon_number,
)

SEA_LEVEL = AtmosphericState(
    temperature_k=288.15, pressure_hpa=1013.25, water_vapor_density_g_m3=7.5
)


# ---------------------------------------------------------------------------
# data files and state validation
# ---------------------------------------------------------------------------


def test_bundled_line_tables_match_manifest_checksums():
    data_dir = resources.files("qlinksim") / "data"
    manifest = {}
    for line in (data_dir / "MANIFEST.sha256").read_text().splitlines():
        line = line.strip()
        if line:
            digest, name = line.split()
            manifest[name] = digest
    assert set(manifest) == {"oxygen_lines.txt", "water_lines.txt"}
    for name, digest in manifest.items():
        actual = hashlib.sha256((data_dir / name).read_bytes()).hexdigest()
        assert actual == digest, f"{name} drifted from its manifest entry"


def test_line_table_shape_and_ordering():
    table = default_line_table()
    assert table.oxygen.shape == (44, 7)
    assert table.water.shape == (35, 7)
    assert np.all(np.diff(table.oxygen[:, 0]) > 0.0)
    assert np.all(np.diff(table.water[:, 0]) > 0.0)


def test_line_table_rejects_wrong_shapes():
    table = default_line_table()
    with pytest.raises(ValueError):
        SpectralLineTable(oxygen=table.oxygen[:-1], water=table.water)
    with pytest.raises(ValueError):
        SpectralLineTable(oxygen=table.oxygen, water=table.water[::-1])


def test_bundled_tables_agree_with_oracle_transcription():
    table = default_line_table()
    assert np.allclose(table.oxygen, np.array(OXYGEN_LINES), rtol=0, atol=0)
    assert np.allclose(table.water, np.array(WATER_LINES), rtol=0, atol=0)


def test_atmospheric_state_validation():
    with pytest.raises(ValueError):
        AtmosphericState(0.0, 1000.0, 5.0)
    with pytest.raises(ValueError):
        AtmosphericState(280.0, -1.0, 5.0)
    with pytest.raises(ValueError):
        AtmosphericState(280.0, 1000.0, -0.1)


# ---------------------------------------------------------------------------
# reference profile
# ---------------------------------------------------------------------------


def test_profile_surface_values_and_extent():
    prof = default_profile()
    assert prof.altitude_km[0] == 0.0
    assert prof.altitude_km[-1] == 100.0
    assert prof.temperature_k[0] == pytest.approx(288.15, abs=1e-9)
    assert prof.pressure_hpa[0] == pytest.approx(1013.25, abs=1e-9)
    assert prof.water_vapor_g_m3[0] == pytest.approx(7.5, abs=1e-9)


def test_profile_pressure_monotone_and_temperature_bounded():
    prof = default_profile()
    assert np.all(np.diff(prof.pressure_hpa) < 0.0)
    assert np.all(prof.temperature_k > 150.0)
    assert np.all(prof.temperature_k < 300.0)


def test_profile_interpolation_continuity():
    # states halfway between nodes stay between the node values
    prof = default_profile()
    for h in (0.5, 10.5, 49.5, 86.5, 99.5):
        lo = prof.state_at(math.floor(h))
        hi = prof.state_at(math.ceil(h))
        mid = prof.state_at(h)
        assert min(lo.pressure_hpa, hi.pressure_hpa) <= mid.pressure_hpa
        assert mid.pressure_hpa <= max(lo.pressure_hpa, hi.pressure_hpa)
        assert min(lo.temperature_k, hi.temperature_k) - 1e-9 <= mid.temperature_k
        assert mid.temperature_k <= max(lo.temperature_k, hi.temperature_k) + 1e-9


def test_profile_tropospheric_lapse_rate():
    prof = default_profile()
    t0 = prof.state_at(0.0).temperature_k
    t5 = prof.state_at(5.0).temperature_k
    # about -6.5 K/km in the troposphere (geopotential correction is small)
    assert (t0 - t5) / 5.0 == pytest.approx(6.5, rel=0.01)


def _profile(rows) -> ReferenceAtmosphereProfile:
    """Profile from (altitude_km, T_k, P_hpa, rho_g_m3) rows, one array per column."""
    return ReferenceAtmosphereProfile(*np.array(rows, dtype=float).T)


def test_profile_validation_rejects_bad_tables():
    # a valid two-node table passes
    _profile([(0.0, 288.0, 1000.0, 5.0), (100.0, 280.0, 900.0, 4.0)])
    with pytest.raises(ValueError, match="non-increasing"):
        _profile([(0.0, 288.0, 1000.0, 5.0), (100.0, 280.0, 1010.0, 4.0)])
    with pytest.raises(ValueError, match="start at altitude 0"):
        _profile([(1.0, 288.0, 1000.0, 5.0), (100.0, 280.0, 900.0, 4.0)])
    with pytest.raises(ValueError, match="must reach"):
        _profile([(0.0, 288.0, 1000.0, 5.0), (50.0, 280.0, 900.0, 4.0)])


def test_states_at_rejects_out_of_range_altitudes():
    prof = default_profile()
    with pytest.raises(ValueError):
        prof.states_at(np.array([-0.1]))
    with pytest.raises(ValueError):
        prof.states_at(np.array([100.1]))


# ---------------------------------------------------------------------------
# specific attenuation
# ---------------------------------------------------------------------------


def test_specific_attenuation_agrees_with_oracle_at_random_points():
    rng = random.Random(20260815)
    prof = default_profile()
    for _ in range(20):
        f = rng.uniform(1.0, 1000.0)
        alt = rng.uniform(0.0, 30.0)
        state = prof.state_at(alt)
        got = specific_attenuation(f, state)
        want = specific_attenuation_db_km(
            f, state.temperature_k, state.pressure_hpa, state.water_vapor_density_g_m3
        )
        assert got == pytest.approx(want, rel=0.10), (f, alt)


def test_specific_attenuation_thz_window_maxima():
    for center in (557.0, 752.0, 988.0):
        f = np.arange(center - 5.0, center + 5.0 + 1e-9, 0.1)
        gamma = attenuation_spectrum(f, SEA_LEVEL)
        peak = float(f[int(np.argmax(gamma))])
        assert abs(peak - center) <= 1.0, f"peak near {center} found at {peak}"


def test_specific_attenuation_oxygen_complex_peak():
    # the 60 GHz oxygen complex towers over its 45/75 GHz shoulders
    g45 = specific_attenuation(45.0, SEA_LEVEL)
    g60 = specific_attenuation(60.0, SEA_LEVEL)
    g75 = specific_attenuation(75.0, SEA_LEVEL)
    assert g60 > 10.0 * g45
    assert g60 > 10.0 * g75


def test_specific_attenuation_scales_down_with_altitude():
    prof = default_profile()
    for f in (22.235, 60.0, 557.0):
        g_ground = specific_attenuation(f, prof.state_at(0.0))
        g_mid = specific_attenuation(f, prof.state_at(10.0))
        g_high = specific_attenuation(f, prof.state_at(30.0))
        assert g_ground > g_mid > g_high > 0.0


def test_specific_attenuation_rejects_out_of_band_frequencies():
    for bad in (0.5, 1000.5, -3.0):
        with pytest.raises(ValueError):
            specific_attenuation(bad, SEA_LEVEL)


@given(
    st.floats(min_value=1.0, max_value=1000.0),
    st.floats(min_value=0.0, max_value=40.0),
)
def test_specific_attenuation_non_negative(f, alt):
    state = default_profile().state_at(alt)
    assert specific_attenuation(f, state) >= 0.0


def test_attenuation_spectrum_matches_scalar_calls():
    f = np.array([10.0, 60.0, 183.31, 557.0])
    spec = attenuation_spectrum(f, SEA_LEVEL)
    for fi, gi in zip(f, spec):
        assert gi == pytest.approx(specific_attenuation(float(fi), SEA_LEVEL), rel=1e-12)


# ---------------------------------------------------------------------------
# slant paths
# ---------------------------------------------------------------------------


def test_slant_path_spec_validation():
    with pytest.raises(ValueError):
        SlantPathSpec(elevation_deg=0.0)
    with pytest.raises(ValueError):
        SlantPathSpec(elevation_deg=91.0)
    with pytest.raises(ValueError):
        SlantPathSpec(elevation_deg=45.0, start_altitude_km=-1.0)
    with pytest.raises(ValueError):
        SlantPathSpec(elevation_deg=45.0, slant_distance_km=0.0)


def test_slant_attenuation_microwave_is_small():
    att = slant_attenuation(SlantPathSpec(45.0, 0.0, 28.0), 10.0)
    assert 0.0 < att < 1.0


def test_slant_attenuation_thz_ground_kilometre_is_huge():
    att = slant_attenuation(SlantPathSpec(45.0, 0.0, 1.0), 988.0)
    assert att > 100.0


def test_slant_attenuation_increases_with_distance():
    grid = [1.0, 5.0, 10.0, 20.0, 28.0]
    for f in (10.0, 94.0, 340.0):
        values = [slant_attenuation(SlantPathSpec(45.0, 0.0, s), f) for s in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_slant_attenuation_decreases_with_start_altitude():
    for f in (60.0, 557.0):
        low = slant_attenuation(SlantPathSpec(45.0, 0.0, 10.0), f)
        mid = slant_attenuation(SlantPathSpec(45.0, 5.0, 10.0), f)
        high = slant_attenuation(SlantPathSpec(45.0, 20.0, 10.0), f)
        assert low > mid > high >= 0.0


def test_slant_attenuation_saturates_above_atmosphere():
    # everything above 100 km contributes nothing
    att_a = slant_attenuation(SlantPathSpec(90.0, 0.0, 150.0), 60.0)
    att_b = slant_attenuation(SlantPathSpec(90.0, 0.0, 5000.0), 60.0)
    assert att_a == pytest.approx(att_b, rel=1e-12)
    assert slant_attenuation(SlantPathSpec(45.0, 100.0, 50.0), 60.0) == 0.0


def test_slant_attenuation_step_convergence():
    path = SlantPathSpec(45.0, 0.0, 28.0)
    for f in (22.235, 557.0):
        coarse = slant_attenuation(path, f, step_scale=2.0)
        fine = slant_attenuation(path, f, step_scale=0.5)
        assert coarse == pytest.approx(fine, rel=5e-3)
    with pytest.raises(ValueError):
        slant_attenuation(path, 10.0, step_scale=0.0)


def test_slant_spectrum_matches_scalar_and_respects_band():
    path = SlantPathSpec(45.0, 0.0, 10.0)
    freqs = np.array([10.0, 60.0, 988.0])
    spec = slant_attenuation_spectrum(path, freqs)
    for f, a in zip(freqs, spec):
        assert a == pytest.approx(slant_attenuation(path, float(f)), rel=1e-12)
    with pytest.raises(ValueError):
        slant_attenuation_spectrum(path, np.array([0.5]))


def test_slant_spectra_match_one_path_integrals():
    freqs = np.array([10.0, 60.0])
    with pytest.raises(ValueError, match="at least one slant"):
        slant_attenuation_spectra(45.0, 0.0, [], freqs)
    with pytest.raises(ValueError, match="slant distance"):
        slant_attenuation_spectra(45.0, 0.0, [5.0, 0.0], freqs)
    slants = [3.0, 40.0, 0.5]
    spectra = slant_attenuation_spectra(30.0, 8.0, slants, freqs)
    assert spectra.shape == (3, 2)
    for slant, spectrum in zip(slants, spectra):
        one = slant_attenuation_spectrum(SlantPathSpec(30.0, 8.0, slant), freqs)
        assert spectrum.tobytes() == one.tobytes()
    assert not slant_attenuation_spectra(45.0, 100.0, slants, freqs).any()


# ---------------------------------------------------------------------------
# thermal occupancy
# ---------------------------------------------------------------------------


def test_thermal_photon_number_reference_points():
    assert thermal_photon_number(1e12, 295.0) == pytest.approx(5.66, abs=0.01)
    assert thermal_photon_number(100e9, 295.0) == pytest.approx(60.9694, rel=1e-4)


def test_thermal_photon_number_optical_band_negligible():
    for f_thz in (193.0, 250.0, 375.0):
        for t in (293.15, 295.65, 298.15):
            assert thermal_photon_number(f_thz * 1e12, t) < 1e-5


def test_thermal_photon_number_far_tail_underflows_gracefully():
    n = thermal_photon_number(1e16, 3.0)
    assert n >= 0.0
    assert math.isfinite(n)


def test_thermal_photon_number_domain():
    with pytest.raises(ValueError):
        thermal_photon_number(0.0, 295.0)
    with pytest.raises(ValueError):
        thermal_photon_number(1e12, 0.0)


@given(
    st.floats(min_value=1e9, max_value=1e15),
    st.floats(min_value=3.0, max_value=400.0),
)
def test_thermal_photon_number_monotonicities(f, t):
    # keep hf/kT away from the exp underflow so occupancies stay nonzero
    x = 6.62607015e-34 * f / (1.380649e-23 * t)
    assume(x < 700.0)
    n = thermal_photon_number(f, t)
    assert n > 0.0
    assert thermal_photon_number(2.0 * f, t) < n
    assert thermal_photon_number(f, t + 10.0) > n
