from __future__ import annotations

import hashlib
import math
import random
import shutil
import tracemalloc
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import qlinksim.atmosphere as atmosphere
from gamma_kernel import gamma_at
from oracle_gamma_expr import _gamma_grid
from oracle_p676 import OXYGEN_LINES, WATER_LINES, specific_attenuation_db_km
from qlinksim.atmosphere import (
    TOP_ALTITUDE_KM,
    _slant_rule,
    default_line_table,
    default_profile,
    slant_attenuation_spectra,
    slant_attenuation_spectrum,
    thermal_photon_number,
)
from qlinksim.config import load_config

REPO_ROOT = Path(__file__).resolve().parent.parent

# (T K, P hPa, rho g/m^3) at sea level
SEA_LEVEL = (288.15, 1013.25, 7.5)


def _attenuation(elevation_deg: float, slant_km: float, f_ghz: float) -> float:
    """Total gas attenuation in dB along one slant at one frequency."""
    return float(slant_attenuation_spectrum(elevation_deg, slant_km, np.array([f_ghz]))[0])


# ---------------------------------------------------------------------------
# data files
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
    oxygen, water = default_line_table()
    assert oxygen.shape == (44, 7)
    assert water.shape == (35, 7)
    assert np.all(np.diff(oxygen[:, 0]) > 0.0)
    assert np.all(np.diff(water[:, 0]) > 0.0)


def test_line_table_rejects_wrong_shapes(monkeypatch):
    # the loader checks what it parsed: one oxygen line short, or the water
    # lines in reverse order
    read = atmosphere._read_checked

    def drop_last_line(raw):
        return raw[: raw.rstrip(b"\n").rindex(b"\n") + 1]

    def reverse_rows(raw):
        lines = raw.splitlines(keepends=True)
        comments = [line for line in lines if line.startswith(b"#")]
        return b"".join(comments + [line for line in reversed(lines) if not line.startswith(b"#")])

    cases = (
        ("oxygen_lines.txt", drop_last_line, r"expected 44 oxygen lines x 7 columns: \(43, 7\)"),
        ("water_lines.txt", reverse_rows, "water line centers must be strictly increasing"),
    )
    try:
        for target, damage, message in cases:
            monkeypatch.setattr(
                atmosphere,
                "_read_checked",
                lambda name, target=target, damage=damage: (
                    damage(read(name)) if name == target else read(name)
                ),
            )
            default_line_table.cache_clear()
            with pytest.raises(ValueError, match=message):
                default_line_table()
    finally:
        # a damaged table that loaded must not outlive the test
        default_line_table.cache_clear()


@pytest.fixture
def data_copy(tmp_path, monkeypatch):
    """A copy of the bundled data directory, which the loader then reads instead."""
    shutil.copytree(Path(atmosphere.__file__).parent / "data", tmp_path / "data")
    monkeypatch.setattr(atmosphere, "resources", SimpleNamespace(files=lambda package: tmp_path))
    default_line_table.cache_clear()
    yield tmp_path / "data"
    # a table loaded from the copy must not outlive the test
    default_line_table.cache_clear()


def test_line_table_rejects_a_damaged_byte(data_copy):
    path = data_copy / "oxygen_lines.txt"
    raw = bytearray(path.read_bytes())
    raw[-2] ^= 1  # the last digit of the last line
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum mismatch for data file 'oxygen_lines.txt'"):
        default_line_table()


def test_line_table_needs_a_manifest_entry(data_copy):
    manifest = data_copy / "MANIFEST.sha256"
    kept = [line for line in manifest.read_text().splitlines() if "water" not in line]
    manifest.write_text("\n".join(kept) + "\n")
    with pytest.raises(ValueError, match="no manifest entry for data file 'water_lines.txt'"):
        default_line_table()


def test_line_table_rejects_a_malformed_manifest_line(data_copy):
    manifest = data_copy / "MANIFEST.sha256"
    manifest.write_text(manifest.read_text() + "b2c6a2f5\n")
    with pytest.raises(
        ValueError, match="MANIFEST.sha256 line must be a digest and a file name: 'b2c6a2f5'"
    ):
        default_line_table()


def test_line_table_rejects_a_ragged_row(data_copy):
    path = data_copy / "water_lines.txt"
    text = path.read_text()
    last = text.rstrip("\n").rsplit("\n", 1)[1]
    text = text.replace(last, last.rsplit(" ", 1)[0])  # drop the last row's last value
    path.write_text(text)
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    manifest = data_copy / "MANIFEST.sha256"
    manifest.write_text(
        "".join(
            f"{digest}  water_lines.txt\n" if "water" in line else line
            for line in manifest.read_text().splitlines(keepends=True)
        )
    )
    # the checksums pass, so the parser is what rejects the row
    atmosphere._read_checked("water_lines.txt")
    with pytest.raises(ValueError, match="number of columns"):
        default_line_table()


def test_bundled_tables_agree_with_oracle_transcription():
    oxygen, water = default_line_table()
    assert np.allclose(oxygen, np.array(OXYGEN_LINES), rtol=0, atol=0)
    assert np.allclose(water, np.array(WATER_LINES), rtol=0, atol=0)


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
        (t_lo, t_hi, t_mid), (p_lo, p_hi, p_mid), _ = prof.states_at(
            np.array([math.floor(h), math.ceil(h), h])
        )
        assert min(p_lo, p_hi) <= p_mid <= max(p_lo, p_hi)
        assert min(t_lo, t_hi) - 1e-9 <= t_mid <= max(t_lo, t_hi) + 1e-9


def test_profile_tropospheric_lapse_rate():
    t0, t5 = default_profile().states_at(np.array([0.0, 5.0]))[0]
    # about -6.5 K/km in the troposphere (geopotential correction is small)
    assert (t0 - t5) / 5.0 == pytest.approx(6.5, rel=0.01, abs=0.0)


def test_states_at_rejects_out_of_range_altitudes():
    prof = default_profile()
    with pytest.raises(
        ValueError, match=r"altitude -0.1 km is outside the profile range \[0.0, 100.0\] km \(1 of 1 values\)"
    ):
        prof.states_at(np.array([-0.1]))
    with pytest.raises(ValueError, match=r"altitude 100.1 km .* \(2 of 3 values\)"):
        prof.states_at(np.array([50.0, 100.1, 101.0]))


# ---------------------------------------------------------------------------
# specific attenuation
# ---------------------------------------------------------------------------


def test_specific_attenuation_agrees_with_oracle_at_random_points():
    rng = random.Random(20260815)
    prof = default_profile()
    for _ in range(20):
        f = rng.uniform(1.0, 1000.0)
        alt = rng.uniform(0.0, 30.0)
        t, p, rho = (float(column[0]) for column in prof.states_at(np.array([alt])))
        got = gamma_at(f, t, p, rho)[0, 0]
        want = specific_attenuation_db_km(f, t, p, rho)
        assert got == pytest.approx(want, rel=0.10, abs=0.0), (f, alt)


def test_specific_attenuation_thz_window_maxima():
    for center in (557.0, 752.0, 988.0):
        f = np.arange(center - 5.0, center + 5.0 + 1e-9, 0.1)
        gamma = gamma_at(f, *SEA_LEVEL)[:, 0]
        peak = float(f[int(np.argmax(gamma))])
        assert abs(peak - center) <= 1.0, f"peak near {center} found at {peak}"


def test_specific_attenuation_oxygen_complex_peak():
    # the 60 GHz oxygen complex towers over its 45/75 GHz shoulders
    g45, g60, g75 = gamma_at([45.0, 60.0, 75.0], *SEA_LEVEL)[:, 0]
    assert g60 > 10.0 * g45
    assert g60 > 10.0 * g75


def test_specific_attenuation_scales_down_with_altitude():
    states = default_profile().states_at(np.array([0.0, 10.0, 30.0]))
    for g_ground, g_mid, g_high in gamma_at([22.235, 60.0, 557.0], *states):
        assert g_ground > g_mid > g_high > 0.0


def test_specific_attenuation_rejects_out_of_band_frequencies():
    for bad in (0.5, 1000.5, -3.0):
        with pytest.raises(ValueError):
            slant_attenuation_spectra(45.0, [1.0], np.array([bad]))


def test_nan_frequencies_are_rejected():
    with pytest.raises(ValueError, match="nan is out of range"):
        _attenuation(45.0, 1.0, math.nan)
    with pytest.raises(ValueError, match="nan is out of range \\(1 of 3 values\\)"):
        slant_attenuation_spectra(45.0, [1.0, 2.0], np.array([10.0, math.nan, 20.0]))


@given(
    st.floats(min_value=1.0, max_value=1000.0),
    st.floats(min_value=0.0, max_value=40.0),
)
def test_specific_attenuation_non_negative(f, alt):
    assert gamma_at(f, *default_profile().states_at(np.array([alt])))[0, 0] >= 0.0


# ---------------------------------------------------------------------------
# the blockwise gamma kernel against its expression form
# ---------------------------------------------------------------------------

_OXYGEN, _WATER = default_line_table()
# band edges and every exact line centre, where fi - f is exactly 0
_EDGE_FREQS = (1.0, 1000.0, *_OXYGEN[:, 0].tolist(), *_WATER[:, 0].tolist())
_TOP = tuple(float(c[0]) for c in default_profile().states_at(np.array([TOP_ALTITUDE_KM])))


@given(
    st.lists(
        st.one_of(st.floats(min_value=1.0, max_value=1000.0), st.sampled_from(_EDGE_FREQS)),
        min_size=1,
        max_size=300,
    ),
    st.lists(
        st.tuples(
            st.floats(min_value=150.0, max_value=330.0),
            st.floats(min_value=0.0, max_value=1100.0),
            st.floats(min_value=0.0, max_value=40.0),
        ),
        min_size=1,
        max_size=8,
    ),
)
# dry air; total pressure at and below the vapour pressure (dry part clamped
# to 0); the 100 km top of the reference profile
@example(list(_EDGE_FREQS), [(288.15, 1013.25, 0.0)])
@example(list(_EDGE_FREQS), [(300.0, 10.0, 30.0), (300.0, 30.0 * 300.0 / 216.7, 30.0)])
@example(list(_EDGE_FREQS), [_TOP])
def test_gamma_blocks_equal_the_expression_form_bit_for_bit(freqs, states):
    t, p, rho = (list(column) for column in zip(*states))
    want = _gamma_grid(np.array(freqs), t, p, rho, _OXYGEN, _WATER)
    for node_major in (True, False):
        got = gamma_at(freqs, t, p, rho, node_major=node_major)
        assert got.tobytes() == want.tobytes(), node_major


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_vacuum_attenuates_nothing():
    # the Debye width is 0 in a vacuum; the continuum must read 0, not 0 * inf
    f = np.array([1.0, 10.0, 60.0, 118.750343, 557.0, 1000.0])
    assert gamma_at(f, 290.0, 0.0, 0.0)[:, 0].tolist() == [0.0] * 6


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("pressure_hpa", [1e-150, 1e-310])
def test_tiny_pressures_attenuate_without_overflow_warnings(pressure_hpa):
    # the continuum's f/d, or its square, overflows here; the Debye term reads
    # its limit 0, and gamma is the oxygen lines' one, linear in the pressure
    f = np.array([1.0, 10.0, 60.0, 118.750343, 557.0, 1000.0])
    gamma = gamma_at(f, 290.0, pressure_hpa, 0.0)[:, 0]
    linear = gamma_at(f, 290.0, 1e-140, 0.0)[:, 0] * (pressure_hpa / 1e-140)
    assert np.all(gamma > 0.0)
    np.testing.assert_allclose(gamma, linear, rtol=1e-9, atol=1e-320)


@pytest.mark.parametrize("block", [1, 7, 125, 1000])
def test_slant_spectra_bytes_do_not_depend_on_the_block_size(monkeypatch, block):
    freqs = np.concatenate([np.linspace(1.0, 1000.0, 131), _OXYGEN[:3, 0]])

    def both():
        return (
            slant_attenuation_spectra(45.0, [1.0, 10.0, 28.0], freqs).tobytes(),
            gamma_at(freqs, *SEA_LEVEL).tobytes(),
        )

    want = both()
    # with no element budget every block holds exactly _FREQ_BLOCK rows
    monkeypatch.setattr(atmosphere, "_BLOCK_ELEMENTS", 0)
    monkeypatch.setattr(atmosphere, "_FREQ_BLOCK", block)
    assert atmosphere._block_rows(1) == atmosphere._block_rows(10_000) == block
    assert both() == want


@pytest.mark.parametrize(
    ("nodes", "rows"),
    # fig4's 69 nodes, the default grid's 108, and from 206 nodes up the floor
    [(1, 17_250), (69, 250), (108, 159), (205, 84), (206, 84), (6_300, 84)],
)
def test_block_rows_fill_the_element_budget_down_to_the_floor(nodes, rows):
    assert atmosphere._block_rows(nodes) == rows


def test_slant_spectra_bytes_do_not_depend_on_the_orientation(monkeypatch):
    # three blocks of 50, 50 and 34 frequencies on about 60 nodes, forced
    # into each orientation: a short last block and each slant's sum alike
    freqs = np.concatenate([np.linspace(1.0, 1000.0, 131), _OXYGEN[:3, 0]])
    monkeypatch.setattr(atmosphere, "_BLOCK_ELEMENTS", 0)
    monkeypatch.setattr(atmosphere, "_FREQ_BLOCK", 50)
    spectra = []
    for node_major in (True, False):
        monkeypatch.setattr(atmosphere, "_node_major", lambda nodes, major=node_major: major)
        spectra.append(slant_attenuation_spectra(45.0, [1.0, 10.0, 28.0], freqs).tobytes())
    assert spectra[0] == spectra[1]


@pytest.mark.parametrize(
    ("nodes", "node_major", "rows"),
    # fig4's 69 nodes and the default grid's 108 run node-major, up to 131
    # nodes, whose block is 131 frequencies; from 132 nodes (130 frequencies)
    # up, as at 303 nodes and at the 6,102 of 2000 slants, frequency-major
    [
        (1, True, 17_250),
        (69, True, 250),
        (108, True, 159),
        (131, True, 131),
        (132, False, 130),
        (303, False, 84),
        (6_102, False, 84),
    ],
)
def test_gamma_blocks_run_unbuffered_along_the_longer_axis(nodes, node_major, rows):
    caller = np.getbufsize()
    seen = []

    class BufsizeSpy(float):
        """A line centre that records the ufunc buffer size where the kernel subtracts it."""

        def __sub__(self, other):
            seen.append(np.getbufsize())
            return float(self) - other

    states = default_profile().states_at(np.linspace(0.0, TOP_ALTITUDE_KM, nodes))
    factors = atmosphere._line_factors(*states, *default_line_table())
    assert factors[0] is node_major
    assert factors[1].shape == ((nodes, 1) if node_major else (1, nodes))
    oxygen = factors[5]
    oxygen[0] = (BufsizeSpy(oxygen[0][0]), *oxygen[0][1:])
    # a full block and a short last one
    shapes = []
    for _, gamma in atmosphere._gamma_blocks(np.linspace(1.0, 1000.0, rows + 7), factors):
        assert gamma.flags.c_contiguous
        assert np.getbufsize() == caller
        shapes.append(gamma.shape)
    assert shapes == ([(nodes, rows), (nodes, 7)] if node_major else [(rows, nodes), (7, nodes)])
    assert seen == [16, 16]


def test_slant_spectra_and_abandoned_blocks_keep_the_callers_buffer_size():
    caller = np.getbufsize()
    freqs = np.linspace(1.0, 1000.0, 300)
    slant_attenuation_spectra(45.0, [1.0, 10.0, 28.0], freqs)
    assert np.getbufsize() == caller
    states = default_profile().states_at(np.linspace(0.0, 20.0, 69))
    factors = atmosphere._line_factors(*states, *default_line_table())
    blocks = atmosphere._gamma_blocks(freqs, factors)
    next(blocks)
    assert np.getbufsize() == caller
    blocks.close()
    assert np.getbufsize() == caller


def test_slant_spectra_keep_a_buffer_size_the_caller_set():
    args = (45.0, [1.0, 10.0, 28.0], np.linspace(1.0, 1000.0, 300))
    want = slant_attenuation_spectra(*args).tobytes()
    with np.errstate():
        np.setbufsize(4096)
        got = slant_attenuation_spectra(*args).tobytes()
        assert np.getbufsize() == 4096
    assert got == want


def test_gamma_buffers_bound_the_traced_peak_of_fig4():
    # fig4's call allocates gamma's four (69 x 250) buffers once, 552 kB in
    # all.  Traced peaks on a 2-core KVM host, numpy 2.4: 1.03 MB with the
    # buffers, node-major and unbuffered; 1.48 MB with the full-size
    # operations written as expressions, whose temporaries this bound is
    # there to keep out
    cfg = load_config(str(REPO_ROOT / "configs" / "fig4_attenuation.ini"))
    args = (cfg.sweep.elevation_deg, cfg.sweep.slants_km(), np.array(cfg.sweep.frequencies_ghz()))
    slant_attenuation_spectra(*args)  # loads the line table and the profile
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        slant_attenuation_spectra(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 1_250_000, peak


# ---------------------------------------------------------------------------
# slant paths
# ---------------------------------------------------------------------------


def test_slant_path_spec_validation():
    f = np.array([10.0])
    for elevation in (0.0, 91.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=rf"elevation must lie in \(0, 90\] deg: {elevation!r}$"):
            slant_attenuation_spectra(elevation, [1.0], f)
    for slant in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=f"slant distance must be > 0: {slant!r}$"):
            slant_attenuation_spectra(45.0, [1.0, slant], f)
    # the elevation is checked before any slant
    with pytest.raises(ValueError, match="elevation"):
        slant_attenuation_spectra(0.0, [0.0], f)


def test_slant_attenuation_microwave_is_small():
    att = _attenuation(45.0, 28.0, 10.0)
    assert 0.0 < att < 1.0


def test_slant_attenuation_thz_ground_kilometre_is_huge():
    att = _attenuation(45.0, 1.0, 988.0)
    assert att > 100.0


def test_slant_attenuation_increases_with_distance():
    grid = [1.0, 5.0, 10.0, 20.0, 28.0]
    for f in (10.0, 94.0, 340.0):
        values = [_attenuation(45.0, s, f) for s in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_slant_attenuation_decreases_with_start_altitude():
    # a 10 km stretch of one ray, from where it crosses 0, 5 and 20 km of
    # altitude: the slant to its top end less the slant to its bottom end
    for f in (60.0, 557.0):
        bottoms = [h / math.sin(math.radians(45.0)) for h in (5.0, 20.0)]
        slants = [10.0, *bottoms, *(b + 10.0 for b in bottoms)]
        low, mid_lo, high_lo, mid_hi, high_hi = slant_attenuation_spectra(
            45.0, slants, np.array([f])
        )[:, 0]
        assert low > mid_hi - mid_lo > high_hi - high_lo >= 0.0


def test_slant_attenuation_saturates_above_atmosphere():
    # everything above 100 km contributes nothing
    att_a = _attenuation(90.0, 150.0, 60.0)
    att_b = _attenuation(90.0, 5000.0, 60.0)
    assert att_a == pytest.approx(att_b, rel=1e-12, abs=0.0)


def _converged_spectra(elevation, slants, freqs):
    """8-point Gauss-Legendre panels between the ray's quarter-km altitude crossings."""
    x, w = np.polynomial.legendre.leggauss(8)
    sin_el = math.sin(math.radians(elevation))
    rules = []
    for slant in slants:
        end = min(slant, TOP_ALTITUDE_KM / sin_el)
        crossings = (k / 4.0 / sin_el for k in range(1, 4 * int(TOP_ALTITUDE_KM)))
        edges = np.array([0.0, *(s for s in crossings if s < end), end])
        mid = ((edges[1:] + edges[:-1]) / 2.0)[:, None]
        half = ((edges[1:] - edges[:-1]) / 2.0)[:, None]
        rules.append(((mid + half * x).ravel(), (half * w).ravel()))
    # gamma once, on the union of the slants' nodes
    union, inverse = np.unique(np.concatenate([nodes for nodes, _ in rules]), return_inverse=True)
    h = np.clip(union * sin_el, 0.0, TOP_ALTITUDE_KM)
    gamma = gamma_at(freqs, *default_profile().states_at(h))
    idx = np.split(inverse, np.cumsum([len(nodes) for nodes, _ in rules[:-1]]))
    return np.array([(gamma[:, i] * weights).sum(axis=1) for i, (_, weights) in zip(idx, rules)])


def test_slant_quadrature_error_is_bounded():
    # fig4's and the default grid's slants at every frequency of their grids,
    # against a rule that agrees with itself on eighth-km panels to 6e-15; the
    # panel rule errs by at most 3.7e-8 on these grids
    for config in ("fig4_attenuation.ini", "default.ini"):
        cfg = load_config(str(REPO_ROOT / "configs" / config))
        freqs = np.array(cfg.sweep.frequencies_ghz())
        slants = cfg.sweep.slants_km()
        got = slant_attenuation_spectra(cfg.sweep.elevation_deg, slants, freqs)
        want = _converged_spectra(cfg.sweep.elevation_deg, slants, freqs)
        assert np.max(np.abs(got - want) / want) <= 1e-7, config


def test_slant_attenuation_step_convergence():
    # one slant through the water line and a THz line: the panel rule
    # against the converged one, and a slant of no length is refused
    for f in (22.235, 557.0):
        panels = _attenuation(45.0, 28.0, f)
        fine = _converged_spectra(45.0, [28.0], np.array([f]))[0, 0]
        assert panels == pytest.approx(fine, rel=1e-7, abs=0.0)
    with pytest.raises(ValueError):
        _attenuation(45.0, 0.0, 10.0)


@given(
    st.floats(min_value=0.0, max_value=90.0, exclude_min=True),
    st.lists(st.floats(min_value=1e-3, max_value=200.0), min_size=1, max_size=8),
)
@example(45.0, [1.0, 10.0, 19.0, 28.0])
# a ray so shallow that the sine underflows to 0 never leaves the ground
@example(5e-324, [3.0, 1.5])
def test_slants_of_one_ray_share_their_panels(elevation, slants):
    rules = [_slant_rule(elevation, s) for s in slants]
    sin_el = math.sin(math.radians(elevation))
    h_top = min(max(slants) * sin_el, TOP_ALTITUDE_KM)
    union = np.unique(np.concatenate([nodes for nodes, _ in rules]))
    assert union.size <= 3 * math.ceil(h_top) + 3 * len(slants)
    for slant, (nodes, weights) in zip(slants, rules):
        assert nodes.size <= 303 and np.all(np.diff(nodes) > 0.0)
        end = min(slant, TOP_ALTITUDE_KM / sin_el) if sin_el > 0.0 else slant
        assert math.fsum(weights) == pytest.approx(end, rel=1e-14, abs=0.0)
    if sin_el == 0.0:
        # one panel on the ground: gamma there times the slant
        ground = gamma_at([60.0], *default_profile().states_at(np.array([0.0])))[0, 0]
        got = slant_attenuation_spectra(elevation, slants, np.array([60.0]))[:, 0]
        np.testing.assert_allclose(got, ground * np.array(slants), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("config, union", [("fig4_attenuation.ini", 69), ("default.ini", 108)])
def test_slant_rules_evaluate_gamma_on_the_shared_panels_only(config, union):
    cfg = load_config(str(REPO_ROOT / "configs" / config))
    rules = [_slant_rule(cfg.sweep.elevation_deg, s) for s in cfg.sweep.slants_km()]
    assert np.unique(np.concatenate([nodes for nodes, _ in rules])).size == union


def test_slant_spectrum_matches_scalar_and_respects_band():
    freqs = np.array([10.0, 60.0, 988.0])
    spec = slant_attenuation_spectrum(45.0, 10.0, freqs)
    for f, a in zip(freqs, spec):
        assert a.tobytes() == np.float64(_attenuation(45.0, 10.0, float(f))).tobytes()
    with pytest.raises(ValueError):
        slant_attenuation_spectrum(45.0, 10.0, np.array([0.5]))


def test_slant_spectra_match_one_path_integrals():
    freqs = np.array([10.0, 60.0])
    with pytest.raises(ValueError, match="at least one slant"):
        slant_attenuation_spectra(45.0, [], freqs)
    with pytest.raises(ValueError, match="slant distance"):
        slant_attenuation_spectra(45.0, [5.0, 0.0], freqs)
    slants = [3.0, 40.0, 0.5]
    spectra = slant_attenuation_spectra(30.0, slants, freqs)
    assert spectra.shape == (3, 2)
    for slant, spectrum in zip(slants, spectra):
        one = slant_attenuation_spectrum(30.0, slant, freqs)
        assert spectrum.tobytes() == one.tobytes()


# ---------------------------------------------------------------------------
# thermal occupancy
# ---------------------------------------------------------------------------


def test_thermal_photon_number_reference_points():
    assert thermal_photon_number(1e12, 295.0) == pytest.approx(5.66, abs=0.01)
    assert thermal_photon_number(100e9, 295.0) == pytest.approx(60.9694, rel=1e-4, abs=0.0)


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
    # h*f or k*T underflows to 0: the occupancy divided by zero
    with pytest.raises(ValueError, match="underflows to 0 at frequency 1e-312 Hz"):
        thermal_photon_number(1e-312, 295.0)
    with pytest.raises(ValueError, match=r"underflows to 0 at .*, temperature 1e-320 K$"):
        thermal_photon_number(1e9, 1e-320)


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
