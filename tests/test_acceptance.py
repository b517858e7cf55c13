"""Acceptance suite: one test per top-level deliverable check.

Each test pins a reference operating point, a cross-check against an
independent transcription, or a runtime budget for the assembled model
stack.  `pytest -v tests/test_acceptance.py` prints one pass/fail line
per criterion.
"""

from __future__ import annotations

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from oracle_p676 import specific_attenuation_db_km
from qlinksim.atmosphere import (
    SlantPathSpec,
    attenuation_spectrum,
    default_profile,
    slant_attenuation,
    slant_attenuation_spectrum,
    specific_attenuation,
    thermal_photon_number,
)
from qlinksim.config import load_config
from qlinksim.cvqkd import (
    PhaseEncodingNoise,
    ThermalLossChannel,
    composable_key_rate,
    holevo_bound,
)
from qlinksim.dvqkd import (
    FiniteSizeConfig,
    decoy_bounds,
    finite_key_rate,
    gains_and_qber,
    qsdc_payload_rate,
)
from qlinksim.fso import FsoChannelParams
from qlinksim.sweeps import (
    SCENARIOS,
    dv_sweep,
    max_secure_altitude,
    render_csv,
    run_scenario,
    thermal_grid,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

# block size -> reference maximum secure altitude (km); the asymptotic
# entry leads and the ladder must fall monotonically with block size
DV_TARGET_ALT_KM = ((math.inf, 583.0), (1e11, 542.0), (1e10, 467.0), (1e9, 305.0))
CV_TARGET_ALT_KM = ((math.inf, 487.0), (1e11, 452.0), (1e10, 392.0), (1e9, 276.0))
# classical bit rate (bits/use) at each CV altitude limit, same order
CV_TARGET_CLASSICAL = (6.3e-2, 6.8e-2, 7.8e-2, 1.08e-1)

ALT_TOLERANCE = 0.20
PAYLOAD_BAND = (2e-4, 4e-3)
CLASSICAL_FACTOR = 2.0


def test_criterion_1_dv_max_altitude_ladder():
    start = time.perf_counter()
    cfg = load_config()
    altitudes = []
    for block_n, target in DV_TARGET_ALT_KM:
        res = max_secure_altitude("dv", block_n, cfg)
        assert abs(res.max_secure_altitude_km - target) <= ALT_TOLERANCE * target, (
            f"block {block_n:g}: {res.max_secure_altitude_km:.1f} km "
            f"vs target {target:.0f} km"
        )
        altitudes.append(res.max_secure_altitude_km)
    assert all(a > b for a, b in zip(altitudes, altitudes[1:])), altitudes
    assert time.perf_counter() - start < 10.0


def test_criterion_2_cv_max_altitude_ladder():
    start = time.perf_counter()
    cfg = load_config()
    altitudes = []
    for block_n, target in CV_TARGET_ALT_KM:
        res = max_secure_altitude("cv", block_n, cfg)
        assert abs(res.max_secure_altitude_km - target) <= ALT_TOLERANCE * target, (
            f"block {block_n:g}: {res.max_secure_altitude_km:.1f} km "
            f"vs target {target:.0f} km"
        )
        altitudes.append(res.max_secure_altitude_km)
    assert all(a > b for a, b in zip(altitudes, altitudes[1:])), altitudes
    assert time.perf_counter() - start < 10.0


def test_criterion_3_payload_band_at_dv_limits():
    cfg = load_config()
    payloads = []
    for block_n, _ in DV_TARGET_ALT_KM:  # altitudes fall along this order
        res = max_secure_altitude("dv", block_n, cfg)
        out = cfg.channel.at_altitude(res.max_secure_altitude_km)
        eta_total = out.transmissivity * cfg.dv.eta_receiver
        payloads.append(qsdc_payload_rate(eta_total, cfg.dv))
    for payload in payloads:
        assert PAYLOAD_BAND[0] <= payload <= PAYLOAD_BAND[1], payloads
    # lower orbit, more collected light, more payload throughput
    assert all(a < b for a, b in zip(payloads, payloads[1:])), payloads


def test_criterion_4_classical_rate_at_cv_limits():
    cfg = load_config()
    rates = []
    for (block_n, _), target in zip(CV_TARGET_ALT_KM, CV_TARGET_CLASSICAL):
        res = max_secure_altitude("cv", block_n, cfg)
        out = cfg.channel.at_altitude(res.max_secure_altitude_km)
        ch = ThermalLossChannel(tau=out.transmissivity, n_thermal=cfg.cv.n_bg)
        rate = composable_key_rate(ch, cfg.cv, cfg.cv_noise, block_n).classical_rate
        assert target / CLASSICAL_FACTOR <= rate <= target * CLASSICAL_FACTOR, (
            f"block {block_n:g}: classical {rate:.3e} vs target {target:.3e}"
        )
        rates.append(rate)
    assert all(a < b for a, b in zip(rates, rates[1:])), rates


def test_criterion_5_optical_thermal_occupancy():
    # occupancy falls with frequency and rises with temperature, so the
    # grid includes the worst corner (lowest f, highest T) of the band
    for f_thz in (193.0, 200.0, 250.0, 300.0, 400.0, 600.0, 1000.0):
        for temp_k in (293.15, 295.65, 298.15):
            occupancy = thermal_photon_number(f_thz * 1e12, temp_k)
            assert occupancy < 1e-5, (f_thz, temp_k, occupancy)
    assert thermal_photon_number(1e12, 295.0) == pytest.approx(5.66, abs=0.01)


def test_criterion_6_attenuation_landmarks_and_oracle():
    profile = default_profile()
    sea_level = profile.state_at(0.0)
    # water-vapor line maxima at sea level sit on the expected centers
    for center in (557.0, 752.0, 988.0):
        freqs = np.arange(center - 5.0, center + 5.0 + 1e-9, 0.1)
        gamma = attenuation_spectrum(freqs, sea_level)
        peak = float(freqs[int(np.argmax(gamma))])
        assert abs(peak - center) <= 1.0, f"peak near {center} found at {peak}"
    # a microwave feeder link crossing the whole troposphere stays under 1 dB
    low_band = slant_attenuation(SlantPathSpec(45.0, 0.0, 28.0), 10.0)
    assert 0.0 < low_band < 1.0
    # one km of ground-level path at 988 GHz is opaque
    assert slant_attenuation(SlantPathSpec(45.0, 0.0, 1.0), 988.0) > 100.0
    # spot agreement with an independently transcribed line-by-line model
    rng = random.Random(8)
    for _ in range(20):
        f = rng.uniform(1.0, 1000.0)
        alt = rng.uniform(0.0, 30.0)
        state = profile.state_at(alt)
        got = specific_attenuation(f, state)
        want = specific_attenuation_db_km(
            f, state.temperature_k, state.pressure_hpa, state.water_vapor_density_g_m3
        )
        assert got == pytest.approx(want, rel=0.10), (f, alt)


def _poisson_gain_oracle(eta, params, intensity, n_max=80):
    gain = 0.0
    err_gain = 0.0
    log_pn = -intensity
    for n in range(n_max + 1):
        p_n = math.exp(log_pn)
        click = 1.0 - (1.0 - eta) ** n
        gain += p_n * (params.y0 + click)
        err_gain += p_n * (params.e0 * params.y0 + params.e_mis * click)
        log_pn += math.log(intensity) - math.log(n + 1) if intensity > 0 else -math.inf
    return gain, err_gain / gain


def test_criterion_7_randomized_property_campaigns():
    start = time.perf_counter()
    cfg = load_config()
    cases = 0

    # decoy estimates against an explicit photon-number channel
    rng = random.Random(101)
    for _ in range(2500):
        eta = 10.0 ** rng.uniform(-5, 0)
        gain_mu, _ = gains_and_qber(eta, cfg.dv, cfg.dv.mu)
        gain_nu, qber_nu = gains_and_qber(eta, cfg.dv, cfg.dv.nu)
        oracle_gain, oracle_qber = _poisson_gain_oracle(eta, cfg.dv, cfg.dv.nu)
        assert gain_nu == pytest.approx(oracle_gain, rel=1e-9)
        assert qber_nu == pytest.approx(oracle_qber, rel=1e-9)
        y1, e1 = decoy_bounds(gain_mu, gain_nu, cfg.dv.y0, qber_nu, cfg.dv)
        y1_true = cfg.dv.y0 + eta
        e1_true = (cfg.dv.e0 * cfg.dv.y0 + cfg.dv.e_mis * eta) / y1_true
        assert y1 <= y1_true + 1e-12
        assert e1 >= min(e1_true, 1.0) - 1e-12
        cases += 1

    # decoy key rates: monotone in transmissivity, finite below asymptotic
    rng = random.Random(202)
    asym = FiniteSizeConfig()
    for _ in range(2000):
        eta = 10.0 ** rng.uniform(-5, -0.2)
        r_lo = finite_key_rate(eta, cfg.dv, asym)
        r_hi = finite_key_rate(min(eta * 1.3, 1.0), cfg.dv, asym)
        if r_lo.key_rate > 0.0:
            assert r_hi.key_rate > r_lo.key_rate
        fs = FiniteSizeConfig(block_size_n=10.0 ** rng.uniform(7, 13))
        assert finite_key_rate(eta, cfg.dv, fs).key_rate <= r_lo.key_rate + 1e-15
        cases += 1

    # coherent-state stack: Holevo bound non-negative, zero for the
    # identity channel, finite below asymptotic, monotone in tau
    chi_identity, _ = holevo_bound(
        ThermalLossChannel(1.0, 0.0), cfg.cv, PhaseEncodingNoise(0.0)
    )
    assert abs(chi_identity) <= 1e-9
    cases += 1
    rng = random.Random(303)
    for _ in range(1000):
        tau = 10.0 ** rng.uniform(-2.2, -0.05)
        noise = PhaseEncodingNoise(rng.uniform(0.0, 4e-5))
        ch = ThermalLossChannel(tau, rng.uniform(0.0, 0.02))
        r_asym = composable_key_rate(ch, cfg.cv, noise)
        assert r_asym.diagnostics.chi_e >= 0.0
        n_block = 10.0 ** rng.uniform(8, 13)
        r_fin = composable_key_rate(ch, cfg.cv, noise, block_size_n=n_block)
        assert r_fin.key_rate <= r_asym.key_rate + 1e-15
        ch_hi = ThermalLossChannel(min(tau * 1.1, 1.0), ch.n_thermal)
        if r_asym.key_rate > 0.0:
            assert composable_key_rate(ch_hi, cfg.cv, noise).key_rate > r_asym.key_rate
        cases += 1

    # optical channel: transmissivity falls with altitude and zenith angle
    rng = random.Random(404)
    for _ in range(1500):
        alt = rng.uniform(150.0, 1900.0)
        zen = rng.uniform(0.0, 79.0)
        params = FsoChannelParams(zenith_deg=zen)
        tau = params.at_altitude(alt).transmissivity
        assert params.at_altitude(alt + 25.0).transmissivity < tau
        steeper = FsoChannelParams(zenith_deg=zen + 1.0)
        assert steeper.at_altitude(alt).transmissivity < tau
        cases += 1

    # gaseous attenuation: non-negative everywhere, grows with path length
    rng = random.Random(505)
    profile = default_profile()
    for _ in range(1300):
        f = rng.uniform(1.0, 1000.0)
        state = profile.state_at(rng.uniform(0.0, 85.0))
        assert specific_attenuation(f, state) >= 0.0
        cases += 1
    for _ in range(10):
        d = rng.uniform(2.0, 30.0)
        freqs = np.array([rng.uniform(1.0, 1000.0) for _ in range(20)])
        near = slant_attenuation_spectrum(SlantPathSpec(45.0, 0.0, d), freqs)
        far = slant_attenuation_spectrum(SlantPathSpec(45.0, 0.0, d + 5.0), freqs)
        assert np.all(far > near)
        cases += 20

    # blackbody occupancy: falls with frequency, rises with temperature
    rng = random.Random(606)
    for _ in range(1500):
        f = 10.0 ** rng.uniform(9.0, 13.3)
        temp = rng.uniform(150.0, 310.0)
        n_mid = thermal_photon_number(f, temp)
        assert thermal_photon_number(f * 1.5, temp) < n_mid
        assert thermal_photon_number(f, temp + 2.0) > n_mid
        cases += 1

    # CSV rendering is byte-identical across repeated runs
    small_dv = load_config(overrides=[
        "sweep.altitude_start_km=300",
        "sweep.altitude_stop_km=320",
        "sweep.altitude_step_km=10",
        "sweep.block_sizes=1e10, inf",
    ])
    assert render_csv(dv_sweep(small_dv), small_dv) == render_csv(
        dv_sweep(small_dv), small_dv
    )
    small_thermal = load_config(overrides=[
        "sweep.freq_start_ghz=100",
        "sweep.freq_stop_ghz=1000",
        "sweep.freq_step_ghz=450",
    ])
    assert render_csv(thermal_grid(small_thermal), small_thermal) == render_csv(
        thermal_grid(small_thermal), small_thermal
    )
    cases += 2

    assert cases >= 10000, cases
    assert time.perf_counter() - start < 60.0


# every figure table leads with two grid-coordinate columns
GRID_COLUMNS = 2
# Relative bound on computed table values.  math.log2 and math.expm1 come
# from the platform's C library, which need not round correctly, so their
# last bit can differ between machines; the largest such drift seen in a
# golden is 9e-15 (key_rate, through the log2 of I_raw).  1e-12
# sits 100x above that and 100x below the 1e-10 key_rate shift that the
# cancellation-free two-mode symplectic eigenvalues in holevo_bound made to
# fig3, so a kernel change of that size is caught.
CSV_VALUE_RTOL = 1e-12


def _table_drifts(name: str, golden: str, fresh: str) -> list[str]:
    """Every way `fresh` departs from `golden`, one line each.

    Provenance and column headers, row count and order, the grid-coordinate
    columns and every zero or non-finite token must match exactly; any
    other value may deviate by CSV_VALUE_RTOL relative.
    """
    gold_lines = golden.splitlines()
    new_lines = fresh.splitlines()
    n_head = next(i for i, line in enumerate(gold_lines) if not line.startswith("#")) + 1
    drifts = [
        f"{name}: header line {i + 1}: {g!r} became {f!r}"
        for i, (g, f) in enumerate(zip(gold_lines[:n_head], new_lines[:n_head]))
        if g != f
    ]
    if len(new_lines) != len(gold_lines):
        drifts.append(f"{name}: {len(gold_lines)} lines became {len(new_lines)}")
    columns = gold_lines[n_head - 1].split(",")
    for lineno, (g_row, f_row) in enumerate(
        zip(gold_lines[n_head:], new_lines[n_head:]), start=n_head + 1
    ):
        g_cells, f_cells = g_row.split(","), f_row.split(",")
        where = ", ".join(f"{c}={v}" for c, v in zip(columns, g_cells[:GRID_COLUMNS]))
        if len(f_cells) != len(g_cells) or f_cells[:GRID_COLUMNS] != g_cells[:GRID_COLUMNS]:
            drifts.append(f"{name}: line {lineno} ({where}): {g_row!r} became {f_row!r}")
            continue
        for column, g, f in list(zip(columns, g_cells, f_cells))[GRID_COLUMNS:]:
            if g == f:
                continue
            g_val, f_val = float(g), float(f)
            if g_val == 0.0 or f_val == 0.0 or not (math.isfinite(g_val) and math.isfinite(f_val)):
                deviation = math.inf
            else:
                deviation = abs(f_val - g_val) / abs(g_val)
            if deviation > CSV_VALUE_RTOL:
                drifts.append(
                    f"{name}: line {lineno} ({where}) {column}: {g} became {f}, "
                    f"relative deviation {deviation:.2e}"
                )
    return drifts


def test_criterion_8_figure_tables_regenerate_byte_identical():
    """The four data/ tables regenerate from their documented commands.

    Byte for byte: provenance header, column header, row count and order,
    grid-coordinate columns, and every `0`/`inf` token.  Bounded: all other
    computed values agree to CSV_VALUE_RTOL relative, since the platform's
    libm may differ from the one that wrote the golden in the last bit.
    All four tables are compared before the test fails, and the failure
    names every drifted table, row and column.
    """
    goldens = {s.golden: scenario for scenario, s in SCENARIOS.items() if s.golden is not None}
    # a golden dropped from the registry would silently leave the check
    assert sorted(goldens) == sorted(p.stem for p in (REPO_ROOT / "data").glob("*.csv"))
    assert sorted(goldens) == sorted(p.stem for p in (REPO_ROOT / "configs").glob("fig*.ini"))
    drifts = []
    for name, scenario in goldens.items():
        config_path = REPO_ROOT / "configs" / f"{name}.ini"
        golden_path = REPO_ROOT / "data" / f"{name}.csv"
        command = (
            f"qlinksim {scenario} --config configs/{name}.ini --out data/{name}.csv"
        )
        if command not in config_path.read_text(encoding="utf-8"):
            drifts.append(f"{config_path.name} must document its generating command")
        cfg = load_config(str(config_path))
        text = render_csv(run_scenario(scenario, cfg), cfg)
        drifts += _table_drifts(golden_path.name, golden_path.read_text(encoding="utf-8"), text)
    assert not drifts, "figure tables drifted from their generating commands:\n" + "\n".join(
        drifts
    )


def test_criterion_8_check_rejects_drift():
    golden = "# scenario = cv-sweep\nkm,block,rate\n1,inf,0.5\n2,inf,0\n"
    assert _table_drifts("t", golden, golden) == []
    # one ulp of libm rounding passes
    assert _table_drifts("t", golden, golden.replace("0.5", "0.5000000000000001")) == []
    for drifted in (
        golden.replace("0.5", "0.50000000001"),  # value beyond CSV_VALUE_RTOL
        golden.replace("cv-sweep", "dv-sweep"),  # provenance line
        golden.replace("rate", "rates"),  # column header
        golden.replace("1,inf", "1.5,inf"),  # grid coordinate
        golden.replace(",0\n", ",1e-300\n"),  # exact zero token
        golden.replace("2,inf,0\n", ""),  # row count
    ):
        assert _table_drifts("t", golden, drifted), drifted
