from __future__ import annotations

import importlib.util
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracle_gamma_expr import _gamma_grid
from qlinksim.atmosphere import (
    TOP_ALTITUDE_KM,
    _slant_rule,
    default_line_table,
    default_profile,
    slant_attenuation_spectrum,
    thermal_photon_number,
)
from qlinksim.cli import main
from qlinksim.config import load_config
from qlinksim.cvqkd import (
    CvProtocolParams,
    PhaseEncodingNoise,
    ThermalLossChannel,
    composable_key_rate,
)
from qlinksim.dvqkd import DecoyProtocolParams, finite_key_rate
from qlinksim.sweeps import (
    ALTITUDE_BRACKET_KM,
    ALTITUDE_TOL_KM,
    SCENARIOS,
    THRESHOLD_TOL_LN,
    InfeasibleScenario,
    SecureAltitudeResult,
    SweepTable,
    atmos_grid,
    cv_sweep,
    dv_sweep,
    max_secure_altitude,
    render_csv,
    run_scenario,
    thermal_grid,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

SMALL_DV_OVERRIDES = [
    "sweep.altitude_start_km=300",
    "sweep.altitude_stop_km=320",
    "sweep.altitude_step_km=10",
    "sweep.block_sizes=1e10, inf",
]
SMALL_DV = load_config(overrides=SMALL_DV_OVERRIDES)
SMALL_CV_OVERRIDES = [
    "sweep.altitude_start_km=200",
    "sweep.altitude_stop_km=220",
    "sweep.altitude_step_km=10",
    "sweep.block_sizes=1e10, inf",
    "sweep.protocol=cv",
]
SMALL_CV = load_config(overrides=SMALL_CV_OVERRIDES)
SMALL_ATMOS_OVERRIDES = [
    "sweep.freq_start_ghz=10",
    "sweep.freq_stop_ghz=60",
    "sweep.freq_step_ghz=50",
    "sweep.slant_start_km=10",
    "sweep.slant_stop_km=20",
    "sweep.slant_step_km=10",
]
SMALL_ATMOS = load_config(overrides=SMALL_ATMOS_OVERRIDES)


def _override_args(overrides: list[str]) -> list[str]:
    return [arg for item in overrides for arg in ("--override", item)]


def _column(table: SweepTable, name: str) -> tuple[float, ...]:
    return table.values[table.columns.index(name)]


# ---------------------------------------------------------------------------
# table containers
# ---------------------------------------------------------------------------


def test_table_enforces_row_width():
    # one value tuple per column, all of one length
    for values in (((1.0, 2.0, 3.0),), ((1.0,), (2.0,), (3.0,)), ((1.0, 2.0), (3.0,))):
        with pytest.raises(ValueError, match="do not match 2 columns"):
            SweepTable("x", ("a", "b"), values)
    assert SweepTable("x", ("a", "b"), ((1.0, 3.0), (2.0, 4.0))).values[1] == (2.0, 4.0)
    assert SweepTable("x", ("a", "b"), ((), ())).values == ((), ())


def test_render_csv_formats_every_row_as_its_cells():
    """Blocks of columns render as one line of formatted cells per row, across block edges."""
    from qlinksim import sweeps

    rows = 600
    assert 2 * sweeps._CSV_BLOCK_ROWS < rows  # two block edges
    specials = (0.0, -0.0, math.inf, -math.inf, 1e16, 2.5, -3.0)
    values = (
        tuple(float(i // 3) for i in range(rows)),  # integral, each repeated
        tuple(i / 7 for i in range(rows)),  # distinct
        tuple(specials[i % len(specials)] for i in range(rows)),  # signed zeros and infinities
        (-0.0,) + tuple(i * 1e15 for i in range(1, rows)),  # integral on both sides of 1e16
    )
    table = SweepTable("hand-built", ("a", "b", "c", "d"), values)
    cfg = load_config()
    text = render_csv(table, cfg)
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    head = 2 + len(sweeps.resolved_items(cfg))
    assert lines[0] == "# scenario = hand-built" and lines[head - 1] == "a,b,c,d"
    assert lines[head:] == [",".join(map(sweeps._format_cell, row)) for row in zip(*values)]
    assert lines[head : head + 2] == ["0,0,0,0", "0,0.14285714285714285,0,1000000000000000"]
    assert lines[head + 3 : head + 5] == [
        "1,0.42857142857142855,-inf,3000000000000000",
        "1,0.5714285714285714,1e+16,4000000000000000",
    ]
    assert lines[head + 20] == "6,2.857142857142857,-3,2e+16"


def test_altitude_result_validation():
    cfg = load_config()
    dead, live = (_rate("dv", tau, 1e9, cfg) for tau in (1e-9, 1.0))
    assert dead.key_rate == 0.0 < live.key_rate
    assert SecureAltitudeResult(300.0, 1.0, live, 5).threshold == 1.0
    with pytest.raises(ValueError):
        SecureAltitudeResult(300.0, 1e-3, dead, 5)
    with pytest.raises(ValueError):
        SecureAltitudeResult(300.0, 1e-3, live, -1)
    for threshold in (0.0, -1e-3, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\]"):
            SecureAltitudeResult(300.0, threshold, live, 5)


# ---------------------------------------------------------------------------
# sweep scenarios
# ---------------------------------------------------------------------------


def test_dv_sweep_grid_and_ordering():
    table = dv_sweep(SMALL_DV)
    assert table.columns[0] == "altitude_km"
    assert {len(column) for column in table.values} == {6}  # 3 altitudes x 2 block sizes
    # sorted by (block_size, altitude)
    assert _column(table, "block_size") == (1e10,) * 3 + (math.inf,) * 3
    assert _column(table, "altitude_km") == (300.0, 310.0, 320.0) * 2
    rates = _column(table, "key_rate_bits_per_use")
    assert rates[0] > rates[1] > rates[2] > 0.0  # decreasing with altitude
    assert rates[3] > rates[0]  # asymptotic beats finite at same altitude
    # transmissivity column reproduces the channel model
    tau = SMALL_DV.channel.at_altitude(300.0).transmissivity
    assert _column(table, "transmissivity")[0] == pytest.approx(tau, rel=1e-15, abs=0.0)


def test_cv_sweep_grid_and_ordering():
    table = cv_sweep(SMALL_CV)
    assert {len(column) for column in table.values} == {6}
    rates = _column(table, "key_rate_bits_per_use")
    assert rates[0] > rates[1] > rates[2] > 0.0
    classical = _column(table, "classical_rate_bits_per_use")
    assert classical[0] > classical[1] > classical[2] > 0.0
    assert min(_column(table, "chi_e")) > 0.0
    assert min(_column(table, "snr")) > 0.0


def test_atmos_grid_matches_direct_evaluation():
    table = atmos_grid(SMALL_ATMOS)
    assert _column(table, "frequency_ghz") == (10.0, 10.0, 60.0, 60.0)
    assert _column(table, "slant_km") == (10.0, 20.0, 10.0, 20.0)
    att = _column(table, "attenuation_db")
    # more path, more loss; the 60 GHz oxygen complex dwarfs 10 GHz
    assert att[1] > att[0] and att[3] > att[2]
    assert att[2] > 10.0 * att[0]
    direct = slant_attenuation_spectrum(45.0, 20.0, np.array([10.0]))[0]
    assert att[1] == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_atmos_grid_fig4_is_bit_exact_per_slant():
    # 1000 frequencies span several gamma blocks, and the 1/10/19/28 km
    # slants end in different panels: every value must equal, bit for bit,
    # the weighted sum over that slant's own nodes (an elementwise product,
    # summed along the contiguous axis) on one full gamma grid of the
    # expression-form kernel
    cfg = load_config(str(REPO_ROOT / "configs" / "fig4_attenuation.ini"))
    table = atmos_grid(cfg)
    freqs = np.array(cfg.sweep.frequencies_ghz())
    slants = np.array(_column(table, "slant_km"))
    att = np.array(_column(table, "attenuation_db"))
    assert len(cfg.sweep.slants_km()) == 4
    for slant in cfg.sweep.slants_km():
        nodes, weights = _slant_rule(cfg.sweep.elevation_deg, slant)
        h = np.clip(nodes * math.sin(math.radians(cfg.sweep.elevation_deg)), 0.0, TOP_ALTITUDE_KM)
        gamma = _gamma_grid(freqs, *default_profile().states_at(h), *default_line_table())
        assert gamma.flags.c_contiguous
        want = (gamma * weights).sum(axis=1)
        assert att[slants == slant].tobytes() == want.tobytes(), slant


def test_thermal_grid_matches_direct_evaluation():
    cfg = load_config(overrides=[
        "sweep.freq_start_ghz=100",
        "sweep.freq_stop_ghz=10000",
        "sweep.freq_step_ghz=4950",
        "sweep.temp_start_k=295",
        "sweep.temp_stop_k=295",
    ])
    table = thermal_grid(cfg)
    assert _column(table, "frequency_hz") == (1e11, 5.05e12, 1e13)
    photons = _column(table, "mean_photons")
    assert photons[0] > photons[1] > photons[2] > 0.0
    assert photons[0] == pytest.approx(thermal_photon_number(1e11, 295.0), rel=1e-12, abs=0.0)


def test_run_scenario_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("warp-drive", SMALL_DV)


# ---------------------------------------------------------------------------
# maximum secure altitude
# ---------------------------------------------------------------------------


def test_bisection_brackets_the_boundary():
    res = max_secure_altitude("dv", 1e9, load_config())
    assert 100.0 < res.max_secure_altitude_km < 2000.0
    assert res.rate.key_rate > 0.0
    assert not res.unbounded
    # one tolerance step higher the rate is already gone
    cfg = load_config()
    out = cfg.channel.at_altitude(res.max_secure_altitude_km + 1.0)
    from qlinksim.dvqkd import finite_key_rate

    dead = finite_key_rate(
        out.transmissivity * cfg.dv.eta_receiver, cfg.dv, cfg.dv_fs(1e9)
    )
    assert dead.key_rate == 0.0


def test_bisection_agrees_with_grid_sweep():
    cfg = load_config(overrides=["sweep.block_sizes=1e9"])
    table = dv_sweep(cfg)
    positive = [
        alt
        for alt, rate in zip(
            _column(table, "altitude_km"), _column(table, "key_rate_bits_per_use")
        )
        if rate > 0.0
    ]
    last_grid_alt = max(positive)
    res = max_secure_altitude("dv", 1e9, cfg)
    assert last_grid_alt <= res.max_secure_altitude_km < last_grid_alt + 10.0


def test_kernel_errors_name_their_row(monkeypatch):
    from qlinksim import sweeps
    from qlinksim.fso import FsoChannelParams

    def boom(*args, **kwargs):
        raise ValueError("kernel complaint")

    monkeypatch.setattr(sweeps, "finite_key_rate", boom)
    monkeypatch.setattr(sweeps, "composable_key_rate", boom)
    # a threshold no altitude above 100 km passes sends the one probe to the floor
    at_floor = _floor_threshold(SMALL_CV)
    cases = [
        (lambda: dv_sweep(SMALL_DV), "dv-sweep", 300.0, 1e10, SMALL_DV),
        (lambda: cv_sweep(SMALL_CV), "cv-sweep", 200.0, 1e10, SMALL_CV),
        (lambda: max_secure_altitude("cv", math.inf, SMALL_CV, at_floor), "max-altitude", 100.0, math.inf, SMALL_CV),
    ]
    for run, scenario, altitude_km, block_n, cfg in cases:
        with pytest.raises(ValueError) as info:
            run()
        tau = cfg.channel.at_altitude(altitude_km).transmissivity
        assert str(info.value) == (
            f"{scenario} row at altitude_km={altitude_km!r}, block_size={block_n!r}, "
            f"tau={tau!r}: kernel complaint"
        )
        assert str(info.value.__cause__) == "kernel complaint"
    # a channel error comes before tau is known
    monkeypatch.setattr(FsoChannelParams, "at_altitude", boom)
    with pytest.raises(ValueError) as info:
        dv_sweep(SMALL_DV)
    assert str(info.value) == (
        "dv-sweep row at altitude_km=300.0, block_size=10000000000.0: kernel complaint"
    )


def test_atmos_grid_errors_name_their_slant(capsys):
    # slants -5, 0, 5 km: the first one that fails on its own is named
    cfg = load_config(overrides=[
        *SMALL_ATMOS_OVERRIDES,
        "sweep.slant_start_km=-5",
        "sweep.slant_stop_km=5",
        "sweep.slant_step_km=5",
    ])
    with pytest.raises(ValueError) as info:
        atmos_grid(cfg)
    assert str(info.value) == (
        "atmos-grid slant at elevation_deg=45.0, slant_km=-5.0: "
        "slant distance must be > 0: -5.0"
    )
    assert str(info.value.__cause__) == "slant distance must be > 0: -5.0"
    # an error that no slant causes alone is reproduced by the first
    cfg = load_config(overrides=[*SMALL_ATMOS_OVERRIDES, "sweep.freq_start_ghz=0.5"])
    with pytest.raises(ValueError, match=r"^atmos-grid slant at elevation_deg=45\.0, slant_km=10\.0: freq"):
        atmos_grid(cfg)
    assert main(["atmos-grid", "--override", "sweep.slant_start_km=0"]) == 2
    assert capsys.readouterr().err == (
        "config error: atmos-grid slant at elevation_deg=45.0, slant_km=0.0: "
        "slant distance must be > 0: 0.0\n"
    )


def test_thermal_grid_errors_name_their_row(capsys):
    # the message alone reproduces the row: its frequency and its temperature
    cases = [
        (
            ["sweep.temp_start_k=0", "sweep.temp_stop_k=0"],
            "thermal-grid row at frequency_hz=1000000000.0, temperature_k=0.0: "
            "temperature must be > 0 K: 0.0",
        ),
        (
            ["sweep.freq_start_ghz=-1"],
            "thermal-grid row at frequency_hz=-1000000000.0, temperature_k=295.0: "
            "frequency must be > 0 Hz: -1000000000.0",
        ),
    ]
    for overrides, message in cases:
        assert main(["thermal-grid", *_override_args(overrides)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"


def test_atmos_grid_runs_a_grazing_ray_of_a_million_km(capsys):
    # 0.001 deg of elevation reaches 17.5 km of altitude in 1e6 km of path:
    # 18 panels, 54 nodes
    assert main([
        "atmos-grid",
        "--override", "sweep.elevation_deg=0.001",
        "--override", "sweep.slant_start_km=1e6",
        "--override", "sweep.slant_stop_km=1e6",
    ]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    attenuations = [float(row.split(",")[2]) for row in rows[1:]]
    assert len(attenuations) == 1000
    assert all(math.isfinite(a) and a > 0.0 for a in attenuations)
    assert _slant_rule(0.001, 1e6)[0].size == 54


def _rate(protocol, tau, block_n, cfg):
    if protocol == "dv":
        return finite_key_rate(tau * cfg.dv.eta_receiver, cfg.dv, cfg.dv_fs(block_n))
    ch = ThermalLossChannel(tau=tau, n_thermal=cfg.cv.n_bg)
    return composable_key_rate(ch, cfg.cv, cfg.cv_noise, block_size_n=block_n)


def _key_rate(protocol, tau, block_n, cfg):
    return _rate(protocol, tau, block_n, cfg).key_rate


def _threshold(protocol, block_n, cfg):
    """The secure threshold tau* of cfg's protocol records, solved without the channel."""
    from qlinksim import sweeps

    return sweeps._solve_threshold(sweeps._rate_of_tau(protocol, block_n, cfg), protocol, block_n)[0]


@pytest.mark.parametrize("protocol", ["dv", "cv"])
def test_secure_threshold_brackets_the_crossing(protocol):
    cfg = load_config()
    for block_n in (1e9, 1e10, 1e11, math.inf):
        eta = _threshold(protocol, block_n, cfg)
        assert 0.0 < eta < 1.0
        assert _key_rate(protocol, eta, block_n, cfg) > 0.0
        assert _key_rate(protocol, eta * math.exp(-THRESHOLD_TOL_LN), block_n, cfg) <= 0.0
    assert THRESHOLD_TOL_LN < 1e-5


def test_secure_threshold_reads_no_channel_parameter():
    cfg = load_config()
    other = load_config(overrides=["channel.jitter_urad=0", "channel.zenith_deg=0"])
    assert _threshold("dv", 1e10, cfg) == _threshold("dv", 1e10, other)
    assert _threshold("cv", 1e10, cfg) == _threshold("cv", 1e10, other)


_BLOCK_SIZES = st.one_of(
    st.just(math.inf), st.floats(min_value=6.0, max_value=12.0).map(lambda e: 10.0**e)
)
_DV_RECORDS = st.builds(
    lambda mu, nu_share, **kw: DecoyProtocolParams(mu=mu, nu=mu * nu_share, **kw),
    mu=st.floats(min_value=0.05, max_value=1.0),
    nu_share=st.floats(min_value=0.01, max_value=0.99),
    eta_receiver=st.floats(min_value=0.01, max_value=1.0),
    e_mis=st.floats(min_value=0.0, max_value=0.1),
    y0_stray=st.floats(min_value=0.0, max_value=1e-3),
    y0_dark=st.floats(min_value=0.0, max_value=1e-5),
    f_ec=st.floats(min_value=1.0, max_value=1.5),
    sift_q=st.floats(min_value=0.05, max_value=1.0),
)
_CV_RECORDS = st.tuples(
    st.builds(
        CvProtocolParams,
        v_mod=st.floats(min_value=0.5, max_value=30.0),
        v_el=st.floats(min_value=0.0, max_value=0.3),
        eta_det=st.floats(min_value=0.1, max_value=1.0),
        n_bg=st.floats(min_value=0.0, max_value=1e-2),
        p_ec=st.floats(min_value=0.5, max_value=1.0),
        beta=st.floats(min_value=0.85, max_value=1.0),
    ),
    st.builds(PhaseEncodingNoise, eps_classical=st.floats(min_value=0.0, max_value=1e-4)),
)
# bits/use: a few ulps of the entropies chi_E is the difference of, which
# stay below 64 bits here.  Where the rate crosses zero this close to 0 its
# sign is rounding, and no solve can place the crossing to THRESHOLD_TOL_LN
_RATE_ROUNDING = 1e-13


def _check_signed_rate_and_threshold(protocol, block_n, cfg):
    """The signed rate clamps to the key rate, and the threshold is a crossing of it.

    The signed rate is not monotone in tau, and for some decoy records its
    sign changes more than once (see the FOUND lines in CHANGES.md).  So
    the solve is held to what it guarantees for any rate: the returned tau
    has a positive rate, and one tolerance step below it the rate is not
    positive, unless rounding decides the sign there.
    """
    from qlinksim import sweeps

    for k in range(25):
        res = _rate(protocol, math.exp(-k), block_n, cfg)
        assert res.key_rate == max(res.signed_rate, 0.0)
    try:
        eta = _threshold(protocol, block_n, cfg)
    except InfeasibleScenario:
        assert not _rate(protocol, 1.0, block_n, cfg).signed_rate > 0.0
        return
    assert _key_rate(protocol, eta, block_n, cfg) > 0.0
    if eta == math.exp(sweeps._THRESHOLD_FLOOR_LN):
        # no key deficit anywhere down to the floor of the search
        return
    below = _rate(protocol, eta * math.exp(-THRESHOLD_TOL_LN), block_n, cfg).signed_rate
    assert below < _RATE_ROUNDING


@given(_DV_RECORDS, _BLOCK_SIZES)
def test_dv_threshold_is_a_crossing_of_the_signed_rate(dv, block_n):
    _check_signed_rate_and_threshold("dv", block_n, load_config().replace(dv=dv))


@given(_CV_RECORDS, _BLOCK_SIZES)
# noiseless: below tau ~ e^-33 the signed rate rounds to exactly 0, where a
# secant step would point at the lower end and a division by zero followed
@example(
    (
        CvProtocolParams(v_mod=0.5, v_el=0.0, eta_det=1.0, n_bg=0.0, p_ec=1.0, beta=1.0),
        PhaseEncodingNoise(eps_classical=0.0),
    ),
    math.inf,
)
def test_cv_threshold_is_a_crossing_of_the_signed_rate(records, block_n):
    cv, noise = records
    cfg = load_config().replace(cv=cv, cv_noise=noise)
    _check_signed_rate_and_threshold("cv", block_n, cfg)


def test_threshold_solve_bisects_while_the_lower_end_certifies_nothing():
    from qlinksim import sweeps

    cfg = load_config()
    # at N = 1e8 the doubling ends at tau = e^-4, where the decoy bound
    # certifies no single-photon yield: no finite margin to interpolate
    rate_of = sweeps._rate_of_tau("dv", 1e8, cfg)
    probed = []

    def recorded(tau):
        res = rate_of(tau)
        probed.append((tau, res.signed_rate))
        return res

    eta, probes = sweeps._solve_threshold(recorded, "dv", 1e8)
    assert probes == len(probed)
    assert [tau for tau, _ in probed[:4]] == [1.0] + [math.exp(x) for x in (-1.0, -2.0, -4.0)]
    assert probed[3][1] == -math.inf
    # the next probe is the midpoint in ln(tau), not a secant step
    assert probed[4][0] == math.exp(-3.0)
    assert eta == _threshold("dv", 1e8, cfg)
    assert _key_rate("dv", eta, 1e8, cfg) > 0.0
    assert _key_rate("dv", eta * math.exp(-THRESHOLD_TOL_LN), 1e8, cfg) <= 0.0


@pytest.mark.parametrize("protocol", ["dv", "cv"])
def test_ceiling_is_the_altitude_of_the_threshold(protocol):
    cfg = load_config()
    for block_n in (1e9, 1e10, 1e11, math.inf):
        res = max_secure_altitude(protocol, block_n, cfg)
        eta = res.threshold
        assert eta == _threshold(protocol, block_n, cfg)
        assert res.max_secure_altitude_km == cfg.channel.altitude_at(eta)
        # the probed rate result, field for field
        assert res.rate == _rate(
            protocol, cfg.channel.at_altitude(res.max_secure_altitude_km).transmissivity, block_n, cfg
        )
        # a threshold handed in gives the same ceiling from one probe: the
        # ceiling itself; altitude, threshold, rate and unbounded, field for field
        given = max_secure_altitude(protocol, block_n, cfg, eta)
        assert given.max_secure_altitude_km == res.max_secure_altitude_km
        assert given.iterations == 1
        assert given == res.replace(iterations=1)
        # 10-12 threshold probes, and the one at the ceiling
        assert res.iterations <= 13
        above = cfg.channel.at_altitude(res.max_secure_altitude_km + ALTITUDE_TOL_KM)
        assert _key_rate(protocol, above.transmissivity, block_n, cfg) == 0.0


def _floor_threshold(cfg):
    """The smallest tau that the channel passes only below the 100 km floor.

    The evaluated law is flat over a few ulps of altitude, so tau(100 km)
    itself is passed a little above 100 km (to 100.00000000000045 km at the
    defaults); the next float up is passed only below it.
    """
    tau_lo = cfg.channel.at_altitude(ALTITUDE_BRACKET_KM[0]).transmissivity
    assert cfg.channel.altitude_at(tau_lo) >= ALTITUDE_BRACKET_KM[0]
    return math.nextafter(tau_lo, 1.0)


def test_threshold_at_the_bracket_floor_reports_the_floor():
    cfg = load_config()
    lo = ALTITUDE_BRACKET_KM[0]
    threshold = _floor_threshold(cfg)
    assert cfg.channel.altitude_at(threshold) < lo
    res = max_secure_altitude("dv", 1e9, cfg, threshold)
    assert res.max_secure_altitude_km == lo
    assert res.iterations == 1


@pytest.mark.parametrize("protocol", ["dv", "cv"])
def test_a_threshold_next_to_a_bracket_end_gives_a_ceiling_inside_the_bracket(protocol):
    # thresholds up to 20 ulps either side of tau(100 km) and tau(2000 km):
    # each call raises, or returns a ceiling in the bracket that is unbounded
    # exactly at its top
    lo, hi = ALTITUDE_BRACKET_KM
    configs = [
        load_config(),
        load_config(
            overrides=["channel.zenith_deg=0", "channel.jitter_urad=0.01", "channel.aperture_m=0.5"]
        ),
    ]
    ceilings = set()
    for cfg in configs:
        for end in (lo, hi):
            tau_end = cfg.channel.at_altitude(end).transmissivity
            for k in range(-20, 21):
                threshold = tau_end * (1.0 + k * 2.0**-52)
                try:
                    res = max_secure_altitude(protocol, 1e9, cfg, threshold)
                except (InfeasibleScenario, ValueError):  # not a threshold of the protocol
                    continue
                altitude = res.max_secure_altitude_km
                assert lo <= altitude <= hi, (cfg.channel, threshold, altitude)
                assert res.unbounded == (altitude == hi), (cfg.channel, threshold, altitude)
                assert res.rate.key_rate > 0.0
                ceilings.add(altitude)
    # both ends are reached
    assert {lo, hi} <= ceilings


@pytest.mark.parametrize("protocol", ["dv", "cv"])
def test_each_ceiling_exit_probes_the_rate_once(protocol, monkeypatch):
    from qlinksim import sweeps

    cfg = load_config()
    eta = max_secure_altitude(protocol, 1e9, cfg).threshold
    lo, hi = ALTITUDE_BRACKET_KM
    wide = load_config(overrides=[
        "channel.aperture_m=5", "channel.zenith_deg=0", "channel.jitter_urad=0"
    ])
    exits = [
        (cfg, eta, cfg.channel.altitude_at(eta), False),  # closed form
        (cfg, _floor_threshold(cfg), lo, False),  # 100 km floor
        (wide, eta, hi, True),  # unbounded
    ]
    kernel = "finite_key_rate" if protocol == "dv" else "composable_key_rate"
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = getattr(sweeps, kernel)
    monkeypatch.setattr(sweeps, kernel, counted)
    for c, threshold, altitude, unbounded in exits:
        calls.clear()
        res = max_secure_altitude(protocol, 1e9, c, threshold)
        assert len(calls) == res.iterations == 1
        assert (res.max_secure_altitude_km, res.unbounded) == (altitude, unbounded)
        assert res.rate == _rate(protocol, c.channel.at_altitude(altitude).transmissivity, 1e9, c)
    calls.clear()
    with pytest.raises(InfeasibleScenario, match="non-positive at the 100 km bracket"):
        max_secure_altitude(protocol, 1e9, load_config(overrides=["channel.jitter_urad=50"]), eta)
    assert len(calls) == 1


def test_the_channel_is_read_at_the_bracket_ends_only_next_to_them(monkeypatch):
    from qlinksim.fso import FsoChannelParams

    cfg = load_config()
    eta = max_secure_altitude("dv", 1e9, cfg).threshold
    lo, hi = ALTITUDE_BRACKET_KM
    tau_lo = _floor_threshold(cfg)
    wide = load_config(overrides=[
        "channel.aperture_m=5", "channel.zenith_deg=0", "channel.jitter_urad=0"
    ])
    narrow = load_config(overrides=["channel.jitter_urad=50"])
    real = FsoChannelParams.at_altitude
    altitudes = []

    def counted(self, altitude_km):
        altitudes.append(altitude_km)
        return real(self, altitude_km)

    monkeypatch.setattr(FsoChannelParams, "at_altitude", counted)
    eta_ext = cfg.channel.at_altitude(lo).extinction
    # (config, threshold, ceiling): the closed-form altitude, clamped into the
    # bracket, decides alone, and the channel is read once, at the probe
    cases = [
        (cfg, eta, cfg.channel.altitude_at(eta)),  # 355 km
        (wide, eta, hi),  # 30,000 km: unbounded, probed at the top
        (cfg, tau_lo, lo),  # passed only below 100 km: the floor
        (cfg, eta_ext, lo),  # no altitude passes the extinction: the floor
    ]
    for c, threshold, altitude in cases:
        altitudes.clear()
        assert max_secure_altitude("dv", 1e9, c, threshold).max_secure_altitude_km == altitude
        assert altitudes == [altitude]
    # 15 km: the floor; the probe there fails
    altitudes.clear()
    with pytest.raises(InfeasibleScenario):
        max_secure_altitude("dv", 1e9, narrow, eta)
    assert altitudes == [lo]


def test_a_threshold_below_the_protocols_is_rejected(monkeypatch):
    from qlinksim import sweeps

    cfg = load_config()
    eta = max_secure_altitude("dv", 1e9, cfg).threshold
    probed = []
    real = sweeps._rate_at_altitude

    def counted(scenario, rate_of, altitude_km, block_n, c):
        probed.append(altitude_km)
        return real(scenario, rate_of, altitude_km, block_n, c)

    monkeypatch.setattr(sweeps, "_rate_at_altitude", counted)
    # the altitude of half the threshold, inside the bracket, and the 2000 km
    # top for a threshold the channel passes even there: one probe each, and
    # the message names the altitude and the threshold
    for threshold, altitude in ((0.5 * eta, cfg.channel.altitude_at(0.5 * eta)), (1e-12, 2000.0)):
        probed.clear()
        message = (
            f"dv rate is non-positive at altitude_km={altitude!r}, where the channel "
            f"passes tau={threshold!r} or more (block_size=1000000000.0); "
            "is it this protocol's threshold?"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            max_secure_altitude("dv", 1e9, cfg, threshold)
        assert probed == [altitude]


@pytest.mark.parametrize("protocol", ["dv", "cv"])
@pytest.mark.parametrize("jitter, saturation_km", [("0", 2748.78), ("0.5", 1717.78)])
def test_a_channel_that_collects_the_whole_beam_passes_its_extinction(
    protocol, jitter, saturation_km
):
    # a 4.98 m aperture collects all of a 425 nm beam, to rounding, up to the
    # altitude where 2 a^2 / w_LT^2 falls to 54 ln 2: a threshold equal to the
    # extinction gives that altitude, clamped to 2000 km, not the 100 km floor
    cfg = load_config(overrides=[
        "channel.aperture_m=4.98", "channel.w0_m=0.338", "channel.wavelength_nm=425",
        "channel.zenith_deg=0", "channel.tau_zenith=0.8399253004912931",
        f"channel.jitter_urad={jitter}",
    ])
    eta_ext = cfg.channel.at_altitude(100.0).extinction
    saturation = cfg.channel.altitude_at(eta_ext)
    assert saturation == pytest.approx(saturation_km, abs=0.01)
    ceiling = min(saturation, ALTITUDE_BRACKET_KM[1])
    res = max_secure_altitude(protocol, 1e9, cfg, eta_ext)
    assert (res.max_secure_altitude_km, res.iterations) == (ceiling, 1)
    assert res.unbounded == (ceiling == ALTITUDE_BRACKET_KM[1])
    assert cfg.channel.at_altitude(ceiling).transmissivity == eta_ext


NOISELESS_DV = ["dv.y0_stray=0", "dv.y0_dark=0", "dv.e_mis=0", "sweep.block_sizes=inf"]


def test_a_key_down_to_the_solve_floor_is_an_unbounded_ceiling(capsys):
    # a noiseless detector keeps the N = inf rate positive down to the floor
    # of the threshold search; the channel passes that floor tau at 2000 km
    cfg = load_config(overrides=NOISELESS_DV)
    # the solve gives that floor tau as the threshold
    assert _threshold("dv", math.inf, cfg) == math.exp(-512.0)
    res = max_secure_altitude("dv", math.inf, cfg)
    assert res.threshold == math.exp(-512.0)
    assert (res.max_secure_altitude_km, res.unbounded) == (ALTITUDE_BRACKET_KM[1], True)
    assert res.rate == _rate("dv", cfg.channel.at_altitude(2000.0).transmissivity, math.inf, cfg)
    # tau = 1, the ten doublings of -ln(tau) down to e^-512, and the 2000 km probe
    assert res.iterations == 12
    assert main(["max-altitude", *_override_args(NOISELESS_DV)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert rows[1].startswith("inf,2000,") and rows[1].endswith(",12,1")
    # a channel that passes less than the floor tau at 2000 km still raises
    narrow = load_config(overrides=[*NOISELESS_DV, "channel.jitter_urad=1e120"])
    assert narrow.channel.at_altitude(2000.0).transmissivity < math.exp(-512.0)
    with pytest.raises(ValueError, match=r"^dv rate stays positive down to tau=4\.377"):
        max_secure_altitude("dv", math.inf, narrow)


def test_one_floor_rule_for_a_solved_and_a_handed_in_threshold():
    cfg = load_config(overrides=NOISELESS_DV)
    res = max_secure_altitude("dv", math.inf, cfg)
    given = max_secure_altitude("dv", math.inf, cfg, res.threshold)
    for ceiling in (res, given):
        assert (ceiling.max_secure_altitude_km, ceiling.unbounded) == (ALTITUDE_BRACKET_KM[1], True)
    assert given == res.replace(iterations=1)
    # a channel that passes less than the floor tau at 2000 km raises in both forms
    narrow = load_config(overrides=[*NOISELESS_DV, "channel.jitter_urad=1e120"])
    for threshold in (None, res.threshold):
        with pytest.raises(ValueError, match=r"^dv rate stays positive down to tau=4\.377"):
            max_secure_altitude("dv", math.inf, narrow, threshold)


@pytest.mark.parametrize("threshold", [0.0, -1e-3, 1.0 + 1e-12, math.inf, math.nan])
def test_a_handed_in_threshold_outside_the_unit_interval_is_rejected(threshold, monkeypatch):
    from qlinksim import sweeps
    from qlinksim.fso import FsoChannelParams

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        raise AssertionError("probed")

    monkeypatch.setattr(sweeps, "finite_key_rate", counted)
    monkeypatch.setattr(FsoChannelParams, "at_altitude", counted)
    monkeypatch.setattr(FsoChannelParams, "altitude_at", counted)
    with pytest.raises(ValueError, match=r"^threshold must be in \(0, 1\]"):
        max_secure_altitude("dv", 1e9, load_config(), threshold)
    assert calls == []


def test_threshold_probe_errors_name_tau_and_block_size(monkeypatch):
    from qlinksim import sweeps

    def boom(*args, **kwargs):
        raise ValueError("kernel complaint")

    monkeypatch.setattr(sweeps, "finite_key_rate", boom)
    with pytest.raises(ValueError) as info:
        max_secure_altitude("dv", 1e9, load_config())
    assert str(info.value) == (
        "dv threshold probe at tau=1.0, block_size=1000000000.0: kernel complaint"
    )
    assert str(info.value.__cause__) == "kernel complaint"


def test_threshold_infeasible_at_unit_transmissivity():
    # a leak this large leaves no key even through a lossless channel
    cfg = load_config(overrides=["cv.eps_classical=0.04"])
    with pytest.raises(InfeasibleScenario, match="non-positive even at tau=1"):
        _threshold("cv", math.inf, cfg)
    with pytest.raises(InfeasibleScenario, match="non-positive even at tau=1"):
        max_secure_altitude("cv", math.inf, cfg)
    with pytest.raises(ValueError, match="protocol must be"):
        max_secure_altitude("qkd", math.inf, cfg)


def _is_lattice_tau(tau):
    """Whether ln(tau) is a whole number of threshold lattice steps."""
    from qlinksim import sweeps

    return tau == sweeps._lattice_tau(round(math.log(tau) / THRESHOLD_TOL_LN))


# the most probes a hinted default solve took: over 20 seeds of the 42
# hints per solve drawn below, the worst was 46
_HINTED_PROBES = 46


@pytest.mark.parametrize("protocol", ["dv", "cv"])
def test_a_hint_changes_the_probes_not_the_threshold(protocol):
    from qlinksim import sweeps

    cfg = load_config()
    rng = random.Random(1)
    for block_n in (1e9, 1e10, 1e11, math.inf):
        rate_of = sweeps._rate_of_tau(protocol, block_n, cfg)
        eta, _ = sweeps._solve_threshold(rate_of, protocol, block_n)
        assert _is_lattice_tau(eta)
        # log-uniform over (e^-512, 1], tau = 1 itself and the threshold
        hints = [math.exp(-512.0 * rng.random()) for _ in range(40)] + [1.0, eta]
        for near in hints:
            hinted, probes = sweeps._solve_threshold(rate_of, protocol, block_n, near)
            assert hinted == eta, near
            assert probes <= _HINTED_PROBES, near


@pytest.mark.parametrize("near", [0.0, -1e-3, 1.0 + 1e-12, math.inf, math.nan])
def test_a_hint_outside_the_unit_interval_is_rejected(near, monkeypatch):
    from qlinksim import sweeps

    def probed(*args, **kwargs):
        raise AssertionError("probed")

    with pytest.raises(ValueError, match=r"^near must be in \(0, 1\]"):
        sweeps._solve_threshold(probed, "dv", 1e9, near)
    monkeypatch.setattr(sweeps, "finite_key_rate", probed)
    with pytest.raises(ValueError, match=r"^near must be in \(0, 1\]"):
        max_secure_altitude("dv", 1e9, load_config(), near=near)


def test_a_hint_inside_a_second_secure_window_finds_its_lower_edge():
    from qlinksim import sweeps

    # records whose decoy key rate changes sign twice in tau (a FOUND line in
    # CHANGES.md): positive on a window around e^-2.15, not from e^-2.0 to 1
    dv = DecoyProtocolParams(
        mu=0.125, nu=0.001953125, eta_receiver=1.0, e_mis=0.0859375,
        y0_stray=2.7715e-4, y0_dark=0.0, f_ec=1.25, sift_q=1.0,
    )
    rate_of = sweeps._rate_of_tau("dv", 1e10, load_config().replace(dv=dv))
    inside = math.exp(-2.15)
    assert rate_of(inside).signed_rate > 0.0 >= rate_of(math.exp(-2.0)).signed_rate
    # unhinted, the solve starts at tau = 1 and sees no key there
    with pytest.raises(InfeasibleScenario, match="non-positive even at tau=1"):
        sweeps._solve_threshold(rate_of, "dv", 1e10)
    eta, _ = sweeps._solve_threshold(rate_of, "dv", 1e10, inside)
    assert _is_lattice_tau(eta)
    assert -2.3 < math.log(eta) < -2.15
    below = sweeps._lattice_tau(round(math.log(eta) / THRESHOLD_TOL_LN) - 1)
    assert rate_of(eta).signed_rate > 0.0 >= rate_of(below).signed_rate


# the default max-altitude ladders: (block size, ceiling km, most probes)
DEFAULT_LADDERS = {
    "dv": ((1e9, 355.0954, 12), (1e10, 491.5456, 9), (1e11, 559.2786, 8), (math.inf, 596.8655, 7)),
    "cv": ((1e9, 230.7762, 12), (1e10, 328.3904, 9), (1e11, 386.5763, 8), (math.inf, 423.3706, 7)),
}
# a ceiling is the altitude of a lattice threshold, and one lattice step in
# ln(tau) is 16-41 cm of altitude here: another libm may move a ceiling by
# a step, and a 1 m move is a change of the model
LADDER_TOL_KM = 5e-4


def _ladder_drifts(protocol, table):
    """Every way a max-altitude table departs from DEFAULT_LADDERS[protocol]."""
    want = DEFAULT_LADDERS[protocol]
    got = list(zip(*(_column(table, c) for c in ("block_size", "max_secure_altitude_km", "iterations"))))
    if [row[0] for row in got] != [row[0] for row in want]:
        return [f"{protocol}: block sizes {[row[0] for row in got]}"]
    drifts = []
    for (block_n, km, probes), (_, want_km, most) in zip(got, want):
        if not abs(km - want_km) <= LADDER_TOL_KM:
            drifts.append(f"{protocol} N={block_n:g}: ceiling {km!r} km, stated {want_km} km")
        if probes > most:
            drifts.append(f"{protocol} N={block_n:g}: {probes:g} probes, at most {most}")
    return drifts


@pytest.mark.parametrize("protocol", ["dv", "cv"])
def test_default_ladders_hold_their_ceilings_and_probe_counts(protocol):
    cfg = load_config(overrides=[f"sweep.protocol={protocol}"])
    table = run_scenario("max-altitude", cfg)
    assert _ladder_drifts(protocol, table) == []
    # a 1 m move of any one ceiling, or one more probe, is caught
    km, probes = table.columns.index("max_secure_altitude_km"), table.columns.index("iterations")
    for i in range(len(table.values[0])):
        for col, delta in ((km, 1e-3), (km, -1e-3), (probes, 1.0)):
            moved = list(table.values[col])
            moved[i] += delta
            values = table.values[:col] + (tuple(moved),) + table.values[col + 1:]
            assert _ladder_drifts(protocol, table.replace(values=values)), (i, col, delta)


def _calibration_script(monkeypatch):
    """A fresh module of scripts/calibrate_defaults.py, bound to the package as it is now."""
    import types

    path = REPO_ROOT / "scripts" / "calibrate_defaults.py"
    script = types.ModuleType("calibrate_defaults")
    script.__file__ = str(path)
    monkeypatch.setattr(sys, "path", sys.path[:])
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(script))
    return script


def test_calibration_scan_solves_each_threshold_once(monkeypatch, capsys):
    from qlinksim import sweeps

    bisections, ceilings, probes = [], [], []
    bisect, ceiling = sweeps._solve_threshold, sweeps.max_secure_altitude

    def counted_bisection(rate_of, protocol, block_n, near=None):
        bisections.append((protocol, block_n))
        eta, count = bisect(rate_of, protocol, block_n, near)
        probes.append(count)
        return eta, count

    def counted_ceiling(protocol, block_n, cfg, threshold=None, *, near=None):
        ceilings.append((protocol, threshold is None))
        return ceiling(protocol, block_n, cfg, threshold, near=near)

    monkeypatch.setattr(sweeps, "_solve_threshold", counted_bisection)
    monkeypatch.setattr(sweeps, "max_secure_altitude", counted_ceiling)
    script = _calibration_script(monkeypatch)
    # every dict the script starts empty is one it fills during a run
    memos = {name for name, value in vars(script).items() if isinstance(value, dict) and not value}
    assert {"THRESHOLDS", "CEILINGS", "DEFAULT_CONFIG"} <= memos
    assert script.main() == 0
    # 4 DV thresholds, and 4 CV ones for each of the 9 distinct leaks: only
    # the first ceiling of each solves one, and the rest are handed its tau*
    assert len(bisections) == 40
    assert [solved for _, solved in ceilings].count(True) == 40
    assert sorted(set(bisections)) == sorted(
        (protocol, n) for protocol in ("dv", "cv") for n in (1e9, 1e10, 1e11, math.inf)
    )
    # each solve after the first of its protocol is seeded with the threshold
    # before it: 262 probes in all, 499 unseeded
    assert sum(probes) == 262
    # one ceiling per distinct (protocol, N, knobs): a DV ceiling for each
    # of the 11 distinct jitters, a CV one for each of the 59 distinct pairs:
    # 280, not the 480 of one per point
    protocols = [protocol for protocol, _ in ceilings]
    assert protocols.count("dv") == 11 * 4
    assert protocols.count("cv") == 59 * 4
    assert "calibrated pointing jitter : 2.91 urad" in capsys.readouterr().out
    # a run leaves nothing it worked out behind for the next one
    assert {name: vars(script)[name] for name in memos} == dict.fromkeys(memos, {})


def test_calibration_configs_differ_from_the_default_only_in_the_two_knobs(monkeypatch):
    # the script keys what it has worked out by these two floats alone
    script = _calibration_script(monkeypatch)
    default = load_config()
    for jitter, leak in ((2.7, 3.0e-5), (2.91, 3.9e-5), (3.13, 5.1e-5)):
        cfg = script.cfg_with(jitter, leak)
        assert (cfg.channel.jitter_urad, cfg.cv_noise.eps_classical) == (jitter, leak)
        restored = cfg.replace(
            channel=cfg.channel.replace(jitter_urad=default.channel.jitter_urad),
            cv_noise=cfg.cv_noise.replace(eps_classical=default.cv_noise.eps_classical),
        )
        assert restored == default, (jitter, leak)


def test_calibration_reuse_changes_no_result(monkeypatch, capsys):
    script = _calibration_script(monkeypatch)
    leaks = (3.0e-5, 3.9e-5, 5.0e-5)
    shared = [script.evaluate(2.91, leak) for leak in leaks]
    dv = [
        {label: value for label, value in scored[2].items() if label.startswith(("dv_alt_", "payload_"))}
        for scored in shared
    ]
    assert len(dv[0]) == 8
    assert dv[0] == dv[1] == dv[2]
    # each point scores as it does in a module that has worked out nothing yet
    for leak, scored in zip(leaks, shared):
        assert scored == _calibration_script(monkeypatch).evaluate(2.91, leak)
    # two runs in one process print the same text
    script = _calibration_script(monkeypatch)
    assert script.main() == 0
    first = capsys.readouterr().out
    assert script.main() == 0
    assert capsys.readouterr().out == first
    assert "calibrated pointing jitter : 2.91 urad" in first


def test_infeasible_scenario_reports_bracket():
    cfg = load_config(overrides=["channel.jitter_urad=50"])
    with pytest.raises(InfeasibleScenario, match="non-positive at the 100 km bracket"):
        max_secure_altitude("dv", 1e9, cfg)


def test_unbounded_link_is_flagged():
    cfg = load_config(overrides=[
        "channel.aperture_m=5",
        "channel.zenith_deg=0",
        "channel.jitter_urad=0",
        "sweep.block_sizes=inf",
    ])
    table = run_scenario("max-altitude", cfg)
    assert table.columns[-1] == "unbounded"
    (row,) = zip(*table.values)
    assert row[1] == 2000.0
    assert row[-1] == 1.0


@pytest.mark.parametrize("cfg", [SMALL_DV, SMALL_CV], ids=["dv", "cv"])
def test_max_altitude_prints_the_throughput_at_the_ceiling(cfg):
    table = run_scenario("max-altitude", cfg)
    assert table.columns.index("throughput_at_max_bits_per_use") == table.columns.index("iterations") - 1
    want = tuple(
        max_secure_altitude(cfg.sweep.protocol, block_n, cfg).rate.throughput
        for block_n in sorted(cfg.sweep.block_sizes)
    )
    assert _column(table, "throughput_at_max_bits_per_use") == want
    assert all(value > 0.0 for value in want)


# ---------------------------------------------------------------------------
# CSV rendering
# ---------------------------------------------------------------------------


def test_render_csv_layout_and_determinism():
    cfg = load_config(overrides=[
        "sweep.freq_start_ghz=100",
        "sweep.freq_stop_ghz=100",
    ])
    table = thermal_grid(cfg)
    text = render_csv(table, cfg)
    again = render_csv(thermal_grid(cfg), cfg)
    assert text == again  # byte-identical on repeated runs
    lines = text.split("\n")
    assert lines[0] == "# scenario = thermal-grid"
    assert "# channel.jitter_urad = 2.91" in lines
    assert "# cv.eps_classical = 3.9e-05" in lines
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "frequency_hz,temperature_k,mean_photons"
    # integral floats collapse, others keep full repr
    assert lines[header_idx + 1].startswith("100000000000,295,")
    assert text.endswith("\n")


def test_render_csv_formats_block_sizes():
    cfg = load_config(overrides=[
        "sweep.altitude_start_km=300",
        "sweep.altitude_stop_km=300",
        "sweep.block_sizes=1e9, inf",
    ])
    text = render_csv(dv_sweep(cfg), cfg)
    body = [l for l in text.split("\n") if l and not l.startswith("#")][1:]
    assert body[0].split(",")[1] == "1000000000"
    assert body[1].split(",")[1] == "inf"


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

THERMAL_ARGS = [
    "thermal-grid",
    "--override", "sweep.freq_start_ghz=100",
    "--override", "sweep.freq_stop_ghz=100",
]


def test_cli_writes_stdout_by_default(capsys):
    assert main(THERMAL_ARGS) == 0
    out = capsys.readouterr().out
    assert out.startswith("# scenario = thermal-grid\n")
    assert "frequency_hz,temperature_k,mean_photons" in out


def test_cli_writes_file_identical_to_stdout(tmp_path, capsys):
    assert main(THERMAL_ARGS) == 0
    stdout_text = capsys.readouterr().out
    out_file = tmp_path / "thermal.csv"
    assert main(THERMAL_ARGS + ["--out", str(out_file)]) == 0
    assert out_file.read_text(encoding="utf-8") == stdout_text


def test_cli_config_errors_exit_2(tmp_path, capsys):
    assert main(["dv-sweep", "--override", "channel.bogus=1"]) == 2
    assert "config error:" in capsys.readouterr().err
    assert main(["dv-sweep", "--workers", "0"]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err
    missing_dir = tmp_path / "absent" / "out.csv"
    assert main(THERMAL_ARGS + ["--out", str(missing_dir)]) == 2
    assert "cannot write output file" in capsys.readouterr().err


def test_cli_workers_flag_changes_no_byte(capsys):
    args = ["atmos-grid", *_override_args(SMALL_ATMOS_OVERRIDES)]
    outputs = []
    for workers in ("1", "2"):
        assert main([*args, "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n60,") == 2
    assert main([*args, "--workers", "0"]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err


def test_cli_run_starts_no_process_pool():
    code = (
        "import sys\n"
        "from qlinksim.cli import main\n"
        f"assert main({THERMAL_ARGS!r} + ['--out', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, os.devnull],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importing_the_package_loads_no_submodule():
    # the package re-exports nothing, so importing it loads none of its
    # submodules, nor the INI parser that config needs
    code = (
        "import sys\n"
        "import qlinksim\n"
        "print(sorted(m for m in sys.modules if m.startswith('qlinksim.') or m == 'configparser'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO_ROOT
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_rate_path_loads_no_numpy():
    # every scenario but atmos-grid, on small grids; only the gas-attenuation
    # layer imports numpy, and the package binds none of its names.  Only a
    # CV rate sizes a displacement, so only it loads statistics
    without_cv = [
        ["dv-sweep", *_override_args(SMALL_DV_OVERRIDES)],
        ["max-altitude", "--override", "sweep.block_sizes=inf"],
        THERMAL_ARGS,
    ]
    with_cv = [
        ["cv-sweep", *_override_args(SMALL_CV_OVERRIDES)],
        ["max-altitude", *_override_args(["sweep.protocol=cv", "sweep.block_sizes=inf"])],
    ]
    code = (
        "import sys\n"
        "import qlinksim\n"
        "from qlinksim.cli import main\n"
        f"for args in {without_cv!r}:\n"
        "    assert main(args + ['--out', sys.argv[1]]) == 0, args\n"
        "assert 'statistics' not in sys.modules, 'statistics loaded without a CV rate'\n"
        f"for args in {with_cv!r}:\n"
        "    assert main(args + ['--out', sys.argv[1]]) == 0, args\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded by the rate path'\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses loaded by the rate path'\n"
        "assert 'inspect' not in sys.modules, 'inspect loaded by the rate path'\n"
        "assert 'qlinksim.atmosphere' not in sys.modules\n"
        "assert '__getattr__' not in vars(qlinksim)\n"
        "from qlinksim import atmosphere\n"
        "own = {n for n in atmosphere.__all__ if getattr(atmosphere, n).__module__ == atmosphere.__name__}\n"
        "assert own and not own & set(vars(qlinksim)), own & set(vars(qlinksim))\n"
        "print('ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, os.devnull],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


@pytest.mark.parametrize(
    ("args", "message"),
    [
        (["atmos-grid", "sweep.slant_start_km=0"], "slant distance must be > 0: 0.0"),
        (
            ["atmos-grid", "sweep.freq_start_ghz=0.5"],
            "frequency must lie in [1.0, 1000.0] GHz: 0.5 is out of range (1 of 1000 values)",
        ),
        (
            ["dv-sweep", "sweep.altitude_start_km=0", "sweep.altitude_stop_km=0"],
            "altitude must be > 0 km: 0.0",
        ),
        (
            ["thermal-grid", "sweep.temp_start_k=0", "sweep.temp_stop_k=0"],
            "temperature must be > 0 K: 0.0",
        ),
        (["atmos-grid", "sweep.slant_stop_km=inf"], "sweep.slant_stop_km must be finite: inf"),
        (
            ["dv-sweep", "sweep.altitude_step_km=inf"],
            "sweep.altitude_step_km must be finite: inf",
        ),
        (
            ["thermal-grid", "sweep.temp_step_k=1e-300", "sweep.temp_stop_k=300"],
            "sweep.temp has 5e+300 points, more than the 1000000 one axis may have",
        ),
        # eps_sec**4 underflows to 0 in aep_correction: rejected at load
        (
            ["cv-sweep", "cv.eps_sec=1e-100"],
            "config error: invalid [cv] settings: eps_sec and p_ec must keep "
            "18 / (p_ec^2 eps_sec^4) finite: eps_sec=1e-100, p_ec=0.9",
        ),
        (
            ["max-altitude", "sweep.protocol=cv", "cv.eps_sec=1e-100"],
            "config error: invalid [cv] settings: eps_sec and p_ec must keep "
            "18 / (p_ec^2 eps_sec^4) finite: eps_sec=1e-100, p_ec=0.9",
        ),
        # a value that overflows inside a kernel names its row or probe, as a
        # ValueError there does
        (
            ["cv-sweep", "cv.v_mod=1e200"],
            "cv-sweep row at altitude_km=100.0, block_size=1000000000.0, tau=",
        ),
        (
            ["max-altitude", "sweep.protocol=cv", "cv.v_mod=1e200"],
            "cv threshold probe at tau=1.0, block_size=1000000000.0: ",
        ),
        # mu nu - nu^2 underflows to 0 in decoy_bounds: rejected at load
        (
            ["dv-sweep", "dv.mu=1e-300", "dv.nu=1e-301"],
            "config error: invalid [dv] settings: mu and nu must keep the decoy-bound "
            "prefactor mu / (mu nu - nu^2) finite: inf at mu=1e-300, nu=1e-301",
        ),
        (
            ["max-altitude", "dv.mu=1e-300", "dv.nu=1e-301"],
            "config error: invalid [dv] settings: mu and nu must keep the decoy-bound "
            "prefactor mu / (mu nu - nu^2) finite: inf at mu=1e-300, nu=1e-301",
        ),
        (
            ["thermal-grid", "sweep.temp_start_k=1e-320", "sweep.temp_stop_k=1e-320"],
            "h*f or k*T underflows to 0 at frequency 1000000000.0 Hz, temperature 1e-320 K",
        ),
        (
            ["thermal-grid", "sweep.freq_start_ghz=1e-320", "sweep.freq_stop_ghz=1e-320"],
            "h*f or k*T underflows to 0 at frequency 9.999888671827e-312 Hz, temperature 295.0 K",
        ),
        # each background yield lies in [0, 1], but the signal gain at eta = 1
        # came to 1.0512, and the sweep exited 0
        (
            ["dv-sweep", "dv.y0_stray=0.6"],
            "config error: invalid [dv] settings: y0_stray + y0_dark + 1 - exp(-mu), "
            "the signal gain at eta = 1, must be <= 1: 1.0511907639059734",
        ),
        # mu over mu nu - nu^2 overflows in decoy_bounds; at the parent, the
        # block_size=inf row failed with "probability out of range: nan"
        (
            ["dv-sweep", "dv.nu=1e-320"],
            "config error: invalid [dv] settings: mu and nu must keep the decoy-bound "
            "prefactor mu / (mu nu - nu^2) finite: inf at mu=0.6, nu=1e-320",
        ),
        # the trusted-detector model needs receiver loss to purify v_el; this
        # failed at every CV row
        (
            ["cv-sweep", "cv.eta_det=1", "cv.eta_lo=1"],
            "config error: invalid [cv] settings: electronic noise requires a receiver "
            "efficiency below 1 in the trusted-detector model: eta_det * eta_lo = 1.0, "
            "v_el=0.1",
        ),
        # h*f / k*T underflows to 0, which crashed on 1 / expm1(0.0), or leaves
        # 1 / expm1 past the largest double, which printed mean_photons = inf
        (
            ["thermal-grid", "sweep.freq_start_ghz=1e-299", "sweep.freq_stop_ghz=1e-299",
             "sweep.temp_start_k=1e300", "sweep.temp_stop_k=1e300"],
            "thermal-grid row at frequency_hz=9.999999999999999e-291, temperature_k=1e+300: "
            "occupancy 1 / expm1(h*f / k*T) is not finite",
        ),
        (
            ["thermal-grid", "sweep.temp_start_k=1e308", "sweep.temp_stop_k=1e308"],
            "thermal-grid row at frequency_hz=1000000000.0, temperature_k=1e+308: "
            "occupancy 1 / expm1(h*f / k*T) is not finite",
        ),
    ],
)
def test_cli_bad_grid_value_exits_2(args, message):
    scenario, *overrides = args
    proc = subprocess.run(
        [sys.executable, "-m", "qlinksim", scenario, *_override_args(overrides)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("config error: ")
    assert message in line


@pytest.mark.parametrize(
    "args", [["cv-sweep"], ["max-altitude", "sweep.protocol=cv"]], ids=["row", "probe"]
)
@pytest.mark.parametrize(
    ("override", "cause"),
    [
        # the discriminant's squared terms overflow and cancel: NaN or inf, which
        # used to surface as "signed rate must not be NaN: nan"
        ("cv.n_bg=1e150", "discriminant of nu3 and nu4 is not finite: "),
        ("cv.v_mod=1e150", "discriminant of nu3 and nu4 is not finite: "),
        # a finite square past DBL_MAX: "(34, 'Numerical result out of range')"
        ("cv.v_mod=1e100", "discriminant of nu3 and nu4 is not finite: inf at tau="),
        # nu1 overflows and nu2 = det / nu1 read 0: "symplectic eigenvalue below 1: 0.0"
        ("cv.n_bg=1e300", "symplectic eigenvalue nu1 is not finite: inf at tau="),
        ("cv.v_el=1e300", "symplectic eigenvalue nu1 is not finite: inf at tau="),
    ],
    ids=["n_bg=1e150", "v_mod=1e150", "v_mod=1e100", "n_bg=1e300", "v_el=1e300"],
)
def test_cli_holevo_overflow_names_its_cause(args, override, cause):
    scenario, *overrides = args
    proc = subprocess.run(
        [sys.executable, "-m", "qlinksim", scenario, *_override_args([*overrides, override])],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("config error: cv")
    # the row or probe, then the quantity that is not finite, then the inputs
    # that reproduce it
    prefix, _, detail = line.partition(": Holevo bound: ")
    assert "block_size=1000000000.0" in prefix
    assert detail.startswith(cause)
    assert re.search(r" at tau=\S+, v=\S+, w=\S+, chi_hom=\S+$", detail), detail


@pytest.mark.parametrize(
    ("scenario", "overrides", "last_valid", "first_invalid", "message"),
    [
        # decoy_bounds forms exp(mu); with no background yield the gain
        # check passes every mu
        (
            "dv-sweep",
            ["dv.y0_stray=0", "dv.y0_dark=0"],
            "dv.mu=709",
            "dv.mu=710",
            "invalid [dv] settings: mu must be <= 709.782712893384 so that exp(mu) is finite: 710.0",
        ),
        (
            "dv-sweep",
            ["dv.y0_stray=0", "dv.y0_dark=0"],
            "dv.mu=709",
            "dv.mu=inf",
            "invalid [dv] settings: mu must be <= 709.782712893384 so that exp(mu) is finite: inf",
        ),
        # aep_correction forms 2 ** (d_bits / 2)
        (
            "cv-sweep",
            [],
            "cv.d_bits=2047",
            "cv.d_bits=2048",
            "invalid [cv] settings: d_bits must be an integer in [1, 2047]: 2048",
        ),
        (
            "cv-sweep",
            [],
            "cv.v_mod=1e6",
            "cv.v_mod=inf",
            "invalid [cv] settings: v_mod must be finite and > 0: inf",
        ),
        # infinite noise used to pass the load and fail every row as a tau
        # "too small" for the detector residual
        (
            "cv-sweep",
            [],
            "cv.n_bg=1e6",
            "cv.n_bg=inf",
            "invalid [cv] settings: n_bg must be finite and >= 0: inf",
        ),
        (
            "cv-sweep",
            [],
            "cv.v_el=1e6",
            "cv.v_el=inf",
            "invalid [cv] settings: v_el must be finite and >= 0: inf",
        ),
        # an infinite f_ec used to load and zero every key rate; an infinite
        # ground Cn2 or leak used to load and fail at the first row
        (
            "dv-sweep",
            [],
            "dv.f_ec=1e6",
            "dv.f_ec=inf",
            "invalid [dv] settings: f_ec must be finite and >= 1: inf",
        ),
        (
            "dv-sweep",
            [],
            "channel.hv_ground_cn2=1e-12",
            "channel.hv_ground_cn2=inf",
            "invalid [channel] settings: hv_ground_cn2 must be finite and >= 0: inf",
        ),
        (
            "cv-sweep",
            [],
            "cv.eps_classical=0",
            "cv.eps_classical=inf",
            "invalid [cv] settings: eps_classical must be finite and >= 0: inf",
        ),
    ],
)
def test_cli_rejects_at_load_what_no_row_can_evaluate(
    scenario, overrides, last_valid, first_invalid, message, capsys
):
    grid = SMALL_CV_OVERRIDES if scenario == "cv-sweep" else SMALL_DV_OVERRIDES
    args = [scenario, *_override_args(grid + overrides)]
    assert main([*args, "--override", last_valid, "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""
    assert main([*args, "--override", first_invalid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


@pytest.mark.parametrize(
    ("override", "message"),
    [
        ("channel.hv_wind=1e200", "hv_wind is too large: 1e+200"),
        ("channel.w0_m=1e300", "w0_m is too large: 1e+300"),
        # w_LT^2 = A + B z^2 is finite up to 110 km and overflows from 120 km on
        ("channel.w0_m=1e-155", "channel leaves floating-point range at altitude_km=120.0"),
    ],
)
def test_cli_out_of_range_channel_value_exits_2(override, message):
    proc = subprocess.run(
        [sys.executable, "-m", "qlinksim", "dv-sweep", "--override", override],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("config error: ")
    assert message in line


def test_cli_infeasible_exits_3(capsys):
    rc = main([
        "max-altitude",
        "--override", "channel.jitter_urad=50",
        "--override", "sweep.block_sizes=1e9",
    ])
    assert rc == 3
    assert "infeasible scenario:" in capsys.readouterr().err


def test_cli_module_invocation_round_trip(tmp_path):
    out_file = tmp_path / "module.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qlinksim", *THERMAL_ARGS, "--out", str(out_file)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    content = out_file.read_text(encoding="utf-8")
    assert content.startswith("# scenario = thermal-grid\n")
    expected = thermal_photon_number(1e11, 295.0)
    assert repr(expected) in content


def test_regen_script_rejects_missing_and_unknown_names():
    """No name, or any name without a figure table, writes nothing and exits 2."""
    data = REPO_ROOT / "data"
    tables = " ".join(name for name, s in SCENARIOS.items() if s.golden is not None)

    def snapshot():
        return {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in data.iterdir()}

    before = snapshot()
    for names in ((), ("warp-drive",), ("dv-sweep", "max-altitude")):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "regen_figure_data.py"), *names],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, (names, proc.stdout, proc.stderr)
        assert tables in proc.stderr
    assert snapshot() == before


def test_regen_script_reports_the_largest_change_per_column(capsys):
    path = REPO_ROOT / "scripts" / "regen_figure_data.py"
    spec = importlib.util.spec_from_file_location("regen_figure_data", path)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    old = "# scenario = cv-sweep\nkm,block,rate\n1,inf,0.5\n2,inf,0.25\n"
    regen._report_changes("t.csv", old, old.replace("0.5", "0.5005").replace("0.25", "0.2505"))
    regen._report_changes("u.csv", old, old.replace(",0.25", ",0.25\n3,inf,0"))
    regen._report_changes("v.csv", None, old)
    assert capsys.readouterr().err == (
        "t.csv: largest relative change per column\n"
        "  km: 0\n"
        "  block: 0\n"
        "  rate: 0.002 at line 4: 2,inf,0.2505\n"
        "u.csv: columns or row count changed, no per-column comparison\n"
        "v.csv: no earlier table to compare with\n"
    )
