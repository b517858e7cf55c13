from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qlinksim.atmosphere import (
    SlantPathSpec,
    TOP_ALTITUDE_KM,
    _gamma_grid,
    _path_nodes,
    default_line_table,
    default_profile,
    slant_attenuation,
    thermal_photon_number,
)
from qlinksim.cli import main
from qlinksim.config import load_config
from qlinksim.sweeps import (
    SCENARIOS,
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


# ---------------------------------------------------------------------------
# table containers
# ---------------------------------------------------------------------------


def test_table_enforces_row_width():
    with pytest.raises(ValueError):
        SweepTable("x", ("a", "b"), ((1.0, 2.0, 3.0),))
    table = SweepTable("x", ("a", "b"), ((1.0, 2.0), (3.0, 4.0)))
    assert table.column("b") == (2.0, 4.0)
    with pytest.raises(ValueError):
        table.column("missing")


def test_altitude_result_validation():
    with pytest.raises(ValueError):
        SecureAltitudeResult(1e9, 300.0, 0.0, 5)
    with pytest.raises(ValueError):
        SecureAltitudeResult(1e9, 300.0, 1e-4, -1)


# ---------------------------------------------------------------------------
# sweep scenarios
# ---------------------------------------------------------------------------


def test_dv_sweep_grid_and_ordering():
    table = dv_sweep(SMALL_DV)
    assert table.columns[0] == "altitude_km"
    assert len(table.rows) == 6  # 3 altitudes x 2 block sizes
    # sorted by (block_size, altitude)
    assert table.column("block_size") == (1e10,) * 3 + (math.inf,) * 3
    assert table.column("altitude_km") == (300.0, 310.0, 320.0) * 2
    rates = table.column("key_rate_bits_per_use")
    assert rates[0] > rates[1] > rates[2] > 0.0  # decreasing with altitude
    assert rates[3] > rates[0]  # asymptotic beats finite at same altitude
    # transmissivity column reproduces the channel model
    tau = SMALL_DV.channel.at_altitude(300.0).transmissivity
    assert table.rows[0][4] == pytest.approx(tau, rel=1e-15)


def test_cv_sweep_grid_and_ordering():
    table = cv_sweep(SMALL_CV)
    assert len(table.rows) == 6
    rates = table.column("key_rate_bits_per_use")
    assert rates[0] > rates[1] > rates[2] > 0.0
    classical = table.column("classical_rate_bits_per_use")
    assert classical[0] > classical[1] > classical[2] > 0.0
    assert min(table.column("chi_e")) > 0.0
    assert min(table.column("snr")) > 0.0


def test_atmos_grid_matches_direct_evaluation():
    table = atmos_grid(SMALL_ATMOS)
    assert table.column("frequency_ghz") == (10.0, 10.0, 60.0, 60.0)
    assert table.column("slant_km") == (10.0, 20.0, 10.0, 20.0)
    att = table.column("attenuation_db")
    # more path, more loss; the 60 GHz oxygen complex dwarfs 10 GHz
    assert att[1] > att[0] and att[3] > att[2]
    assert att[2] > 10.0 * att[0]
    direct = slant_attenuation(
        SlantPathSpec(elevation_deg=45.0, slant_distance_km=20.0), 10.0
    )
    assert att[1] == pytest.approx(direct, rel=1e-12)


def test_atmos_grid_fig4_is_bit_exact_per_slant():
    # 1000 frequencies span several gamma blocks, and the 1/10/19/28 km
    # slants have different node sets: every value must equal, bit for bit,
    # the trapezoid over that slant's own nodes on one full gamma grid
    cfg = load_config(str(REPO_ROOT / "configs" / "fig4_attenuation.ini"))
    table = atmos_grid(cfg)
    freqs = np.array(cfg.sweep.frequencies_ghz())
    slants = np.array(table.column("slant_km"))
    att = np.array(table.column("attenuation_db"))
    assert len(cfg.sweep.slants_km()) == 4
    for slant in cfg.sweep.slants_km():
        path = SlantPathSpec(cfg.sweep.elevation_deg, slant_distance_km=slant)
        nodes = _path_nodes(path, 1.0)
        h = np.clip(nodes * math.sin(math.radians(path.elevation_deg)), 0.0, TOP_ALTITUDE_KM)
        gamma = _gamma_grid(freqs, *default_profile().states_at(h), default_line_table())
        want = np.trapezoid(gamma, nodes, axis=1)
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
    assert table.column("frequency_hz") == (1e11, 5.05e12, 1e13)
    photons = table.column("mean_photons")
    assert photons[0] > photons[1] > photons[2] > 0.0
    assert photons[0] == pytest.approx(thermal_photon_number(1e11, 295.0), rel=1e-12)


def test_run_scenario_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("warp-drive", SMALL_DV)


# ---------------------------------------------------------------------------
# maximum secure altitude
# ---------------------------------------------------------------------------


def test_bisection_brackets_the_boundary():
    res = max_secure_altitude("dv", 1e9, load_config())
    assert 100.0 < res.max_secure_altitude_km < 2000.0
    assert res.rate_at_max > 0.0
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
            table.column("altitude_km"), table.column("key_rate_bits_per_use")
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
    cases = [
        (lambda: dv_sweep(SMALL_DV), "dv-sweep", 300.0, 1e10, SMALL_DV),
        (lambda: cv_sweep(SMALL_CV), "cv-sweep", 200.0, 1e10, SMALL_CV),
        (lambda: max_secure_altitude("cv", math.inf, SMALL_CV), "max-altitude", 100.0, math.inf, SMALL_CV),
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
    (row,) = table.rows
    assert row[1] == 2000.0
    assert row[4] == 1.0


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


def test_rate_path_loads_no_numpy():
    # every scenario but atmos-grid, on small grids; only the gas-attenuation
    # layer may import numpy, and only when one of its names is used
    runs = [
        ["dv-sweep", *_override_args(SMALL_DV_OVERRIDES)],
        ["cv-sweep", *_override_args(SMALL_CV_OVERRIDES)],
        ["max-altitude", "--override", "sweep.block_sizes=inf"],
        ["max-altitude", *_override_args(["sweep.protocol=cv", "sweep.block_sizes=inf"])],
        THERMAL_ARGS,
    ]
    code = (
        "import sys\n"
        "import qlinksim\n"
        "from qlinksim.cli import main\n"
        f"for args in {runs!r}:\n"
        "    assert main(args + ['--out', sys.argv[1]]) == 0, args\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded by the rate path'\n"
        "assert 'qlinksim.atmosphere' not in sys.modules\n"
        "assert qlinksim.AtmosphericState is qlinksim.atmosphere.AtmosphericState\n"
        "star = {}\n"
        "exec('from qlinksim import *', star)\n"
        "assert set(qlinksim.__all__) <= set(star), set(qlinksim.__all__) - set(star)\n"
        "assert star['slant_attenuation'] is qlinksim.atmosphere.slant_attenuation\n"
        "try:\n"
        "    qlinksim.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('unknown attribute resolved')\n"
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
