from __future__ import annotations

import configparser
import inspect
import math
import re
from pathlib import Path

import pytest

from qlinksim.config import (
    MAX_AXIS_POINTS,
    SECTIONS,
    ConfigError,
    SimulationConfig,
    SweepRanges,
    _SCHEMA,
    load_config,
    resolved_items,
)
from qlinksim.cvqkd import CvProtocolParams, PhaseEncodingNoise
from qlinksim.dvqkd import DecoyProtocolParams, FiniteSizeConfig
from qlinksim.fso import FsoChannelParams
from qlinksim.sweeps import SCENARIOS, cv_sweep, dv_sweep, run_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_defaults_without_file():
    cfg = load_config()
    assert cfg.channel == FsoChannelParams()
    assert cfg.dv == DecoyProtocolParams()
    assert cfg.dv_finite == FiniteSizeConfig()
    assert cfg.cv == CvProtocolParams()
    assert cfg.cv_noise == PhaseEncodingNoise()
    assert cfg.sweep == SweepRanges()


def test_bundled_default_file_matches_builtin_defaults():
    path = REPO_ROOT / "configs" / "default.ini"
    assert load_config(str(path)) == load_config()


def test_bundled_default_file_lists_every_key():
    # its header promises that every key the parser accepts is listed
    parser = configparser.ConfigParser()
    parser.read(REPO_ROOT / "configs" / "default.ini")
    listed = [(section, key) for section in parser.sections() for key in parser[section]]
    assert sorted(listed) == sorted((section, key) for section, key, _ in resolved_items(load_config()))


def test_file_values_are_applied(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[channel]\nzenith_deg = 70\n"
        "[dv]\nmu = 0.7\nepsilon = 1e-9\n"
        "[cv]\nv_mod = 4.0\neps_classical = 2e-5\n"
        "[sweep]\nprotocol = cv\nblock_sizes = 1e8, inf\n"
    )
    cfg = load_config(str(path))
    assert cfg.channel.zenith_deg == 70.0
    assert cfg.dv.mu == 0.7
    assert cfg.dv_finite.epsilon == 1e-9
    assert cfg.cv.v_mod == 4.0
    assert cfg.cv_noise.eps_classical == 2e-5
    assert cfg.sweep.protocol == "cv"
    assert cfg.sweep.block_sizes == (1e8, math.inf)
    # untouched keys keep their defaults
    assert cfg.channel.jitter_urad == FsoChannelParams().jitter_urad
    assert cfg.dv.nu == DecoyProtocolParams().nu


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[channel]\nzenith_deg = 70\n")
    cfg = load_config(str(path), overrides=["channel.zenith_deg=60"])
    assert cfg.channel.zenith_deg == 60.0


def test_protocol_is_normalized():
    assert load_config(overrides=["sweep.protocol=CV"]).sweep.protocol == "cv"


def test_unknown_section_and_key_are_named(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match=re.escape(f"unknown section 'nonsense' in config file {str(path)!r}")):
        load_config(str(path))
    # configparser drops a lone DEFAULT section's keys, and copies them into
    # every other section: both are unknown sections, named before any key lands
    for text in ("[DEFAULT]\njitter_urad = 5\n", "[DEFAULT]\nmu = 0.5\n[dv]\nnu = 0.1\n"):
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"unknown section 'DEFAULT' in config file {str(path)!r}")):
            load_config(str(path))
    with pytest.raises(ConfigError, match=re.escape("unknown key 'channel.bogus' in command-line override")):
        load_config(overrides=["channel.bogus=1"])


def test_bad_values_are_located(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[channel]\nzenith_deg = banana\n")
    with pytest.raises(ConfigError, match=re.escape(f"bad value for 'channel.zenith_deg' in config file {str(path)!r}")):
        load_config(str(path))
    with pytest.raises(ConfigError, match="nan is not a valid parameter value"):
        load_config(overrides=["channel.zenith_deg=nan"])


def test_override_shape_is_checked():
    with pytest.raises(ConfigError, match=re.escape("override 'channelzenith=5' must look like section.key=value")):
        load_config(overrides=["channelzenith=5"])
    with pytest.raises(ConfigError, match="must look like section.key=value"):
        load_config(overrides=["channel.zenith_deg"])


def test_component_validation_is_wrapped_per_section():
    with pytest.raises(ConfigError, match=re.escape("invalid [channel] settings")):
        load_config(overrides=["channel.zenith_deg=85"])
    with pytest.raises(ConfigError, match=re.escape("invalid [dv] settings")):
        load_config(overrides=["dv.mu=0.1"])  # falls below the decoy intensity
    with pytest.raises(ConfigError, match=re.escape("invalid [cv] settings")):
        load_config(overrides=["cv.beta=1.5"])
    with pytest.raises(ConfigError, match=re.escape("invalid [sweep] settings")):
        load_config(overrides=["sweep.altitude_step_km=0"])
    with pytest.raises(ConfigError, match=re.escape("invalid [sweep] settings")):
        load_config(overrides=["sweep.protocol=qv"])


@pytest.mark.parametrize("text", ["inf", "-inf"])
def test_an_infinite_value_is_rejected_at_load_under_its_key(text):
    """Every key refuses +-inf at load and names itself; an infinite block is the asymptotic one."""
    unnamed = []
    for section, keys in _SCHEMA.items():
        for key in keys:
            if (section, key, text) == ("sweep", "block_sizes", "inf"):
                continue
            try:
                load_config(overrides=[f"{section}.{key}={text}"])
            except ConfigError as exc:
                if not re.search(rf"\b{key}\b", str(exc)):
                    unnamed.append(f"{section}.{key}={text}: {exc}")
            else:
                unnamed.append(f"{section}.{key}={text} loads")
    assert not unnamed, "\n".join(unnamed)
    assert load_config(overrides=["sweep.block_sizes=inf"]).sweep.block_sizes == (math.inf,)


def test_missing_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(tmp_path / "absent.ini"))
    broken = tmp_path / "broken.ini"
    broken.write_text("no section header here\n")
    with pytest.raises(ConfigError, match="malformed config file"):
        load_config(str(broken))


def test_inclusive_grid_expansion():
    sweep = SweepRanges()
    alts = sweep.altitudes_km()
    assert alts[0] == 100.0 and alts[-1] == 700.0 and len(alts) == 61
    assert len(sweep.frequencies_ghz()) == 1000
    # degenerate range yields the single start point
    assert sweep.temperatures_k() == (295.0,)
    # a stop that is an exact multiple of step is included despite rounding
    two_temps = SweepRanges(temp_start_k=293.15, temp_stop_k=298.15, temp_step_k=5.0)
    assert two_temps.temperatures_k() == (293.15, 298.15)


def test_axis_point_count_is_capped():
    # the largest axis passes without being expanded; one point more is an error
    SweepRanges(freq_start_ghz=1.0, freq_stop_ghz=float(MAX_AXIS_POINTS), freq_step_ghz=1.0)
    with pytest.raises(ConfigError, match=r"^sweep\.freq has 1000001 points, more than the 1000000 "):
        SweepRanges(freq_start_ghz=0.0, freq_stop_ghz=float(MAX_AXIS_POINTS), freq_step_ghz=1.0)
    # a span too wide to count is counted as inf, not expanded
    with pytest.raises(ConfigError, match=r"^sweep\.slant has inf points"):
        SweepRanges(slant_start_km=-1e308, slant_stop_km=1e308)


def test_block_size_parsing_variants():
    cfg = load_config(overrides=["sweep.block_sizes=1e9,, 1e10 ,inf"])
    assert cfg.sweep.block_sizes == (1e9, 1e10, math.inf)
    with pytest.raises(ConfigError, match=re.escape("bad value for 'sweep.block_sizes'")):
        load_config(overrides=["sweep.block_sizes=1e9; inf"])
    for repeated, value in (("1e9,1e9", "1000000000.0"), ("1e9,1e9,inf", "1000000000.0"), ("inf,1e10,inf", "inf")):
        message = f"invalid [sweep] settings: sweep.block_sizes must not repeat an entry: {value}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(overrides=[f"sweep.block_sizes={repeated}"])
    with pytest.raises(ConfigError, match=re.escape("invalid [sweep] settings")):
        load_config(overrides=["sweep.block_sizes=0.5"])
    # only +inf is the asymptotic block; -inf is no block size at all
    for negative in ("-inf", "1e9,-inf"):
        message = "invalid [sweep] settings: sweep.block_sizes entries must be >= 1 or inf: -inf"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(overrides=[f"sweep.block_sizes={negative}"])


def test_dv_finite_block_swap():
    cfg = load_config(overrides=["dv.epsilon=1e-9"])
    fs = cfg.dv_fs(1e9)
    assert fs.block_size_n == 1e9
    assert fs.epsilon == 1e-9
    assert cfg.dv_finite.block_size_n == math.inf  # original untouched


def test_resolved_items_cover_every_key():
    cfg = load_config()
    items = resolved_items(cfg)
    assert len(items) == 48
    triples = {(section, key): value for section, key, value in items}
    assert triples[("channel", "jitter_urad")] == "2.91"
    assert triples[("cv", "eps_classical")] == "3.9e-05"
    assert triples[("dv", "epsilon")] == "1e-10"
    assert triples[("sweep", "block_sizes")] == (
        "1000000000.0, 10000000000.0, 100000000000.0, inf"
    )
    assert triples[("sweep", "protocol")] == "dv"
    # the block embeds real provenance: feeding it back reproduces the config
    overrides = [
        f"{section}.{key}={value}"
        for section, key, value in items
        if key != "block_sizes"
    ] + ["sweep.block_sizes=" + triples[("sweep", "block_sizes")]]
    assert load_config(overrides=overrides) == cfg


def test_sections_are_the_one_declaration():
    fields = [field for holders in SECTIONS.values() for field, _ in holders]
    assert tuple(fields) == SimulationConfig._fields
    header = {}
    for section, key, _ in resolved_items(load_config()):
        header.setdefault(section, []).append(key)
    assert list(header) == list(SECTIONS)
    for section, holders in SECTIONS.items():
        records = [record for _, record in holders]
        keys = [key for record in records for key in record._fields if key != "block_size_n"]
        assert header[section] == keys
        # each key's parser comes from the type of its default
        for record in records:
            params = inspect.signature(record).parameters.values()
            assert all(p.default is not inspect.Parameter.empty for p in params), record


def test_resolved_items_track_overrides():
    cfg = load_config(overrides=["channel.zenith_deg=60", "cv.d_bits=7"])
    triples = {(s, k): v for s, k, v in resolved_items(cfg)}
    assert triples[("channel", "zenith_deg")] == "60.0"
    assert triples[("cv", "d_bits")] == "7"


# two altitudes below both finite-block ceilings, so every rate term is live
GUARD_GRID = (
    "sweep.altitude_start_km=150",
    "sweep.altitude_stop_km=200",
    "sweep.altitude_step_km=50",
    "sweep.block_sizes=1e9, inf",
)
# keys whose default sits at or near the top of their range move down
MOVE_DOWN = ("zenith_deg", "tau_zenith", "beta")


def _nudged(key: str, text: str, step: float = 0.1) -> str:
    if text.isdigit():
        return str(int(text) + 1)
    value = float(text)
    if value == 0.0:
        return "0.1"
    return repr(value * (1.0 - step if key in MOVE_DOWN else 1.0 + step))


def _rate_rows(*overrides: str) -> tuple:
    cfg = load_config(overrides=GUARD_GRID + overrides)
    return dv_sweep(cfg).values + cv_sweep(cfg).values


def test_every_model_key_changes_some_output():
    """A key that changes no dv-sweep or cv-sweep value does no work."""
    base = _rate_rows()
    dead = []
    for section, key, text in resolved_items(load_config()):
        if section == "sweep":
            continue
        override = f"{section}.{key}={_nudged(key, text)}"
        try:
            if _rate_rows(override) == base:
                dead.append(f"{override} changes no value")
        except ConfigError as exc:
            dead.append(f"{override} cannot be set on its own: {exc}")
    assert not dead, "\n".join(dead)


# the key-liveness grid: two altitudes and two block sizes as above, four
# frequencies, two slants and three temperatures, so that a 3% step of any
# axis key moves, adds or drops a grid point
LIVENESS_GRID = GUARD_GRID + (
    "sweep.freq_step_ghz=333",
    "sweep.slant_stop_km=10",
    "sweep.temp_start_k=290",
    "sweep.temp_stop_k=300",
)


def _stepped(key: str, text: str) -> str:
    """text moved by a small valid step: 3%, +1 for an integer, the other protocol."""
    if key == "protocol":
        return "cv" if text == "dv" else "dv"
    if key == "block_sizes":
        return ", ".join(repr(float(n) * 1.03) for n in text.split(","))
    if "_stop_" in key:
        # down, so that the last grid point drops out
        return repr(float(text) * 0.97)
    return _nudged(key, text, step=0.03)


def _scenario_rows(*overrides: str) -> tuple:
    cfg = load_config(overrides=LIVENESS_GRID + overrides)
    return tuple(run_scenario(name, cfg).values for name in SCENARIOS)


def test_every_config_key_changes_some_scenarios_rows():
    """Each key of the schema, stepped alone, changes the rows of some scenario."""
    base = _scenario_rows()
    dead = []
    for section, key, text in resolved_items(load_config(overrides=LIVENESS_GRID)):
        override = f"{section}.{key}={_stepped(key, text)}"
        try:
            if _scenario_rows(override) == base:
                dead.append(f"{override} changes no row")
        except ConfigError as exc:
            dead.append(f"{override} cannot be set on its own: {exc}")
    assert not dead, "\n".join(dead)
