"""The benchmark's three workloads: seeded inputs, command lines and one pass.

A workload names the configs it loads at set-up, the command lines a user
would type for it, and one in-process pass over the same calls.  The pass
reaches the package only through module attributes looked up at call
time (``sweeps.run_scenario``, not a name bound at import), or through
``scripts/calibrate_defaults.py`` loaded afresh for each pass, so that the
traced run sees every call once its wrappers are installed.

Only the standard library is imported at module level: the set-up timing
and the untraced worker must not pay for anything the package does not.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
import sys
import types
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DV_FIG = "configs/fig2_dv_rates.ini"
CV_FIG = "configs/fig3_cv_rates.ini"
ATMOS_FIG = "configs/fig4_attenuation.ini"
THERMAL_FIG = "configs/fig5_thermal.ini"
CALIBRATE_SCRIPT = "scripts/calibrate_defaults.py"


@dataclass(frozen=True)
class Command:
    """One command line of a workload.

    ``argv`` holds the ``qlinksim`` arguments; with ``script`` set it is a
    Python script run on its own instead.  ``output`` names the pass output
    whose bytes the command must reproduce, if any.
    """

    name: str
    argv: tuple[str, ...] = ()
    script: str | None = None
    output: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    configs: tuple[tuple[str | None, tuple[str, ...]], ...]
    commands: tuple[Command, ...]

    def run_pass(self, cfgs: list) -> dict:
        """One in-process pass over the workload's calls; returns its outputs."""
        return _PASSES[self.name](self, cfgs)


def _override_args(overrides: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(arg for item in overrides for arg in ("--override", item))


def _pooled(scenario: str, config: str, overrides: tuple[str, ...]) -> tuple[Command, Command]:
    """The scenario at one worker and at two; both must reproduce the pass output."""
    base = (scenario, "--config", config, *_override_args(overrides))
    return (
        Command(f"{scenario}.w1", (*base, "--workers", "1"), output=scenario),
        Command(f"{scenario}.w2", (*base, "--workers", "2"), output=scenario),
    )


def rate_sweeps(seed: int) -> Workload:
    # The seed shifts both altitude grids by a multiple of 1/8 km in
    # [0, 10) km: the row count stays the same and every grid value is exact
    # in binary, so the CSV header reproduces the grid.
    shift = random.Random(seed).randrange(80) / 8.0
    dv = (f"sweep.altitude_start_km={100.0 + shift!r}", f"sweep.altitude_stop_km={700.0 + shift!r}")
    cv = (f"sweep.altitude_start_km={100.0 + shift!r}", f"sweep.altitude_stop_km={500.0 + shift!r}")
    cv_ladder = ("sweep.protocol=cv",)
    return Workload(
        "rate-sweeps",
        seed,
        configs=((DV_FIG, dv), (CV_FIG, cv), (None, ()), (None, cv_ladder)),
        commands=(
            *_pooled("dv-sweep", DV_FIG, dv),
            *_pooled("cv-sweep", CV_FIG, cv),
            Command("max-altitude.dv", ("max-altitude",), output="max-altitude.dv"),
            Command("max-altitude.cv", ("max-altitude", *_override_args(cv_ladder)), output="max-altitude.cv"),
        ),
    )


def calibration_scan(seed: int) -> Workload:
    # The grid, its order and the selection are the script's own: the seed
    # changes nothing in this workload.
    return Workload(
        "calibration-scan",
        seed,
        configs=((None, ()),),
        commands=(Command("calibrate_defaults", script=CALIBRATE_SCRIPT, output="calibrate_defaults"),),
    )


def gas_spectrum(seed: int) -> Workload:
    # fig4 is kept as published, so that its landmark points are grid rows;
    # the seed picks the oracle spot rows (see checks.py).  The thermal grid
    # is shifted by a multiple of 500/64 GHz, exact in binary, with its 800
    # frequencies kept.
    shift = random.Random(seed).randrange(64) * 500.0 / 64.0
    thermal = (f"sweep.freq_start_ghz={500.0 + shift!r}", f"sweep.freq_stop_ghz={400000.0 + shift!r}")
    return Workload(
        "gas-spectrum",
        seed,
        configs=((ATMOS_FIG, ()), (THERMAL_FIG, thermal)),
        commands=(
            *_pooled("atmos-grid", ATMOS_FIG, ()),
            Command(
                "thermal-grid.w1",
                ("thermal-grid", "--config", THERMAL_FIG, *_override_args(thermal), "--workers", "1"),
                output="thermal-grid",
            ),
        ),
    )


WORKLOADS = {
    "rate-sweeps": rate_sweeps,
    "calibration-scan": calibration_scan,
    "gas-spectrum": gas_spectrum,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def load_configs(workload: Workload) -> list:
    from qlinksim import config

    return [config.load_config(path, list(overrides)) for path, overrides in workload.configs]


def _render(scenario: str, cfg) -> str:
    from qlinksim import sweeps

    return sweeps.render_csv(sweeps.run_scenario(scenario, cfg), cfg)


def _rate_sweeps_pass(workload: Workload, cfgs: list) -> dict:
    fig2, fig3, ladder_dv, ladder_cv = cfgs
    return {
        "dv-sweep": _render("dv-sweep", fig2),
        "cv-sweep": _render("cv-sweep", fig3),
        "max-altitude.dv": _render("max-altitude", ladder_dv),
        "max-altitude.cv": _render("max-altitude", ladder_cv),
    }


def _gas_spectrum_pass(workload: Workload, cfgs: list) -> dict:
    fig4, fig5 = cfgs
    return {"atmos-grid": _render("atmos-grid", fig4), "thermal-grid": _render("thermal-grid", fig5)}


@functools.cache
def _script_code():
    path = ROOT / CALIBRATE_SCRIPT
    return compile(path.read_text(encoding="utf-8"), str(path), "exec")


def load_script() -> types.ModuleType:
    """A fresh module of scripts/calibrate_defaults.py.

    Fresh on every call, so that it binds the package's functions as they
    are at that moment: wrapped, in a traced run.  The script's own
    ``sys.path`` insertion is undone.
    """
    module = types.ModuleType("calibrate_defaults")
    module.__file__ = str(ROOT / CALIBRATE_SCRIPT)
    saved_path = sys.path[:]
    try:
        exec(_script_code(), vars(module))
    finally:
        sys.path[:] = saved_path
    return module


def _calibration_pass(workload: Workload, cfgs: list) -> dict:
    """The script's main(), with the score of every grid point it evaluates kept.

    ``points`` maps each (jitter, leak) pair, in the order visited, to what
    the script's ``evaluate`` returned; ``calibrate_defaults`` is what the
    script printed and ``exit`` its return code.
    """
    script = load_script()
    evaluate, points = script.evaluate, {}

    def recorded(jitter_urad, eps_classical):
        points[(jitter_urad, eps_classical)] = scored = evaluate(jitter_urad, eps_classical)
        return scored

    script.evaluate = recorded
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = script.main()
    return {"points": points, "exit": code, "calibrate_defaults": printed.getvalue()}


_PASSES = {
    "rate-sweeps": _rate_sweeps_pass,
    "calibration-scan": _calibration_pass,
    "gas-spectrum": _gas_spectrum_pass,
}
