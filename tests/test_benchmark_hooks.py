"""The package names that the benchmark in perfbench/ looks up still resolve.

perfbench traces the package by patching functions it names in
perfbench/spans.py, and its checks call the package directly.  A name
deleted from the package would break every benchmark run; these tests
break first.  perfbench/ itself is only read here.
"""

from __future__ import annotations

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"_hooks_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_attributes() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded qlinksim module and of its classes, by (owner, name)."""
    attrs = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "qlinksim" and not mod_name.startswith("qlinksim."):
            continue
        for name, value in vars(module).items():
            attrs[(mod_name, name)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    attrs[(f"{mod_name}.{name}", attr)] = member
    return attrs


def test_tracer_patches_every_span_target_and_restores_it():
    spans = _load(REPO_ROOT / "perfbench" / "spans.py")
    for module, *_ in spans.TARGETS:
        importlib.import_module(f"qlinksim.{module}")
    before = _package_attributes()
    tracer = spans.Tracer()
    try:
        tracer.install()
        during = _package_attributes()
        for module, attr, *_ in spans.TARGETS:
            cls, _, name = attr.rpartition(".")
            owner = f"qlinksim.{module}" + (f".{cls}" if cls else "")
            wrapper = during[(owner, name)]
            assert wrapper is not before[(owner, name)], (module, attr)
            assert wrapper.__wrapped__ is before[(owner, name)], (module, attr)
    finally:
        tracer.uninstall()
    after = _package_attributes()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert moved == []


def test_names_the_benchmark_checks_call_resolve():
    from qlinksim.atmosphere import TOP_ALTITUDE_KM, default_profile
    from qlinksim.config import load_config
    from qlinksim.cvqkd import ThermalLossChannel, composable_key_rate
    from qlinksim.dvqkd import finite_key_rate
    from qlinksim.sweeps import ALTITUDE_TOL_KM

    # the calibration scan's rate probe, as perfbench/checks.py makes it
    cfg = load_config(None, [])
    tau = cfg.channel.at_altitude(150.0).transmissivity
    for n in (1e9, math.inf):
        dv = finite_key_rate(tau * cfg.dv.eta_receiver, cfg.dv, cfg.dv_fs(n)).key_rate
        ch = ThermalLossChannel(tau=tau, n_thermal=cfg.cv.n_bg)
        cv = composable_key_rate(ch, cfg.cv, cfg.cv_noise, block_size_n=n).key_rate
        assert dv > 0.0 and cv > 0.0
    assert ALTITUDE_TOL_KM > 0.0
    # the attenuation oracle's states along a slant, clipped at the top
    h = np.clip(np.array([0.0, 50.0, 150.0]), 0.0, TOP_ALTITUDE_KM)
    t, p, rho = default_profile().states_at(h)
    assert t.shape == p.shape == rho.shape == (3,)
    oracle = _load(REPO_ROOT / "tests" / "oracle_p676.py")
    assert oracle.specific_attenuation_db_km(60.0, float(t[0]), float(p[0]), float(rho[0])) > 0.0


def test_the_calibration_script_perfbench_runs_keeps_its_names():
    import types

    # loaded as perfbench/workloads.py's load_script loads it: a fresh module,
    # with the script's own sys.path insertion undone
    path = REPO_ROOT / "scripts" / "calibrate_defaults.py"
    script = types.ModuleType("calibrate_defaults")
    script.__file__ = str(path)
    saved_path = sys.path[:]
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(script))
    finally:
        sys.path[:] = saved_path
    assert all(callable(getattr(script, name)) for name in ("main", "evaluate", "cfg_with"))
    # the config of one grid point, probed as perfbench/checks.py's _key_rate does
    from qlinksim.cvqkd import ThermalLossChannel, composable_key_rate
    from qlinksim.dvqkd import finite_key_rate

    cfg = script.cfg_with(2.91, 3.9e-5)
    assert cfg.cv_noise.eps_classical == 3.9e-5
    tau = cfg.channel.at_altitude(150.0).transmissivity
    for n in (1e9, math.inf):
        assert finite_key_rate(tau * cfg.dv.eta_receiver, cfg.dv, cfg.dv_fs(n)).key_rate > 0.0
        ch = ThermalLossChannel(tau=tau, n_thermal=cfg.cv.n_bg)
        assert composable_key_rate(ch, cfg.cv, cfg.cv_noise, block_size_n=n).key_rate > 0.0
    # the ceiling labels perfbench/checks.py's _ceilings parses, for both protocols
    detail = script.evaluate(2.91, 3.9e-5)[2]
    for protocol in ("dv", "cv"):
        for n in (1e9, 1e10, 1e11, math.inf):
            kind, _, size = f"{protocol}_alt_{n:g}".rpartition("_")
            assert (kind, float(size)) == (f"{protocol}_alt", n)
            assert detail[f"{protocol}_alt_{n:g}"] > 0.0
