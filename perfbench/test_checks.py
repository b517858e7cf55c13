"""Tests of the benchmark itself: every check rejects a corrupted output.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def outputs():
    """(workload, pass outputs, command-line outputs) per workload, uncorrupted."""
    made = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, SEED)
        out = wl.run_pass(workloads.load_configs(wl))
        cli = {cmd.name: out[cmd.output] for cmd in wl.commands if cmd.output}
        made[name] = (wl, out, cli)
    script = subprocess.run(
        [sys.executable, workloads.CALIBRATE_SCRIPT], cwd=ROOT, capture_output=True, text=True, check=True
    )
    made["calibration-scan"][2]["calibrate_defaults"] = script.stdout
    return made


def edit_csv(text: str, column: str, where, change, count: int | None = None) -> str:
    """Rewrite `column` in the first `count` rows (all by default) where where(record) holds."""
    table = checks.Table(text)
    idx = table.columns.index(column)
    lines = text.splitlines(keepends=True)
    first_row = len(lines) - len(table.rows)
    hits = 0
    for i, rec in enumerate(table.records()):
        if where(rec) and (count is None or hits < count):
            cells = lines[first_row + i].rstrip("\n").split(",")
            cells[idx] = repr(change(rec[column]))
            lines[first_row + i] = ",".join(cells) + "\n"
            hits += 1
    assert hits, "the corruption matched no row"
    return "".join(lines)


def first(column: str, value: float):
    """Arguments of edit_csv for the first row whose `column` equals value."""
    return {"where": lambda rec: rec[column] == value, "count": 1}


def row(f_ghz: float, slant_km: float):
    """Arguments of edit_csv for one atmos-grid row."""
    return {"where": lambda rec: (rec["frequency_ghz"], rec["slant_km"]) == (f_ghz, slant_km)}


def _ladder_swap(out, cli):
    table = checks.Table(out["max-altitude.dv"])
    alts = dict(zip(table.column("block_size"), table.column("max_secure_altitude_km")))
    swapped = {1e10: alts[1e11], 1e11: alts[1e10]}
    out["max-altitude.dv"] = edit_csv(
        out["max-altitude.dv"], "max_secure_altitude_km",
        lambda r: r["block_size"] in swapped, lambda v: swapped[1e10] if v == alts[1e10] else swapped[1e11],
    )


def _rate_rise(out, cli):
    table = checks.Table(out["dv-sweep"])
    curve = [r for r in table.records() if r["block_size"] == 1e10 and r["key_rate_bits_per_use"] > 0.0]
    lo, hi = curve[len(curve) // 2], curve[len(curve) // 2 + 1]
    out["dv-sweep"] = edit_csv(
        out["dv-sweep"], "key_rate_bits_per_use",
        lambda r: r["block_size"] == 1e10 and r["altitude_km"] == hi["altitude_km"],
        lambda v: lo["key_rate_bits_per_use"] * 1.01,
    )


def _finite_above_limit(out, cli):
    table = checks.Table(out["cv-sweep"])
    h = table.records()[0]["altitude_km"]
    limit = next(r for r in table.records() if r["block_size"] == math.inf and r["altitude_km"] == h)
    out["cv-sweep"] = edit_csv(
        out["cv-sweep"], "key_rate_bits_per_use",
        lambda r: r["block_size"] == 1e9 and r["altitude_km"] == h,
        lambda v: limit["key_rate_bits_per_use"] * 1.001,
    )


def _set(key, column, rows, change):
    """Corrupt `column` of pass output `key` in the rows a first() or row() selects."""

    def corrupt(out, cli):
        out[key] = edit_csv(out[key], column, change=change, **rows)

    return corrupt


def _cli(name, change):
    def corrupt(out, cli):
        cli[name] = change(cli[name])

    return corrupt


def _ceiling(protocol, n, pick, delta_km):
    """Move one reported bisection result, at the point pick(sorted grid pairs) chooses."""

    def corrupt(out, cli):
        detail = out["points"][pick(sorted(out["points"]))][2]
        detail[f"{protocol}_alt_{n:g}"] += delta_km

    return corrupt


def _scan_output(change):
    def corrupt(out, cli):
        out.update(change(out))

    return corrupt


def _lower_attenuation(out, cli):
    # the 28 km value at 300 GHz drops just below the 19 km value
    table = checks.Table(out["atmos-grid"])
    at_19 = next(r["attenuation_db"] for r in table.records() if (r["frequency_ghz"], r["slant_km"]) == (300.0, 19.0))
    out["atmos-grid"] = edit_csv(
        out["atmos-grid"], "attenuation_db",
        lambda r: (r["frequency_ghz"], r["slant_km"]) == (300.0, 28.0), lambda v: at_19 * 0.99,
    )


CORRUPTIONS = {
    "rate-sweeps": [
        ("chi_e off by 1e-6", checks.check_chi_e_closed_form, _set("cv-sweep", "chi_e", first("block_size", 1e10), lambda v: v * (1 + 1e-6))),
        ("classical rate off by 1e-9", checks.check_classical_rate, _set("cv-sweep", "classical_rate_bits_per_use", first("block_size", 1e9), lambda v: v * (1 + 1e-9))),
        ("key rate rises", checks.check_key_rate_non_increasing, _rate_rise),
        ("finite above asymptotic", checks.check_finite_below_asymptotic, _finite_above_limit),
        ("two ladder rungs swapped", checks.check_ladders, _ladder_swap),
        ("ladder rung outside window", checks.check_ladders, _set("max-altitude.cv", "max_secure_altitude_km", first("block_size", 1e9), lambda v: v * 0.7)),
        ("pooled output differs", checks.check_workers_identical, _cli("cv-sweep.w2", lambda t: t.replace("e-0", "e-1", 1))),
        ("command output differs from pass", checks.check_cli_matches_pass, _cli("max-altitude.dv", lambda t: t + "\n")),
    ],
    "calibration-scan": [
        ("ceiling reported 5 km high", checks.check_bisections_bracket, _ceiling("cv", 1e10, lambda keys: keys[0], 5.0)),
        ("ceiling reported 5 km low", checks.check_bisections_bracket, _ceiling("dv", math.inf, lambda keys: keys[-1], -5.0)),
        ("ceiling rises with jitter", checks.check_ceiling_vs_jitter, _ceiling("dv", 1e9, lambda keys: keys[-1], 200.0)),
        ("CV ceiling rises with leak", checks.check_cv_ceiling_vs_leak, _ceiling("cv", 1e11, lambda keys: keys[4], 50.0)),
        ("scan prints another jitter", checks.check_scan_selects_defaults, _scan_output(lambda out: {"calibrate_defaults": out["calibrate_defaults"].replace(": 2.91 urad", ": 2.9 urad")})),
        ("scan returns 1", checks.check_scan_selects_defaults, _scan_output(lambda out: {"exit": 1})),
        ("script prints another jitter", checks.check_cli_matches_pass, _cli("calibrate_defaults", lambda t: t.replace(": 2.91 urad", ": 2.92 urad"))),
        ("script failed", checks.check_cli_matches_pass, _cli("calibrate_defaults", lambda t: None)),
    ],
    "gas-spectrum": [
        ("occupancy off by 1e-10", checks.check_thermal_mpmath, _set("thermal-grid", "mean_photons", first("temperature_k", 298.15), lambda v: v * (1 + 1e-10))),
        ("one attenuation value lowered", checks.check_attenuation_grows_with_slant, _lower_attenuation),
        ("10 GHz landmark above 1 dB", checks.check_attenuation_landmarks, _set("atmos-grid", "attenuation_db", row(10.0, 28.0), lambda v: 1.5)),
        ("988 GHz landmark below 100 dB", checks.check_attenuation_landmarks, _set("atmos-grid", "attenuation_db", row(988.0, 1.0), lambda v: 50.0)),
        ("attenuation 20% high", checks.check_attenuation_oracle, _set("atmos-grid", "attenuation_db", {"where": lambda r: True}, lambda v: v * 1.2)),
        ("pooled output differs", checks.check_workers_identical, _cli("atmos-grid.w2", lambda t: t[:-2] + "\n")),
        ("command output differs from pass", checks.check_cli_matches_pass, _cli("thermal-grid.w1", lambda t: None)),
    ],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_uncorrupted_outputs_pass_every_check(outputs, name):
    wl, out, cli = outputs[name]
    assert checks.run(wl, out, cli) == []


@pytest.mark.parametrize(
    "name, label, check, corrupt",
    [(name, *case) for name, cases in CORRUPTIONS.items() for case in cases],
    ids=[f"{name}: {case[0]}" for name, cases in CORRUPTIONS.items() for case in cases],
)
def test_check_rejects_corrupted_output(outputs, name, label, check, corrupt):
    wl, out, cli = outputs[name]
    out, cli = copy.deepcopy(out), dict(cli)
    corrupt(out, cli)
    assert check(wl, out, cli), f"{check.__name__} accepted: {label}"


def test_every_check_has_a_corruption():
    for name, cases in CORRUPTIONS.items():
        assert {check for _, check, _ in cases} == set(checks.CHECKS[name])


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "cli_s", "pass_s", "peak_rss_mb"]
    per_layer = [name for name, _ in spans.layer_metric_names()]
    per_layer += [worker.command_metric(n) for n in worker.all_command_names()] + ["pass.traced_s"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _digest(*dirs: str) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _run(name: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_run_is_correct_and_leaves_data_and_configs_unchanged(name, trace):
    before = _digest("data", "configs")
    proc = _run(name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert _digest("data", "configs") == before
    metrics = result["metrics"]
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())
        return
    calls = {k: m["value"] for k, m in metrics.items() if k.endswith(".calls")}
    atmosphere = sum(v for k, v in calls.items() if k.startswith("atmosphere."))
    cv = sum(v for k, v in calls.items() if k.startswith("cvqkd."))
    if name == "gas-spectrum":
        assert atmosphere > 0 and cv == 0
    else:
        assert atmosphere == 0 and cv > 0


def test_run_refuses_a_directory_without_the_program():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("rate-sweeps", 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)


def test_run_reports_a_program_whose_passes_all_fail():
    """A pass that raises every time still gives a result: not correct, each failure counted."""
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    broken = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", broken)
        for d in ("src", "configs", "scripts", "tests", "perfbench"):
            shutil.copytree(ROOT / d, broken / d, ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
        with open(broken / "src" / "qlinksim" / "sweeps.py", "a", encoding="utf-8") as handle:
            handle.write("\n\ndef render_csv(*args, **kwargs):\n    raise RuntimeError('broken on purpose')\n")
        proc = _run("rate-sweeps", 0, cwd=broken)
        assert proc.returncode == 1, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] is False
        assert 0 < result["failed"] < result["attempted"]
        assert result["metrics"]["pass_s"]["value"] is None
        assert result["metrics"]["setup_s"]["value"] > 0
    finally:
        shutil.rmtree(broken)
