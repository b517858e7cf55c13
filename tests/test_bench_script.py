"""Smoke test of scripts/bench.py: one minimal calibration-scan pair, every section written."""

from __future__ import annotations

import json
import subprocess
import sys

from conftest import REPO_ROOT

METRICS = ("setup_s", "cli_s", "pass_s", "peak_rss_mb")


def test_bench_writes_every_section_for_one_minimal_pair(tmp_path):
    out = tmp_path / "bench.json"
    argv = [
        sys.executable, str(REPO_ROOT / "scripts" / "bench.py"), "--out", str(out),
        "--against", str(REPO_ROOT), "--workload", "calibration-scan", "--pairs", "1",
        "--seconds", "0", "--cli", "floor", "--cli", "max-altitude.dv", "--cli-runs", "1",
        "--layer", "fso.at_altitude", "--layer-repeats", "1",
    ]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report) == {"metadata", "settings", "workloads", "cli", "layers"}
    meta = report["metadata"]
    for key in ("cpu_count", "cpu_pinning", "python", "numpy", "numpy_simd_dispatched", "trees"):
        assert key in meta, key
    assert meta["trees"].keys() == {"change", "against"}

    scan = report["workloads"]["calibration-scan"]
    assert scan["seeds"] == [1]
    for label in ("change", "against"):
        (run,) = scan["runs"][label]
        assert run["correct"] is True and run["failed"] == 0 and run["seed"] == 1
    assert set(scan["metrics"]) == set(METRICS)
    traced = scan["layers_traced"]
    assert traced["correct"] == {"change": True, "against": True}
    # both trees run the same scan, so their ceilings make the same rate probes
    probes = traced["metrics"]["sweeps.max_secure_altitude.probes"]
    assert probes["change"] == probes["against"] > 0
    for metric, entry in scan["metrics"].items():
        assert set(entry) == {"change", "against", "relative_change", "pairs_lower"}, metric
        for label in ("change", "against"):
            stats = entry[label]
            assert stats["q1"] <= stats["median"] <= stats["q3"] and len(stats["values"]) == 1
        assert entry["pairs_lower"] in (0, 1)

    assert set(report["cli"]) == {"floor", "max-altitude.dv"}
    for by_tree in report["cli"].values():
        for label in ("change", "against"):
            assert 0.0 < by_tree[label]["min_s"] <= by_tree[label]["median_s"]
            assert by_tree[label]["peak_rss_mb"] > 0.0
    assert set(report["layers"]) == {"fso.at_altitude"}
    for label in ("change", "against"):
        assert 0.0 < report["layers"]["fso.at_altitude"][label]["best_s"]
