"""Time qlinksim end to end and per layer, paired with another tree, into one JSON file.

    python3 scripts/bench.py --out BENCH_<n>.json --against PATH_TO_PARENT_TREE

PATH_TO_PARENT_TREE is a second checkout of the code to compare with, for
example one made by `git archive <commit> | tar -x -C <dir>`.  Without
--against, only this tree is timed.  Run from anywhere; each tree is run
from its own root, with its own `src` on PYTHONPATH and one thread per
process.  The file holds four sections:

* workloads: the benchmark's four end-to-end metrics (setup_s, cli_s,
  pass_s, peak_rss_mb), from `perfbench/run.py --trace 0` run as a
  subprocess in each tree.  The trees alternate: pair i runs both on seed
  seed + i, and which tree runs first switches from pair to pair.  Per
  tree, the median and quartiles of each metric; per metric, the relative
  change of the medians and the count of pairs in which this tree was
  lower.  Then one `--trace 1` run per tree, on the first seed, gives the
  per-layer counts and times of perfbench's spans (calls, busy and self
  time, probes, bytes), the medians over its rounds.
* cli: every scenario's command line as a subprocess, plus the
  many-slant atmos-grid of 2000 slants: the min and median wall time and
  the median peak RSS over --cli-runs runs per tree, alternating; `floor`
  is `python3 -c pass`, the interpreter start that no change to the
  package can remove.
* layers: in-process times per call of the rate, channel, attenuation,
  sweep and calibration layers, best of --layer-repeats batches, and their
  median.  Each batch runs in a child of its own, and the trees alternate
  batch by batch, as the workloads' pairs do.
* metadata: CPU count and model, Python and numpy versions, the SIMD
  features numpy dispatches to, the commit this tree was checked out at
  and whether its tracked files have uncommitted edits.

All timings are best-of-N (or alternating-pair) wall clock, unscaled
except where perfbench scales its own, with no CPU pinning; the
committed BENCH files were measured so on a shared 2-core box, whose
speed drifts by up to a factor of two over tens of seconds.  Compare the
two trees of one file, which shared that drift; a single run, or figures
from two files, say little.  The script imports nothing from perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("rate-sweeps", "calibration-scan", "gas-spectrum")
METRICS = ("setup_s", "cli_s", "pass_s", "peak_rss_mb")
# command lines by name, each run from its tree's root with stdout discarded
CLI = {
    "floor": ["-c", "pass"],
    "import": ["-c", "import qlinksim"],
    "dv-sweep": ["-m", "qlinksim", "dv-sweep", "--config", "configs/fig2_dv_rates.ini"],
    "cv-sweep": ["-m", "qlinksim", "cv-sweep", "--config", "configs/fig3_cv_rates.ini"],
    "max-altitude.dv": ["-m", "qlinksim", "max-altitude"],
    "max-altitude.cv": ["-m", "qlinksim", "max-altitude", "--override", "sweep.protocol=cv"],
    "atmos-grid": ["-m", "qlinksim", "atmos-grid", "--config", "configs/fig4_attenuation.ini"],
    "thermal-grid": ["-m", "qlinksim", "thermal-grid", "--config", "configs/fig5_thermal.ini"],
    # 2000 slants at 30 degrees, 500 frequencies: 6,102 gamma nodes, run frequency-major
    "atmos-grid.many-slant": [
        "-m", "qlinksim", "atmos-grid", "--override", "sweep.slant_start_km=0.05",
        "--override", "sweep.slant_stop_km=100", "--override", "sweep.slant_step_km=0.05",
        "--override", "sweep.freq_step_ghz=2", "--override", "sweep.elevation_deg=30",
    ],
    "calibrate_defaults": ["scripts/calibrate_defaults.py"],
}
TIMEOUT_S = 600

# Run in a child of a tree, from its root: argv[1] is the layer names joined
# by commas.  Each layer is a (calls per batch, call) pair, set up here; the
# child calls each once, then times one batch of it, and prints
# {name: seconds per call} as JSON.
LAYER_CODE = r'''
import contextlib, io, itertools, json, math, os, sys, types
from time import perf_counter
from qlinksim import cvqkd, dvqkd, sweeps
from qlinksim.config import load_config

def rate_layers():
    cfg = load_config()
    tau = cfg.channel.at_altitude(500.0).transmissivity
    fs = cfg.dv_fs(1e10)
    ch = cvqkd.ThermalLossChannel(tau=tau, n_thermal=cfg.cv.n_bg)
    residual = cvqkd._detection_noise(ch, cfg.cv, cfg.cv_noise)[3]
    fig2, fig3 = load_config("configs/fig2_dv_rates.ini"), load_config("configs/fig3_cv_rates.ini")
    table2 = sweeps.dv_sweep(fig2)
    # the eight default thresholds, DV and CV at each block size, in turn: a
    # batch of 1000 calls inverts each of them 125 times
    etas = itertools.cycle([
        sweeps.max_secure_altitude(protocol, n, cfg).threshold
        for protocol in ("dv", "cv") for n in sorted(cfg.sweep.block_sizes)])
    return {
        "fso.at_altitude": (1000, lambda: cfg.channel.at_altitude(500.0)),
        "fso.altitude_at": (1000, lambda: cfg.channel.altitude_at(next(etas))),
        "dvqkd.finite_key_rate": (
            1000, lambda: dvqkd.finite_key_rate(tau * cfg.dv.eta_receiver, cfg.dv, fs)),
        "cvqkd.composable_key_rate": (
            1000, lambda: cvqkd.composable_key_rate(ch, cfg.cv, cfg.cv_noise, block_size_n=1e10)),
        "cvqkd.holevo_bound": (1000, lambda: cvqkd.holevo_bound(ch, cfg.cv, residual)),
        "sweeps.max_secure_altitude.dv": (10, lambda: sweeps.max_secure_altitude("dv", 1e9, cfg)),
        "sweeps.max_secure_altitude.cv": (10, lambda: sweeps.max_secure_altitude("cv", 1e9, cfg)),
        "sweeps.dv_sweep.fig2": (3, lambda: sweeps.dv_sweep(fig2)),
        "sweeps.cv_sweep.fig3": (3, lambda: sweeps.cv_sweep(fig3)),
        "sweeps.render_csv.fig2": (10, lambda: sweeps.render_csv(table2, fig2)),
        "calibrate_defaults.main": (5, calibration_pass),
    }

def calibration_pass():
    """One main() of scripts/calibrate_defaults.py on a fresh module, its stdout captured."""
    module = types.ModuleType("calibrate_defaults")
    module.__file__ = CALIBRATE_CODE.co_filename
    saved_path = sys.path[:]
    try:
        exec(CALIBRATE_CODE, vars(module))
    finally:
        sys.path[:] = saved_path
    with contextlib.redirect_stdout(io.StringIO()):
        if module.main() != 0:
            raise RuntimeError("calibrate_defaults.main() found no admissible pair")

with open("scripts/calibrate_defaults.py", encoding="utf-8") as handle:
    CALIBRATE_CODE = compile(handle.read(), os.path.abspath(handle.name), "exec")

def gas_layers():
    import numpy as np
    from qlinksim import atmosphere
    fig4 = load_config("configs/fig4_attenuation.ini")
    f = np.asarray(fig4.sweep.frequencies_ghz())
    h = np.linspace(0.0, 100.0, 303)
    factors = atmosphere._line_factors(
        *atmosphere.default_profile().states_at(h), *atmosphere.default_line_table())
    # the call atmos-grid makes for fig4: 69 nodes, so gamma runs node-major,
    # where the 303 nodes above run frequency-major
    fig4_args = (fig4.sweep.elevation_deg, fig4.sweep.slants_km(), f)
    table4 = sweeps.atmos_grid(fig4)
    return {
        "atmosphere._gamma_blocks": (1, lambda: [g for _, g in atmosphere._gamma_blocks(f, factors)]),
        "atmosphere.slant_attenuation_spectra.fig4": (
            1, lambda: atmosphere.slant_attenuation_spectra(*fig4_args)),
        "atmosphere.slant_attenuation_spectrum": (
            1, lambda: atmosphere.slant_attenuation_spectrum(45.0, 20.0, f)),
        "sweeps.render_csv.fig4": (1, lambda: sweeps.render_csv(table4, fig4)),
    }

wanted = sys.argv[1].split(",")
layers = rate_layers()
if any(name not in layers for name in wanted):
    layers.update(gas_layers())
out = {}
for name in wanted:
    calls, fn = layers[name]
    fn()
    start = perf_counter()
    for _ in range(calls):
        fn()
    out[name] = (perf_counter() - start) / calls
print(json.dumps(out))
'''
LAYERS = (
    "fso.at_altitude",
    "fso.altitude_at",
    "dvqkd.finite_key_rate",
    "cvqkd.composable_key_rate",
    "cvqkd.holevo_bound",
    "sweeps.max_secure_altitude.dv",
    "sweeps.max_secure_altitude.cv",
    "sweeps.dv_sweep.fig2",
    "sweeps.cv_sweep.fig3",
    "sweeps.render_csv.fig2",
    "calibrate_defaults.main",
    "atmosphere._gamma_blocks",
    "atmosphere.slant_attenuation_spectra.fig4",
    "atmosphere.slant_attenuation_spectrum",
    "sweeps.render_csv.fig4",
)

METADATA_CODE = r'''
import json, platform, numpy
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "numpy_simd_dispatched": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
}))
'''


def child_env(tree: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = str(tree / "src")
    return env


def run_child(tree: Path, argv: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, *argv], cwd=tree, env=child_env(tree),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode} in {tree.name}:\n{proc.stderr}")
    return proc.stdout


def run_cli(tree: Path, argv: list[str]) -> tuple[float, float]:
    """Wall time (s) and peak RSS (MB) of one command line run in tree, stdout discarded."""
    with tempfile.TemporaryFile() as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=tree, env=child_env(tree),
                                stdout=subprocess.DEVNULL, stderr=err)
        # wait4, unlike Popen.wait, reports the child's own peak RSS (KB on Linux)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(
                f"{argv} exited {proc.returncode} in {tree.name}:\n{err.read().decode(errors='replace')}")
    return wall, usage.ru_maxrss / 1024


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the values, with the values."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def ordered(trees: dict[str, Path], i: int) -> list[tuple[str, Path]]:
    """The trees in run order for pair or round i: the first one switches each time."""
    items = list(trees.items())
    return items if i % 2 == 0 else items[::-1]


def perfbench(tree: Path, name: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in tree: its result line, with each metric reduced to its value.

    perfbench puts the tree's src on PYTHONPATH and runs its children on
    one thread, as child_env does.
    """
    argv = ["perfbench/run.py", "--workload", name, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    result = json.loads(run_child(tree, argv).splitlines()[-1])
    result["metrics"] = {metric: entry["value"] for metric, entry in result["metrics"].items()}
    return result


def bench_workload(name: str, trees: dict[str, Path], pairs: int, seconds: float, seed: int) -> dict:
    runs: dict[str, list[dict]] = {label: [] for label in trees}
    for i in range(pairs):
        for label, tree in ordered(trees, i):
            result = perfbench(tree, name, seed + i, seconds, trace=0)
            metrics = {m: result["metrics"][m] for m in METRICS}
            runs[label].append({"seed": seed + i, "correct": result["correct"],
                                "attempted": result["attempted"], "failed": result["failed"], **metrics})
            print(f"{name} pair {i} {label}: {metrics}", file=sys.stderr)
    traced = {label: perfbench(tree, name, seed, seconds, trace=1) for label, tree in trees.items()}
    out: dict = {
        "seeds": [seed + i for i in range(pairs)],
        "runs": runs,
        "metrics": {},
        "layers_traced": {
            "correct": {label: result["correct"] for label, result in traced.items()},
            "metrics": {
                metric: {label: result["metrics"][metric] for label, result in traced.items()}
                for metric in traced["change"]["metrics"]
            },
        },
    }
    for metric in METRICS:
        entry = {label: summary([run[metric] for run in runs[label]]) for label in trees}
        if "against" in trees:
            change, against = entry["change"]["median"], entry["against"]["median"]
            entry["relative_change"] = (change - against) / against
            entry["pairs_lower"] = sum(
                a[metric] > c[metric] for c, a in zip(runs["change"], runs["against"])
            )
        out["metrics"][metric] = entry
    return out


def bench_cli(trees: dict[str, Path], names: list[str], runs: int) -> dict:
    results: dict[str, dict[str, list[tuple[float, float]]]] = {
        name: {label: [] for label in trees} for name in names}
    for i in range(runs):
        for name in names:
            for label, tree in ordered(trees, i):
                results[name][label].append(run_cli(tree, CLI[name]))
    return {
        name: {label: {"min_s": min(w for w, _ in r), "median_s": statistics.median(w for w, _ in r),
                       "peak_rss_mb": statistics.median(m for _, m in r), "runs": len(r)}
               for label, r in by_tree.items()}
        for name, by_tree in results.items()
    }


def bench_layers(trees: dict[str, Path], names: list[str], repeats: int) -> dict:
    times: dict[str, dict[str, list[float]]] = {label: {name: [] for name in names} for label in trees}
    for i in range(repeats):
        for label, tree in ordered(trees, i):
            batch = json.loads(run_child(tree, ["-c", LAYER_CODE, ",".join(names)]))
            for name in names:
                times[label][name].append(batch[name])
    return {
        name: {label: {"best_s": min(times[label][name]), "median_s": statistics.median(times[label][name])}
               for label in trees}
        for name in names
    }


def metadata(trees: dict[str, Path]) -> dict:
    meta = {"cpu_count": os.cpu_count(), "machine": platform.machine(), "cpu_pinning": "none"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            meta["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    meta.update(json.loads(run_child(REPO, ["-c", METADATA_CODE])))
    # the commit this tree was checked out at, and whether its files differ from it
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=REPO, capture_output=True, text=True)
        meta["change_base_commit"] = head.stdout.strip() or None
        meta["change_uncommitted_edits"] = bool(status.stdout.strip())
    except OSError:
        meta["change_base_commit"] = meta["change_uncommitted_edits"] = None
    meta["trees"] = {label: tree.name for label, tree in trees.items()}
    return meta


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--against", default=None, help="root of another qlinksim tree to pair with")
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="repeatable; default all")
    parser.add_argument("--pairs", type=int, default=10, help="perfbench runs per tree and workload")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="perfbench --seconds per run; 36 is BENCHMARK.json's run_seconds")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--cli", action="append", choices=sorted(CLI), help="repeatable; default all")
    parser.add_argument("--cli-runs", type=int, default=9)
    parser.add_argument("--layer", action="append", choices=LAYERS, help="repeatable; default all")
    parser.add_argument("--layer-repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if min(args.pairs, args.cli_runs, args.layer_repeats) < 1:
        parser.error("--pairs, --cli-runs and --layer-repeats must be >= 1")

    trees = {"change": REPO}
    if args.against is not None:
        against = Path(args.against).resolve()
        if not (against / "perfbench" / "run.py").is_file():
            parser.error(f"--against is not a qlinksim tree with perfbench/: {args.against}")
        trees["against"] = against
    report = {
        "metadata": metadata(trees),
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                     "cli_runs": args.cli_runs, "layer_repeats": args.layer_repeats},
        "workloads": {
            name: bench_workload(name, trees, args.pairs, args.seconds, args.seed)
            for name in args.workload or WORKLOADS
        },
        "cli": bench_cli(trees, args.cli or list(CLI), args.cli_runs),
        "layers": bench_layers(trees, args.layer or list(LAYERS), args.layer_repeats),
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
