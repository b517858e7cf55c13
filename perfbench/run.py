"""Benchmark for qlinksim: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload rate-sweeps --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is taken from ``src``
without installing it.  Workloads: ``rate-sweeps``, ``calibration-scan``
and ``gas-spectrum`` (see workloads.py and README.md).

With ``--trace 0`` the run repeats rounds of three measurements, so that
each samples the same mix of the host's fast and slow spells:

* ``setup_s``: fresh interpreters, three a round, import ``qlinksim`` and
  load the workload's configs; the median over all of them;
* ``cli_s``: each of the workload's command lines, a subprocess writing
  into a scratch directory; the sum over command lines of each one's
  median wall time;
* ``pass_s``: warm in-process passes in one long-lived worker process, for
  as long as the round's command lines took; the median over all passes.
  ``peak_rss_mb`` is that worker's peak resident memory, read after the
  last round and before the checks run.

Every time is scaled to the host's reference speed by a reference kernel
timed before each sample (host.py), because this host's speed drifts more
between runs than any bound allows.

With ``--trace 1`` a worker repeats rounds of one traced pass plus every
command line in-process, and the run reports the per-layer metrics.  Both
modes check the outputs (checks.py).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the same object and,
when traced, the spans of the first round are kept under ``.perfbench/``.
Every child process runs single-threaded and is waited for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from host import Samples, speed  # noqa: E402

MIN_ROUNDS = 3
SETUP_PER_ROUND = 3  # interpreter start is the noisiest sample; take more of it
COMMAND_TIMEOUT_S = 90
WORKER_SLACK_S = 90
REQUIRED = ("src/qlinksim/__init__.py", "scripts/calibrate_defaults.py", "tests/oracle_p676.py", "configs/default.ini")
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    env["TMPDIR"] = str(work)  # keeps the pool's scratch files inside the checkout
    return env


class Run:
    def __init__(self, wl: workloads.Workload, work: Path) -> None:
        self.wl = wl
        self.work = work
        self.env = child_env(work)
        self.attempted = 0
        self.failed = 0
        self.raw: dict[str, float] = {}

    def _spawn(self, samples: Samples, argv: list[str], **kwargs) -> subprocess.CompletedProcess | None:
        """Run one child to its end, timed into samples; count it, and its failure.

        Callers pipe the child's stderr: subprocess.run then waits for the
        pipe to close, where a bare timed wait would poll in steps of up to
        50 ms and round every wall time to that step.
        """
        self.attempted += 1
        try:
            proc = samples.time(subprocess.run, argv, cwd=ROOT, env=self.env, timeout=COMMAND_TIMEOUT_S, **kwargs)
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            self.failed += 1
            print(f"timed out: {argv}", file=sys.stderr)
            return None
        if proc.returncode != 0:
            self.failed += 1
            print(f"exit {proc.returncode}: {argv}\n{proc.stderr}", file=sys.stderr)
            return None
        return proc

    def setup(self, samples: Samples) -> None:
        """One fresh interpreter that imports qlinksim and loads the configs."""
        lines = ["import qlinksim", "from qlinksim.config import load_config"]
        lines += [f"load_config({path!r}, {list(overrides)!r})" for path, overrides in self.wl.configs]
        self._spawn(samples, [sys.executable, "-c", "\n".join(lines)], stderr=subprocess.PIPE, text=True)

    def command(self, cmd: workloads.Command, samples: Samples) -> None:
        out = self.work / f"{cmd.name}.out"
        out.unlink(missing_ok=True)
        if cmd.script is None:
            argv = [sys.executable, "-m", "qlinksim", *cmd.argv, "--out", str(out)]
            proc = self._spawn(samples, argv, stderr=subprocess.PIPE, text=True)
        else:
            argv = [sys.executable, cmd.script]
            proc = self._spawn(samples, argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if proc is not None:
                out.write_text(proc.stdout, encoding="utf-8")
        if proc is None:
            out.unlink(missing_ok=True)

    def worker_argv(self, *extra: str) -> list[str]:
        return [
            sys.executable, str(HERE / "worker.py"), "--workload", self.wl.name, "--seed", str(self.wl.seed),
            "--work", str(self.work), *extra,
        ]

    def finish(self, report: dict) -> dict:
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        return report

    def traced(self, seconds: float, trace_file: Path) -> tuple[dict, list[str]]:
        proc = subprocess.run(
            self.worker_argv("--trace-seconds", repr(seconds), "--trace-file", str(trace_file)), cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, text=True, timeout=seconds + WORKER_SLACK_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
        report = self.finish(json.loads(proc.stdout.splitlines()[-1]))
        return report["layers"], report["failures"]

    def untraced(self, seconds: float) -> tuple[dict, list[str]]:
        """Rounds of one set-up, every command line and a slice of passes.

        Interleaving gives every metric the same mix of the host's fast and
        slow spells over the whole run.  The pass slice lasts as long as the
        round's command lines did, so passes and command lines share the time.
        """
        worker = subprocess.Popen(
            self.worker_argv(), cwd=ROOT, env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

        def ask(request: str):
            worker.stdin.write(request + "\n")
            worker.stdin.flush()
            return json.loads(worker.stdout.readline())

        try:
            json.loads(worker.stdout.readline())  # warm-up done
            setup, passes = Samples(), Samples()
            walls = {cmd.name: Samples() for cmd in self.wl.commands}
            deadline = perf_counter() + seconds
            rounds = 0
            while rounds < MIN_ROUNDS or perf_counter() < deadline:
                for _ in range(SETUP_PER_ROUND):
                    self.setup(setup)
                for cmd in self.wl.commands:
                    self.command(cmd, walls[cmd.name])
                passes.extend(ask(f"pass {sum(samples.last() for samples in walls.values())!r}"))
                rounds += 1
            report = self.finish(ask("done"))
            worker.stdin.close()
            worker.wait(timeout=WORKER_SLACK_S)
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
        # pass_s is null if every pass failed; a failed command line is still timed.
        self.raw = {
            "setup_s": setup.raw_median(),
            "cli_s": sum(samples.raw_median() for samples in walls.values()),
            "pass_s": passes.raw_median(),
        }
        factor = speed([setup, *walls.values()])
        metrics = {
            "setup_s": (self.raw["setup_s"] * factor, "s"),
            "cli_s": (self.raw["cli_s"] * factor, "s"),
            "pass_s": (passes.scaled_median(), "s"),
        }
        metrics["peak_rss_mb"] = (report["peak_rss_mb"], "MB")
        return metrics, report["failures"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"not a qlinksim checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    results = ROOT / ".perfbench"
    work = results / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = Run(workloads.build(args.workload, args.seed), work)
    try:
        if args.trace:
            metrics, failures = run.traced(args.seconds, results / f"spans-{stem}.jsonl")
        else:
            metrics, failures = run.untraced(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    saved = dict(result, unscaled_medians=run.raw) if run.raw else result
    (results / f"result-{stem}.json").write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
