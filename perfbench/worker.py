"""The process that runs one workload's passes, then checks the outputs.

Untraced, it times warm passes in slices that run.py requests between its
other measurements, and reads its own peak resident memory before the
checks run.  Traced, it installs
the span wrappers and repeats rounds of one pass plus every command line
of the workload, run in-process through ``cli.main`` (or the script,
through ``runpy``), and reports per-layer metrics.  Either way it prints
one JSON object as its last line of standard output.

Run by run.py with ``src`` on PYTHONPATH and the checkout as working
directory; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import runpy
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from host import Samples

ROOT = Path(__file__).resolve().parent.parent
MIN_TRACED_ROUNDS = 2


def command_metric(name: str) -> str:
    return f"cli.{name}.wall_s"


def all_command_names() -> list[str]:
    return [cmd.name for build in workloads.WORKLOADS.values() for cmd in build(0).commands]


def read_cli_outputs(wl: workloads.Workload, work: Path) -> dict:
    """Each command's output file, or None where the command failed."""
    paths = {cmd.name: work / f"{cmd.name}.out" for cmd in wl.commands}
    return {name: path.read_text(encoding="utf-8") if path.exists() else None for name, path in paths.items()}


class Counter:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args):
        """Run one operation; on an exception, count it failed and return None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # an operation of the program under test failed; keep measuring
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def run_command_in_process(cmd: workloads.Command, work: Path) -> None:
    """One command line, in this process; raises if it does not exit 0."""
    from qlinksim import cli

    path = work / f"{cmd.name}.out"
    path.unlink(missing_ok=True)
    if cmd.script is None:
        code = cli.main([*cmd.argv, "--out", str(path)])
    else:
        buf, saved_path = io.StringIO(), sys.path[:]
        try:
            with contextlib.redirect_stdout(buf):
                runpy.run_path(str(ROOT / cmd.script), run_name="__main__")
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
        finally:
            sys.path[:] = saved_path
        if code == 0:
            path.write_text(buf.getvalue(), encoding="utf-8")
    if code != 0:
        path.unlink(missing_ok=True)
        raise RuntimeError(f"{cmd.name} exited {code}")


def untraced(wl, cfgs, counter: Counter):
    """Answer requests from run.py on stdin, one JSON line each.

    ``pass S``: warm passes for at least S seconds (at least one); replies
    with their wall times, each paired with the reference time before it.  ``done``: replies with the peak resident memory,
    read before the checks run, and ends the loop.
    """
    out = counter.attempt(wl.run_pass, cfgs)  # warm-up: builds the lazy tables
    print(json.dumps("ready"), flush=True)
    for line in sys.stdin:
        request = line.split()
        if request[0] == "done":
            break
        samples = Samples()
        deadline = perf_counter() + float(request[1])
        while True:
            result = samples.time(counter.attempt, wl.run_pass, cfgs)
            if result is None:
                samples.pairs.pop()
                break
            out = result
            if perf_counter() >= deadline:
                break
        print(json.dumps(samples.pairs), flush=True)
    # ru_maxrss is in KiB on Linux
    return out, {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def traced(wl, cfgs, seconds: float, counter: Counter, work: Path, trace_path: Path):
    from spans import Tracer, layer_metric_names

    out = counter.attempt(wl.run_pass, cfgs)  # warm-up, untraced
    tracer = Tracer()
    tracer.install()
    rounds: list[dict[str, float]] = []
    first_spans = None
    deadline = perf_counter() + seconds
    try:
        while len(rounds) < MIN_TRACED_ROUNDS or perf_counter() < deadline:
            start = perf_counter()
            result = counter.attempt(wl.run_pass, cfgs)
            metrics = {"pass.traced_s": perf_counter() - start}
            out = result if result is not None else out
            for cmd in wl.commands:
                start = perf_counter()
                counter.attempt(run_command_in_process, cmd, work)
                metrics[command_metric(cmd.name)] = perf_counter() - start
            spans = tracer.take()
            first_spans = first_spans if first_spans is not None else spans
            metrics.update(Tracer.aggregate(spans))
            rounds.append(metrics)
    finally:
        tracer.uninstall()
    with open(trace_path, "w", encoding="utf-8") as handle:
        for name, start, end, parent, amount in first_spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "amount": amount}) + "\n")
    layers = {}
    for name, unit in layer_metric_names():
        layers[name] = (statistics.median(r[name] for r in rounds), unit)
    for name in all_command_names():
        key = command_metric(name)
        layers[key] = (statistics.median(r[key] for r in rounds) if key in rounds[0] else 0.0, "s")
    layers["pass.traced_s"] = (statistics.median(r["pass.traced_s"] for r in rounds), "s")
    return out, {"layers": layers, "rounds": len(rounds)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True, help="directory holding the command-line outputs")
    parser.add_argument("--trace-seconds", type=float, help="run traced, for this long")
    parser.add_argument("--trace-file", type=Path, help="where a traced run writes its first round's spans")
    args = parser.parse_args()

    wl = workloads.build(args.workload, args.seed)
    counter = Counter()
    cfgs = counter.attempt(workloads.load_configs, wl)  # a pass that needs them then fails too
    if args.trace_seconds is not None:
        out, report = traced(wl, cfgs, args.trace_seconds, counter, args.work, args.trace_file)
    else:
        out, report = untraced(wl, cfgs, counter)

    import checks

    failures = checks.run(wl, out, read_cli_outputs(wl, args.work)) if out is not None else ["no pass completed"]
    report.update(attempted=counter.attempted, failed=counter.failed, failures=failures)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
