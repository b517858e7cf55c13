"""Timed samples, scaled by the host's speed at the time they were taken.

The reference host (a 2-core KVM guest) changes speed over seconds to
minutes: a fixed pure-Python loop ran at anywhere from 2.7 to 5.9 million
iterations per second within 90 s, and set-up, command line and pass times
all rose and fell together across runs.  So every timed sample is paired
with the time ``r`` of a fixed reference kernel, measured just before the
sample, and reported times are scaled by ``REFERENCE_S / r``: they read as
the wall time on the host running the kernel in ``REFERENCE_S``.

Two rules, by where the sample ran:

* a sample timed in the process that ran the kernel (a warm pass) is
  scaled by its own ``r`` (``scaled_median``);
* a sample timed around a child process is scaled by the median ``r`` over
  the run (``speed``).  One kernel time says little about the child that
  follows it: within 40 s the kernel spread from 8 to 15 ms, and it
  correlated only 0.14-0.27 with the wall time of the next child.

The kernel is benchmark code, so no change to the program moves it; the
unscaled medians are kept next to each result under ``.perfbench/``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# the kernel's time on the reference host in one of its fast spells
REFERENCE_S = 0.006


def reference_time() -> float:
    start = perf_counter()
    acc = 0.0
    for i in range(1, 60001):
        acc += (i % 7) * 0.5 / i
    return perf_counter() - start


class Samples:
    """Wall times, each with the reference time taken just before it."""

    def __init__(self) -> None:
        self.pairs: list[tuple[float, float]] = []

    def time(self, fn, *args, **kwargs):
        """Call fn once, timed; return its result."""
        ref = reference_time()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.pairs.append((perf_counter() - start, ref))

    def extend(self, pairs) -> None:
        self.pairs += [tuple(pair) for pair in pairs]

    def last(self) -> float:
        return self.pairs[-1][0]

    def raw_median(self) -> float | None:
        """Median of the samples as measured; None without samples."""
        return statistics.median(elapsed for elapsed, _ in self.pairs) if self.pairs else None

    def scaled_median(self) -> float | None:
        """Median of the samples, each scaled by its own reference time; None without samples."""
        return statistics.median(elapsed * REFERENCE_S / ref for elapsed, ref in self.pairs) if self.pairs else None


def speed(groups) -> float:
    """REFERENCE_S over the median reference time of these samples: scales a run's child-process times."""
    return REFERENCE_S / statistics.median(ref for samples in groups for _, ref in samples.pairs)
