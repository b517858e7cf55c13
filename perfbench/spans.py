"""Spans around the package's public functions, recorded from outside.

``install`` replaces each traced function with a wrapper wherever the
package looks it up: its defining module or class, and every ``qlinksim``
module that bound the same object at import.  A wrapper appends one span
(name, start, end, parent, amount) to an in-memory list; nothing is
written until the run ends.  Calls made in pool worker processes are not
seen.  ``mathfn`` is not wrapped: its functions take about as long as a
wrapper does.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, attribute, amount recorded per call, whether .self_s is reported)
TARGETS = (
    ("cli", "main", None, True),
    ("config", "load_config", None, False),
    ("sweeps", "run_scenario", None, True),
    ("sweeps", "render_csv", ("bytes", lambda result: len(result.encode())), False),
    ("sweeps", "max_secure_altitude", ("probes", lambda result: result.iterations), True),
    ("fso", "FsoChannelParams.at_altitude", None, False),
    ("dvqkd", "finite_key_rate", None, False),
    ("cvqkd", "composable_key_rate", None, True),
    ("cvqkd", "holevo_bound", None, False),
    ("atmosphere", "slant_attenuation_spectrum", ("points", len), False),
    ("atmosphere", "thermal_photon_number", None, False),
)

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "bytes": "bytes", "probes": "count", "points": "count"}

NAME, START, END, PARENT, AMOUNT = range(5)


def layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric the tracer yields."""
    names = []
    for module, attr, amount, with_self in TARGETS:
        kinds = ["calls", "busy_s"] + (["self_s"] if with_self else []) + ([amount[0]] if amount else [])
        names += [(f"{module}.{attr}.{kind}", UNITS[kind]) for kind in kinds]
    return names


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, amount):
        spans, open_ = self.spans, self._open
        measure = amount[1] if amount else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, 0]
            open_.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                open_.pop()
            if measure is not None:
                span[AMOUNT] = measure(result)
            return result

        return wrapper

    def install(self) -> None:
        for module, *_ in TARGETS:
            importlib.import_module(f"qlinksim.{module}")
        packages = [m for n, m in list(sys.modules.items()) if n == "qlinksim" or n.startswith("qlinksim.")]
        for module, attr, amount, _ in TARGETS:
            owner = sys.modules[f"qlinksim.{module}"]
            cls, _, attr_name = attr.rpartition(".")
            if cls:
                owner = getattr(owner, cls)
            original = vars(owner)[attr_name]
            wrapper = self._wrap(f"{module}.{attr}", original, amount)
            holders = [owner] if cls else [m for m in packages if vars(m).get(attr_name) is original]
            for holder in holders:
                self._undo.append((holder, attr_name, original))
                setattr(holder, attr_name, wrapper)

    def uninstall(self) -> None:
        for holder, attr_name, original in reversed(self._undo):
            setattr(holder, attr_name, original)
        self._undo.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans

    @staticmethod
    def aggregate(spans: list[list]) -> dict[str, float]:
        """Per-layer calls, busy time, self time and amounts over these spans."""
        child_s = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        totals = {name: 0.0 for name, _ in layer_metric_names()}
        for i, span in enumerate(spans):
            name = span[NAME]
            busy = span[END] - span[START]
            totals[f"{name}.calls"] += 1
            totals[f"{name}.busy_s"] += busy
            if f"{name}.self_s" in totals:
                totals[f"{name}.self_s"] += busy - child_s[i]
            for kind in ("bytes", "probes", "points"):
                if f"{name}.{kind}" in totals:
                    totals[f"{name}.{kind}"] += span[AMOUNT]
        return totals
