"""Regenerate the named figure data tables from their checked-in configs.

Name the scenarios whose tables should be rewritten:

    python3 scripts/regen_figure_data.py dv-sweep cv-sweep

Each scenario with a golden table in `qlinksim.sweeps.SCENARIOS` writes
data/<golden>.csv from configs/<golden>.ini, the same as the CLI command
documented in that config, for example

    qlinksim dv-sweep --config configs/fig2_dv_rates.ini --out data/fig2_dv_rates.csv

Output is deterministic: re-running on the same machine writes
byte-identical files.  Another machine's C math library can round
`log2`/`expm1` differently in the last bit, so rewriting every table
there would change rows whose model did not change; after a kernel
change, name only the tables that kernel feeds.  With no name, or with
any name that has no table, the script lists the valid names, writes
nothing and exits 2.

For each table it rewrites, the script prints to stderr the largest
relative change of every numeric column against the file it replaced,
with the line where that change occurs, so the deviation of a
regenerated golden is read from here.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from qlinksim.cli import main as cli_main
from qlinksim.sweeps import SCENARIOS


def _table(text: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Column names and (line number, fields) of each row of a CSV table."""
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if not line.startswith("#")]
    return lines[0][1].split(","), [(n, line.split(",")) for n, line in lines[1:]]


def _report_changes(name: str, old: str | None, new: str) -> None:
    """Print the largest relative change per numeric column of new against old."""
    if not old:
        print(f"{name}: no earlier table to compare with", file=sys.stderr)
        return
    (old_columns, old_rows), (columns, rows) = _table(old), _table(new)
    if old_columns != columns or len(old_rows) != len(rows):
        print(f"{name}: columns or row count changed, no per-column comparison", file=sys.stderr)
        return
    print(f"{name}: largest relative change per column", file=sys.stderr)
    for k, column in enumerate(columns):
        worst, where = 0.0, ""
        try:
            for (_, before), (line, after) in zip(old_rows, rows):
                a, b = float(before[k]), float(after[k])
                if a != b:
                    change = abs(b - a) / abs(a) if a else math.inf
                    if change > worst:
                        worst, where = change, f" at line {line}: {','.join(after)}"
        except ValueError:
            continue  # not a numeric column
        print(f"  {column}: {worst:.3g}{where}", file=sys.stderr)


def main() -> int:
    names = sys.argv[1:]
    tables = {name: s.golden for name, s in SCENARIOS.items() if s.golden is not None}
    unknown = [name for name in names if name not in tables]
    if not names or unknown:
        if unknown:
            print(f"no figure table for: {' '.join(unknown)}", file=sys.stderr)
        print("usage: regen_figure_data.py SCENARIO [SCENARIO ...]", file=sys.stderr)
        print(f"scenarios with a figure table: {' '.join(tables)}", file=sys.stderr)
        return 2
    out_dir = REPO / "data"
    out_dir.mkdir(exist_ok=True)
    for scenario in names:
        stem = tables[scenario]
        config = REPO / "configs" / f"{stem}.ini"
        out = out_dir / f"{stem}.csv"
        old = out.read_text(encoding="utf-8") if out.exists() else None
        code = cli_main([scenario, "--config", str(config), "--out", str(out)])
        if code != 0:
            print(f"{scenario} failed with exit code {code}", file=sys.stderr)
            return code
        print(f"wrote {out.relative_to(REPO)}")
        _report_changes(str(out.relative_to(REPO)), old, out.read_text(encoding="utf-8"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
