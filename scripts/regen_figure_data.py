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
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from qlinksim.cli import main as cli_main
from qlinksim.sweeps import SCENARIOS


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
        code = cli_main([scenario, "--config", str(config), "--out", str(out)])
        if code != 0:
            print(f"{scenario} failed with exit code {code}", file=sys.stderr)
            return code
        print(f"wrote {out.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
