"""Run every bundled config, plus ``orders`` on the solve configs, into one directory.

Usage: ``PYTHONPATH=src python scripts/bundled_outputs.py OUT_DIR``

Each command writes its output files into ``OUT_DIR`` and its console output
to ``OUT_DIR/<config>-<command>.stdout``.  The package is imported from
``PYTHONPATH``, so pointing it at another checkout's ``src`` runs that
checkout's code and configs; ``diff -r`` of two such directories shows
whether a change alters any bundled output.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from phasestop import cli

RUNS = [
    ("fig3a", "solve"), ("fig3b", "solve"), ("fig3c", "solve"), ("fig3d", "solve"),
    ("fig4a", "solve"), ("fig4c", "solve"), ("blackwell", "solve"),
    ("social_optimum", "solve"), ("fig5", "sweep"), ("fig6", "sweep"),
    ("ph_example", "phdist"),
]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    runs = RUNS + [(name, "orders") for name, command in RUNS if command == "solve"]
    failed = 0
    for name, command in runs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([command, "--config", name, "--out", str(out)])
        (out / f"{name}-{command}.stdout").write_text(buf.getvalue())
        if code != 0:
            print(f"{command} {name}: exit {code}", file=sys.stderr)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
