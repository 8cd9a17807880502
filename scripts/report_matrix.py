"""Write the fixed matrix of CLI reports to OUTDIR.

One JSON report per (command, seed), without the run's ``wall_time_s``, and
``exit_codes.txt`` with every exit status. Two checkouts report the same
numbers when ``diff -r`` of their OUTDIRs is empty. Run from the repository
root:

    PYTHONPATH=src python3 scripts/report_matrix.py OUTDIR
"""
from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

from e8tau import cli

SEEDS = (1, 2, 3, 1729)
COMMANDS = {
    "suite-all": ["suite", "all"],
    "suite-hirota-break-tau": ["suite", "hirota", "--break-tau"],
    **{f"verify-{v}": ["verify", v] for v in ("bailey", "contiguity", "transform-in", "terminating")},
    **{f"tau-build-{n}": ["tau", "build", "--n", str(n)] for n in (1, 2, 3)},
    "frames": ["frames"],
    "picard-check": ["picard", "check"],
}

if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: report_matrix.py OUTDIR")
    out = pathlib.Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    codes = []
    for name, argv in COMMANDS.items():
        for seed in SEEDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main([*argv, "--seed", str(seed), "--json", "-"])
            report = json.loads(buf.getvalue())
            del report["wall_time_s"]
            (out / f"{name}-seed{seed}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
            codes.append(f"{name} seed={seed} exit={rc}\n")
    (out / "exit_codes.txt").write_text("".join(codes))
