"""Write the fixed matrix of CLI reports to OUTDIR, or compare two of them.

One JSON report per (command, seed), without the run's ``wall_time_s``, and
``exit_codes.txt`` with every exit status. Two checkouts report the same
numbers when ``diff -r`` of their OUTDIRs is empty. Run from the repository
root:

    PYTHONPATH=src python3 scripts/report_matrix.py OUTDIR

Given two OUTDIRs written that way, it prints one line per report entry that
differs (file, check id, residual or count before -> after, both pass flags;
"-" for an entry on one side only), then every exit status that differs:

    PYTHONPATH=src python3 scripts/report_matrix.py OLD NEW
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


def _entries(outdir: pathlib.Path) -> dict:
    """(file, check id) -> report entry, over every report in outdir."""
    return {
        (f.name, c["id"]): c
        for f in sorted(outdir.glob("*.json"))
        for c in json.loads(f.read_text())["checks"]
    }


def _exit_codes(outdir: pathlib.Path) -> dict:
    """'command seed=S' -> exit status, from outdir's exit_codes.txt."""
    lines = (outdir / "exit_codes.txt").read_text().splitlines()
    return dict(line.rsplit(" ", 1) for line in lines)


def _shown(c: dict | None) -> str:
    if c is None:
        return "-"
    return f"{c['residual']:.3e}" if "residual" in c else str(c["count"])


def compare(old: pathlib.Path, new: pathlib.Path) -> None:
    """Print the entries and exit statuses that differ between two OUTDIRs."""
    a, b = _entries(old), _entries(new)
    for key in [*a, *(k for k in b if k not in a)]:
        ca, cb = a.get(key), b.get(key)
        if ca != cb:
            flags = " -> ".join("-" if c is None else str(c["pass"]) for c in (ca, cb))
            print(f"{key[0]} {key[1]}: {_shown(ca)} -> {_shown(cb)} pass {flags}")
    ea, eb = _exit_codes(old), _exit_codes(new)
    for run in [*ea, *(r for r in eb if r not in ea)]:
        if ea.get(run) != eb.get(run):
            print(f"{run}: {ea.get(run, '-')} -> {eb.get(run, '-')}")


if __name__ == "__main__":
    if len(sys.argv) == 3:
        compare(pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2]))
        sys.exit()
    if len(sys.argv) != 2:
        sys.exit("usage: report_matrix.py OUTDIR | report_matrix.py OLD NEW")
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
