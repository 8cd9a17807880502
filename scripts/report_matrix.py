"""Write the fixed matrix of CLI reports to OUTDIR, or compare two of them.

One JSON report per (command, seed), without the run's ``wall_time_s``; the
``tau probe`` document at one fixed point per chain level 0, 1 and 2, so the
tau values themselves are pinned and not only the residuals; and
``exit_codes.txt`` with every exit status. Two checkouts report the same
numbers when ``diff -r`` of their OUTDIRs is empty. Run from the repository
root:

    PYTHONPATH=src python3 scripts/report_matrix.py OUTDIR

Given two OUTDIRs written that way, it prints one line per report entry that
differs (file, check id, residual, count or probe value before -> after, both
pass flags; "-" for an entry or flag on one side only), then every exit
status that differs:

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
# Points drawn once with sample_on_level(make_rng(100 + n), (0.03, 0.45), n),
# the chain's bases, and frozen here as the probe's --x text.
PROBES = {
    0: "0.21938227700170332,0.14087463758765426 0.45235364300829384,0.13914366671815756"
    " -0.37675966528826721,0.13573127191624307 -0.31714734946929746,0.1331716222622108"
    " 0.18110752174447464,0.14625831739065134 0.35885988486130316,0.14651712271557413"
    " 0.41736879675031024,0.14107331392252867 -0.93516510860852053,0.1334020926797761",
    1: "-0.28432240081853999,0.17469268736316218 0.16739363290441223,0.1686947455329004"
    " 0.29248203768344805,0.17586487415077107 0.11361492292728126,0.17740500356737363"
    " -0.45182721862632969,0.17541015334553503 0.13775684318361037,0.16809214545802392"
    " 0.34941403065041421,0.17384319218821756 -0.32451184790429644,0.15634213748677217",
    2: "-0.32831561242738827,0.20981799656860756 -0.25900176597080737,0.19962838115881543"
    " -0.085169246736940707,0.19663897543726233 0.19121469787619605,0.20783337755561956"
    " -0.4818531923400311,0.20411112358331646 -0.13449855251134724,0.20113598185462733"
    " 0.3650497119040278,0.20991718433055379 0.73257396020629073,0.19543481250391292",
}


def _entries(outdir: pathlib.Path) -> dict:
    """(file, check id) -> report entry, over every report in outdir; a probe
    document is one entry with id "value"."""
    out = {}
    for f in sorted(outdir.glob("*.json")):
        doc = json.loads(f.read_text())
        for c in doc.get("checks", [{"id": "value", **doc}]):
            out[f.name, c["id"]] = c
    return out


def _exit_codes(outdir: pathlib.Path) -> dict:
    """'command seed=S' -> exit status, from outdir's exit_codes.txt."""
    lines = (outdir / "exit_codes.txt").read_text().splitlines()
    return dict(line.rsplit(" ", 1) for line in lines)


def _shown(c: dict | None) -> str:
    if c is None:
        return "-"
    if "residual" in c:
        return f"{c['residual']:.3e}"
    return str(c["count"]) if "count" in c else repr(complex(*c["value"]))


def compare(old: pathlib.Path, new: pathlib.Path) -> None:
    """Print the entries and exit statuses that differ between two OUTDIRs."""
    a, b = _entries(old), _entries(new)
    for key in [*a, *(k for k in b if k not in a)]:
        ca, cb = a.get(key), b.get(key)
        if ca != cb:
            flags = " -> ".join(str((c or {}).get("pass", "-")) for c in (ca, cb))
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
    runs = [(f"{name}-seed{seed}", f"{name} seed={seed}", [*argv, "--seed", str(seed)])
            for name, argv in COMMANDS.items() for seed in SEEDS]
    runs += [(f"tau-probe-{n}", f"tau-probe-{n}", ["tau", "probe", "--x", x]) for n, x in PROBES.items()]
    codes = []
    for stem, label, argv in runs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main([*argv, "--json", "-"])
        if buf.getvalue():  # a failed probe writes nothing; its exit status still counts
            report = json.loads(buf.getvalue())
            report.pop("wall_time_s", None)
            (out / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        codes.append(f"{label} exit={rc}\n")
    (out / "exit_codes.txt").write_text("".join(codes))
