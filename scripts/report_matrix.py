"""Write the fixed matrix of CLI reports to OUTDIR, or compare two of them.

One JSON report per (command, seed), without the run's ``wall_time_s``; the
``tau probe`` document at one fixed point per chain level 0, 1 and 2, so the
tau values themselves are pinned and not only the residuals; the level-1
probe moved along its level to two points where the chain gauge leaves the
float range; two probes the level check refuses; and ``exit_codes.txt``
with every exit status and the first line the run wrote to stderr, so a
change in which error a run ends in shows. Two checkouts report the same
numbers when ``diff -r`` of their OUTDIRs is empty. Run from the repository
root:

    PYTHONPATH=src python3 scripts/report_matrix.py OUTDIR

Given two OUTDIRs written that way, it prints one line per report entry that
differs (file, check id, residual, count or probe value before -> after, a
degenerate residual named so, both pass flags; "-" for an entry or flag on
one side only), then every exit
status or first stderr line that differs, then one summary line: how many
entries moved, and the largest move |after - before| among the residual
rows that pass on both sides (a residual is already relative), with its
file and check id, so a change at rounding level shows its scale:

    PYTHONPATH=src python3 scripts/report_matrix.py OLD NEW

It exits 1 when some pass flag, exit status or first stderr line differs, an
entry on one side only included, and 0 when the two agree on all of them,
whatever values moved.
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
# PROBES[1] moved by x_0 + r, x_1 - r, on the same level: Im Q(x) falls with
# r, and at r = 5 and 50 the chain gauge p^C(n,2) e(-n Q(x)) is below the
# normal float range, so the probe ends in a typed error.
SHIFTS = (5, 50)


def _shifted(text: str, r: float) -> str:
    """The point of text (the probe's --x) with x_0 + r and x_1 - r."""
    z = [complex(*map(float, t.split(","))) for t in text.split()]
    z[0] += r
    z[1] -= r
    return " ".join(f"{c.real!r},{c.imag!r}" for c in z)


# The two level-check failures. A dyadic point off every chain hyperplane: its
# pairing is exact whatever the summation order, so the message is too. And a
# level-3 point drawn as PROBES are, probed at --n 3, outside the chain's
# levels [-8, 2] at the default depth.
OFF_LEVEL = "0.5 0.25 -0.125 0.0625 0 0.375 0 -0.75"
LEVEL3 = (
    "0.12504824643581758,0.23036666151901514 0.0092294330244132583,0.23846837064320728"
    " 0.2131551378572224,0.2424657436826321 -0.023280188473661867,0.23226497139487776"
    " 0.37494176030803084,0.23299579397594869 -0.37556805938929894,0.23800579591300589"
    " 0.066822365052406352,0.23416347160909992 -0.39034869481492962,0.22995991815488837"
)


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
    """'command seed=S' -> 'exit=N' and the run's first stderr line, from
    outdir's exit_codes.txt (tab-separated)."""
    lines = (outdir / "exit_codes.txt").read_text().splitlines()
    return dict(line.split("\t", 1) for line in lines)


def _shown(c: dict | None) -> str:
    if c is None:
        return "-"
    if "residual" in c:
        return f"{c['residual']:.3e}" + (" degenerate" if c.get("degenerate") else "")
    return str(c["count"]) if "count" in c else repr(complex(*c["value"]))


def compare(old: pathlib.Path, new: pathlib.Path) -> bool:
    """Print the entries and exit statuses that differ between two OUTDIRs;
    True when some pass flag or exit status differs."""
    a, b = _entries(old), _entries(new)
    verdict_moved = False
    moved, largest = 0, (0.0, "none")
    for key in [*a, *(k for k in b if k not in a)]:
        ca, cb = a.get(key), b.get(key)
        if ca != cb:
            moved += 1
            flags = [str((c or {}).get("pass", "-")) for c in (ca, cb)]
            verdict_moved |= flags[0] != flags[1]
            print(f"{key[0]} {key[1]}: {_shown(ca)} -> {_shown(cb)} pass {' -> '.join(flags)}")
            if flags == ["True", "True"] and "residual" in ca and "residual" in cb:
                largest = max(largest, (abs(cb["residual"] - ca["residual"]), f"{key[0]} {key[1]}"))
    ea, eb = _exit_codes(old), _exit_codes(new)
    for run in [*ea, *(r for r in eb if r not in ea)]:
        if ea.get(run) != eb.get(run):
            verdict_moved = True
            print(f"{run}: {ea.get(run, '-')} -> {eb.get(run, '-')}".replace("\t", " "))
    print(f"moved {moved} of {len(a.keys() | b.keys())} entries; largest passing residual move"
          f" {largest[0]:.3e} ({largest[1]})")
    return verdict_moved


if __name__ == "__main__":
    if len(sys.argv) == 3:
        sys.exit(1 if compare(pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])) else 0)
    if len(sys.argv) != 2:
        sys.exit("usage: report_matrix.py OUTDIR | report_matrix.py OLD NEW")
    out = pathlib.Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    runs = [(f"{name}-seed{seed}", f"{name} seed={seed}", [*argv, "--seed", str(seed)])
            for name, argv in COMMANDS.items() for seed in SEEDS]
    runs += [(f"tau-probe-{n}", f"tau-probe-{n}", ["tau", "probe", "--x", x]) for n, x in PROBES.items()]
    runs += [(f"tau-probe-1-shifted-{r}", f"tau-probe-1-shifted-{r}", ["tau", "probe", "--x", _shifted(PROBES[1], r)])
             for r in SHIFTS]
    runs += [("tau-probe-off-level", "tau-probe-off-level", ["tau", "probe", "--x", OFF_LEVEL]),
             ("tau-probe-3", "tau-probe-3 --n 3", ["tau", "probe", "--x", LEVEL3, "--n", "3"])]
    # a quadrature target no integral meets: the run ends in a typed error,
    # at n = 3 in the chain and at n = 2 in the transformations
    runs += [("tau-build-3-unreachable-tol", "tau-build-3-unreachable-tol seed=1",
              ["tau", "build", "--n", "3", "--quad-tol", "1e-17", "--seed", "1"]),
             ("verify-transform-in-unreachable-tol", "verify-transform-in-unreachable-tol seed=1",
              ["verify", "transform-in", "--quad-tol", "1e-17", "--seed", "1"])]
    codes = []
    for stem, label, argv in runs:
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            rc = cli.main([*argv, "--json", "-"])
        if buf.getvalue():  # a failed probe writes nothing; its exit status still counts
            report = json.loads(buf.getvalue())
            report.pop("wall_time_s", None)
            (out / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        codes.append(f"{label}\texit={rc}\t{next(iter(err.getvalue().splitlines()), '')}\n")
    (out / "exit_codes.txt").write_text("".join(codes))
