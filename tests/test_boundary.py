"""Boundary table: the CLI at bases near 0 and near the unit circle, at
quadrature targets no node cap reaches, and `tau probe` at points far along
its level.

Each case runs one suite with one base of one params block moved (the
terminating block by `suite bailey`; real, or for the bailey block also at
phase e(0.1)), or one suite or `verify
transform-in` (whose n = 2 integrals reach the node cap) with one
`--quad-tol`, or `tau probe` at scripts/report_matrix.py's level-1 point
moved by x_0 + r, x_1 - r, `--trials 1`, in its own process, and must end
within _BUDGET_S seconds in one of three ways: exit 0; exit 1 with a report
whose failing rows all have finite residuals; or one stderr line that names
a typed error, with exit 1 (a check's or the probe's DomainError, say) or
exit 2 (the config refused at load). A NaN row, a numpy warning, a
traceback or a hang is a failure of the case.
"""
from __future__ import annotations

import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from e8tau.util import RESAMPLE_ERRORS, DomainError, PoleError, e

_BUDGET_S = 30
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
_TYPED = tuple(cls.__name__ for cls in (*RESAMPLE_ERRORS, DomainError, PoleError))
_MODULI = (1e-300, 1e-12, 0.99, 0.997, 0.999, 0.9999, 0.999999)
# case id prefix -> (params block, the suite that runs it, the base that
# moves, its phase: the base is modulus * e(phase), the other at its default)
_MOVED = {
    "hirota": ("hirota", "hirota", "p", 0, ("q", 0.35)),
    "chain": ("chain", "chain", "q", 0, ("p", 0.03)),
    "bailey": ("bailey", "bailey", "p", 0, ("q", 0.10)),
    "bailey-complex": ("bailey", "bailey", "p", 0.1, ("q", 0.10)),
    "terminating": ("terminating", "bailey", "q", 0, ("p", 0.05)),
    "picard": ("picard", "picard", "p", 0, ("q", 0.45)),
    "picard-q": ("picard", "picard", "q", 0, ("p", 0.03)),
}
_QUAD_TOLS = ("1e-300", "1e-17")
_SPEC = importlib.util.spec_from_file_location("report_matrix", _SRC.parent / "scripts" / "report_matrix.py")
report_matrix = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_matrix)
# the gauge leaves the float range at r = 5 and 50; at 1e300, real or
# imaginary, the pairing cannot resolve the level
_PROBE_SHIFTS = (5, 50, 1e300, 1e300j)
# (command, config params or None, extra arguments), one row a case
_CASES = [
    pytest.param(["suite", suite], {block: {moved: [base.real, base.imag], other: [value, 0]}}, [],
                 id=f"{name}-{modulus}")
    for name, (block, suite, moved, phase, (other, value)) in sorted(_MOVED.items())
    for modulus in _MODULI
    for base in [modulus * e(phase)]
] + [
    pytest.param(command, None, ["--quad-tol", tol], id=f"{command[-1]}-quad-tol-{tol}")
    for command in (["suite", "bailey"], ["suite", "chain"], ["verify", "transform-in"])
    for tol in _QUAD_TOLS
] + [
    pytest.param(["tau", "probe", "--x", report_matrix._shifted(report_matrix.PROBES[1], r)], None, [],
                 id=f"tau-probe-1-shifted-{r}")
    for r in _PROBE_SHIFTS
]


@pytest.mark.parametrize("command, params, extra", _CASES)
def test_suite_ends_in_a_verdict_or_a_typed_error(tmp_path, command, params, extra):
    args = [*command, "--trials", "1", *extra, "--json", "-"]
    if params is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"params": params}))
        args += ["--config", str(config)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(_SRC), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-m", "e8tau.cli", *args], capture_output=True, text=True, timeout=_BUDGET_S, env=env
    )
    if run.stdout:
        report = json.loads(run.stdout)
        assert run.stderr == "" and run.returncode == (0 if report["pass"] else 1)
        assert all(math.isfinite(c["residual"]) for c in report["checks"] if not c["pass"])
    else:  # a check's or the probe's typed error, or the config refused at load
        assert run.stderr.count("\n") == 1, run.stderr
        typed = (
            tuple(f"{what} failed: {name}: " for what in ("check", "probe") for name in _TYPED)
            if run.returncode == 1
            else ("config error: ",)
        )
        assert run.returncode in (1, 2) and run.stderr.startswith(typed), run.stderr
