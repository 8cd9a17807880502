"""Boundary table: the CLI at bases near 0 and near the unit circle, at
quadrature targets no node cap reaches, and `tau probe` at points far along
its level and off the strip.

Each case runs one suite with one base of one params block moved (the
terminating block by `suite bailey`; real, or at phase e(0.1)), or one suite
or `verify transform-in` (whose n = 2 integrals reach the node cap) with one
`--quad-tol`, or `tau probe` at scripts/report_matrix.py's level-1 point
moved by x_0 + r, x_1 - r, or at its level-0 point moved by Im x_0 + d,
Im x_1 - d, `--trials 1`. It runs as cli.main in this process, with every
warning an error, and must end within _BUDGET_S seconds in one of three
ways: exit 0 (a probe with a finite value); exit 1 with a report whose
failing rows all have finite residuals; or one stderr line that names a
typed error, with exit 1 (a check's or the probe's DomainError, say) or
exit 2 (the config refused at load). A NaN row, a numpy warning, any other exception that
escapes cli.main, or a run past the budget is a failure of the case; the
budget is read when the call returns, so a hang stops the run.

A fixed case of each outcome kind also runs as `python -m e8tau.cli` in a
fresh interpreter, which must give what the in-process run gives.
"""
from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys
import time
import traceback
import warnings

import numpy as np
import pytest

from e8tau import cli, tau
from e8tau.util import RESAMPLE_ERRORS, DomainError, PoleError, e

from .test_scripts import report_matrix

_BUDGET_S = 30
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
_TYPED = tuple(cls.__name__ for cls in (*RESAMPLE_ERRORS, DomainError, PoleError))
_MODULI = (1e-300, 1e-12, 0.99, 0.997, 0.999, 0.9999, 0.999999)
# case id prefix -> (params block, the suite that runs it, the base that
# moves, its phase: the base is modulus * e(phase), the other at its default)
_MOVED = {
    "hirota": ("hirota", "hirota", "p", 0, ("q", 0.35)),
    "hirota-complex": ("hirota", "hirota", "p", 0.1, ("q", 0.35)),
    "chain": ("chain", "chain", "q", 0, ("p", 0.03)),
    "chain-complex": ("chain", "chain", "q", 0.1, ("p", 0.03)),
    "bailey": ("bailey", "bailey", "p", 0, ("q", 0.10)),
    "bailey-complex": ("bailey", "bailey", "p", 0.1, ("q", 0.10)),
    "terminating": ("terminating", "bailey", "q", 0, ("p", 0.05)),
    "terminating-complex": ("terminating", "bailey", "q", 0.1, ("p", 0.05)),
    "picard": ("picard", "picard", "p", 0, ("q", 0.45)),
    "picard-complex": ("picard", "picard", "p", 0.1, ("q", 0.45)),
    "picard-q": ("picard", "picard", "q", 0, ("p", 0.03)),
}
_QUAD_TOLS = ("1e-300", "1e-17")
# the gauge leaves the float range at r = 5 and 50; at 1e300, real or
# imaginary, the pairing cannot resolve the level
_PROBE_SHIFTS = (5, 50, 1e300, 1e300j)
# the level-0 point off the strip, Im x_0 + d and Im x_1 - d, and how each
# ends: at d = 1 a value near 1e132; past it the triple-gamma pair product,
# the triple gamma and the elliptic gamma leave the float range in turn
_OFF_STRIP = {1j: "value", 2j: "probe failed: DomainError", 3j: "probe failed: DomainError", 5j: "probe failed: DomainError"}
# case id -> (command, config params or None, extra arguments)
_CASES = {
    **{
        f"{name}-{modulus}": (["suite", suite], {block: {moved: [base.real, base.imag], other: [value, 0]}}, [])
        for name, (block, suite, moved, phase, (other, value)) in sorted(_MOVED.items())
        for modulus in _MODULI
        for base in [modulus * e(phase)]
    },
    **{
        f"{command[-1]}-quad-tol-{tol}": (command, None, ["--quad-tol", tol])
        for command in (["suite", "bailey"], ["suite", "chain"], ["verify", "transform-in"])
        for tol in _QUAD_TOLS
    },
    **{
        f"tau-probe-1-shifted-{r}": (["tau", "probe", "--x", report_matrix._shifted(report_matrix.PROBES[1], r)], None, [])
        for r in _PROBE_SHIFTS
    },
    **{
        f"tau-probe-0-shifted-{d}": (["tau", "probe", "--x", report_matrix._shifted(report_matrix.PROBES[0], d)], None, [])
        for d in _OFF_STRIP
    },
}
# one case of each outcome kind, run in a fresh interpreter as well
_REFERENCE = {
    "hirota-1e-12": "pass",
    "hirota-complex-0.99": "failed rows",
    "chain-0.9999": "check failed: DomainError",
    "tau-probe-1-shifted-5": "probe failed: DomainError",
}


def _argv(tmp_path: pathlib.Path, command: list[str], params: dict | None, extra: list[str]) -> list[str]:
    """The case's CLI arguments, its config written to tmp_path."""
    args = [*command, "--trials", "1", *extra, "--json", "-"]
    if params is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"params": params}))
        args += ["--config", str(config)]
    return args


def _run(capsys, args: list[str]) -> tuple[int | None, str, str, float]:
    """cli.main(args) in this process with every warning an error: its exit
    status, stdout, stderr and seconds. An exception that escapes it is the
    status None, with its traceback after the stderr."""
    capsys.readouterr()
    t0 = time.perf_counter()
    status, escaped = None, ""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            status = cli.main(args)
        except Exception:
            escaped = traceback.format_exc()
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    return status, out, err + escaped, elapsed


def _check(status: int | None, out: str, err: str, elapsed: float, budget: float = _BUDGET_S) -> None:
    """The case rule; AssertionError where the run breaks it."""
    assert status is not None, f"an exception escaped cli.main:\n{err}"
    assert elapsed <= budget, f"{elapsed:.1f} s against a budget of {budget} s"
    if out:
        report = json.loads(out)
        assert err == ""
        if "checks" in report:
            assert status == (0 if report["pass"] else 1)
            assert all(math.isfinite(c["residual"]) for c in report["checks"] if not c["pass"])
        else:  # the probe's document
            assert status == 0 and all(map(math.isfinite, report["value"]))
    else:  # a check's or the probe's typed error, or the config refused at load
        assert err.count("\n") == 1, err
        typed = (
            tuple(f"{what} failed: {name}: " for what in ("check", "probe") for name in _TYPED)
            if status == 1
            else ("config error: ",)
        )
        assert status in (1, 2) and err.startswith(typed), err


# the cases whose outcome kind is pinned as well
_ENDS = {f"tau-probe-0-shifted-{d}": kind for d, kind in _OFF_STRIP.items()}


@pytest.mark.parametrize("case", list(_CASES))
def test_suite_ends_in_a_verdict_or_a_typed_error(tmp_path, capsys, case):
    status, out, err, elapsed = _run(capsys, _argv(tmp_path, *_CASES[case]))
    _check(status, out, err, elapsed)
    if case in _ENDS:
        assert _kind(out, err) == _ENDS[case], err


def _outcome(status: int | None, out: str, err: str) -> tuple:
    """What both runners must agree on: the exit status, the stderr, and
    the report without its wall_time_s."""
    report = {k: v for k, v in json.loads(out).items() if k != "wall_time_s"} if out else None
    return status, err, report


def _kind(out: str, err: str) -> str:
    if out:
        report = json.loads(out)
        return "value" if "checks" not in report else "pass" if report["pass"] else "failed rows"
    return ": ".join(err.split(": ")[:2])


def test_fresh_interpreter_gives_the_in_process_outcome(tmp_path, capsys):
    # python -m puts its working directory, src, first on the child's path
    for case, kind in _REFERENCE.items():
        args = _argv(tmp_path, *_CASES[case])
        status, out, err, elapsed = _run(capsys, args)
        _check(status, out, err, elapsed)
        assert _kind(out, err) == kind, case
        fresh = subprocess.run(
            [sys.executable, "-m", "e8tau.cli", *args], cwd=_SRC, capture_output=True, text=True, timeout=_BUDGET_S
        )
        assert _outcome(fresh.returncode, fresh.stdout, fresh.stderr) == _outcome(status, out, err), case


def _overflows(*args, **kwargs):
    return np.float64(1e308) * np.float64(10.0)


def _raises_key_error(*args, **kwargs):
    raise KeyError("frame")


@pytest.mark.parametrize("residual", [_overflows, _raises_key_error], ids=["numpy-overflow", "key-error"])
def test_an_escaped_exception_fails_the_case(tmp_path, capsys, monkeypatch, residual):
    monkeypatch.setattr(tau, "hirota_residual", residual)
    run = _run(capsys, _argv(tmp_path, *_CASES["hirota-1e-12"]))
    assert run[0] is None
    with pytest.raises(AssertionError, match="an exception escaped cli.main"):
        _check(*run)


def test_a_run_past_its_budget_fails_the_case(tmp_path, capsys):
    run = _run(capsys, _argv(tmp_path, *_CASES["hirota-1e-12"]))
    _check(*run)
    with pytest.raises(AssertionError, match="against a budget of 0 s"):
        _check(*run, budget=0)
