"""The evidence scripts: report_matrix's comparison of two OUTDIRs and
bench_pair's statistics, on synthetic inputs (no CLI matrix, no perfbench),
and gen_quad_oracles' values against the frozen ones."""
from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from e8tau import cli, sampling
from e8tau.specialfn import EllipticParams

from . import _quad_oracles as Q

_SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_matrix = _load("report_matrix")
bench_pair = _load("bench_pair")


def _outdir(root: pathlib.Path, name: str, checks: list[dict], codes: list[str]) -> pathlib.Path:
    """An OUTDIR as report_matrix writes one: a report and exit_codes.txt."""
    out = root / name
    out.mkdir()
    (out / "suite-all-seed1.json").write_text(json.dumps({"suite": "all", "checks": checks}))
    (out / "exit_codes.txt").write_text("".join(f"{line}\n" for line in codes))
    return out


_CHECKS = [
    {"id": "contiguity", "paper_anchor": "Prop 5B", "residual": 1e-12, "tolerance": 1e-8, "pass": True},
    {"id": "roots", "paper_anchor": "§1", "count": 240, "expected": 240, "tolerance": 0, "pass": True},
]
_CODES = ["suite-all seed=1\texit=0\t"]


def _moved(tmp_path, checks=_CHECKS, codes=_CODES) -> bool:
    return report_matrix.compare(_outdir(tmp_path, "old", _CHECKS, _CODES), _outdir(tmp_path, "new", checks, codes))


def test_report_matrix_allows_a_residual_move(tmp_path, capsys):
    moved = [{**_CHECKS[0], "residual": 3e-12}, _CHECKS[1]]
    assert _moved(tmp_path, moved) is False
    out = capsys.readouterr().out
    assert "contiguity: 1.000e-12 -> 3.000e-12 pass True -> True" in out
    assert out.splitlines()[-1].startswith("moved 1 of 2 entries; largest passing residual move 2.000e-12")


def test_report_matrix_names_a_degenerate_entry(tmp_path, capsys):
    # every term of the residual vanished: 0.0 fails, and the line says why
    degenerate = [{**_CHECKS[0], "residual": 0.0, "pass": False, "degenerate": True}, _CHECKS[1]]
    assert _moved(tmp_path, degenerate) is True
    out = capsys.readouterr().out
    assert "contiguity: 1.000e-12 -> 0.000e+00 degenerate pass True -> False" in out


def test_report_matrix_agrees_with_itself(tmp_path, capsys):
    assert _moved(tmp_path) is False
    assert capsys.readouterr().out.startswith("moved 0 of 2 entries")


@pytest.mark.parametrize(
    "checks, codes",
    [
        ([{**_CHECKS[0], "residual": 2e-8, "pass": False}, _CHECKS[1]], _CODES),
        (_CHECKS, ["suite-all seed=1\texit=1\tcheck failed: DomainError: x"]),
        (_CHECKS[:1], _CODES),
        (_CHECKS, _CODES + ["tau-probe-0\texit=0\t"]),
    ],
    ids=["pass-flag", "exit-line", "entry-one-side", "run-one-side"],
)
def test_report_matrix_flags_a_verdict_move(tmp_path, capsys, checks, codes):
    assert _moved(tmp_path, checks, codes) is True
    capsys.readouterr()


def test_bench_pair_compare_counts_wins_and_the_gap():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [10.0, 14.0, 15.0, 16.0, 17.0]  # the first pair ties
    higher = bench_pair._compare(parent, change, "higher")
    assert higher["wins"] == 4 and higher["pairs"] == 5
    assert higher["parent"]["median"] == 11.0 and higher["change"]["median"] == 15.0
    assert higher["ratio"] == 15.0 / 11.0
    # statistics.quantiles(n=4) of the parent: 9.5 and 12.5, so a spread of 3
    assert (higher["parent"]["q1"], higher["parent"]["q3"]) == (9.5, 12.5)
    assert higher["gap_exceeds_parent_iqr"] is True
    lower = bench_pair._compare(parent, change, "lower")
    assert lower["wins"] == 0 and lower["gap_exceeds_parent_iqr"] is False
    near = bench_pair._compare(parent, [11.0, 13.0, 12.0, 14.0, 10.0], "higher")
    assert near["wins"] == 5 and near["gap_exceeds_parent_iqr"] is False  # gap 1 against spread 3


def _timed(per_kind: dict) -> dict:
    return {"detail": {"runs": [{"per_kind": {k: {"time_p50_s": v} for k, v in per_kind.items()}}]}}


def test_bench_pair_kinds_keep_only_kinds_every_run_reached():
    runs = {
        "parent": [_timed({"a": 1.0, "b": 2.0, "c": 3.0}), _timed({"a": 1.0, "b": 2.0, "c": 3.0})],
        "change": [_timed({"a": 0.5, "b": 2.0, "c": 3.0}), _timed({"a": 0.5, "c": 3.0})],
    }
    kinds = bench_pair._kinds(runs)
    assert set(kinds) == {"a", "c"}
    assert kinds["a"]["wins"] == 2 and kinds["a"]["ratio"] == 0.5
    assert kinds["c"]["wins"] == 0


def test_bench_pair_same_outcomes_ignores_the_digest():
    side = {"attempted": 240, "failed": 0, "raised": 0, "wrong": 0, "checks_failed": 3,
            "reasons": {"x": {"DomainError": 1}}, "outcome_digest": "aa"}
    assert bench_pair._same_outcomes({"parent": side, "change": {**side, "outcome_digest": "bb"}})
    assert not bench_pair._same_outcomes({"parent": side, "change": {**side, "checks_failed": 4}})
    assert not bench_pair._same_outcomes({"parent": side, "change": {**side, "reasons": {}}})


def test_bench_pair_fixed_runs_keep_timings_that_same_outcomes_ignores(monkeypatch):
    def worker(kind_p50_s, host_slowdown):
        per_kind = {k: {"reasons": {}, "time_p50_s": t} for k, t in kind_p50_s.items()}
        line = {"attempted": 28, "failed": 0, "raised": 0, "wrong": 0, "checks_failed": 0,
                "per_kind": per_kind, "outcome_digest": "aa", "host_slowdown": host_slowdown}
        out = type("Done", (), {"stdout": "set-up line\n" + json.dumps(line) + "\n"})()
        monkeypatch.setattr(bench_pair.subprocess, "run", lambda *a, **k: out)
        return bench_pair._fixed("root", "exact", 1)

    parent = worker({"e7-orbit": 3.8e-3, "frame-type-counts": 1.9e-2}, 1.15)
    change = worker({"e7-orbit": 3.9e-3, "frame-type-counts": 9.0e-3}, 0.70)
    assert change["kind_p50_s"] == {"e7-orbit": 3.9e-3, "frame-type-counts": 9.0e-3}
    assert change["host_slowdown"] == 0.70
    assert bench_pair._same_outcomes({"parent": parent, "change": change})


def test_report_matrix_probes_are_the_points_their_comment_names():
    par = EllipticParams.from_bases(0.03, 0.45)
    for n, text in report_matrix.PROBES.items():
        assert (cli._parse_x(text) == sampling.sample_on_level(sampling.make_rng(100 + n), par, n)).all(), n
    for r in report_matrix.SHIFTS:
        x = cli._parse_x(report_matrix.PROBES[1])
        x[0] += r
        x[1] -= r
        assert (cli._parse_x(report_matrix._shifted(report_matrix.PROBES[1], r)) == x).all(), r


def test_gen_quad_oracles_reproduces_the_frozen_values():
    # loading the script writes nothing; its values are the frozen ones to
    # their printed digits
    frozen = pathlib.Path(Q.__file__)
    stamp = frozen.stat().st_mtime_ns
    v1, v2 = _load("gen_quad_oracles").values()
    assert abs(v1 - Q.I1_FIXED) <= 1e-12 and abs(v2 - Q.I2_FIXED) <= 1e-12
    assert frozen.stat().st_mtime_ns == stamp
