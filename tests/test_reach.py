"""Reachability guard: every function defined in src/e8tau is reached by a
command, or is on _UNREACHED with the reason it stays in the library.

One fresh interpreter installs a profiler before it imports e8tau.cli, so
import-time calls count, then runs cli.main over _commands(). A function
that only the tests call belongs in the tests (tests/_reference.py holds
such reference routes), so a new one fails here until it moves there or
is listed with its reason.
"""
from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from .test_scripts import report_matrix

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
_PACKAGE = _SRC / "e8tau"

# Functions that no command reaches, each with the reason it stays in src.
_UNREACHED = {
    "integrals._range_error": "error path: node values or node sums out of the float range",
    "lattice._phi_profile": "error path: builds classify_frame's message for a profile with no class",
    "util.PoleError.__init__": "error path: constructed only where a gamma argument meets a pole",
    "util.ConvergenceError.__init__": "error path: constructed only where a quadrature misses its target",
    "util.BracketZeroError.__init__": "error path: constructed only where a bracket vanishes",
    "cli._exact_counts": "pinned by tests/test_acceptance.py (criterion 01)",
    "tau.toda_step": "pinned by tests/test_acceptance.py; perfbench's chain workload calls it per pair",
    "specialfn.bracket": "perfbench/tracer.py wraps it as a tracer target (ROADMAP item 4)",
    "tau.hg_tau1": "perfbench/tracer.py wraps it as a tracer target (ROADMAP item 4)",
    "specialfn.bracket_pm": "perfbench/workloads.py evaluates it (ROADMAP item 4)",
    "lattice.Frame.key": "perfbench/worker.py digests its frame inputs with it (ROADMAP item 4)",
    "util.Scaled.__mul__": "the tests' chain-of-products reference for util.product and their corruption harness",
}

_ANONYMOUS = ("<module>", "<lambda>", "<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")

# Run in the fresh interpreter: argv[1] is the JSON list of cli.main argvs.
# It prints the exit statuses and every (file, qualname) a call entered.
_RUN = r"""
import contextlib, io, json, sys

codes = set()


def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)


sys.setprofile(profile)
from e8tau import cli

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    status = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps({"status": status, "reached": sorted({(c.co_filename, c.co_qualname) for c in codes})}))
"""


def _commands(config: pathlib.Path) -> list[tuple[list[str], int]]:
    """Each command's argv and the exit status it must end with."""
    return [
        (["suite", "all", "--trials", "1"], 0),
        (["suite", "hirota", "--break-tau", "--trials", "1"], 1),
        (["frames"], 0),
        *((["verify", identity], 0) for identity in ("bailey", "contiguity", "transform-in", "terminating")),
        (["tau", "build", "--n", "3", "--trials", "1"], 0),
        (["picard", "check", "--trials", "1"], 0),
        (["tau", "probe", "--x", report_matrix.PROBES[0]], 0),
        (["suite", "counts", "--config", str(config)], 0),
    ]


def _defined() -> tuple[set[str], set[str]]:
    """module.qualname of every function and method defined in src/e8tau,
    nested ones as their code objects name them (outer.<locals>.inner), and
    of every class, whose body is a code object too."""
    functions, classes = set(), set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.add(prefix + child.name)
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                classes.add(prefix + child.name)
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    for path in sorted(_PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), f"{path.stem}.")
    return functions, classes


def _verdict(defined: set[str], reached: set[str], listed: dict[str, str]) -> list[str]:
    """The guard's problems, none when it holds: a defined function that
    nothing reaches and the list does not name, a listed function that a
    command now reaches, and a listed name that src no longer defines."""
    return [
        *(f"{name}: reached by no command and not listed" for name in sorted(defined - reached - listed.keys())),
        *(f"{name}: listed, but a command reaches it" for name in sorted(listed.keys() & reached)),
        *(f"{name}: listed, but not defined in src" for name in sorted(listed.keys() - defined)),
    ]


def test_every_src_function_is_reached_or_listed(tmp_path):
    config = tmp_path / "counts.json"
    config.write_text(json.dumps({
        "seed": 7, "n_max": 2, "quad_tol": 1e-8, "trials": {"chain": 1}, "tolerances": {"three_term": 1e-10},
        "params": {"chain": {"p": [0.03, 0], "q": 0.45}},
    }))
    commands = _commands(config)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(_SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _RUN, json.dumps([argv for argv, _ in commands])],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    out = json.loads(done.stdout)
    assert out["status"] == [status for _, status in commands]
    package = _PACKAGE.resolve()
    reached = {
        f"{path.stem}.{qualname}"
        for path, qualname in ((pathlib.Path(f).resolve(), q) for f, q in out["reached"])
        if path.parent == package
    }
    defined, classes = _defined()
    # the names agree with the code objects': whatever a call entered that
    # _defined() does not name is a module or class body, a lambda or a
    # comprehension
    assert not {name for name in reached - defined - classes if not name.endswith(_ANONYMOUS)}
    assert _verdict(defined, reached, _UNREACHED) == []


def test_every_listed_function_gives_its_reason():
    assert len(_UNREACHED) <= 12
    assert all(isinstance(why, str) and why.strip() for why in _UNREACHED.values())


@pytest.mark.parametrize(
    "defined, reached, listed, problem",
    [
        ({"m.f", "m.g"}, {"m.f"}, {}, "m.g: reached by no command and not listed"),
        ({"m.f", "m.g"}, {"m.f", "m.g"}, {"m.g": "why"}, "m.g: listed, but a command reaches it"),
        ({"m.f"}, {"m.f"}, {"m.gone": "why"}, "m.gone: listed, but not defined in src"),
    ],
    ids=["unlisted-unreached", "listed-reached", "listed-gone"],
)
def test_the_guard_fails_each_negative_control(defined, reached, listed, problem):
    assert _verdict(defined, reached, listed) == [problem]
    # the same input with the list mended passes
    assert _verdict(defined, reached, dict.fromkeys(defined - reached, "why")) == []

