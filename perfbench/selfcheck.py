"""Self-checks of the benchmark harness (not of the library).

    python3 perfbench/selfcheck.py

1. Determinism: two traced runs of the same seed and check count give the
   same inputs, residuals, failure counts and per-layer counters (timings are
   the only exempt fields); another seed gives other inputs.
2. The gate fires: with every check output corrupted (``worker.py
   --corrupt``), every check fails and the run is reported incorrect; a
   negative control that comes out under its floor fails.

Exits 0 when every self-check holds. Takes about two minutes.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402

# One whole cycle of each workload (two for exact).
CHECKS = {"chain": 12, "quadrature": 40, "exact": 28}
TIME_UNITS = ("s", "s/check")


def _worker(*argv) -> dict:
    env = run._child_env()
    out = subprocess.run([sys.executable, run.WORKER, *argv], env=env, capture_output=True,
                         text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _counters(res: dict) -> dict:
    keep = {k: res[k] for k in ("attempted", "failed", "raised", "wrong", "checks_failed",
                                "failures", "spares_used", "input_digest", "outcome_digest",
                                "margin_log10")}
    keep["layers"] = {k: v for k, (v, unit) in res["layers"].items() if unit not in TIME_UNITS}
    return keep


def main() -> int:
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for name, n in CHECKS.items():
        base = ["--workload", name, "--checks", str(n), "--trace"]
        a = _worker(*base, "--seed", "5")
        b = _worker(*base, "--seed", "5")
        c = _worker(*base, "--seed", "6")
        ca, cb = _counters(a), _counters(b)
        diff = sorted(k for k in ca if ca[k] != cb[k]) + sorted(
            k for k in ca["layers"] if ca["layers"][k] != cb["layers"].get(k))
        expect(not diff, f"{name}: same seed reproduces counts and residuals {diff or ''}")
        expect(a["input_digest"] != c["input_digest"], f"{name}: another seed draws other inputs")

    bad = _worker("--workload", "exact", "--seed", "5", "--checks", "14", "--corrupt")
    expect(bad["checks_failed"] == bad["attempted"] and bad["wrong"] > 0 and bad["failed"] > 0,
           f"corrupted outputs fail every check ({bad['checks_failed']}/{bad['attempted']}), "
           f"count as failed operations ({bad['failed']}) and mark the run incorrect")
    passed, reasons, _ = worker.judge([("broken-tau", 1e-3, 1e-2, "floor")], corrupt=False)
    expect(not passed and reasons == ["under_floor"], "a negative control under its floor fails")
    passed, reasons, _ = worker.judge([("r", float("nan"), 1e-9, "residual")], corrupt=False)
    expect(not passed and reasons == ["nonfinite"], "a NaN residual fails")
    print("selfcheck: " + ("all passed" if not problems else f"{len(problems)} failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
