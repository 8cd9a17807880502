"""e8tau benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 10 --trace 0

Run it from the root of a source tree of the repository (the library is
imported from ``src/``; nothing is installed or built). Each workload runs in
fresh interpreters with BLAS/OpenMP pinned to one thread, one at a time:

* ``--trace 0``: four set-up probes, each a fresh interpreter that sets the
  workload up and exits, then the measured run: whole cycles for at least
  ``--seconds`` and the workload's ``min_cycles``. ``setup_s`` is the median
  of the five spawn-to-ready times. The rest are the end-to-end metrics of the
  measured run, made with tracing off. All timings are divided by the host's
  slowdown, measured with ``calibrate.burst`` (see perfbench/README.md).
* ``--trace 1``: one untraced run, then one traced run of the same inputs,
  each whole cycles for at least ``--seconds`` (without the cycle floor, so a
  traced chain run stays well inside 180 s). The per-layer metrics come from
  the traced run and are per check, so they need no floor;
  ``trace.overhead`` is 1 - traced/untraced checks per second.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it holds the details (machine
facts, per-kind failures, tail percentile, host slowdown, wall-clock
timings); a copy of both, and the spans of a traced run, are written under
``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 4
SETUP_REF_BURSTS = 21  # reference bursts timed just before each spawn
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _bursts() -> list[float]:
    return [calibrate.burst("interpreter") for _ in range(SETUP_REF_BURSTS)]


def _spawn(argv, env, deadline: float):
    """Run one worker; returns (spawn-to-READY seconds divided by the host's
    slowdown, last-line JSON or None). The slowdown comes from reference
    bursts just before the spawn, and for a set-up probe, which exits at
    READY, also just after it. The worker is killed at the deadline and always
    waited for."""
    refs = _bursts()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], stdout=subprocess.PIPE,
                            env=env, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready, last = None, None
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RunError(f"worker {' '.join(argv)} exited with {code}")
    if "--setup-only" in argv:
        refs += _bursts()
    return ready / calibrate.slowdown(refs, "interpreter"), (json.loads(last) if last and last.lstrip().startswith("{") else None)


def _git_sha(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "e8tau")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def end_to_end(run: dict, setup_s: float) -> dict:
    return {
        "checks_per_s": {"value": run["checks_per_s"], "unit": "checks/s"},
        "check_p50_s": {"value": run["check_p50_s"], "unit": "s"},
        "check_tail_s": {"value": run["check_tail_s"], "unit": "s"},
        "pass_ratio": {"value": 1.0 - run["fail_ratio"], "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    out = {name: {"value": v, "unit": unit} for name, (v, unit) in traced["layers"].items()}
    out["checks.fail_ratio"] = {"value": traced["fail_ratio"], "unit": "ratio"}
    out["checks.margin_log10"] = {"value": traced["margin_log10"], "unit": "log10"}
    out["trace.overhead"] = {
        "value": 1.0 - traced["checks_per_s"] / untraced["checks_per_s"], "unit": "ratio"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("chain", "quadrature", "exact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "e8tau", "__init__.py")):
        print("no e8tau source tree under ./src; run from the repository root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = _child_env()
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace == 0:
            setups = [_spawn(base + ["--setup-only"], env, deadline)[0] for _ in range(SETUP_PROBES)]
            ready, run = _spawn(base + ["--floor"], env, deadline)
            setups.append(ready)
            runs = [run]
            metrics = end_to_end(run, statistics.median(setups))
        else:
            _, untraced = _spawn(base, env, deadline)
            spans = os.path.join(OUT_DIR, f"spans-{tag}.tsv.gz")
            setups, (_, run) = [], _spawn(base + ["--trace", "--spans", spans], env, deadline)
            runs = [untraced, run]
            metrics = per_layer(run, untraced)
    except RunError as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": run["python"],
        "numpy": run["numpy"],
        "thread_env": {v: env[v] for v in THREAD_VARS},
        "setup_samples_s": setups,
        "runs": runs,
    }
    result = {
        "correct": all(r["wrong"] == 0 for r in runs),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    # The per-check and per-cycle times stay in the file only.
    detail["runs"] = [{k: v for k, v in r.items() if k not in ("check_times_s", "ref_s")}
                      for r in runs]
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
