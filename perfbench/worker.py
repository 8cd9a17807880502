"""One workload in one fresh interpreter: set up, run checks, report.

    python3 perfbench/worker.py --workload chain --seed 1 --seconds 10 [--trace]
    python3 perfbench/worker.py --workload exact --seed 1 --checks 280
    python3 perfbench/worker.py --workload exact --seed 1 --setup-only

Prints ``READY`` once set-up is done (``run.py`` times set-up to that line),
then one JSON document with the run's metrics as its last line. Checks run
in the workload's fixed kind order and always in whole cycles, so every run
has the same mix; the timed phase lasts at least ``--seconds`` (and, with
``--floor``, the workload's ``min_cycles``). ``--checks N`` runs at least N checks (whole cycles)
instead of a timed phase, for reproducible counts. ``--corrupt`` replaces
every check output with a failing one, so the gate can be shown to fire.
Between checks the worker times reference bursts (``calibrate.py``) and
reports the timings at nominal host speed, with the wall-clock ones beside.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time

T_START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

MAX_SPARES = 8
REF_EVERY_S = 0.05  # a reference burst after the first check that ends this long after the last one


def _digest_into(h, obj) -> None:
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(obj.tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for item in obj:
            _digest_into(h, item)
        h.update(b")")
    elif hasattr(obj, "key"):  # lattice.Frame
        h.update(repr(obj.key()).encode())
    elif hasattr(obj, "coeffs"):  # picard.PicardVector
        h.update(repr(obj.coeffs).encode())
    else:
        h.update(repr(obj).encode())


def judge(outcomes, corrupt: bool):
    """Pass/fail of one check's outcomes: (passed, reasons, margin), where
    margin is the largest finite residual / bound (negative controls, whose
    bound is a floor, take no part in it)."""
    reasons, margin = [], -math.inf
    for label, value, bound, mode in outcomes:
        if corrupt:
            value = {"residual": 10.0 * bound, "count": bound + 1, "floor": bound / 10.0}[mode]
        if mode == "count":
            if value != bound:
                reasons.append("count_mismatch")
            continue
        if not math.isfinite(value):
            reasons.append("nonfinite")
            continue
        if mode == "floor":
            if not value > bound:
                reasons.append("under_floor")
            continue
        margin = max(margin, value / bound)
        if not value < bound:
            reasons.append("over_bound")
    return not reasons, reasons, margin


def tail(times: list[float]):
    """Mean time of the slowest tenth of the checks, and at least of the ten
    slowest (all of them with ten or fewer), with the percentile where that
    tail starts. A mean, not one order statistic: in a fixed mix of check
    kinds of different cost a single percentile sits on the edge between two
    kinds and jumps by the gap between them from run to run."""
    s = sorted(times)
    n = len(s)
    k = min(n, max(10, n // 10))
    return sum(s[n - k:]) / k, 100.0 * (n - k) / n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--checks", type=int, default=0)
    ap.add_argument("--floor", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--spans", help="write the spans here (gzip TSV) when tracing")
    args = ap.parse_args(argv)

    import numpy as np

    from e8tau import integrals, lattice, picard, sampling, specialfn, tau
    from e8tau.util import AdmissibilityError, ConvergenceError

    import calibrate
    import tracer as tr
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    retry = (tau.BracketZeroError, AdmissibilityError, ConvergenceError)
    kinds = wl.kinds

    tracer = None
    draw = lambda kind, st, rng, cycle: kind.draw(st, rng, cycle)
    if args.trace:
        tracer = tr.Tracer()
        mods = {"specialfn": specialfn, "integrals": integrals, "tau": tau,
                "lattice": lattice, "picard": picard}
        tracer.install(tr.targets(mods), tr.loaded_modules())
        draw = tracer.wrap("sampling.draw", draw)

    # ---- set-up: shared state and the input pool, all before the timed phase
    state = wl.setup()
    if tracer is not None and "chain" in state:
        tr.trace_chain(tracer, state["chain"], tau)
    min_checks = wl.min_cycles * len(kinds) if args.floor else 0
    want = args.checks or max(math.ceil(args.seconds * wl.pool_rate), min_checks)
    pool_size = len(kinds) * math.ceil(want / len(kinds))
    rng = sampling.make_rng([args.seed, 0])
    spare_rng = sampling.make_rng([args.seed, 1])
    pool = [draw(kinds[k % len(kinds)], state, rng, k // len(kinds)) for k in range(pool_size)]
    h_inputs = hashlib.sha256()
    _digest_into(h_inputs, pool)
    # Set-up objects (the input pool above all) are left out of the cyclic
    # collector's scans, so the timed phase does not pay for the harness's
    # own memory; what the library allocates while checking is collected as
    # usual.
    gc.collect()
    gc.freeze()
    setup_in_process = time.perf_counter() - T_START
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # ---- timed phase: one closed-loop caller, whole cycles only
    check_runner = (lambda kind, inp: kind.evaluate(state, inp))
    if tracer is not None:
        check_runner = tracer.wrap("bench.check", check_runner)
    times, spares, failures = [], 0, {}
    per_kind = {k.name: {"checks": 0, "failed": 0, "reasons": {}, "worst_margin": None, "times": []}
                for k in kinds}
    worst_margin = -math.inf
    wrong = raised = 0
    ref_s, next_ref = [], 0.0
    ref_after = []  # per check: index of the first burst after it
    h_out = hashlib.sha256()
    k = 0
    t0 = time.perf_counter()
    while k < pool_size:
        for kind in kinds:
            if tracer is not None:
                tracer.check = k
            inp = pool[k]
            c0 = time.perf_counter()
            outcomes, error = None, None
            for attempt in range(MAX_SPARES + 1):
                try:
                    outcomes = check_runner(kind, inp)
                    break
                except retry as err:
                    error = type(err).__name__
                    if attempt == MAX_SPARES:
                        break
                    spares += 1
                    inp = draw(kind, state, spare_rng, k // len(kinds))
                except Exception as err:  # any other error fails the check
                    error = type(err).__name__
                    break
            c1 = time.perf_counter()
            times.append(c1 - c0)
            ref_after.append(len(ref_s))
            if c1 >= next_ref:
                ref_s.append(calibrate.burst(wl.reference))
                next_ref = time.perf_counter() + REF_EVERY_S
                t0 += time.perf_counter() - c1  # the reference is not part of the run
            rec = per_kind[kind.name]
            rec["checks"] += 1
            rec["times"].append(times[-1])
            if outcomes is None:
                passed, reasons, margin = False, [f"raised:{error}"], -math.inf
                raised += 1
            else:
                passed, reasons, margin = judge(outcomes, args.corrupt)
                _digest_into(h_out, [(o[0], o[1]) for o in outcomes])
                wrong += any(r in ("over_bound", "count_mismatch") for r in reasons)
            if not passed:
                rec["failed"] += 1
                for r in reasons:
                    rec["reasons"][r] = rec["reasons"].get(r, 0) + 1
                    failures[r] = failures.get(r, 0) + 1
            if margin > -math.inf:
                worst_margin = max(worst_margin, margin)
                rec["worst_margin"] = max(rec["worst_margin"] or 0.0, margin)
            k += 1
        elapsed = time.perf_counter() - t0
        if args.checks and k >= args.checks:
            break
        if not args.checks and elapsed >= args.seconds and k >= min_checks:
            break
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.check = None

    checks_failed = sum(r["failed"] for r in per_kind.values())
    for rec in per_kind.values():
        t = rec.pop("times")
        rec["time_p50_s"] = float(np.median(t)) if t else None
        rec["time_max_s"] = max(t) if t else None
    tail_s, tail_pct = tail(times)
    # Each check's time at nominal host speed: divided by the slowdown of the
    # bursts just before and just after it (the host's speed changes within
    # seconds). The wall-clock timings are kept as ``wall_*``.
    nominal = [
        t / calibrate.slowdown(ref_s[max(b - 1, 0):b + 2], wl.reference)
        for t, b in zip(times, ref_after)
    ]
    nominal_tail_s, _ = tail(nominal)
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "traced": bool(tracer),
        "attempted": k,
        # Operations that failed: evaluations that still raised after their
        # spare draws, or returned a wrong answer (finite residual at or over
        # its bound, wrong exact count).
        "failed": raised + wrong,
        "raised": raised,
        "wrong": wrong,
        # Checks that failed for any reason, non-finite residuals and negative
        # controls under their floor included.
        "checks_failed": checks_failed,
        "elapsed_s": elapsed,
        "pool_size": pool_size,
        "pool_exhausted": k >= pool_size,
        "setup_in_process_s": setup_in_process,
        "reference": wl.reference,
        "host_slowdown": calibrate.slowdown(ref_s, wl.reference),
        "checks_per_s": k / sum(nominal),
        "check_p50_s": float(np.median(nominal)),
        "check_tail_s": nominal_tail_s,
        "check_tail_from_percentile": tail_pct,
        "wall_checks_per_s": k / elapsed,
        "wall_check_p50_s": float(np.median(times)),
        "wall_check_tail_s": tail_s,
        "fail_ratio": checks_failed / k,
        "failures": failures,
        "margin_log10": math.log10(worst_margin) if worst_margin > 0 else None,
        "spares_used": spares,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "per_kind": per_kind,
        "input_digest": h_inputs.hexdigest(),
        "outcome_digest": h_out.hexdigest(),
        "check_times_s": times,
        "ref_s": ref_s,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["layers"] = tr.layer_metrics(tracer, k, spares)
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
