"""Compare two checkouts on the benchmark and write a before/after record.

    python3 scripts/bench_pair.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json

For each workload declared in CHANGE_DIR/BENCHMARK.json it runs
``perfbench/run.py --trace 0`` in both checkouts, in PAIRS = 10 alternating
pairs (pair k = 1, ..., PAIRS uses seed k on both sides; odd pairs start with
the parent, even pairs with the change), then one ``--trace 1`` run per side at
seed 1. Before those, ``perfbench/worker.py --seed S --checks N`` runs per side
at each of FIXED_SEEDS count the outcomes of a fixed number of checks. Every run starts a
fresh interpreter in its checkout, so both sides build what they run from
their own ``src/``. The record holds:

* the sha and source digest of each side, and the machine facts, with the
  host slowdown that perfbench measured for every run;
* per workload and end-to-end metric, each side's values, median and
  quartiles (``statistics.quantiles(n=4)``, the spread perfbench/README.md
  defines), the change/parent ratio of the medians, the pairs the change
  won (ties count for neither), and whether the medians are further apart
  than the parent's quartile spread;
* per workload and check kind that every timed run reached, the same
  comparison of each run's ``time_p50_s`` (the kind's median check time,
  wall clock as perfbench reports it): values, median and quartiles, the
  ratio of medians and the pairs the change won, so a move of
  ``check_p50_s`` can be traced to the kinds that made it;
* per workload, each run's checks attempted, seconds spent in checks,
  whether its input pool ran out, and what the gate reads of its outcomes:
  failed operations (raised + wrong), raised, and the failure reasons with
  their counts; whether each pair drew the same inputs and reached the same
  outcomes (the outcome digest hashes every residual, so a move at
  round-off changes it, and so does a different number of checks in a
  time-bound run); and the traced per-layer metrics of both sides;
* per workload and fixed-count seed, the run of each side: checks
  attempted, failed operations, raised, wrong, failed checks, each kind's
  failure reasons and the outcome digest. ``equal`` says whether the two
  sides agree on all of them but the digest, seed by seed, so a change in
  failure counts shows before the timed pairs are read;
  ``outcome_digest_equal`` beside it says whether the residuals kept their
  bits. Each such run also keeps each kind's ``time_p50_s`` (``kind_p50_s``)
  and its ``host_slowdown``: the same checks timed on both sides, which
  ``equal`` does not read. They are raw wall times; dividing by the
  slowdown does not remove the host's drift at the 5 % level.

Nothing under ``perfbench/`` is changed; this only calls it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# The gain rule needs at least ten alternating pairs per workload.
PAIRS = 10
# Check counts of the fixed-count runs, whole cycles of each workload's kinds.
# A timed run attempts a different number of checks each time, so only these
# outcomes can be compared between runs of the same code.
FIXED_CHECKS = {"chain": 240, "quadrature": 400, "exact": 1400}
FIXED_SEEDS = (1, 2, 3)
_FIXED_KEYS = ("attempted", "failed", "raised", "wrong", "checks_failed")
# What the gate reads of a time-bound run's outcomes.
_OUTCOME_KEYS = ("failed", "raised", "failures")


def _run(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in root: its result line and its detail line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    detail, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    return {"result": result, "detail": detail["detail"]}


def _fixed(root: str, workload: str, seed: int) -> dict:
    """The outcome counts, each kind's failure reasons and the digest of
    FIXED_CHECKS[workload] checks at seed."""
    cmd = [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", str(seed),
           "--checks", str(FIXED_CHECKS[workload])]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {
        **{key: result[key] for key in _FIXED_KEYS},
        "reasons": {kind: rec["reasons"] for kind, rec in result["per_kind"].items() if rec["reasons"]},
        "outcome_digest": result["outcome_digest"],
        "kind_p50_s": {kind: rec["time_p50_s"] for kind, rec in result["per_kind"].items()},
        "host_slowdown": result["host_slowdown"],
    }


def _same_outcomes(f: dict) -> bool:
    """Whether both sides of a fixed-count run agree on everything but the
    digest and the timings."""
    return all(f["parent"][key] == f["change"][key] for key in (*_FIXED_KEYS, "reasons"))


def _quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def _compare(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    a, b = _quartiles(parent), _quartiles(change)
    return {
        "better": better,
        "parent": a,
        "change": b,
        "ratio": b["median"] / a["median"] if a["median"] else None,
        "wins": sum(sign * (y - x) > 0 for x, y in zip(parent, change)),
        "pairs": len(parent),
        "gap_exceeds_parent_iqr": sign * (b["median"] - a["median"]) > a["q3"] - a["q1"],
    }


def _kinds(runs: dict) -> dict:
    """Per check kind with a time_p50_s in every run, _compare of those per-run values."""
    recs = {side: [r["detail"]["runs"][0]["per_kind"] for r in runs[side]] for side in runs}
    times = {kind: {side: [rec.get(kind, {}).get("time_p50_s") for rec in recs[side]] for side in recs}
             for kind in recs["parent"][0]}
    return {
        kind: _compare(t["parent"], t["change"], "lower")
        for kind, t in times.items() if None not in t["parent"] + t["change"]
    }


def _side(first: dict) -> dict:
    d = first["detail"]
    return {"git_sha": d["git_sha"], "source_sha256": d["source_sha256"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    roots = {"parent": args.parent, "change": args.change}
    record = {"seconds": seconds, "pairs": PAIRS, "workloads": {}}
    slowdowns, first = [], {}
    for wl in (w["name"] for w in bench["workloads"]):
        fixed = {seed: {side: _fixed(roots[side], wl, seed) for side in roots} for seed in FIXED_SEEDS}
        runs = {"parent": [], "change": []}
        for k in range(PAIRS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                r = _run(roots[side], wl, k + 1, seconds, 0)
                runs[side].append(r)
                first.setdefault(side, r)
                slowdowns.append(r["detail"]["runs"][0]["host_slowdown"])
                print(wl, k + 1, side, r["result"]["metrics"]["checks_per_s"]["value"], file=sys.stderr)
        traced = {side: _run(roots[side], wl, 1, seconds, 1)["result"]["metrics"] for side in roots}
        record["workloads"][wl] = {
            "seeds": list(range(1, PAIRS + 1)),
            "metrics": {
                m["name"]: _compare(
                    *([r["result"]["metrics"][m["name"]]["value"] for r in runs[side]] for side in roots),
                    m["better"],
                )
                for m in bench["end_to_end"]
            },
            "kind_p50_s": _kinds(runs),
            "correct": {side: all(r["result"]["correct"] for r in runs[side]) for side in roots},
            **{key: {side: [r["detail"]["runs"][0][key] for r in runs[side]] for side in roots}
               for key in ("attempted", "elapsed_s", "pool_exhausted", *_OUTCOME_KEYS)},
            **{f"{key}_equal": [a["detail"]["runs"][0][key] == b["detail"]["runs"][0][key]
                                for a, b in zip(runs["parent"], runs["change"])]
               for key in ("input_digest", "outcome_digest")},
            "fixed_count": {
                "checks": FIXED_CHECKS[wl],
                "seeds": {
                    str(seed): {
                        **f,
                        "equal": _same_outcomes(f),
                        "outcome_digest_equal": f["parent"]["outcome_digest"] == f["change"]["outcome_digest"],
                    }
                    for seed, f in fixed.items()
                },
                "equal": all(map(_same_outcomes, fixed.values())),
            },
            "per_layer_seed1": {
                name: {"unit": v["unit"], "parent": v["value"], "change": traced["change"][name]["value"]}
                for name, v in traced["parent"].items() if name in traced["change"]
            },
        }
    d = first["change"]["detail"]
    record["sides"] = {side: _side(first[side]) for side in roots}
    record["machine"] = {
        "nproc": d["nproc"],
        "platform": d["platform"],
        "python": d["python"],
        "numpy": d["numpy"],
        "host_slowdown": {**_quartiles(slowdowns), "min": min(slowdowns), "max": max(slowdowns)},
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
