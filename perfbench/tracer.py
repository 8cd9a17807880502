"""Span tracing around the library's public functions, from outside.

``Tracer.install`` replaces each traced function with a wrapper, in its own
module and in every module that imported it by name (``integrals.theta``,
``tau.bracket``, ``picard.bracket`` and so on), so calls are caught whichever
binding they go through. Each call records a span: name, start, end, parent
span, check id, the exception type it raised (if any) and an optional detail
(node count, integral key, chain level). Spans stay in memory until the run
ends.
"""
from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, CHECK, RAISED, DETAIL, TOP = range(8)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.check: int | None = None  # None while setting up
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, detail=None):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            # "top" spans have no ancestor of the same name, so busy time
            # never counts a nested call twice.
            top = depth[name] == 0
            depth[name] += 1
            raised = None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                raised = type(err).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                depth[name] -= 1
                info = detail(args, kwargs) if detail is not None else None
                spans[idx] = (name, t0, t1, parent, self.check, raised, info, top)

        return traced

    def install(self, targets, modules) -> None:
        """targets: (module, attribute, span name, detail or None) tuples.
        Every binding of the original object in ``modules`` is replaced."""
        for mod, attr, name, detail in targets:
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, detail)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def write(self, path: str) -> None:
        """Dump every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tstart\tend\tparent\tcheck\traised\tdetail\n")
            for i, s in enumerate(self.spans):
                info = "" if s[DETAIL] is None else s[DETAIL]
                fh.write(f"{i}\t{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t{s[PARENT]}\t"
                         f"{s[CHECK]}\t{s[RAISED] or ''}\t{info}\n")


def node_count(args, kwargs):
    return int(np.size(args[0]))


def integral_key(args, kwargs):
    ctx = args[0]
    quad_tol = kwargs.get("quad_tol", args[1] if len(args) > 1 else None)
    return (ctx.n, hash((ctx.u, ctx.params.p, ctx.params.q, ctx.n, quad_tol)))


class Aggregate:
    """Per-name call counts, busy time, self time and raised exceptions over
    the spans that ``keep`` selects."""

    def __init__(self, spans, keep):
        child = np.zeros(len(spans))
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.raised = defaultdict(lambda: defaultdict(int))
        for i, s in enumerate(spans):
            if not keep(s):
                continue
            dur = s[END] - s[START]
            name = s[NAME]
            self.calls[name] += 1
            if s[TOP]:
                self.busy[name] += dur
            self.self_time[name] += dur - child[i]
            if s[RAISED]:
                self.raised[name][s[RAISED]] += 1


def _under(spans, name: str) -> np.ndarray:
    """Flags the spans that have an ancestor called ``name``."""
    flags = np.zeros(len(spans), dtype=bool)
    for i, s in enumerate(spans):
        p = s[PARENT]
        flags[i] = p >= 0 and (flags[p] or spans[p][NAME] == name)
    return flags


def _nearest(spans, i: int, name: str) -> int:
    p = spans[i][PARENT]
    while p >= 0 and spans[p][NAME] != name:
        p = spans[p][PARENT]
    return p


def layer_metrics(tracer: Tracer, checks: int, spares: int) -> dict:
    """Per-layer metrics. Timed-phase counts and times are per check; the
    set-up layers (frame enumeration, input draws) are totals in seconds."""
    spans = tracer.spans
    timed = Aggregate(spans, lambda s: s[CHECK] is not None)
    whole = Aggregate(spans, lambda s: True)
    per = 1.0 / max(checks, 1)
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    for fn in ("elliptic_gamma", "triple_gamma", "theta"):
        key = f"specialfn.{fn}"
        nodes = sum(s[DETAIL] for s in spans if s[NAME] == key and s[CHECK] is not None)
        put(f"{key}.calls", timed.calls[key] * per, "calls/check")
        put(f"{key}.nodes", nodes * per, "nodes/check")
        put(f"{key}.busy_s", timed.busy[key] * per, "s/check")
    put("specialfn.bracket.calls", timed.calls["specialfn.bracket"] * per, "calls/check")
    put("specialfn.bracket.busy_s", timed.busy["specialfn.bracket"] * per, "s/check")
    put("specialfn.pole_errors",
        timed.raised["specialfn.elliptic_gamma"]["PoleError"] * per, "errors/check")

    # Integrals: multiplicity from the recorded key; nodes under I_n are the
    # elliptic-gamma nodes of spans whose ancestry holds an I_n span.
    ins = [s for s in spans if s[NAME] == "integrals.I_n" and s[CHECK] is not None]
    n1 = sum(1 for s in ins if s[DETAIL][0] == 1)
    n2 = sum(1 for s in ins if s[DETAIL][0] == 2)
    nontrivial = [s for s in ins if s[DETAIL][0] >= 1]
    seen, repeats = set(), 0
    for s in nontrivial:
        repeats += s[DETAIL][1] in seen
        seen.add(s[DETAIL][1])
    under_in = _under(spans, "integrals.I_n")
    gamma_nodes_under = sum(
        s[DETAIL]
        for i, s in enumerate(spans)
        if s[NAME] == "specialfn.elliptic_gamma" and s[CHECK] is not None
        and under_in[i]
    )
    put("integrals.I_n.n1_calls", n1 * per, "calls/check")
    put("integrals.I_n.n2_calls", n2 * per, "calls/check")
    put("integrals.I_n.busy_s", timed.busy["integrals.I_n"] * per, "s/check")
    put("integrals.I_n.self_s", timed.self_time["integrals.I_n"] * per, "s/check")
    put("integrals.nodes_per_integral",
        gamma_nodes_under / (8 * len(nontrivial)) if nontrivial else 0.0, "nodes/integral")
    put("integrals.repeat_ratio", repeats / len(nontrivial) if nontrivial else 0.0, "ratio")
    put("integrals.errors.convergence",
        timed.raised["integrals.I_n"]["ConvergenceError"] * per, "errors/check")
    put("integrals.errors.admissibility",
        timed.raised["integrals.I_n"]["AdmissibilityError"] * per, "errors/check")

    for fn in ("hg_tau0", "hg_tau1"):
        put(f"tau.{fn}.calls", timed.calls[f"tau.{fn}"] * per, "calls/check")
        put(f"tau.{fn}.busy_s", timed.busy[f"tau.{fn}"] * per, "s/check")
    todas = timed.calls["tau.toda_step"]
    put("tau.toda_step.calls", todas * per, "calls/check")
    put("tau.toda_step.busy_s", timed.busy["tau.toda_step"] * per, "s/check")
    put("tau.toda_step.self_s", timed.self_time["tau.toda_step"] * per, "s/check")
    put("tau.toda_step.fallback_ratio",
        sum(timed.raised["tau.toda_step"].values()) / todas if todas else 0.0, "ratio")
    # A chain evaluation at level >= 2 is a hit when no toda_step ran beneath it.
    evals = {i for i, s in enumerate(spans)
             if s[NAME] == "tau.chain.eval" and s[CHECK] is not None and s[DETAIL] >= 2}
    missed = {_nearest(spans, i, "tau.chain.eval")
              for i, s in enumerate(spans) if s[NAME] == "tau.toda_step" and s[CHECK] is not None}
    put("tau.chain.hit_ratio", len(evals - missed) / len(evals) if evals else 0.0, "ratio")
    put("tau.hirota_residual.calls", timed.calls["tau.hirota_residual"] * per, "calls/check")
    put("tau.hirota_residual.self_s", timed.self_time["tau.hirota_residual"] * per, "s/check")
    put("tau.tau_n_det.busy_s", timed.busy["tau.tau_n_det"] * per, "s/check")
    put("tau.tau_n_int.busy_s", timed.busy["tau.tau_n_int"] * per, "s/check")
    put("tau.psi_variant.calls", timed.calls["tau.psi_variant"] * per, "calls/check")
    put("tau.psi_variant.busy_s", timed.busy["tau.psi_variant"] * per, "s/check")

    put("lattice.enumerate_frames.busy_s", whole.busy["lattice.enumerate_frames"], "s")
    put("lattice.frame_containing.busy_s", whole.busy["lattice.frame_containing"], "s")
    put("lattice.weyl_orbit.calls", timed.calls["lattice.weyl_orbit"] * per, "calls/check")
    put("lattice.weyl_orbit.busy_s", timed.busy["lattice.weyl_orbit"] * per, "s/check")

    put("sampling.draws", whole.calls["sampling.draw"], "count")
    put("sampling.busy_s", whole.busy["sampling.draw"], "s")
    put("sampling.retry_ratio", spares * per, "ratio")

    for fn in ("quadruple_hirota_residual", "translation_hirota_residual"):
        put(f"picard.{fn}.calls", timed.calls[f"picard.{fn}"] * per, "calls/check")
        put(f"picard.{fn}.self_s", timed.self_time[f"picard.{fn}"] * per, "s/check")
    put("picard.kac_translate.calls", timed.calls["picard.kac_translate"] * per, "calls/check")
    put("picard.kac_translate.busy_s", timed.busy["picard.kac_translate"] * per, "s/check")
    put("picard.coords.busy_s", timed.busy["picard.coords"] * per, "s/check")
    return out


def targets(modules):
    """The traced public functions: (module, attribute, span name, detail)."""
    specialfn, integrals, tau, lattice, picard = (
        modules[k] for k in ("specialfn", "integrals", "tau", "lattice", "picard")
    )
    return [
        (specialfn, "elliptic_gamma", "specialfn.elliptic_gamma", node_count),
        (specialfn, "triple_gamma", "specialfn.triple_gamma", node_count),
        (specialfn, "theta", "specialfn.theta", node_count),
        (specialfn, "bracket", "specialfn.bracket", None),
        (integrals, "I_n", "integrals.I_n", integral_key),
        (tau, "hg_tau0", "tau.hg_tau0", None),
        (tau, "hg_tau1", "tau.hg_tau1", None),
        (tau, "toda_step", "tau.toda_step", None),
        (tau, "hirota_residual", "tau.hirota_residual", None),
        (tau, "tau_n_det", "tau.tau_n_det", None),
        (tau, "tau_n_int", "tau.tau_n_int", None),
        (tau, "psi_variant", "tau.psi_variant", None),
        (lattice, "enumerate_frames", "lattice.enumerate_frames", None),
        (lattice, "frame_containing", "lattice.frame_containing", None),
        (lattice, "weyl_orbit", "lattice.weyl_orbit", None),
        (picard, "quadruple_hirota_residual", "picard.quadruple_hirota_residual", None),
        (picard, "translation_hirota_residual", "picard.translation_hirota_residual", None),
        (picard, "kac_translate", "picard.kac_translate", None),
        (picard, "coords_forward", "picard.coords", None),
        (picard, "coords_back", "picard.coords", None),
    ]


def trace_chain(tracer: Tracer, chain, tau_module) -> None:
    """Route a chain's entry points through ``tau.chain.eval`` spans carrying
    the level, so chain hits can be told from fresh Toda steps."""
    ev = chain.evaluator
    locate = ev.domain.locate

    def level_of_eval(args, kwargs):
        try:
            return locate(args[0])
        except ValueError:
            return -1

    chain.evaluator = tau_module.TauEvaluator(
        tracer.wrap("tau.chain.eval", ev.fn, level_of_eval), ev.params, ev.domain
    )
    chain._tau_at = tracer.wrap("tau.chain.eval", chain._tau_at, lambda a, k: a[0])


def loaded_modules(prefixes=("e8tau", "workloads")):
    """The library's modules and the benchmark's own, whose by-name imports
    of traced functions must be patched too."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and name.split(".")[0] in prefixes]
