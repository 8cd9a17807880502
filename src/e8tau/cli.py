"""Command-line front end: enumeration counts, identity suites, chain builds.

Reports are JSON documents with one entry per check carrying id,
paper_anchor, residual or count, tolerance, and pass; a residual whose
terms all vanished also carries "degenerate": true, and fails. Each check
is one row of the table _CHECKS, and one runner (_measure) turns rows into
entries.
All randomness flows through the counter-based generator in sampling, so a
fixed (config, seed) pair reproduces every numeric field; wall time is the
one exempt field.
Exit status is 0 exactly when every check passes.

Config files are JSON with complex numbers as [re, im] pairs:

    {
      "seed": 1729, "n_max": 2, "quad_tol": 1e-8,
      "trials": {"specialfn": 200, "hirota": 10, "bailey": 2,
                 "chain": 2, "picard": 3},
      "tolerances": {"three_term": 1e-10},
      "params": {"chain": {"p": [0.03, 0.0], "q": [0.45, 0.0]}}
    }
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, reduce
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import integrals, lattice, picard, sampling, tau
from .integrals import N_MAX, IntegrandContext
from .specialfn import EllipticParams, bracket_scaled_many, three_term_residual
from .util import RESAMPLE_ERRORS, ConvergenceError, DomainError, Residual, e, normalized_residual, resampled

SUITES = ("counts", "specialfn", "hirota", "bailey", "chain", "picard")

_DEFAULT_TRIALS = {
    "specialfn": 200,
    "hirota": 10,
    "bailey": 2,
    "chain": 2,
    "picard": 3,
}

_DEFAULT_TOLERANCES = {
    "three_term": 1e-10,
    "hirota": 1e-9,
    "bailey": 1e-8,
    "contiguity": 1e-8,
    "transform_in": 1e-6,
    "terminating": 1e-9,
    "warnaar": 1e-9,
    "toda": 1e-8,
    "chain_family": 1e-7,
    "ratio": 1e-9,
    "half_level": 1e-7,
    "det_vs_quad": 1e-6,
    "variant": 1e-6,
    "roundtrip": 1e-12,
    "lattice_hirota": 1e-6,
    "two_path": 1e-10,
    "build": 1e-6,
}

_DEFAULT_PARAMS = {
    "hirota": (0.2, 0.35),
    "bailey": (0.15, 0.10),
    "terminating": (0.05, 0.15),
    "chain": (0.03, 0.45),
    "picard": (0.03, 0.45),
}


@dataclass
class SuiteConfig:
    seed: int = 1729
    n_max: int = 2
    quad_tol: float = 1e-8
    trials: dict = field(default_factory=lambda: dict(_DEFAULT_TRIALS))
    tolerances: dict = field(default_factory=lambda: dict(_DEFAULT_TOLERANCES))
    params: dict = field(default_factory=dict)

    def elliptic(self, block: str) -> EllipticParams:
        pq = self.params.get(block, _DEFAULT_PARAMS[block])
        return EllipticParams.from_bases(*pq)


def _complex_of(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(isinstance(t, (int, float)) for t in v):
        return complex(v[0], v[1])
    raise ValueError(f"expected a number or [re, im] pair, got {v!r}")


def _checked(what: str, v, kind: type):
    """v as kind: dict, float (any JSON number) or int (a whole one)."""
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    whole = number and v % 1 == 0
    if not {dict: isinstance(v, dict), float: number, int: whole}[kind]:
        raise ValueError(f"{what} must be a JSON {kind.__name__}, got {v!r}")
    return kind(v)


def _known(what: str, raw, names) -> dict:
    """raw as a JSON object whose keys are all in names: a misspelt key would
    otherwise leave its default in force without a word."""
    unknown = sorted(set(_checked(what, raw, dict)) - set(names))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {what}; expected one of {sorted(names)}")
    return raw


def load_config(
    path: str | None = None,
    seed: int | None = None,
    tol: float | None = None,
    trials: int | None = None,
    quad_tol: float | None = None,
) -> SuiteConfig:
    cfg = SuiteConfig()
    if path is not None:
        keys = ("seed", "n_max", "quad_tol", "trials", "tolerances", "params")
        raw = _known("config root", json.loads(Path(path).read_text()), keys)
        cfg.seed = _checked("seed", raw.get("seed", cfg.seed), int)
        cfg.n_max = _checked("n_max", raw.get("n_max", cfg.n_max), int)
        cfg.quad_tol = _checked("quad_tol", raw.get("quad_tol", cfg.quad_tol), float)
        for k, v in _known("trials", raw.get("trials", {}), _DEFAULT_TRIALS).items():
            cfg.trials[k] = _checked(f"trial count '{k}'", v, int)
        for k, v in _known("tolerances", raw.get("tolerances", {}), _DEFAULT_TOLERANCES).items():
            cfg.tolerances[k] = _checked(f"tolerance '{k}'", v, float)
        for block, pq in _known("params", raw.get("params", {}), _DEFAULT_PARAMS).items():
            pq = _known(f"params block '{block}'", pq, ("p", "q"))
            if "p" not in pq or "q" not in pq:
                raise ValueError(f"params block '{block}' needs both 'p' and 'q'")
            pair = (_complex_of(pq["p"]), _complex_of(pq["q"]))
            EllipticParams.from_bases(*pair)  # validate moduli now
            cfg.params[block] = pair
    if seed is not None:
        cfg.seed = seed
    if tol is not None:
        cfg.tolerances = {k: tol for k in cfg.tolerances}
    if trials is not None:
        cfg.trials = {k: trials for k in cfg.trials}
    if quad_tol is not None:
        cfg.quad_tol = quad_tol
    if not 1 <= cfg.n_max <= N_MAX:
        raise ValueError(f"n_max must be between 1 and {N_MAX}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be at least 0, got {cfg.seed}")
    for what, v in (("quad_tol", cfg.quad_tol), *((f"tolerance '{k}'", v) for k, v in cfg.tolerances.items())):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{what} must be finite and above 0, got {v}")
    for k, v in cfg.trials.items():
        if v < 1:
            raise ValueError(f"trial count '{k}' must be at least 1, got {v}")
    return cfg


def _residual_check(cid: str, anchor: str, value, tol: float) -> dict:
    """The entry of one residual: it passes below tol, unless it is a
    degenerate Residual (every term vanished), which fails and is marked."""
    v = float(value)
    entry = {"id": cid, "paper_anchor": anchor, "residual": v, "tolerance": tol, "pass": bool(v < tol)}
    if getattr(value, "degenerate", False):
        entry["pass"], entry["degenerate"] = False, True
    return entry


def _count_check(cid: str, anchor: str, got: int, want: int) -> dict:
    return {
        "id": cid,
        "paper_anchor": anchor,
        "count": int(got),
        "expected": int(want),
        "tolerance": 0,
        "pass": got == want,
    }


def _larger(a: float, b: float) -> float:
    """The larger residual; a NaN wins, so a non-finite residual fails its
    row. A degenerate Residual on either side makes the result degenerate."""
    top = b if b > a or math.isnan(b) else a
    if getattr(a, "degenerate", False) or getattr(b, "degenerate", False):
        return Residual(top, degenerate=True)
    return top


def _worst(once: Callable[[], Any], trials: int):
    """Largest of trials residuals drawn in turn (a non-finite one wins),
    degenerate when any trial was. A draw that returns a tuple of residuals
    keeps a largest per position."""
    worst = 0.0
    for _ in range(trials):
        r = once()
        if isinstance(r, tuple):
            prev = worst if isinstance(worst, tuple) else (worst,) * len(r)
            worst = tuple(map(_larger, prev, r))
        else:
            worst = _larger(worst, r)
    return worst


# ------------------------------------------------------ one-trial checks
#
# Each body draws one point from rng and returns its residual. The check
# table below and the acceptance criteria in tests/test_acceptance.py both
# call them, each with its own seed, trial count, quadrature target and bound.


def _three_term_once(rng) -> Residual:
    base = (0.05 + 0.45 * rng.random()) * e(rng.random())
    par = EllipticParams.from_bases(base, 0.3)
    z, a, b, g = (0.4 * complex(rng.standard_normal(), rng.standard_normal()) for _ in range(4))
    return three_term_residual(z, a, b, g, par)


def _reflection_once(rng, par: EllipticParams, quad_tol: float) -> tuple[Residual, Residual]:
    """Residuals of the tilde and hat reflections at a point balanced to p^2 q^2."""
    p, q = par.p, par.q
    u = sampling.sample_balanced(rng, (p * q) ** 2, abs(p * q) ** 0.25)
    ctx = IntegrandContext(u=u, params=par)
    return (
        integrals.bailey_residual(ctx, "tilde", quad_tol=quad_tol),
        integrals.bailey_residual(ctx, "hat", quad_tol=quad_tol),
    )


def _contiguity_once(rng, par: EllipticParams, quad_tol: float) -> Residual:
    u = tuple(0.4 * e(t) for t in rng.random(8))
    ctx = IntegrandContext(u=u, params=par)
    return integrals.contiguity_residual(ctx, 0, 3, 6, quad_tol=quad_tol)


def _ratio_once(rng, par: EllipticParams) -> Residual:
    """Level-0 shift ratio of the chain against its bracket ratio, cross
    multiplied: tau(x +- a1 delta) [<a0 +- a2, x>] - tau(x +- a2 delta)
    [<a0 +- a1, x>], the four brackets first, in one batch."""
    a0, a1, a2 = tau.oriented_triple(tau.A1_VECTORS[:3])
    x = sampling.sample_on_level(rng, par, 0)
    d = par.delta
    p0, p1, p2 = (lattice.pairing_c(v, x) for v in (a0, a1, a2))
    br = bracket_scaled_many([p0 + p2, p0 - p2, p0 + p1, p0 - p1], par)
    v1p, v1m, v2p, v2m = (tau.hg_tau0(x + s * d * a.true_coords(), par) for a in (a1, a2) for s in (1, -1))
    return normalized_residual([(v1p, v1m, br[0], br[1]), (-v2p, v2m, br[2], br[3])])


def _det_vs_quad_once(rng, par: EllipticParams, n: int, quad_tol: float) -> Residual:
    x = sampling.sample_on_level(rng, par, n)
    det = tau.tau_n_det(n, x, "frame_a0", par, quad_tol=quad_tol)
    quad = tau.tau_n_int(n, x, "direct", par, quad_tol=quad_tol)
    return normalized_residual([(det,), (-quad,)])


def _transform_once(rng, par: EllipticParams, quad_tol: float) -> tuple[Residual, Residual]:
    """Residuals of the multiplicity-two tilde and hat transformations."""
    t = sampling.sample_balanced(rng, par.p**2, abs(par.p) ** 0.25)
    ctx2 = IntegrandContext(u=t, params=par, n=2)
    return (
        integrals.In_transform_residual(ctx2, "tilde_n", quad_tol=quad_tol),
        integrals.In_transform_residual(ctx2, "hat_n", quad_tol=quad_tol),
    )


def _terminating_family(rng, N: int, params: EllipticParams):
    """u with product q^2, q/u_0 u_1 = q^{-N}, solved last slot."""
    q = params.q
    u0 = 0.45 * e(rng.random())
    u1 = q ** (N + 1) / u0
    mid_mod = 0.75 if N < 2 else 0.9
    mid = [mid_mod * e(t) for t in rng.random(5)]
    u7 = q ** (1 - N) / math.prod(mid)
    return (u0, u1, *mid, u7)


def _terminating_once(rng, par: EllipticParams, order: int, quad_tol: float) -> Residual:
    u = _terminating_family(rng, order, par)
    p = par.p
    lhs_args = (p * u[0], *u[1:7], p * u[7])
    lhs = integrals.I(IntegrandContext(u=lhs_args, params=par), quad_tol=quad_tol)
    return normalized_residual([(lhs,), (-integrals.terminating_eval(u, par, order),)])


def _warnaar_once(rng, par: EllipticParams, n: int) -> Residual:
    """Theta-factorial determinant of order n at a random a, b and z."""
    a = 0.40 * e(rng.random())
    b = 0.55 * e(rng.random())
    zs = tuple((0.5 + 0.4 * rng.random()) * e(t) for t in rng.random(n))
    return tau.warnaar_det_residual(a, b, zs, n, par)


def _kac_laws(h: picard.PicardVector) -> list[bool]:
    """Additivity, the fixed null vector, the isometry and Weyl equivariance
    of Kac translations, evaluated at h."""
    a, b = picard.AFFINE_ROOTS[2], picard.AFFINE_ROOTS[5] + picard.AFFINE_ROOTS[0]
    return [
        picard.kac_translate(a, picard.kac_translate(b, h)) == picard.kac_translate(a + b, h),
        picard.kac_translate(picard.C, h) == h,
        picard.kac_translate(a, picard.C) == picard.C,
        picard.picard_ip(picard.kac_translate(a, h), picard.kac_translate(a, h))
        == picard.picard_ip(h, h),
        picard.apply_word((1, 4), picard.kac_translate(a, picard.apply_word((4, 1), h)))
        == picard.kac_translate(picard.apply_word((1, 4), a), h),
    ]


def _round_trip_once(rng) -> float:
    """Largest coordinate error of coords_back after coords_forward."""
    x = 0.3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    mu = complex(rng.standard_normal(), rng.standard_normal())
    kappa = 0.3 + 0.4 * rng.random()
    xb, mub, kapb = picard.coords_back(picard.coords_forward(x, mu, kappa))
    return reduce(_larger, (float(np.max(np.abs(xb - x))), abs(mub - mu), abs(kapb - kappa)))


def _chart_point(rng, level: complex) -> np.ndarray:
    """Point on level whose moduli |e(x_i)| sit near their geometric mean
    |e(level)|^(1/4), forced because half the coordinate sum equals level."""
    m = abs(e(level)) ** 0.25
    return sampling.sample_level_x(rng, level, (0.95 * m, 1.05 * m), (m / 1.2, 1.2 * m))


_LATTICE_QUADS = ((1, 2, 3, 4), (2, 5, 7, 3), (1, 3, 6, 7), (4, 6, 2, 9), (1, 2, 3, 8))


def _lattice_hirota_once(rng, ev: tau.TauEvaluator, par: EllipticParams, quad) -> Residual:
    """Quadruple bilinear residual of ev's lattice family on the level-2 chart."""
    x = _chart_point(rng, ev.domain.base + 2 * ev.domain.step)
    mu = complex(rng.standard_normal(), rng.standard_normal()) * 0.3
    eps = picard.coords_forward(x, mu, par.delta)
    return picard.quadruple_hirota_residual(ev, (), eps, quad)


# -------------------------------------------------------- the check table


_SHELL_ORBITS = (
    (lattice.PHI - lattice.V[0] + lattice.V[1], 126),
    (lattice.PHI - lattice.V[0].scaled(2), 576),
    (lattice.PHI - lattice.V[0].scaled(2) - lattice.V[6] - lattice.V[7], 756),
    (-lattice.V[0].scaled(2), 576),
    (-lattice.PHI - lattice.V[0] + lattice.V[1], 126),
)


class _Run:
    """What the rows of one run share: the config, the generator every body
    draws from in table order (seeded cfg.seed + offset), the parameter block
    they evaluate at, and the objects they check, each built on first use.
    depth is the chain's top level; break_tau multiplies the canonical
    solution by 1 + 0.1 e(<w, Re x + Im x>), w = (1..8)/7 (the --break-tau
    negative control)."""

    def __init__(self, cfg: SuiteConfig, offset: int, block: str, depth: int | None = None, break_tau: bool = False):
        self.cfg, self.block = cfg, block
        self.rng = sampling.make_rng(cfg.seed + offset)
        self.depth = max(cfg.n_max, 2) if depth is None else depth
        self.break_tau = break_tau

    @cached_property
    def par(self) -> EllipticParams:
        return self.cfg.elliptic(self.block)

    @cached_property
    def hirota_taus(self) -> dict[str, tuple[tau.TauEvaluator, lattice.Frame | None]]:
        """The canonical solution and its three transforms, each with the
        frame it is checked on (None: a random 3-frame per trial)."""
        base = tau.canonical_tau(0.21 + 0.05j, self.par)
        if self.break_tau:
            # a relative corruption of fixed modulus, seen at every magnitude;
            # one of Re x alone would not be, as delta is imaginary at real q
            inner, w = base.fn, np.arange(1, 9) / 7
            base = tau.TauEvaluator(lambda x: inner(x) * (1 + 0.1 * e(np.dot(w, x.real + x.imag))), self.par)
        gauge = tau.ExpGauge(k=0.3 - 0.1j, v=tuple(0.2j * k for k in range(8)), c=0.7)
        shift = tau.PeriodShift(lattice.vec(2, 2, -2, -2, 0, 0, 0, 0), (1, 0))
        # Whole-lattice shifts pair integrally with the standard triple only.
        std = lattice.Frame.from_vectors(tau.A1_VECTORS[:3])
        return {
            "canonical": (base, None),
            "gauged": (tau.transform(base, gauge), None),
            "weyl-mapped": (tau.transform(base, tau.WeylMap((3, 0, 7, 5))), None),
            "period-shifted": (tau.transform(base, shift), std),
        }

    @cached_property
    def chain(self) -> tau.TauChain:
        return tau.build_chain(self.depth, params=self.par, quad_tol=self.cfg.quad_tol)

    @cached_property
    def pm(self) -> tau.TauEvaluator:
        return tau.variant_evaluator("pm", self.par, quad_tol=self.cfg.quad_tol)


@lru_cache(maxsize=None)
def _frames_of(rank: int, ftype: lattice.FrameType | None = None) -> tuple[lattice.Frame, ...]:
    """The rank-frames of type ftype (all of them for None), in enumeration order."""
    return tuple(f for f in lattice.enumerate_frames(rank) if ftype in (None, f.frame_type))


def _frame_count(rank: int, ftype, run, k) -> int:
    return len(_frames_of(rank, ftype))


def _orbit_count(seed, run, k) -> int:
    return len(lattice.weyl_orbit(seed, "E7"))


def _frame_hirota_once(which: str, run: _Run, k) -> Residual:
    """Bilinear residual of one of the hirota taus at a general point."""
    ev, frame = run.hirota_taus[which]
    if frame is None:
        frames = _frames_of(3)
        frame = frames[int(run.rng.integers(len(frames)))]
    x = 0.35 * (run.rng.standard_normal(8) + 1j * run.rng.standard_normal(8))
    return tau.hirota_residual(ev, frame, x, run.par)


def _toda_spread_once(run: _Run, k) -> Residual:
    """Spread of the chain's top-level value and three Toda steps over the
    two levels below it: the largest two-term residual of each against the
    first step, the recursion as the integral family's reference."""
    n = run.depth
    x = sampling.sample_on_level(run.rng, run.par, n)
    lower, upper = run.chain.components[n - 2], run.chain.components[n - 1]
    frame8 = lattice.frame_containing(tau.A1_VECTORS[0])
    vals = tau.toda_steps(lower, upper, frame8, ((2, 3), (4, 6), (7, 2)), x, run.par)
    vals.append(run.chain.value(n, x))
    return reduce(_larger, [normalized_residual([(v,), (-vals[0],)]) for v in vals[1:]])


def _chain_bilinear_once(ftype, index: int, level: float, run: _Run, k) -> Residual:
    """Bilinear residual of the chain on the index-th frame of type ftype."""
    x = sampling.sample_on_level(run.rng, run.par, level)
    return tau.hirota_residual(run.chain.evaluator, _frames_of(3, ftype)[index], x, run.par)


_VARIANTS = tuple(tau._CHARTS)


def _variant_routes_once(run: _Run, k: int) -> Residual:
    """Direct against inverse route of variant k at its first level."""
    variant, par, quad_tol = _VARIANTS[k], run.par, run.cfg.quad_tol
    dom = tau._levels(variant, par)
    x = _chart_point(run.rng, dom.base + dom.step)
    d = tau.psi_variant(1, x, variant, par, route="direct", quad_tol=quad_tol)
    i = tau.psi_variant(1, x, variant, par, route="inverse", quad_tol=quad_tol)
    return normalized_residual([(d,), (-i,)])


def _two_path_once(run: _Run, k) -> Residual:
    """Translation against frame residual of the pm family at level 1: their
    absolute difference, degenerate when either residual is."""
    frame = _frames_of(3, lattice.FrameType.C3_II0)[0]
    x = _chart_point(run.rng, run.pm.domain.base + run.pm.domain.step)
    r1 = picard.translation_hirota_residual(run.pm, tau.oriented_triple(frame), x)
    r2 = tau.hirota_residual(run.pm, frame, x, run.par)
    return Residual(abs(r1 - r2), degenerate=r1.degenerate or r2.degenerate)


@dataclass(frozen=True)
class Check:
    """One row of the check table.

    body(run, k) evaluates trial k, drawing from run.rng, and returns one
    residual per id (one anchor each, or one for all), or a count. bound is
    the residual's key in cfg.tolerances, or the exact count expected.
    trials maps cfg.trials to the number of trials (one by default), whose
    largest residual is reported: a single trial's own, as every residual and
    count is at least +0.0. retry redraws a trial that lands on a non-generic
    point. verify names the `e8tau verify` identity that runs the row alone.
    """

    suite: str
    ids: str | tuple[str, ...]
    anchors: str | tuple[str, ...]
    body: Callable[[_Run, int], Any]
    bound: str | int
    trials: Callable[[dict], int] = lambda t: 1
    retry: bool = False
    verify: str | None = None

    def __post_init__(self):
        ids = (self.ids,) if isinstance(self.ids, str) else self.ids
        anchors = (self.anchors,) * len(ids) if isinstance(self.anchors, str) else self.anchors
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "anchors", anchors)


_FT = lattice.FrameType

_CHECKS = (
    Check("counts", "roots", "§1 theta series", lambda run, k: len(lattice.enumerate_norm(2)), bound=240),
    Check("counts", "norm-4-shell", "§1 theta series", lambda run, k: len(lattice.enumerate_norm(4)), bound=2160),
    Check("counts", "c8-frames", "Prop 1A(3)", partial(_frame_count, 8, None), bound=135),
    Check("counts", "c3-frames", "§2", partial(_frame_count, 3, None), bound=7560),
    Check("counts", "c8-type-i", "Prop 3A", partial(_frame_count, 8, _FT.C8_I), bound=72),
    Check("counts", "c8-type-ii", "Prop 3A", partial(_frame_count, 8, _FT.C8_II), bound=63),
    *(
        Check("counts", f"c3-{ftype.name[3:].lower()}", "Prop 3B", partial(_frame_count, 3, ftype), bound=want)
        for ftype, want in ((_FT.C3_I, 4032), (_FT.C3_II0, 1260), (_FT.C3_II1, 1890), (_FT.C3_II2, 378))
    ),
    *(
        Check("counts", f"shell-orbit-{k}", "§3 table", partial(_orbit_count, seed), bound=want)
        for k, (seed, want) in enumerate(_SHELL_ORBITS)
    ),
    Check("specialfn", "three-term", "Eq. (three-term)", lambda run, k: _three_term_once(run.rng),
          bound="three_term", trials=lambda t: t["specialfn"]),
    Check("hirota", "canonical", "Prop 2A", partial(_frame_hirota_once, "canonical"),
          bound="hirota", trials=lambda t: t["hirota"]),
    *(
        Check("hirota", which, anchor, partial(_frame_hirota_once, which),
              bound="hirota", trials=lambda t: max(1, t["hirota"] // 2))
        for which, anchor in (("gauged", "Thm 2B(1)"), ("weyl-mapped", "Thm 2B(2)"), ("period-shifted", "Thm 2B(3)"))
    ),
    Check("bailey", ("reflection-tilde", "reflection-hat"), ("Thm 5A(1)", "Thm 5A(2)"),
          lambda run, k: _reflection_once(run.rng, run.par, run.cfg.quad_tol),
          bound="bailey", trials=lambda t: t["bailey"], verify="bailey"),
    Check("bailey", "contiguity", "Prop 5B", lambda run, k: _contiguity_once(run.rng, run.par, run.cfg.quad_tol),
          bound="contiguity", trials=lambda t: max(3, t["bailey"]), verify="contiguity"),
    Check("bailey", ("transform-multiplicity-tilde", "transform-multiplicity-hat"),
          ("Eq. (transIn1)", "Eq. (transIn2)"), lambda run, k: _transform_once(run.rng, run.par, run.cfg.quad_tol),
          bound="transform_in", verify="transform-in"),
    Check("bailey", "terminating-series", "Eq. (ItoV)",
          lambda run, k: _terminating_once(run.rng, run.cfg.elliptic("terminating"), k + 1, run.cfg.quad_tol),
          bound="terminating", trials=lambda t: 2, verify="terminating"),
    Check("bailey", "theta-factorial-det", "Warnaar lemma",
          lambda run, k: _warnaar_once(run.rng, run.par, 2 + k // run.cfg.trials["bailey"]),
          bound="warnaar", trials=lambda t: 2 * t["bailey"]),
    Check("chain", "toda-step", "Thm 3C", _toda_spread_once, bound="toda", retry=True),
    Check("chain", "chain-family-ii2", "Thm 3C (C1)", partial(_chain_bilinear_once, _FT.C3_II2, 0, 1),
          bound="chain_family", trials=lambda t: t["chain"], retry=True),
    Check("chain", "chain-family-i", "Thm 3C (C2)", partial(_chain_bilinear_once, _FT.C3_I, 0, 1.5),
          bound="chain_family", trials=lambda t: t["chain"], retry=True),
    Check("chain", "chain-family-ii0", "Thm 3C (C3)", partial(_chain_bilinear_once, _FT.C3_II0, 0, 2),
          bound="chain_family", trials=lambda t: t["chain"], retry=True),
    Check("chain", "level0-shift-ratio", "Eq. (4AII1)", lambda run, k: _ratio_once(run.rng, run.par),
          bound="ratio", trials=lambda t: t["chain"], retry=True),
    Check("chain", "half-level-family", "Eq. (4AI)", partial(_chain_bilinear_once, _FT.C3_I, 1, 1.5),
          bound="half_level", trials=lambda t: t["chain"], retry=True),
    Check("chain", "det-vs-quadrature", "Thm 6B vs Thm 6C",
          lambda run, k: _det_vs_quad_once(run.rng, run.par, run.cfg.n_max, run.cfg.quad_tol),
          bound="det_vs_quad", retry=True),
    Check("chain", "variant-routes", "Thm 8A", _variant_routes_once,
          bound="variant", trials=lambda t: len(_VARIANTS), retry=True),
    Check("picard", "kac-group-laws", "§9.1",
          lambda run, k: sum(_kac_laws(picard.pic(*[int(v) for v in run.rng.integers(-4, 5, size=10)]))), bound=5),
    Check("picard", "coordinates-round-trip", "§9.2", lambda run, k: _round_trip_once(run.rng),
          bound="roundtrip", trials=lambda t: t["picard"]),
    Check("picard", "lattice-hirota", "Eq. (Hirota39)",
          lambda run, k: _lattice_hirota_once(run.rng, run.pm, run.par, _LATTICE_QUADS[k % len(_LATTICE_QUADS)]),
          bound="lattice_hirota", trials=lambda t: t["picard"], retry=True),
    Check("picard", "translation-vs-frame", "Prop 9A", _two_path_once, bound="two_path", retry=True),
)


def _build_rows(n: int) -> list[Check]:
    """tau build's rows: each level's closed form up to n, then one bilinear
    family whose shifted levels all stay inside [0, n], then from n = 2 the
    Toda recursion into level n."""
    ftype, level = (_FT.C3_I, 0.5) if n == 1 else (_FT.C3_II0, n)
    rows = [
        Check("tau-build", f"level-{k}-closed-form", "Thm 6B",
              lambda run, _, k=k: _det_vs_quad_once(run.rng, run.par, k, run.cfg.quad_tol), bound="build", retry=True)
        for k in range(n + 1)
    ]
    rows.append(Check("tau-build", "chain-bilinear", "Thm 3C", partial(_chain_bilinear_once, ftype, 0, level),
                      bound="chain_family", retry=True))
    if n >= 2:
        rows.append(Check("tau-build", "toda-step", "Thm 3C", _toda_spread_once, bound="toda", retry=True))
    return rows


def _exact_counts() -> list[tuple[str, str, int, int]]:
    """(id, paper anchor, count, expected) for the norm shells, the frame
    counts and types, and the E7 orbits of the norm-4 shell."""
    return [(r.ids[0], r.anchors[0], r.body(None, 0), r.bound) for r in _CHECKS if r.suite == "counts"]


# ----------------------------------------------------------------- runner


def _measure(row: Check, run: _Run) -> list[dict]:
    """Report entries of one row: its trials drawn in turn on run."""
    ks = itertools.count()

    def trial():
        k = next(ks)
        return resampled(lambda: row.body(run, k)) if row.retry else row.body(run, k)

    got = _worst(trial, row.trials(run.cfg.trials))
    if isinstance(row.bound, int):
        return [_count_check(row.ids[0], row.anchors[0], got, row.bound)]
    if not isinstance(got, tuple):
        got = (got,) * len(row.ids)  # one residual for every id
    tol = run.cfg.tolerances[row.bound]
    return [_residual_check(cid, anchor, v, tol) for cid, anchor, v in zip(row.ids, row.anchors, got)]


def _report(name: str, cfg: SuiteConfig, runs, **extra) -> dict:
    """Measure the rows of each (run, rows) pair in turn; the one report."""
    t0 = time.perf_counter()
    checks = [c for run, rows in runs for row in rows for c in _measure(row, run)]
    return {
        "suite": name,
        "seed": cfg.seed,
        **extra,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }


def run_suite(name: str, cfg: SuiteConfig, break_tau: bool = False) -> dict:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite '{name}'")
    # A suite draws from cfg.seed + its index in SUITES.
    runs = (
        (_Run(cfg, SUITES.index(s), s, break_tau=break_tau), [r for r in _CHECKS if r.suite == s])
        for s in (SUITES if name == "all" else (name,))
    )
    return _report(name, cfg, runs)


# ------------------------------------------------------------ subcommands


def _emit(report: dict, json_path: str | None) -> int:
    doc = json.dumps(report, indent=2, sort_keys=True)
    if json_path == "-":
        print(doc)
    else:
        for c in report["checks"]:
            status = "pass" if c["pass"] else "FAIL"
            if "residual" in c:
                metric = f"residual={c['residual']:.3e} tol={c['tolerance']:g}"
                metric += " degenerate" if c.get("degenerate") else ""
            else:
                metric = f"count={c['count']} expected={c['expected']}"
            print(f"[{status}] {c['id']:<28} {c['paper_anchor']:<18} {metric}")
        print(f"suite={report['suite']} pass={report['pass']} wall_time_s={report['wall_time_s']}")
        if json_path:
            Path(json_path).write_text(doc + "\n")
    return 0 if report["pass"] else 1


def _cmd_verify(identity: str, cfg: SuiteConfig, json_path: str | None) -> int:
    rows = [r for r in _CHECKS if r.verify == identity]
    return _emit(_report(f"verify-{identity}", cfg, [(_Run(cfg, SUITES.index("bailey"), "bailey"), rows)]), json_path)


def _cmd_tau_build(cfg: SuiteConfig, n: int | None, json_path: str | None) -> int:
    n = cfg.n_max if n is None else n
    if not 1 <= n <= N_MAX:
        print(f"build level must be between 1 and {N_MAX}", file=sys.stderr)
        return 2
    report = _report("tau-build", cfg, [(_Run(cfg, 7, "chain", depth=n), _build_rows(n))], n_max=n)
    return _emit(report, json_path)


def _parse_x(text: str) -> np.ndarray:
    toks = text.replace(";", " ").split()
    if len(toks) != 8:
        raise ValueError("need eight coordinates, each as re,im or a bare real")
    out = []
    for t in toks:
        parts = t.split(",")
        if len(parts) > 2:
            raise ValueError(f"bad coordinate {t!r}")
        out.append(complex(*map(float, parts)))
    x = np.array(out, dtype=complex)
    if not np.all(np.isfinite(x)):
        raise ValueError("every coordinate must be finite")
    return x


def _cmd_tau_probe(cfg: SuiteConfig, x_text: str, n: int | None, json_path: str | None) -> int:
    try:
        x = _parse_x(x_text)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return 2
    par = cfg.elliptic("chain")
    chain = tau.build_chain(cfg.n_max, params=par, quad_tol=cfg.quad_tol)
    try:
        if n is None:
            n = chain.evaluator.domain.locate(x)
        # an overflow ends in the typed error below, not in numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            value = chain.value(n, x)
        if not np.isfinite(value):
            raise DomainError(f"tau value {value!r} at level {n} is not finite")
    except (ValueError, ConvergenceError) as err:
        print(f"probe failed: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    pairing = lattice.phi_pairing_c(x)
    doc = {
        "level": n,
        "value": [value.real, value.imag],
        "pairing": [pairing.real, pairing.imag],
    }
    if json_path:
        out = json.dumps(doc, indent=2, sort_keys=True)
        print(out) if json_path == "-" else Path(json_path).write_text(out + "\n")
    else:
        print(f"level={n} value={value.real:+.12e}{value.imag:+.12e}j")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="e8tau",
        description="Verification suites and chain builds for the frame bilinear identities.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config path (complex values as [re, im])")
    common.add_argument("--seed", type=int, help="RNG seed (counter-based generator)")
    common.add_argument("--tol", type=float, help="override every check tolerance")
    common.add_argument("--trials", type=int, help="override every suite trial count")
    common.add_argument("--quad-tol", dest="quad_tol", type=float, help="quadrature target")
    common.add_argument("--json", dest="json_path", help="write the JSON report here ('-': stdout)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("frames", parents=[common], help="frame family counts")

    v = sub.add_parser("verify", parents=[common], help="check one integral identity")
    v.add_argument("identity", choices=sorted(r.verify for r in _CHECKS if r.verify))

    t = sub.add_parser("tau", help="chain construction and point evaluation")
    tsub = t.add_subparsers(dest="tau_command", required=True)
    tb = tsub.add_parser("build", parents=[common])
    tb.add_argument("--n", type=int, help="top chain level (default: config n_max)")
    tp = tsub.add_parser("probe", parents=[common])
    tp.add_argument("--x", required=True, help="eight coordinates: re,im tokens")
    tp.add_argument("--n", type=int, help="expected level (default: locate from x)")

    pc = sub.add_parser("picard", help="hyperbolic-lattice checks")
    psub = pc.add_subparsers(dest="picard_command", required=True)
    psub.add_parser("check", parents=[common])

    s = sub.add_parser("suite", parents=[common], help="run a verification suite")
    s.add_argument("name", choices=SUITES + ("all",))
    s.add_argument("--break-tau", dest="break_tau", action="store_true",
                   help="corrupt the canonical solution (negative control; must fail)")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(
            getattr(args, "config", None),
            seed=getattr(args, "seed", None),
            tol=getattr(args, "tol", None),
            trials=getattr(args, "trials", None),
            quad_tol=getattr(args, "quad_tol", None),
        )
    except (ValueError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    # A check that still fails with a typed error after its redraws, a row
    # without redraws that fails once, or a DomainError fails the run.
    try:
        if args.command == "frames":
            return _emit(run_suite("counts", cfg), args.json_path)
        if args.command == "verify":
            return _cmd_verify(args.identity, cfg, args.json_path)
        if args.command == "tau":
            if args.tau_command == "build":
                return _cmd_tau_build(cfg, args.n, args.json_path)
            return _cmd_tau_probe(cfg, args.x, args.n, args.json_path)
        if args.command == "picard":
            return _emit(run_suite("picard", cfg), args.json_path)
        return _emit(run_suite(args.name, cfg, break_tau=args.break_tau), args.json_path)
    except (*RESAMPLE_ERRORS, DomainError) as err:
        print(f"check failed: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # the --json file could not be written
        print(f"report error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
