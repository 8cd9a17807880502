"""Command-line front end: enumeration counts, identity suites, chain builds.

Reports are JSON documents with one entry per check carrying id,
paper_anchor, residual or count, tolerance, and pass.  All randomness flows
through the counter-based generator in sampling, so a fixed (config, seed)
pair reproduces every numeric field; wall time is the one exempt field.
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
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import integrals, lattice, picard, sampling, tau
from .integrals import IntegrandContext
from .specialfn import EllipticParams, bracket_pm, three_term_residual
from .util import DomainError, e, rel_diff, resampled

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
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    raise ValueError(f"expected a number or [re, im] pair, got {v!r}")


def load_config(
    path: str | None = None,
    seed: int | None = None,
    tol: float | None = None,
    trials: int | None = None,
    quad_tol: float | None = None,
) -> SuiteConfig:
    cfg = SuiteConfig()
    if path is not None:
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError("config root must be a JSON object")
        cfg.seed = int(raw.get("seed", cfg.seed))
        cfg.n_max = int(raw.get("n_max", cfg.n_max))
        cfg.quad_tol = float(raw.get("quad_tol", cfg.quad_tol))
        cfg.trials.update({k: int(v) for k, v in raw.get("trials", {}).items()})
        cfg.tolerances.update({k: float(v) for k, v in raw.get("tolerances", {}).items()})
        for block, pq in raw.get("params", {}).items():
            pair = (_complex_of(pq["p"]), _complex_of(pq["q"]))
            EllipticParams.from_bases(*pair)  # validate moduli now
            cfg.params[block] = pair
    if seed is not None:
        cfg.seed = seed
    if tol is not None:
        cfg.tolerances = {k: tol for k in cfg.tolerances}
    if trials is not None:
        cfg.trials = {k: max(1, trials) for k in cfg.trials}
    if quad_tol is not None:
        cfg.quad_tol = quad_tol
    if not 1 <= cfg.n_max <= 3:
        raise ValueError("n_max must be between 1 and 3")
    return cfg


def _residual_check(cid: str, anchor: str, value, tol: float) -> dict:
    v = float(value)
    return {"id": cid, "paper_anchor": anchor, "residual": v, "tolerance": tol, "pass": bool(v < tol)}


def _count_check(cid: str, anchor: str, got: int, want: int) -> dict:
    return {
        "id": cid,
        "paper_anchor": anchor,
        "count": int(got),
        "expected": int(want),
        "tolerance": 0,
        "pass": got == want,
    }


def _level_modulus(level: complex) -> float:
    # Half the coordinate sum equals level, so the geometric mean of the
    # multiplicative coordinates is |e(level)|^(1/4).
    return abs(e(level)) ** 0.25


def _worst(once: Callable[[], float], trials: int) -> float:
    """Largest of trials residuals drawn in turn (a NaN never wins)."""
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, once())
    return worst


# ------------------------------------------------------ one-trial checks
#
# Each body draws one point from rng and returns its residual. The suites
# below and the acceptance criteria in tests/test_acceptance.py both call
# them, each with its own seed, trial count, quadrature target and bound.


def _three_term_once(rng) -> float:
    base = (0.05 + 0.45 * rng.random()) * e(rng.random())
    par = EllipticParams.from_bases(base, 0.3)
    z, a, b, g = (0.4 * complex(rng.standard_normal(), rng.standard_normal()) for _ in range(4))
    return float(three_term_residual(z, a, b, g, par))


def _reflection_once(rng, par: EllipticParams, quad_tol: float) -> tuple[float, float]:
    """Residuals of the tilde and hat reflections, third base r = 0.12."""
    p, q = par.p, par.q
    u = sampling.sample_balanced(rng, (p * q) ** 2, abs(p * q) ** 0.25)
    ctx = IntegrandContext(u=u, params=EllipticParams.from_bases(p, q, r=0.12))
    return (
        float(integrals.bailey_residual(ctx, "tilde", quad_tol=quad_tol)),
        float(integrals.bailey_residual(ctx, "hat", quad_tol=quad_tol)),
    )


def _contiguity_once(rng, par: EllipticParams, quad_tol: float) -> float:
    u = tuple(0.4 * e(t) for t in rng.random(8))
    ctx = IntegrandContext(u=u, params=par)
    return float(integrals.contiguity_residual(ctx, 0, 3, 6, quad_tol=quad_tol))


def _ratio_once(rng, par: EllipticParams) -> float:
    """Level-0 shift ratio of the chain against its bracket ratio."""
    a0, a1, a2 = tau.oriented_triple(tau.A1_VECTORS[:3])
    x = sampling.sample_on_level(rng, par, 0)
    d = par.delta
    num = tau.hg_tau0(x + d * a1.true_coords(), par) * tau.hg_tau0(x - d * a1.true_coords(), par)
    den = tau.hg_tau0(x + d * a2.true_coords(), par) * tau.hg_tau0(x - d * a2.true_coords(), par)
    rhs = bracket_pm(lattice.pairing_c(a0, x), lattice.pairing_c(a1, x), par) / bracket_pm(
        lattice.pairing_c(a0, x), lattice.pairing_c(a2, x), par
    )
    return rel_diff(num / den, rhs)


def _det_vs_quad_once(rng, par: EllipticParams, n: int, quad_tol: float) -> float:
    x = sampling.sample_on_level(rng, par, n)
    det = tau.tau_n_det(n, x, "frame_a0", par, quad_tol=quad_tol)
    quad = tau.tau_n_int(n, x, "direct", par, quad_tol=quad_tol)
    return rel_diff(det, quad)


def _transform_once(rng, par: EllipticParams, quad_tol: float) -> tuple[float, float]:
    """Residuals of the multiplicity-two tilde and hat transformations."""
    t = sampling.sample_balanced(rng, par.p**2, abs(par.p) ** 0.25)
    ctx2 = IntegrandContext(u=t, params=par, n=2)
    return (
        float(integrals.In_transform_residual(ctx2, "tilde_n", quad_tol=quad_tol)),
        float(integrals.In_transform_residual(ctx2, "hat_n", quad_tol=quad_tol)),
    )


def _terminating_family(rng, N: int, params: EllipticParams):
    """u with product q^2, q/u_0 u_1 = q^{-N}, solved last slot."""
    q = params.q
    u0 = 0.45 * e(rng.random())
    u1 = q ** (N + 1) / u0
    mid_mod = 0.75 if N < 2 else 0.9
    mid = [mid_mod * e(t) for t in rng.random(5)]
    prod_mid = 1.0 + 0j
    for v in mid:
        prod_mid *= v
    u7 = q ** (1 - N) / prod_mid
    return (u0, u1, *mid, u7)


def _terminating_once(rng, par: EllipticParams, order: int, quad_tol: float) -> float:
    u = _terminating_family(rng, order, par)
    p = par.p
    lhs_args = (p * u[0], *u[1:7], p * u[7])
    lhs = integrals.I(IntegrandContext(u=lhs_args, params=par), quad_tol=quad_tol)
    return rel_diff(lhs, integrals.terminating_eval(u, par, order))


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
    return max(float(np.max(np.abs(xb - x))), abs(mub - mu), abs(kapb - kappa))


_LATTICE_QUADS = ((1, 2, 3, 4), (2, 5, 7, 3), (1, 3, 6, 7), (4, 6, 2, 9), (1, 2, 3, 8))


def _lattice_hirota_once(rng, ev: tau.TauEvaluator, par: EllipticParams, quad) -> float:
    """Quadruple bilinear residual of ev's lattice family on the level-2 chart."""
    lev2 = -par.varpi + 2 * par.delta
    m2 = _level_modulus(lev2)
    x = sampling.sample_level_x(rng, lev2, (0.95 * m2, 1.05 * m2), (m2 / 1.2, 1.2 * m2))
    mu = complex(rng.standard_normal(), rng.standard_normal()) * 0.3
    eps = picard.coords_forward(x, mu, par.delta)
    return float(picard.quadruple_hirota_residual(ev, (), eps, quad))


# ------------------------------------------------------------------ suites


_SHELL_ORBITS = (
    (lattice.PHI - lattice.V[0] + lattice.V[1], 126),
    (lattice.PHI - lattice.V[0].scaled(2), 576),
    (lattice.PHI - lattice.V[0].scaled(2) - lattice.V[6] - lattice.V[7], 756),
    (-lattice.V[0].scaled(2), 576),
    (-lattice.PHI - lattice.V[0] + lattice.V[1], 126),
)


def _exact_counts() -> list[tuple[str, str, int, int]]:
    """(id, paper anchor, count, expected) for the norm shells, the frame
    counts and types, and the E7 orbits of the norm-4 shell."""
    c8 = lattice.enumerate_frames(8)
    c3 = lattice.enumerate_frames(3)
    t8 = Counter(f.frame_type for f in c8)
    t3 = Counter(f.frame_type for f in c3)
    counts = [
        ("roots", "§1 theta series", len(lattice.enumerate_norm(2)), 240),
        ("norm-4-shell", "§1 theta series", len(lattice.enumerate_norm(4)), 2160),
        ("c8-frames", "Prop 1A(3)", len(c8), 135),
        ("c3-frames", "§2", len(c3), 7560),
        ("c8-type-i", "Prop 3A", t8[lattice.FrameType.C8_I], 72),
        ("c8-type-ii", "Prop 3A", t8[lattice.FrameType.C8_II], 63),
    ]
    for ftype, want in (
        (lattice.FrameType.C3_I, 4032),
        (lattice.FrameType.C3_II0, 1260),
        (lattice.FrameType.C3_II1, 1890),
        (lattice.FrameType.C3_II2, 378),
    ):
        counts.append((f"c3-{ftype.name[3:].lower()}", "Prop 3B", t3[ftype], want))
    for k, (seed, want) in enumerate(_SHELL_ORBITS):
        counts.append((f"shell-orbit-{k}", "§3 table", len(lattice.weyl_orbit(seed, "E7")), want))
    return counts


def _run_counts(cfg: SuiteConfig) -> list[dict]:
    return [_count_check(*c) for c in _exact_counts()]


def _run_specialfn(cfg: SuiteConfig) -> list[dict]:
    rng = sampling.make_rng(cfg.seed + 1)
    worst = _worst(lambda: _three_term_once(rng), cfg.trials["specialfn"])
    return [_residual_check("three-term", "Eq. (three-term)", worst, cfg.tolerances["three_term"])]


def _run_hirota(cfg: SuiteConfig, break_tau: bool = False) -> list[dict]:
    rng = sampling.make_rng(cfg.seed + 2)
    par = cfg.elliptic("hirota")
    base = tau.canonical_tau(0.21 + 0.05j, par)
    if break_tau:
        inner = base.fn
        base = tau.TauEvaluator(lambda x: inner(x) + 1.0, par)
    # An O(1) corruption is only visible where the canonical values are O(1).
    scale = 0.1 if break_tau else 0.35
    frames = lattice.enumerate_frames(3)
    tol = cfg.tolerances["hirota"]

    def worst_residual(ev, n, draw_scale, frame=None):
        worst = 0.0
        for _ in range(n):
            f = frame if frame is not None else frames[int(rng.integers(len(frames)))]
            x = draw_scale * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
            r = tau.hirota_residual(ev, f, x, par)
            if not r.degenerate:
                worst = max(worst, float(r))
        return worst

    n = cfg.trials["hirota"]
    checks = [_residual_check("canonical", "Prop 2A", worst_residual(base, n, scale), tol)]
    if break_tau:
        # The corruption targets the canonical identity; the shifted variants
        # can mask it behind large transform prefactors, so stop here.
        return checks
    gauged = tau.transform(
        base, tau.ExpGauge(k=0.3 - 0.1j, v=tuple(0.2j * k for k in range(8)), c=0.7)
    )
    weyl = tau.transform(base, tau.WeylMap((3, 0, 7, 5)))
    period = tau.transform(base, tau.PeriodShift(lattice.vec(2, 2, -2, -2, 0, 0, 0, 0), (1, 0)))
    half = max(1, n // 2)
    checks.append(_residual_check("gauged", "Thm 2B(1)", worst_residual(gauged, half, scale), tol))
    checks.append(_residual_check("weyl-mapped", "Thm 2B(2)", worst_residual(weyl, half, scale), tol))
    # Whole-lattice shifts pair integrally with the standard triple only.
    std = lattice.Frame.from_vectors(tau.A1_VECTORS[:3])
    checks.append(
        _residual_check("period-shifted", "Thm 2B(3)", worst_residual(period, half, scale, std), tol)
    )
    return checks


def _reflection_checks(cfg: SuiteConfig, rng) -> list[dict]:
    par = cfg.elliptic("bailey")
    worst_t, worst_h = 0.0, 0.0
    for _ in range(cfg.trials["bailey"]):
        t, h = _reflection_once(rng, par, cfg.quad_tol)
        worst_t, worst_h = max(worst_t, t), max(worst_h, h)
    return [
        _residual_check("reflection-tilde", "Thm 5A(1)", worst_t, cfg.tolerances["bailey"]),
        _residual_check("reflection-hat", "Thm 5A(2)", worst_h, cfg.tolerances["bailey"]),
    ]


def _contiguity_checks(cfg: SuiteConfig, rng) -> list[dict]:
    par = cfg.elliptic("bailey")
    worst = _worst(lambda: _contiguity_once(rng, par, cfg.quad_tol), max(3, cfg.trials["bailey"]))
    return [_residual_check("contiguity", "Prop 5B", worst, cfg.tolerances["contiguity"])]


def _transform_checks(cfg: SuiteConfig, rng) -> list[dict]:
    tilde, hat = _transform_once(rng, cfg.elliptic("bailey"), cfg.quad_tol)
    tol = cfg.tolerances["transform_in"]
    return [
        _residual_check("transform-multiplicity-tilde", "Eq. (transIn1)", tilde, tol),
        _residual_check("transform-multiplicity-hat", "Eq. (transIn2)", hat, tol),
    ]


def _terminating_checks(cfg: SuiteConfig, rng) -> list[dict]:
    par = cfg.elliptic("terminating")
    worst = 0.0
    for order in (1, 2):
        worst = max(worst, _terminating_once(rng, par, order, cfg.quad_tol))
    return [_residual_check("terminating-series", "Eq. (ItoV)", worst, cfg.tolerances["terminating"])]


def _warnaar_checks(cfg: SuiteConfig, rng) -> list[dict]:
    par = cfg.elliptic("bailey")
    worst = 0.0
    for n in (2, 3):
        for _ in range(cfg.trials["bailey"]):
            a = 0.40 * e(rng.random())
            b = 0.55 * e(rng.random())
            zs = tuple((0.5 + 0.4 * rng.random()) * e(t) for t in rng.random(n))
            worst = max(worst, float(tau.warnaar_det_residual(a, b, zs, n, par)))
    return [_residual_check("theta-factorial-det", "Warnaar lemma", worst, cfg.tolerances["warnaar"])]


def _run_bailey(cfg: SuiteConfig) -> list[dict]:
    rng = sampling.make_rng(cfg.seed + 3)
    checks = _reflection_checks(cfg, rng)
    checks.extend(_contiguity_checks(cfg, rng))
    checks.extend(_transform_checks(cfg, rng))
    checks.extend(_terminating_checks(cfg, rng))
    checks.extend(_warnaar_checks(cfg, rng))
    return checks


def _run_chain(cfg: SuiteConfig) -> list[dict]:
    rng = sampling.make_rng(cfg.seed + 4)
    par = cfg.elliptic("chain")
    chain = tau.build_chain(max(cfg.n_max, 2), params=par, quad_tol=cfg.quad_tol)
    checks = []

    def on_level(n):
        return sampling.sample_on_level(rng, par, n)

    def bilinear_worst(frame, level):
        return _worst(
            lambda: float(resampled(lambda: tau.hirota_residual(chain.evaluator, frame, on_level(level), par))),
            cfg.trials["chain"],
        )

    def spread_once():
        x = on_level(2)
        c0, c1 = chain.components[0], chain.components[1]
        frame8 = lattice.frame_containing(tau.A1_VECTORS[0])
        vals = [tau.toda_step(c0, c1, frame8, i, j, x, par) for i, j in ((2, 3), (4, 6), (7, 2))]
        vals.append(chain.value(2, x))
        return max(abs(v - vals[0]) for v in vals) / abs(vals[0])

    checks.append(_residual_check("toda-step", "Thm 3C", resampled(spread_once), cfg.tolerances["toda"]))

    frames3 = lattice.enumerate_frames(3)

    def family_frames(ftype):
        return [f for f in frames3 if f.frame_type is ftype]

    families = (
        ("chain-family-ii2", "Thm 3C (C1)", lattice.FrameType.C3_II2, 1),
        ("chain-family-i", "Thm 3C (C2)", lattice.FrameType.C3_I, 1.5),
        ("chain-family-ii0", "Thm 3C (C3)", lattice.FrameType.C3_II0, 2),
    )
    for cid, anchor, ftype, level in families:
        worst = bilinear_worst(family_frames(ftype)[0], level)
        checks.append(_residual_check(cid, anchor, worst, cfg.tolerances["chain_family"]))

    worst = _worst(lambda: resampled(lambda: _ratio_once(rng, par)), cfg.trials["chain"])
    checks.append(_residual_check("level0-shift-ratio", "Eq. (4AII1)", worst, cfg.tolerances["ratio"]))

    worst = bilinear_worst(family_frames(lattice.FrameType.C3_I)[1], 1.5)
    checks.append(_residual_check("half-level-family", "Eq. (4AI)", worst, cfg.tolerances["half_level"]))

    det_vs_quad = resampled(lambda: _det_vs_quad_once(rng, par, min(cfg.n_max, 2), cfg.quad_tol))
    checks.append(
        _residual_check("det-vs-quadrature", "Thm 6B vs Thm 6C", det_vs_quad, cfg.tolerances["det_vs_quad"])
    )

    worst = 0.0
    for variant in ("pp", "pm", "mp", "mm"):
        dom = tau.variant_evaluator(variant, par, quad_tol=cfg.quad_tol).domain
        level = dom.base + dom.step
        m = _level_modulus(level)

        def routes_once():
            x = sampling.sample_level_x(rng, level, (0.95 * m, 1.05 * m), (m / 1.2, 1.2 * m))
            d = tau.psi_variant(1, x, variant, par, route="direct", quad_tol=cfg.quad_tol)
            i = tau.psi_variant(1, x, variant, par, route="inverse", quad_tol=cfg.quad_tol)
            return rel_diff(d, i)

        worst = max(worst, resampled(routes_once))
    checks.append(_residual_check("variant-routes", "Thm 8A", worst, cfg.tolerances["variant"]))
    return checks


def _run_picard(cfg: SuiteConfig) -> list[dict]:
    rng = sampling.make_rng(cfg.seed + 5)
    par = cfg.elliptic("picard")
    ev = tau.variant_evaluator("pm", par, quad_tol=cfg.quad_tol)
    checks = []

    laws = _kac_laws(picard.pic(*[int(v) for v in rng.integers(-4, 5, size=10)]))
    checks.append(_count_check("kac-group-laws", "§9.1", sum(laws), len(laws)))

    worst = _worst(lambda: _round_trip_once(rng), cfg.trials["picard"])
    checks.append(_residual_check("coordinates-round-trip", "§9.2", worst, cfg.tolerances["roundtrip"]))

    worst = 0.0
    for k in range(cfg.trials["picard"]):
        quad = _LATTICE_QUADS[k % len(_LATTICE_QUADS)]
        worst = max(worst, resampled(lambda: _lattice_hirota_once(rng, ev, par, quad)))
    checks.append(_residual_check("lattice-hirota", "Eq. (Hirota39)", worst, cfg.tolerances["lattice_hirota"]))

    frame = next(
        f for f in lattice.enumerate_frames(3) if f.frame_type is lattice.FrameType.C3_II0
    )
    lev1 = -par.varpi + par.delta
    m1 = _level_modulus(lev1)

    def two_path_once():
        x = sampling.sample_level_x(rng, lev1, (0.95 * m1, 1.05 * m1), (m1 / 1.2, 1.2 * m1))
        r1 = picard.translation_hirota_residual(ev, tau.oriented_triple(frame), x)
        r2 = tau.hirota_residual(ev, frame, x, par)
        return abs(float(r1) - float(r2))

    checks.append(
        _residual_check("translation-vs-frame", "Prop 9A", resampled(two_path_once), cfg.tolerances["two_path"])
    )
    return checks


_SUITE_FNS = {
    "counts": _run_counts,
    "specialfn": _run_specialfn,
    "hirota": _run_hirota,
    "bailey": _run_bailey,
    "chain": _run_chain,
    "picard": _run_picard,
}


def run_suite(name: str, cfg: SuiteConfig, break_tau: bool = False) -> dict:
    t0 = time.perf_counter()
    names = SUITES if name == "all" else (name,)
    checks: list[dict] = []
    for s in names:
        fn = _SUITE_FNS.get(s)
        if fn is None:
            raise ValueError(f"unknown suite '{s}'")
        checks.extend(fn(cfg, break_tau) if s == "hirota" else fn(cfg))
    return {
        "suite": name,
        "seed": cfg.seed,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }


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
            else:
                metric = f"count={c['count']} expected={c['expected']}"
            print(f"[{status}] {c['id']:<28} {c['paper_anchor']:<18} {metric}")
        print(f"suite={report['suite']} pass={report['pass']} wall_time_s={report['wall_time_s']}")
        if json_path:
            Path(json_path).write_text(doc + "\n")
    return 0 if report["pass"] else 1


_VERIFY_FNS = {
    "bailey": _reflection_checks,
    "contiguity": _contiguity_checks,
    "transform-in": _transform_checks,
    "terminating": _terminating_checks,
}


def _cmd_verify(identity: str, cfg: SuiteConfig, json_path: str | None) -> int:
    t0 = time.perf_counter()
    rng = sampling.make_rng(cfg.seed + 3)
    checks = _VERIFY_FNS[identity](cfg, rng)
    report = {
        "suite": f"verify-{identity}",
        "seed": cfg.seed,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    return _emit(report, json_path)


def _cmd_tau_build(cfg: SuiteConfig, n: int | None, report_path: str | None, json_path: str | None) -> int:
    t0 = time.perf_counter()
    n = cfg.n_max if n is None else n
    if not 1 <= n <= 3:
        print("build level must be between 1 and 3", file=sys.stderr)
        return 2
    par = cfg.elliptic("chain")
    chain = tau.build_chain(n, params=par, quad_tol=cfg.quad_tol)
    rng = sampling.make_rng(cfg.seed + 7)
    checks = []
    for k in range(n + 1):
        def level_diff(k=k):
            x = sampling.sample_on_level(rng, par, k)
            got = chain.value(k, x)
            return rel_diff(got, tau.tau_n_det(k, x, "frame_a0", par, quad_tol=cfg.quad_tol))

        checks.append(
            _residual_check(f"level-{k}-closed-form", "Thm 6B", resampled(level_diff), cfg.tolerances["build"])
        )
    # The family must keep every shifted level inside [0, n].
    ftype, level = (lattice.FrameType.C3_I, 0.5) if n == 1 else (lattice.FrameType.C3_II0, n)
    frame = next(f for f in lattice.enumerate_frames(3) if f.frame_type is ftype)

    def hirota_once():
        x = sampling.sample_on_level(rng, par, level)
        return float(tau.hirota_residual(chain.evaluator, frame, x, par))

    checks.append(
        _residual_check("chain-bilinear", "Thm 3C", resampled(hirota_once), cfg.tolerances["chain_family"])
    )
    report = {
        "suite": "tau-build",
        "seed": cfg.seed,
        "n_max": n,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    if report_path:
        Path(report_path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return _emit(report, json_path)


def _parse_x(text: str) -> np.ndarray:
    toks = text.replace(";", " ").split()
    if len(toks) != 8:
        raise ValueError("need eight coordinates, each as re,im or a bare real")
    out = []
    for t in toks:
        parts = t.split(",")
        if len(parts) == 1:
            out.append(complex(float(parts[0]), 0.0))
        elif len(parts) == 2:
            out.append(complex(float(parts[0]), float(parts[1])))
        else:
            raise ValueError(f"bad coordinate {t!r}")
    return np.array(out, dtype=complex)


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
        value = chain.value(n, x) if n >= 0 else 0j
    except (DomainError, ValueError) as err:
        print(f"probe failed: {err}", file=sys.stderr)
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
    v.add_argument("identity", choices=sorted(_VERIFY_FNS))

    t = sub.add_parser("tau", help="chain construction and point evaluation")
    tsub = t.add_subparsers(dest="tau_command", required=True)
    tb = tsub.add_parser("build", parents=[common])
    tb.add_argument("--n", type=int, help="top chain level (default: config n_max)")
    tb.add_argument("--report", dest="report_path", help="also write the report to this path")
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

    if args.command == "frames":
        return _emit(run_suite("counts", cfg), args.json_path)
    if args.command == "verify":
        return _cmd_verify(args.identity, cfg, args.json_path)
    if args.command == "tau":
        if args.tau_command == "build":
            return _cmd_tau_build(cfg, args.n, args.report_path, args.json_path)
        return _cmd_tau_probe(cfg, args.x, args.n, args.json_path)
    if args.command == "picard":
        return _emit(run_suite("picard", cfg), args.json_path)
    return _emit(run_suite(args.name, cfg, break_tau=args.break_tau), args.json_path)


if __name__ == "__main__":
    sys.exit(main())
