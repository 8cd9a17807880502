"""The three benchmark workloads: their shared state, input draws and checks.

A workload is a fixed cycle of check kinds. Each kind has a ``draw`` that
makes one input from a generator with the library's own samplers (given the
cycle number, so kinds that step through a fixed list do so in order), and an
``evaluate`` that runs the library on that input and returns the outcomes to
judge: ``(label, value, bound, mode)`` where mode is ``"residual"`` (value
must be finite and under bound), ``"count"`` (value must equal bound) or
``"floor"`` (value must be finite and above bound, a negative control).

Bounds come from ``cli._DEFAULT_TOLERANCES`` by name. The only bound the CLI
does not carry is the negative-control floor, pinned by criterion 13 of
``tests/test_acceptance.py``.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from e8tau import cli, integrals, lattice, picard, sampling, tau
from e8tau.integrals import IntegrandContext
from e8tau.specialfn import EllipticParams, bracket_pm, three_term_residual
from e8tau.util import e

TOL = cli._DEFAULT_TOLERANCES
NEGATIVE_CONTROL_FLOOR = 1e-2  # criterion 13 of tests/test_acceptance.py

CHAIN_PARAMS = EllipticParams.from_bases(0.03, 0.45)
BAILEY_PARAMS = EllipticParams.from_bases(0.15, 0.10)
HIROTA_PARAMS = EllipticParams.from_bases(0.2, 0.35)
TERM_PARAMS = EllipticParams.from_bases(0.05, 0.15)
CHAIN_QUAD_TOL = 1e-8  # the chain fixture of the acceptance tests and the CLI default

QUADS = ((1, 2, 3, 4), (2, 5, 7, 3), (1, 3, 6, 7), (4, 6, 2, 9), (1, 2, 3, 8))
ORBIT_SEEDS = (
    (lattice.PHI - lattice.V[0] + lattice.V[1], 126),
    (lattice.PHI - lattice.V[0].scaled(2), 576),
    (lattice.PHI - lattice.V[0].scaled(2) - lattice.V[6] - lattice.V[7], 756),
    (-lattice.V[0].scaled(2), 576),
    (-lattice.PHI - lattice.V[0] + lattice.V[1], 126),
)
FRAME_TYPE_COUNTS = {
    lattice.FrameType.C8_I: 72,
    lattice.FrameType.C8_II: 63,
    lattice.FrameType.C3_I: 4032,
    lattice.FrameType.C3_II0: 1260,
    lattice.FrameType.C3_II1: 1890,
    lattice.FrameType.C3_II2: 378,
}


@dataclass(frozen=True)
class Kind:
    name: str
    draw: Callable  # (state, rng, cycle) -> input
    evaluate: Callable  # (state, input) -> list of (label, value, bound, mode)


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def _normal8(rng, scale: float) -> np.ndarray:
    return scale * (rng.standard_normal(8) + 1j * rng.standard_normal(8))


# ------------------------------------------------------------------ chain


def _chain_setup() -> dict:
    frames3 = lattice.enumerate_frames(3)
    by_type = {t: [f for f in frames3 if f.frame_type is t] for t in lattice.FrameType}
    return {
        "chain": tau.build_chain(2, params=CHAIN_PARAMS, quad_tol=CHAIN_QUAD_TOL),
        "by_type": by_type,
        "frame8": lattice.frame_containing(tau.A1_VECTORS[0]),
        "triple": tau.oriented_triple(tau.A1_VECTORS[:3]),
    }


def _family_kind(name: str, ftype: lattice.FrameType, level: float) -> Kind:
    def draw(st, rng, cycle):
        fam = st["by_type"][ftype]
        f = fam[int(rng.integers(len(fam)))]
        return f, sampling.sample_on_level(rng, CHAIN_PARAMS, level)

    def evaluate(st, inp):
        f, x = inp
        r = tau.hirota_residual(st["chain"].evaluator, f, x, CHAIN_PARAMS)
        return [(name, float(r), TOL["chain_family"], "residual")]

    return Kind(name, draw, evaluate)


def _level0_ratio(st, x):
    par = CHAIN_PARAMS
    a0, a1, a2 = st["triple"]
    d = par.delta
    num = tau.hg_tau0(x + d * a1.true_coords(), par) * tau.hg_tau0(x - d * a1.true_coords(), par)
    den = tau.hg_tau0(x + d * a2.true_coords(), par) * tau.hg_tau0(x - d * a2.true_coords(), par)
    rhs = bracket_pm(lattice.pairing_c(a0, x), lattice.pairing_c(a1, x), par) / bracket_pm(
        lattice.pairing_c(a0, x), lattice.pairing_c(a2, x), par
    )
    return [("level0-shift-ratio", _rel(num / den, rhs), TOL["ratio"], "residual")]


_PAIRS = tuple(itertools.combinations(range(2, 8), 2))


def _toda_spread(st, x):
    chain = st["chain"]
    c0, c1 = chain.components[0], chain.components[1]
    vals = [tau.toda_step(c0, c1, st["frame8"], i, j, x, CHAIN_PARAMS) for i, j in _PAIRS]
    vals.append(chain.value(2, x))
    spread = max(abs(v - vals[0]) for v in vals) / abs(vals[0])
    return [("toda-spread", spread, TOL["toda"], "residual")]


def _level2_vs_det(st, x):
    got = st["chain"].value(2, x)
    det = tau.tau_n_det(2, x, "frame_a0", CHAIN_PARAMS, quad_tol=CHAIN_QUAD_TOL)
    return [("level2-vs-det", _rel(got, det), TOL["build"], "residual")]


def _level2_vs_int(st, x):
    got = st["chain"].value(2, x)
    quad = tau.tau_n_int(2, x, "direct", CHAIN_PARAMS, quad_tol=CHAIN_QUAD_TOL)
    return [("level2-vs-int", _rel(got, quad), TOL["det_vs_quad"], "residual")]


def _on_level(level: float):
    return lambda st, rng, cycle: sampling.sample_on_level(rng, CHAIN_PARAMS, level)


_II2 = _family_kind("family-ii2-level1", lattice.FrameType.C3_II2, 1)
_I = _family_kind("family-i-level1.5", lattice.FrameType.C3_I, 1.5)
_II0 = _family_kind("family-ii0-level2", lattice.FrameType.C3_II0, 2)
_RATIO = Kind("level0-shift-ratio", _on_level(0), _level0_ratio)
# Criteria 06 and 07 draw ten of each family and ten more C3_I at level 1.5
# per Toda spread, so a cycle weights the family residuals above the spread
# in the same ratio: C3_I four times, C3_II0 twice, C3_II2 once. In two cycles
# the median check then falls inside the eight C3_I residuals, and the
# slowest tenth holds the Toda spreads and the C3_II0 residuals.
CHAIN_KINDS = (
    _II2, _I, _II0, _RATIO, _I,
    Kind("toda-spread", _on_level(2), _toda_spread),
    _I, Kind("level2-vs-det", _on_level(2), _level2_vs_det),
    _RATIO, _II0, _I,
    Kind("level2-vs-int", _on_level(2), _level2_vs_int),
)


# ------------------------------------------------------------- quadrature


def _quadrature_setup() -> dict:
    return {
        "pm": tau.variant_evaluator("pm", CHAIN_PARAMS, quad_tol=CHAIN_QUAD_TOL),
        "bailey_r": EllipticParams.from_bases(BAILEY_PARAMS.p, BAILEY_PARAMS.q, r=0.12),
    }


def _draw_reflection(st, rng, cycle):
    p, q = BAILEY_PARAMS.p, BAILEY_PARAMS.q
    return sampling.sample_balanced(rng, (p * q) ** 2, abs(p * q) ** 0.25)


def _reflection_kind(which: str) -> Kind:
    def evaluate(st, u):
        ctx = IntegrandContext(u=u, params=st["bailey_r"])
        return [(f"reflection-{which}", float(integrals.bailey_residual(ctx, which)), TOL["bailey"], "residual")]

    return Kind(f"reflection-{which}", _draw_reflection, evaluate)


def _draw_contiguity(st, rng, cycle):
    return tuple(0.4 * e(t) for t in rng.random(8))


def _contiguity(st, u):
    res = integrals.contiguity_residual(IntegrandContext(u=u, params=BAILEY_PARAMS), 0, 3, 6)
    return [("contiguity", float(res), TOL["contiguity"], "residual")]


def _terminating_kind(order: int) -> Kind:
    def draw(st, rng, cycle):
        return cli._terminating_family(rng, order, TERM_PARAMS)

    def evaluate(st, u):
        p = TERM_PARAMS.p
        lhs = integrals.I(IntegrandContext(u=(p * u[0], *u[1:7], p * u[7]), params=TERM_PARAMS))
        rhs = integrals.terminating_eval(u, TERM_PARAMS, order)
        return [(f"terminating-{order}", _rel(lhs, rhs), TOL["terminating"], "residual")]

    return Kind(f"terminating-{order}", draw, evaluate)


def _draw_transform(st, rng, cycle):
    p = BAILEY_PARAMS.p
    return sampling.sample_balanced(rng, p**2, abs(p) ** 0.25)


def _transform_kind(which: str) -> Kind:
    def evaluate(st, t):
        ctx = IntegrandContext(u=t, params=BAILEY_PARAMS, n=2)
        res = integrals.In_transform_residual(ctx, which)
        return [(f"transform-{which}", float(res), TOL["transform_in"], "residual")]

    return Kind(f"transform-{which}", _draw_transform, evaluate)


_LEV2 = -CHAIN_PARAMS.varpi + 2 * CHAIN_PARAMS.delta
_M2 = abs(e(_LEV2)) ** 0.25


def _draw_lattice_pm(st, rng, cycle):
    x = sampling.sample_level_x(rng, _LEV2, (0.95 * _M2, 1.05 * _M2), (_M2 / 1.2, 1.2 * _M2))
    return x, 0.3 * complex(rng.standard_normal(), rng.standard_normal())


def _lattice_pm_kind(quad: tuple[int, int, int, int]) -> Kind:
    def evaluate(st, inp):
        x, mu = inp
        eps = picard.coords_forward(x, mu, CHAIN_PARAMS.delta)
        res = picard.quadruple_hirota_residual(st["pm"], (), eps, quad)
        return [("lattice-hirota-pm", float(res), TOL["lattice_hirota"], "residual")]

    return Kind("lattice-hirota-pm", _draw_lattice_pm, evaluate)


# One cycle runs the seven integral checks once per index quadruple, so the
# lattice Hirota visits all five quadruples (their costs differ by up to 3x)
# in every cycle and the mix does not depend on how many cycles fit.
_INTEGRAL_KINDS = (
    _reflection_kind("tilde"),
    _reflection_kind("hat"),
    Kind("contiguity", _draw_contiguity, _contiguity),
    _terminating_kind(1),
    _terminating_kind(2),
    _transform_kind("tilde_n"),
    _transform_kind("hat_n"),
)
QUADRATURE_KINDS = tuple(
    kind for quad in QUADS for kind in (*_INTEGRAL_KINDS, _lattice_pm_kind(quad))
)


# ------------------------------------------------------------------ exact


def _exact_setup() -> dict:
    par = HIROTA_PARAMS
    base = tau.canonical_tau(0.21 + 0.05j, par)
    return {
        "frames3": lattice.enumerate_frames(3),
        "frames8": lattice.enumerate_frames(8),
        "std": lattice.Frame.from_vectors(tau.A1_VECTORS[:3]),
        "canonical": base,
        "gauged": tau.transform(
            base, tau.ExpGauge(k=0.3 - 0.1j, v=tuple(0.2j * k for k in range(8)), c=0.7)
        ),
        "weyl": tau.transform(base, tau.WeylMap((3, 0, 7, 5))),
        "period": tau.transform(
            base, tau.PeriodShift(lattice.vec(2, 2, -2, -2, 0, 0, 0, 0), (1, 0))
        ),
        "broken": tau.TauEvaluator(lambda x: base.fn(x) + 1.0, par),
    }


def _draw_orbit(st, rng, cycle):
    return cycle % len(ORBIT_SEEDS)


def _orbit(st, k):
    seed, want = ORBIT_SEEDS[k]
    return [(f"e7-orbit-{k}", len(lattice.weyl_orbit(seed, "E7")), want, "count")]


def _frame_counts(st, _):
    got = Counter(lattice.classify_frame(f) for f in itertools.chain(st["frames8"], st["frames3"]))
    return [(f"frames-{t.name}", got[t], want, "count") for t, want in FRAME_TYPE_COUNTS.items()]


def _draw_hirota(scale: float, frame_key: str | None = None):
    def draw(st, rng, cycle):
        frames = st["frames3"]
        f = st[frame_key] if frame_key else frames[int(rng.integers(len(frames)))]
        return f, _normal8(rng, scale)

    return draw


def _hirota_kind(name: str, tau_key: str, frame_key: str | None = None) -> Kind:
    def evaluate(st, inp):
        f, x = inp
        r = tau.hirota_residual(st[tau_key], f, x, HIROTA_PARAMS)
        return [(name, float(r), TOL["hirota"], "residual")]

    return Kind(name, _draw_hirota(0.35, frame_key), evaluate)


def _draw_three_term(st, rng, cycle):
    base = (0.05 + 0.45 * rng.random()) * e(rng.random())
    return base, tuple(0.4 * complex(rng.standard_normal(), rng.standard_normal()) for _ in range(4))


def _three_term(st, inp):
    base, (z, a, b, g) = inp
    r = three_term_residual(z, a, b, g, EllipticParams.from_bases(base, 0.3))
    return [("three-term", float(r), TOL["three_term"], "residual")]


def _warnaar_kind(n: int) -> Kind:
    def draw(st, rng, cycle):
        a = 0.4 * e(rng.random())
        b = 0.55 * e(rng.random())
        zs = [np.exp(rng.uniform(np.log(0.5), np.log(0.9))) * e(rng.random()) for _ in range(n)]
        return a, b, zs

    def evaluate(st, inp):
        a, b, zs = inp
        r = tau.warnaar_det_residual(a, b, zs, n, CHAIN_PARAMS)
        return [(f"warnaar-n{n}", float(r), TOL["warnaar"], "residual")]

    return Kind(f"warnaar-n{n}", draw, evaluate)


def _draw_kac(st, rng, cycle):
    return picard.pic(*[int(v) for v in rng.integers(-4, 5, size=10)])


def _kac_laws(st, h):
    kt, ip, word = picard.kac_translate, picard.picard_ip, picard.apply_word
    a, b = picard.AFFINE_ROOTS[2], picard.AFFINE_ROOTS[5] + picard.AFFINE_ROOTS[0]
    laws = [
        kt(a, kt(b, h)) == kt(a + b, h),
        kt(picard.C, h) == h,
        kt(a, picard.C) == picard.C,
        ip(kt(a, h), kt(a, h)) == ip(h, h),
        word((1, 4), kt(a, word((4, 1), h))) == kt(word((1, 4), a), h),
    ]
    return [("kac-group-laws", sum(laws), len(laws), "count")]


def _draw_chart(st, rng, cycle):
    x = _normal8(rng, 0.3)
    mu = complex(rng.standard_normal(), rng.standard_normal())
    return x, mu, 0.3 + 0.4 * rng.random()


def _chart_round_trip(st, inp):
    x, mu, kappa = inp
    xb, mub, kapb = picard.coords_back(picard.coords_forward(x, mu, kappa))
    worst = max(float(np.max(np.abs(xb - x))), abs(mub - mu), abs(kapb - kappa))
    return [("chart-round-trip", worst, TOL["roundtrip"], "residual")]


def _translation_vs_frame(st, inp):
    f, x = inp
    ev = st["canonical"]
    r1 = picard.translation_hirota_residual(ev, tau.oriented_triple(f), x)
    r2 = tau.hirota_residual(ev, f, x, HIROTA_PARAMS)
    return [("translation-vs-frame", abs(float(r1) - float(r2)), TOL["two_path"], "residual")]


def _draw_quadruple(st, rng, cycle):
    quad = QUADS[cycle % len(QUADS)]
    x = _normal8(rng, 0.35)
    mu = 0.3 * complex(rng.standard_normal(), rng.standard_normal())
    return quad, x, mu


def _quadruple_canonical(st, inp):
    quad, x, mu = inp
    eps = picard.coords_forward(x, mu, HIROTA_PARAMS.delta)
    r = picard.quadruple_hirota_residual(st["canonical"], (), eps, quad)
    return [("lattice-hirota-canonical", float(r), TOL["lattice_hirota"], "residual")]


def _broken_tau(st, inp):
    f, x = inp
    r = tau.hirota_residual(st["broken"], f, x, HIROTA_PARAMS)
    return [("broken-tau", float(r), NEGATIVE_CONTROL_FLOOR, "floor")]


EXACT_KINDS = (
    Kind("e7-orbit", _draw_orbit, _orbit),
    Kind("frame-type-counts", lambda st, rng, cycle: None, _frame_counts),
    _hirota_kind("hirota-canonical", "canonical"),
    _hirota_kind("hirota-gauged", "gauged"),
    _hirota_kind("hirota-weyl", "weyl"),
    _hirota_kind("hirota-period", "period", frame_key="std"),
    Kind("three-term", _draw_three_term, _three_term),
    _warnaar_kind(2),
    _warnaar_kind(3),
    Kind("kac-group-laws", _draw_kac, _kac_laws),
    Kind("chart-round-trip", _draw_chart, _chart_round_trip),
    Kind("translation-vs-frame", _draw_hirota(0.35), _translation_vs_frame),
    Kind("lattice-hirota-canonical", _draw_quadruple, _quadruple_canonical),
    # An O(1) corruption is only visible where the canonical values are O(1),
    # hence the smaller draw scale (as in criterion 13 and `suite hirota --break-tau`).
    Kind("broken-tau", _draw_hirota(0.1), _broken_tau),
)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], dict]
    kinds: tuple[Kind, ...]
    # Input pool: this many checks per second of --seconds are drawn before
    # the timed phase, several times the current throughput; a run that uses
    # the whole pool ends early.
    pool_rate: float
    # Fewest whole cycles an end-to-end run times (about 26 s per cycle for
    # chain, 9 s for quadrature): enough that the median
    # falls inside a group of like checks and the slowest tenth is a whole
    # group, whatever the machine's speed that minute.
    min_cycles: int
    # The calibrate reference shaped like the workload's hot code.
    reference: str


WORKLOADS = {
    "chain": Workload("chain", _chain_setup, CHAIN_KINDS, 6.0, 2, "vector"),
    "quadrature": Workload("quadrature", _quadrature_setup, QUADRATURE_KINDS, 40.0, 2, "vector"),
    "exact": Workload("exact", _exact_setup, EXACT_KINDS, 1500.0, 1, "interpreter"),
}
