"""Release gate: one test per acceptance criterion, one pass/fail line each.

Every test prints `criterion NN <name>: PASS|FAIL` with the measured metric
and wall time before asserting, so the log carries the evidence either way.
Bounds and budgets are pinned; loosening them is not a fix. Where a CLI suite
runs the same check, the criterion calls the CLI's one-trial body with its
own seed, trial count and quadrature target.
"""
import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from e8tau import cli, lattice, picard, sampling, tau
from e8tau.integrals import QUAD_TOL
from e8tau.specialfn import EllipticParams
from e8tau.util import e, resampled

CHAIN_PARAMS = EllipticParams.from_bases(0.03, 0.45)
BAILEY_PARAMS = EllipticParams.from_bases(0.15, 0.10)
HIROTA_PARAMS = EllipticParams.from_bases(0.2, 0.35)
TERM_PARAMS = EllipticParams.from_bases(0.05, 0.15)


@pytest.fixture(scope="module")
def chain2():
    return tau.build_chain(2, params=CHAIN_PARAMS, quad_tol=1e-8)


@pytest.fixture(scope="module")
def pm_eval():
    return tau.variant_evaluator("pm", CHAIN_PARAMS, quad_tol=1e-8)


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_exact_counts():
    t0 = time.perf_counter()
    counts = cli._exact_counts()
    got = [c[2] for c in counts]
    want = [c[3] for c in counts]
    dt = time.perf_counter() - t0
    _line(1, "exact counts", got == want and dt < 10, f"{sum(g == w for g, w in zip(got, want))}/{len(want)} exact, {dt:.1f}s/10s")


def test_criterion_02_three_term_relation():
    t0 = time.perf_counter()
    rng = sampling.make_rng(201)
    worst = cli._worst(lambda: cli._three_term_once(rng), 1000)
    dt = time.perf_counter() - t0
    _line(2, "three-term relation", worst < 1e-10 and dt < 5, f"worst {worst:.3e} < 1e-10, {dt:.1f}s/5s")


def test_criterion_03_canonical_and_transformed():
    t0 = time.perf_counter()
    rng = sampling.make_rng(202)
    par = HIROTA_PARAMS
    base = tau.canonical_tau(0.21 + 0.05j, par)
    gauged = tau.transform(base, tau.ExpGauge(k=0.3 - 0.1j, v=tuple(0.2j * k for k in range(8)), c=0.7))
    period = tau.transform(base, tau.PeriodShift(lattice.vec(2, 2, -2, -2, 0, 0, 0, 0), (1, 0)))
    frames = lattice.enumerate_frames(3)
    std = lattice.Frame.from_vectors(tau.A1_VECTORS[:3])
    worst = 0.0
    for _ in range(100):
        x = 0.35 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        f = frames[int(rng.integers(len(frames)))]
        for ev, fr in ((base, f), (gauged, f), (period, std)):
            r = tau.hirota_residual(ev, fr, x, par)
            if not r.degenerate:
                worst = max(worst, float(r))
    dt = time.perf_counter() - t0
    _line(3, "canonical solution", worst < 1e-9 and dt < 30, f"worst {worst:.3e} < 1e-9, {dt:.1f}s/30s")


def test_criterion_04_reflection_transformations():
    t0 = time.perf_counter()
    rng = sampling.make_rng(203)
    worst = 0.0
    for _ in range(10):
        worst = max(worst, *cli._reflection_once(rng, BAILEY_PARAMS, QUAD_TOL))
    dt = time.perf_counter() - t0
    _line(4, "reflection transformations", worst < 1e-8 and dt < 120, f"worst {worst:.3e} < 1e-8, {dt:.1f}s/120s")


def test_criterion_05_contiguity():
    t0 = time.perf_counter()
    rng = sampling.make_rng(204)
    worst = cli._worst(lambda: cli._contiguity_once(rng, BAILEY_PARAMS, QUAD_TOL), 10)
    dt = time.perf_counter() - t0
    _line(5, "contiguity", worst < 1e-8 and dt < 60, f"worst {worst:.3e} < 1e-8, {dt:.1f}s/60s")


def test_criterion_06_initial_data_conditions(chain2):
    t0 = time.perf_counter()
    rng = sampling.make_rng(205)
    par = CHAIN_PARAMS
    worst_ratio = cli._worst(lambda: resampled(lambda: cli._ratio_once(rng, par)), 10)

    frame_i = next(f for f in lattice.enumerate_frames(3) if f.frame_type is lattice.FrameType.C3_I)
    worst_half = 0.0
    for _ in range(10):
        r = resampled(
            lambda: tau.hirota_residual(chain2.evaluator, frame_i, sampling.sample_on_level(rng, par, 1.5), par)
        )
        worst_half = max(worst_half, float(r))
    dt = time.perf_counter() - t0
    ok = worst_ratio < 1e-9 and worst_half < 1e-7 and dt < 120
    _line(6, "initial data conditions", ok, f"ratio {worst_ratio:.3e} < 1e-9, bilinear {worst_half:.3e} < 1e-7, {dt:.1f}s/120s")


def test_criterion_07_recursion_and_chain_families(chain2):
    t0 = time.perf_counter()
    rng = sampling.make_rng(206)
    par = CHAIN_PARAMS
    c0, c1 = chain2.components[0], chain2.components[1]
    frame8 = lattice.frame_containing(tau.A1_VECTORS[0])
    pairs = list(itertools.combinations(range(2, 8), 2))
    assert len(pairs) == 15

    def spread_once():
        x = sampling.sample_on_level(rng, par, 2)
        vals = [tau.toda_step(c0, c1, frame8, i, j, x, par) for i, j in pairs]
        vals.append(chain2.value(2, x))
        return max(abs(v - vals[0]) for v in vals) / abs(vals[0])

    spread = resampled(spread_once)

    frames3 = lattice.enumerate_frames(3)
    by_type = {t: [f for f in frames3 if f.frame_type is t] for t in lattice.FrameType}
    worst = 0.0
    for ftype, level in (
        (lattice.FrameType.C3_II2, 1),
        (lattice.FrameType.C3_I, 1.5),
        (lattice.FrameType.C3_II0, 2),
    ):
        fam = by_type[ftype]
        for _ in range(10):
            def family_once():
                f = fam[int(rng.integers(len(fam)))]
                x = sampling.sample_on_level(rng, par, level)
                return float(tau.hirota_residual(chain2.evaluator, f, x, par))

            worst = max(worst, resampled(family_once))
    dt = time.perf_counter() - t0
    ok = spread < 1e-8 and worst < 1e-7 and dt < 300
    _line(7, "recursion and chain families", ok, f"spread {spread:.3e} < 1e-8, families {worst:.3e} < 1e-7, {dt:.1f}s/300s")


def test_criterion_08_determinant_vs_quadrature():
    t0 = time.perf_counter()
    rng = sampling.make_rng(207)
    worst = cli._worst(lambda: resampled(lambda: cli._det_vs_quad_once(rng, CHAIN_PARAMS, 2, QUAD_TOL)), 3)
    dt = time.perf_counter() - t0
    _line(8, "determinant vs quadrature", worst < 1e-6 and dt < 300, f"worst {worst:.3e} < 1e-6, {dt:.1f}s/300s")


def test_criterion_09_factorial_determinant():
    t0 = time.perf_counter()
    rng = sampling.make_rng(208)
    ok = True
    worst = {2: 0.0, 3: 0.0}
    for n, tol in ((2, 1e-10), (3, 1e-9)):
        for _ in range(10):
            a = 0.4 * e(rng.random())
            b = 0.55 * e(rng.random())
            zs = [np.exp(rng.uniform(np.log(0.5), np.log(0.9))) * e(rng.random()) for _ in range(n)]
            r = float(tau.warnaar_det_residual(a, b, zs, n, CHAIN_PARAMS))
            worst[n] = max(worst[n], r)
        ok = ok and worst[n] < tol
    dt = time.perf_counter() - t0
    _line(9, "factorial determinant", ok and dt < 30, f"n=2 {worst[2]:.3e} < 1e-10, n=3 {worst[3]:.3e} < 1e-9, {dt:.1f}s/30s")


def test_criterion_10_multiplicity_two_transformations():
    t0 = time.perf_counter()
    rng = sampling.make_rng(209)
    worst = 0.0
    for _ in range(3):
        worst = max(worst, *cli._transform_once(rng, BAILEY_PARAMS, QUAD_TOL))
    dt = time.perf_counter() - t0
    _line(10, "multiplicity-two transformations", worst < 1e-6 and dt < 300, f"worst {worst:.3e} < 1e-6, {dt:.1f}s/300s")


def test_criterion_11_terminating_series():
    t0 = time.perf_counter()
    rng = sampling.make_rng(210)
    worst = 0.0
    for order in (1, 2):
        worst = max(worst, cli._terminating_once(rng, TERM_PARAMS, order, QUAD_TOL))
    dt = time.perf_counter() - t0
    _line(11, "terminating series", worst < 1e-9 and dt < 60, f"worst {worst:.3e} < 1e-9, {dt:.1f}s/60s")


def test_criterion_12_rank_ten_lattice(pm_eval):
    t0 = time.perf_counter()
    rng = sampling.make_rng(211)
    par = CHAIN_PARAMS

    h = picard.pic(2, -1, 3, 0, 1, -2, 4, 1, -1, 2)
    kac_ok = all(cli._kac_laws(h)) and picard.picard_ip(picard.C, picard.D) == Fraction(1)

    worst_rt = cli._worst(lambda: cli._round_trip_once(rng), 10)

    worst_h = 0.0
    for quad in cli._LATTICE_QUADS:
        worst_h = max(worst_h, resampled(lambda: cli._lattice_hirota_once(rng, pm_eval, par, quad)))
    dt = time.perf_counter() - t0
    ok = kac_ok and worst_rt < 1e-12 and worst_h < 1e-6 and dt < 120
    _line(12, "rank-ten lattice", ok, f"kac exact {kac_ok}, round-trip {worst_rt:.3e} < 1e-12, bilinear {worst_h:.3e} < 1e-6, {dt:.1f}s/120s")


def test_criterion_13_negative_control():
    t0 = time.perf_counter()
    rng = sampling.make_rng(212)
    par = HIROTA_PARAMS
    base = tau.canonical_tau(0.21 + 0.05j, par)
    broken = tau.TauEvaluator(lambda x: base.fn(x) + 1.0, par)
    frames = lattice.enumerate_frames(3)
    smallest = np.inf
    for _ in range(5):
        f = frames[int(rng.integers(len(frames)))]
        x = 0.1 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        r = tau.hirota_residual(broken, f, x, par)
        if not r.degenerate:
            smallest = min(smallest, float(r))
    dt = time.perf_counter() - t0
    _line(13, "negative control", smallest > 1e-2 and dt < 5, f"smallest broken residual {smallest:.3e} > 1e-2, {dt:.1f}s/5s")
