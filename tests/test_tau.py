"""Bilinear identities, the level chain, and its closed forms."""
from __future__ import annotations

import re

import numpy as np
import pytest

from e8tau import integrals, sampling
from e8tau import tau as T
from e8tau.lattice import (
    Frame,
    FrameType,
    V,
    apply_word_c,
    enumerate_frames,
    frame_containing,
    pairing_c,
    vec,
)
from e8tau.specialfn import (
    EllipticParams,
    bracket_pm,
    bracket_scaled_many,
    elliptic_gamma,
    theta,
    three_term_residual,
    triple_gamma,
)
from e8tau.util import RESAMPLE_ERRORS, AdmissibilityError, DomainError, e, normalized_residual, resampled

from . import _reference as R
from ._reference import dfactor_d

PARAMS = EllipticParams.from_bases(0.03, 0.45)

# Shared across tests: the chain's memo keeps the values of the points the
# module's tests share.
CHAIN2 = T.build_chain(2, params=PARAMS)


def _rel(a: complex, b: complex) -> float:
    """The two-term residual of a against b, |a - b| / max(|a|, |b|); NaN,
    which fails every bound, where both are 0."""
    r = normalized_residual([(a,), (-b,)])
    return float("nan") if r.degenerate else r


def _x_general(rng, scale=0.35):
    return scale * (rng.standard_normal(8) + 1j * rng.standard_normal(8))


def _x_on(rng, n):
    return sampling.sample_on_level(rng, PARAMS, n)


def _shifted(x, a, sign=1):
    return np.asarray(x, dtype=complex) + sign * PARAMS.delta * np.asarray(
        a.true_coords(), dtype=complex
    )


def _frames_of(ftype, count=2):
    """First/last members of the enumerated type bucket (deterministic spread)."""
    bucket = [f for f in enumerate_frames(3) if f.frame_type is ftype]
    assert bucket, f"no frames of type {ftype}"
    if count == 1:
        return [bucket[0]]
    return [bucket[0], bucket[-1]]


def _has_quarter_entries(frame):
    return any(c % 2 for v in frame.vectors for c in v.coords4)


def _hirota_resampled(ev, frame, level, rng):
    """Residual at a generic admissible point of the level hyperplane."""
    return resampled(lambda: T.hirota_residual(ev, frame, _x_on(rng, level), PARAMS))


# ---------------------------------------------------------------- domains


def test_level_domain_locates_and_rejects():
    dom = T.LevelDomain(T.PHI, PARAMS.varpi, PARAMS.delta, n_min=-2, n_max=4)
    rng = sampling.make_rng(11)
    x = _x_on(rng, 3)
    assert dom.locate(x) == 3
    with pytest.raises(DomainError):
        dom.locate(x + 0.01)  # moves the pairing off the family
    with pytest.raises(DomainError):
        dom.locate(_x_on(rng, -4))  # valid family member, index out of range
    # x_0 + 1e15 and x_1 - 1e15 keep the pairing, but its float sum cannot
    # resolve it to LEVEL_TOL: the first such row of a batch raises
    far = x + 1e15 * np.eye(8)[0] - 1e15 * np.eye(8)[1]
    with pytest.raises(DomainError, match="cannot be resolved"):
        dom.levels(np.array([x, far, x + 0.01]))


def test_level_domain_requires_the_named_member():
    dom = T._levels("pp", PARAMS, n_min=0, n_max=3)
    rng = sampling.make_rng(14)
    x = _x_on(rng, 2)
    dom.require(x, 2)
    for n in (1, 3):
        with pytest.raises(DomainError):
            dom.require(x, n)
    with pytest.raises(DomainError):
        dom.require(_x_on(rng, 4), 4)  # on the family, index out of range
    # the closed forms check their level through the same family
    with pytest.raises(DomainError):
        T.hg_tau0(x, PARAMS)
    with pytest.raises(DomainError):
        T.gauge_g(1, x, "frame_a0", PARAMS)


def _level_ref(dom, x, n=None):
    """The per-point level decision, as the reference route: pairing_c, then
    the tolerance and the range test."""
    val = pairing_c(dom.direction, np.asarray(x, dtype=complex))
    if n is None:
        n = int(round(((val - dom.base) / dom.step).real))
    if abs(val - dom.base - n * dom.step) > T.LEVEL_TOL:
        raise DomainError(f"point off hyperplane {n} of the family")
    if not dom.n_min <= n <= dom.n_max:
        raise DomainError(f"hyperplane index {n} outside [{dom.n_min}, {dom.n_max}]")
    return n


def _decision(fn):
    """The indices fn returns, or the message of the DomainError it raises
    up to its printed pairing, whose last digits depend on the summation."""
    try:
        return list(fn())
    except DomainError as err:
        return str(err).split(" (pairing")[0]


def _moved_to(dom, x, n, off=0.0):
    """x moved along the family's direction until it pairs to level n + off."""
    d = dom.direction.true_coords()
    return x + (dom.base + n * dom.step + off - pairing_c(dom.direction, x)) * d / (d @ d)


def test_level_check_matches_the_per_point_reference():
    tol = T.LEVEL_TOL
    domains = [CHAIN2.evaluator.domain] + [T._levels(v, PARAMS, -8, T.VARIANT_N_MAX) for v in T._CHARTS]
    rng = sampling.make_rng(17)
    for dom in domains:
        rows, expect = [], []  # every point, and whether levels must accept it
        for n in range(dom.n_min, dom.n_max + 1):
            rows.append((_moved_to(dom, _x_general(rng), n), n))
            expect.append(True)
        for k, scale in enumerate((0.5, 0.999, 1.001, 2.0)):
            for n in (dom.n_min, 0, dom.n_max):
                off = scale * tol * (1, -1, 1j, -1j)[(k + n) % 4]
                rows.append((_moved_to(dom, _x_general(rng), n, off), n))
                expect.append(scale < 1)
        for n in (dom.n_min - 1, dom.n_max + 1, dom.n_max + 3):
            rows.append((_moved_to(dom, _x_general(rng), n), n))
            expect.append(False)
        for (x, n), ok in zip(rows, expect):
            want = _decision(lambda: [_level_ref(dom, x)])
            assert _decision(lambda: dom.levels(x[None])) == want
            assert (want == [n]) is ok
            for m in (n, n + 1):
                assert _decision(lambda: dom.levels(x[None], [m])) == _decision(lambda: [_level_ref(dom, x, m)])
        # a batch: every row's index, or the first failing row raises and names its n
        order = rng.permutation(len(rows))
        xs = np.array([rows[k][0] for k in order])
        ns = [rows[k][1] for k in order]
        first = next(i for i, k in enumerate(order) if not expect[k])
        want = _decision(lambda: [_level_ref(dom, x) for x in xs])
        assert want.startswith((f"point off hyperplane {ns[first]} ", f"hyperplane index {ns[first]} "))
        assert _decision(lambda: dom.levels(xs)) == want
        want = _decision(lambda: [_level_ref(dom, x, n) for x, n in zip(xs, ns)])
        assert _decision(lambda: dom.levels(xs, ns)) == want
        good = [i for i, k in enumerate(order) if expect[k]]
        assert dom.levels(xs[good]) == [ns[i] for i in good] == dom.levels(xs[good], [ns[i] for i in good])


def test_evaluator_domain_enforced():
    comp1 = CHAIN2.components[1]
    rng = sampling.make_rng(12)
    with pytest.raises(DomainError):
        comp1.eval(_x_on(rng, 2))
    assert comp1.eval(_x_on(rng, 1)) != 0


def test_unlocated_entries_check_the_level():
    # TauChain.value, tau_n_int and psi_variant take a level without
    # locating x, so each checks x on it before computing; a component's fn
    # locates x in the component's one-level domain
    chain = T.build_chain(1, params=PARAMS)
    x = _x_on(sampling.make_rng(14), 1)
    entries = (
        (lambda n, y: chain.value(n, y), "off hyperplane 0"),
        (lambda n, y: chain.components[n].fn(y), "hyperplane index 1 outside [0, 0]"),
        (lambda n, y: T.tau_n_int(n, y, "direct", PARAMS), "off hyperplane 0"),
        (lambda n, y: T.psi_variant(n, y, "pp", PARAMS), "off hyperplane 0"),
    )
    for entry, level_0 in entries:
        with pytest.raises(DomainError, match="off hyperplane 1"):
            entry(1, x + 0.01)
        with pytest.raises(DomainError, match=re.escape(level_0)):
            entry(0, x)
    assert chain.evaluator.batch.cache_info() == (0, 0, T.TAU_MEMO_SIZE, 0)


def test_chain_value_refuses_a_level_outside_the_chain():
    # value checks x as the evaluator does: a level-3 point is outside a
    # depth-2 chain's domain, whichever entry reads it
    chain = T.build_chain(2, params=PARAMS)
    x = _x_on(sampling.make_rng(16), 3)
    for entry in (lambda: chain.value(3, x), lambda: chain.evaluator(x)):
        with pytest.raises(DomainError, match=re.escape("hyperplane index 3 outside [-8, 2]")):
            entry()
    assert chain.evaluator.batch.cache_info() == (0, 0, T.TAU_MEMO_SIZE, 0)


def test_chain_vanishes_below_base_level():
    rng = sampling.make_rng(13)
    assert CHAIN2.evaluator.eval(_x_on(rng, -1)) == 0
    assert CHAIN2.value(-2, _x_on(rng, -2)) == 0


def test_chain_memo_evaluates_a_point_once(monkeypatch):
    calls = []
    values = T._integral_values
    monkeypatch.setattr(T, "_integral_values", lambda ns, xs, *a: calls.append(list(ns)) or values(ns, xs, *a))
    chain = T.build_chain(1, params=PARAMS)
    rng = sampling.make_rng(15)
    x, y = _x_on(rng, 1), _x_on(rng, 0)
    assert chain.evaluator(x) == chain.value(1, x)
    assert calls == [[1]]
    assert chain.evaluator.eval_many([x, x]) == [chain.value(1, x)] * 2
    # a component's fn and the evaluator's (the batch of one, located) go
    # through the same memo: one miss, then hits only, and no value call
    assert chain.components[1].fn(x) == chain.evaluator.fn(x) == chain.value(1, x)
    assert calls == [[1]]
    assert chain.evaluator.batch.cache_info() == (7, 1, T.TAU_MEMO_SIZE, 1)  # 8 points read
    assert all(ev.batch is chain.evaluator.batch for ev in chain.components)
    # a batch with new points makes one value call for them, each once,
    # whatever their levels; the point it found in the memo is a hit
    chain.evaluator.eval_many([y, x, y, x])
    assert calls == [[1], [0]]
    assert chain.evaluator.batch.cache_info() == (10, 2, T.TAU_MEMO_SIZE, 2)


def test_an_evaluator_needs_fn_or_batch():
    with pytest.raises(ValueError, match="needs fn or batch"):
        T.TauEvaluator(None, PARAMS)


def test_memo_is_bounded_and_eviction_keeps_values(monkeypatch):
    monkeypatch.setattr(T, "TAU_MEMO_SIZE", 8)
    chain = T.build_chain(0, params=PARAMS)
    rng = sampling.make_rng(16)
    xs = [_x_on(rng, 0) for _ in range(20)]
    first = [chain.evaluator(x) for x in xs]
    info = chain.evaluator.batch.cache_info()
    assert (info.misses, info.maxsize) == (20, 8) and info.currsize <= 8
    again = chain.evaluator(xs[0])  # evicted, so evaluated afresh
    assert chain.evaluator.batch.cache_info().misses == 21
    assert (again.real.hex(), again.imag.hex()) == (first[0].real.hex(), first[0].imag.hex())


# ------------------------------------------------ batched evaluation


def _level_points(seed, levels):
    rng = sampling.make_rng(seed)
    return [_x_on(rng, n) for n in levels]


def _inadmissible_level2(seed=5):
    # |e(x_0)| = 0.72 puts |t_0| = q^(-1/2) |e(x_0)| above 1 at level 2
    x = _x_on(sampling.make_rng(seed), 2)
    dy = -np.log(0.72) / (2 * np.pi) - x[0].imag
    x[0] += 1j * dy
    x[7] -= 1j * dy
    return x


def _hex(v):
    return (v.real.hex(), v.imag.hex())


def test_eval_many_matches_the_point_by_point_eval():
    xs = _level_points(40, (0, 1, 2, 1, 2, 0, 2, -1))
    xs.insert(4, xs[1])  # a duplicate: one miss, then a hit
    batched, looped = T.build_chain(2, params=PARAMS), T.build_chain(2, params=PARAMS)
    got = batched.evaluator.eval_many(xs)
    want = [looped.evaluator.eval(x) for x in xs]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-15 * abs(w)
    assert got[-1] == 0 and _hex(got[4]) == _hex(got[1])
    info = batched.evaluator.batch.cache_info()
    assert info == looped.evaluator.batch.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (1, 7, T.TAU_MEMO_SIZE, 7)
    # a batch of one point is the point-by-point route, bit for bit
    fresh = T.build_chain(2, params=PARAMS)
    assert [_hex(fresh.evaluator.eval_many([x])[0]) for x in xs] == [_hex(w) for w in want]
    # the components share the family's memo: a hit returns the same bits
    assert [_hex(v) for v in batched.components[2].eval_many([xs[2], xs[7]])] == [_hex(got[2]), _hex(got[7])]
    assert batched.evaluator.batch.cache_info().hits == 3


def test_eval_many_reads_the_memo_it_found_and_drops_the_oldest(monkeypatch):
    monkeypatch.setattr(T, "TAU_MEMO_SIZE", 8)
    calls = []
    values = T._integral_values
    monkeypatch.setattr(T, "_integral_values", lambda ns, xs, *a: calls.append(len(ns)) or values(ns, xs, *a))
    xs = _level_points(41, [0] * 20)
    chain = T.build_chain(0, params=PARAMS)
    first = chain.evaluator.eval_many(xs)
    # past the bound the oldest go: the last eight are kept
    assert calls == [20] and chain.evaluator.batch.cache_info() == (0, 20, 8, 8)
    # the first twelve are one value call; the last eight are read from the
    # memo as the batch found it, though storing the twelve then drops them
    again = chain.evaluator.eval_many(xs)
    assert calls == [20, 12] and chain.evaluator.batch.cache_info() == (8, 32, 8, 8)
    assert [_hex(v) for v in again] == [_hex(v) for v in first]
    # the memo holds xs[4:12], the newest eight: a hit each, and xs[12] is new
    chain.evaluator.eval_many(xs[4:13])
    assert calls == [20, 12, 1] and chain.evaluator.batch.cache_info() == (16, 33, 8, 8)
    # a batch of more new points than the bound keeps its last eight
    ys = _level_points(42, [0] * 10)
    chain.evaluator.eval_many(ys)
    chain.evaluator.eval_many(ys[2:])
    assert calls == [20, 12, 1, 10] and chain.evaluator.batch.cache_info() == (24, 43, 8, 8)


def test_eval_many_locates_every_point_before_any_value():
    good = _level_points(43, (1, 2, 1))
    bad = _inadmissible_level2()
    off = good[0] + 0.01  # off the level family: a DomainError from locate
    chain = T.build_chain(2, params=PARAMS)
    chain.evaluator.eval_many(good[:2])
    before = chain.evaluator.batch.cache_info()
    # the level check of every point comes first, though the inadmissible
    # point comes before the stray one; then the values of every level are
    # one computation, which fails as a whole. A failure leaves the memo and
    # its counts as they were, in a batch (the new level-1 point that shares
    # the failing batch included) and in a batch of one.
    for xs, error in (([good[0], bad, off, good[1]], DomainError), ([good[2], good[1], bad], AdmissibilityError)):
        with pytest.raises(error):
            chain.evaluator.eval_many(xs)
        assert chain.evaluator.batch.cache_info() == before
    with pytest.raises(AdmissibilityError):
        chain.evaluator.eval(bad)
    assert chain.evaluator.batch.cache_info() == before


@pytest.mark.parametrize("ftype, levels", [(FrameType.C3_I, 2), (FrameType.C3_II2, 3)], ids=["C3_I", "C3_II2"])
def test_residual_levels_are_one_integral_pass(monkeypatch, ftype, levels):
    # a residual's six points lie on two (C3_I) or three (C3_II2) levels:
    # their values are one _integral_values call and one I_n_many batch,
    # each within 1e-15 of the point alone (the batch's pair products share
    # one series length)
    values, I_n_many = T._integral_values, integrals.I_n_many
    calls, batches = [], []

    def recorded(ns, xs, *a):
        calls.append((list(ns), [np.array(x) for x in xs], values(ns, xs, *a)))
        return calls[-1][2]

    monkeypatch.setattr(T, "_integral_values", recorded)
    monkeypatch.setattr(integrals, "I_n_many", lambda ctxs, **kw: batches.append(len(ctxs)) or I_n_many(ctxs, **kw))
    chain = T.build_chain(2, params=PARAMS)
    level = {FrameType.C3_I: 1.5, FrameType.C3_II2: 1}[ftype]
    T.hirota_residual(chain.evaluator, _frames_of(ftype, 1)[0], _x_on(sampling.make_rng(46), level), PARAMS)
    assert len(calls) == 1 and len(batches) == 1
    ns, xs, out = calls[0]
    assert len(set(ns)) == levels
    for n, x, v in zip(ns, xs, out):
        alone = values([n], [x], "pp", "direct", PARAMS, integrals.QUAD_TOL)[0]
        assert abs(v - alone) <= 1e-15 * abs(alone)


def test_residual_brackets_come_before_the_tau_batch(monkeypatch):
    # a bracket batch that raises: no tau value is looked up, by the Hirota
    # residual (one batch of six) or by the Toda step (one batch of six)
    chain = T.build_chain(2, params=PARAMS)
    frame = _frames_of(FrameType.C3_II0, 1)[0]
    frame8 = frame_containing(T.A1_VECTORS[0])
    x = _x_on(sampling.make_rng(45), 2)
    calls = []

    def bracket_scaled_many(zetas, params):
        calls.append(len(zetas))
        raise DomainError("bracket batch")

    monkeypatch.setattr(T, "bracket_scaled_many", bracket_scaled_many)
    with pytest.raises(DomainError, match="bracket batch"):
        T.hirota_residual(chain.evaluator, frame, x, PARAMS)
    with pytest.raises(DomainError, match="bracket batch"):
        T.toda_step(chain.components[0], chain.components[1], frame8, 2, 3, x, PARAMS)
    assert calls == [6, 6]
    info = chain.evaluator.batch.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_batched_residuals_match_the_point_by_point_route():
    # the same residuals through an evaluator built from the point fn alone,
    # whose batch is that fn adapted point by point
    frame = _frames_of(FrameType.C3_II0, 1)[0]
    frame8 = frame_containing(T.A1_VECTORS[0])
    rng = sampling.make_rng(44)
    for _ in range(3):
        batched, looped = T.build_chain(2, params=PARAMS), T.build_chain(2, params=PARAMS)
        plain = T.TauEvaluator(lambda y: looped.evaluator.fn(y), PARAMS, looped.evaluator.domain)
        x = _x_on(rng, 2)
        r_batch = T.hirota_residual(batched.evaluator, frame, x, PARAMS)
        r_loop = T.hirota_residual(plain, frame, x, PARAMS)
        assert abs(r_batch - r_loop) <= 1e-15 * max(1.0, r_loop)
        t_batch = T.toda_step(batched.components[0], batched.components[1], frame8, 2, 3, x, PARAMS)
        comps = [T.TauEvaluator(lambda y, c=c: c.fn(y), PARAMS, c.domain) for c in looped.components[:2]]
        t_loop = T.toda_step(comps[0], comps[1], frame8, 2, 3, x, PARAMS)
        assert abs(t_batch - t_loop) <= 1e-15 * abs(t_loop)
        assert batched.evaluator.batch.cache_info() == looped.evaluator.batch.cache_info()


# -------------------------------------------------------------- canonical


def test_canonical_degenerate_at_origin():
    can = T.canonical_tau(0.0, PARAMS)
    frame = Frame.from_vectors(T._A0_TRIPLE)
    r = T.hirota_residual(can, frame, np.zeros(8, dtype=complex), PARAMS)
    assert r == 0.0 and r.degenerate


def test_canonical_satisfies_hirota_on_random_frames():
    rng = sampling.make_rng(21)
    frames = enumerate_frames(3)
    worst = 0.0
    for _ in range(20):
        frame = frames[rng.integers(len(frames))]
        can = T.canonical_tau(complex(rng.standard_normal(), rng.standard_normal()), PARAMS)
        r = T.hirota_residual(can, frame, _x_general(rng), PARAMS)
        assert not r.degenerate
        worst = max(worst, r)
    assert worst < 1e-10


def test_canonical_reduces_to_three_term():
    # [Q(x +- a delta) + c] = [z +- <a, x>] with z = Q(x) + delta/2 + c,
    # so each bilinear term is a three-term factor pair.
    rng = sampling.make_rng(22)
    c = 0.31 - 0.12j
    can = T.canonical_tau(c, PARAMS)
    frame = Frame.from_vectors(T._A0_TRIPLE)
    x = _x_general(rng)
    z = T.qforms([x], PARAMS.delta)[0] + PARAMS.delta / 2.0 + c
    pair = {}
    for a in T.oriented_triple(frame):
        alpha = pairing_c(a, x)
        prod = can.eval(_shifted(x, a)) * can.eval(_shifted(x, a, -1))
        pair[a] = alpha
        assert _rel(prod, bracket_pm(z, alpha, PARAMS)) < 1e-10
    a0, a1, a2 = T.oriented_triple(frame)
    assert three_term_residual(z, pair[a0], pair[a1], pair[a2], PARAMS) < 1e-10


def test_negative_control_detects_broken_tau():
    # The +1 is an O(1) corruption only where the bracket values are O(1),
    # so keep the sample points small.
    rng = sampling.make_rng(23)
    can = T.canonical_tau(0.17 + 0.05j, PARAMS)
    frame = Frame.from_vectors(T._A7_TRIPLE)
    broken = T.TauEvaluator(lambda y: can.eval(y) + 1.0, PARAMS)
    worst = max(
        T.hirota_residual(broken, frame, _x_general(rng, scale=0.1), PARAMS)
        for _ in range(3)
    )
    assert worst > 1e-2


# -------------------------------------------------------------- transforms


def test_exp_gauge_preserves_hirota():
    rng = sampling.make_rng(31)
    can = T.canonical_tau(0.05 - 0.21j, PARAMS)
    frame = Frame.from_vectors(T._A0_TRIPLE)
    specs = [
        T.ExpGauge(k=0.3 - 0.1j, v=tuple(0.2j * k for k in range(8)), c=0.7),
        T.ExpGauge(k=-0.15j, c=0.1 + 0.4j, eps=-1),
    ]
    for spec in specs:
        tg = T.transform(can, spec)
        for _ in range(3):
            assert T.hirota_residual(tg, frame, _x_general(rng), PARAMS) < 1e-9


def test_weyl_map_fixes_canonical():
    rng = sampling.make_rng(32)
    can = T.canonical_tau(0.4 + 0.2j, PARAMS)
    tw = T.transform(can, T.WeylMap((3, 0, 7, 5)))
    for _ in range(3):
        x = _x_general(rng)
        assert _rel(tw.eval(x), can.eval(x)) < 1e-12


def test_transform_refuses_an_evaluator_with_a_domain():
    # every map refuses a chain component at the boundary rather than move
    # its level domain; no command transforms one
    comp0 = CHAIN2.components[0]
    for spec in (T.ExpGauge(k=0.3), T.WeylMap((7,)), T.PeriodShift(vec(2, 2, -2, -2, 0, 0, 0, 0), (1, 0))):
        with pytest.raises(ValueError, match="not one on a level domain"):
            T.transform(comp0, spec)


_GAUGE = T.ExpGauge(k=0.3 - 0.1j, v=tuple(0.2j * k for k in range(8)), c=0.7)
_SHIFT = T.PeriodShift(vec(2, 2, -2, -2, 0, 0, 0, 0), (0, 1))


def _bits(vals) -> list:
    return [(v.m.real.hex(), v.m.imag.hex(), v.k) for v in vals]


def test_a_block_is_its_list_of_rows_bit_for_bit():
    # scaled_many takes a (B, 8) block as it is and stacks a list of rows
    # once: the same values, bit for bit, for the canonical solution, its
    # three transforms, an evaluator built from fn alone, and a graded
    # family (two fresh ones, so neither reads the other's memo)
    rng = sampling.make_rng(48)
    can = T.canonical_tau(0.21 + 0.05j, PARAMS)
    evs = [
        can,
        T.transform(can, _GAUGE),
        T.transform(can, T.WeylMap((3, 0, 7, 5))),
        T.transform(can, _SHIFT),
        T.TauEvaluator(lambda y: can(y) + 1.0, PARAMS),
    ]
    for _ in range(5):
        X = 0.12 * (rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8)))
        for ev in evs:
            assert _bits(ev.scaled_many(X)) == _bits(ev.scaled_many(list(X)))
    X = np.array([_variant_x(rng, "pm", n) for n in (0, 1, 2, 1, 0, 2)])
    got = T.variant_evaluator("pm", PARAMS).scaled_many(X)
    assert _bits(got) == _bits(T.variant_evaluator("pm", PARAMS).scaled_many(list(X)))


def test_block_prefactors_and_points_match_the_per_point_reference():
    # the block maps of the three transforms against the per-point BLAS
    # route: every exponent within 1e-15 of the size of its terms (the
    # moduli its rounding scales with), every Weyl image within 1e-15 of its
    # largest coordinate, and the gauge and shift points bit for bit
    rng = sampling.make_rng(49)
    word = (3, 0, 7, 5)
    for spec in (_GAUGE, T.ExpGauge(k=-0.15j, c=0.1 + 0.4j, eps=-1), _SHIFT, T.WeylMap(word)):
        point, exponent = T._block_maps(spec, PARAMS)
        for _ in range(50):
            X = 10.0 ** rng.uniform(-3, 1, size=(6, 1)) * (rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8)))
            P = point(X)
            if isinstance(spec, T.WeylMap):
                for got, x in zip(P, X):
                    ref = R.apply_word_c(tuple(reversed(word)), x)
                    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
                continue
            if isinstance(spec, T.ExpGauge):
                assert P.tobytes() == (spec.eps * X).tobytes()
                v = np.asarray(spec.v)
                sizes = abs(spec.k) * (np.abs(X) ** 2).sum(1) + np.abs(X * v).sum(1) + abs(spec.c)
            else:
                shift = spec.v.true_coords() * (spec.omega[0] + spec.omega[1] * PARAMS.varpi)
                assert P.tobytes() == np.array([x - shift for x in X]).tobytes()
                coef = abs(spec.omega[1] / (2.0 * PARAMS.delta**2))
                sizes = coef * np.abs(X * spec.v.true_coords()).sum(1) * np.abs(X * (X - shift)).sum(1)
            for got, x, size in zip(exponent(X).tolist(), X, sizes.tolist()):
                assert abs(got - R.prefactor_exponent(spec, x, PARAMS)) <= 1e-15 * size


def test_period_shift_preserves_hirota():
    rng = sampling.make_rng(34)
    can = T.canonical_tau(0.09 + 0.33j, PARAMS)
    frame = Frame.from_vectors(T._A0_TRIPLE)
    va = vec(2, 2, -2, -2, 0, 0, 0, 0)
    t10 = T.transform(can, T.PeriodShift(va, (1, 0)))
    for _ in range(3):
        assert T.hirota_residual(t10, frame, _x_general(rng), PARAMS) < 1e-9
    # The varpi-direction shift carries the quadratic multiplier; keep the
    # points small so its magnitude stays inside floating-point range.
    t01 = T.transform(can, T.PeriodShift(va, (0, 1)))
    for _ in range(3):
        assert T.hirota_residual(t01, frame, _x_general(rng, scale=0.12), PARAMS) < 1e-9


def test_overflowing_products_leave_the_hirota_residual_finite():
    # criterion 03's 300 draws (seed 202), replayed: the canonical solution
    # and two of its transforms at 0.35-scale points, where |tau| reaches
    # 1e150 and more, so an unscaled term or tau value can overflow; every
    # residual is finite and under the bound
    rng = sampling.make_rng(202)
    par = EllipticParams.from_bases(0.2, 0.35)
    base = T.canonical_tau(0.21 + 0.05j, par)
    gauged = T.transform(base, T.ExpGauge(k=0.3 - 0.1j, v=tuple(0.2j * k for k in range(8)), c=0.7))
    period = T.transform(base, T.PeriodShift(vec(2, 2, -2, -2, 0, 0, 0, 0), (1, 0)))
    frames = enumerate_frames(3)
    std = Frame.from_vectors(T.A1_VECTORS[:3])
    rescued = 0
    for _ in range(100):
        x = 0.35 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        f = frames[int(rng.integers(len(frames)))]
        for ev, fr in ((base, f), (gauged, f), (period, std)):
            r = T.hirota_residual(ev, fr, x, par)
            # the reference route: the six brackets and the six values
            # recombined, and the unscaled products
            a, b, c = T.oriented_triple(fr)
            args, pts = [], []
            for s, t, w in ((a, b, c), (b, c, a), (c, a, b)):
                sh = np.asarray(s.true_coords(), dtype=complex) * par.delta
                args += [pairing_c(t, x) + pairing_c(w, x), pairing_c(t, x) - pairing_c(w, x)]
                pts += [x + sh, x - sh]
            brs = [complex(v) for v in bracket_scaled_many(args, par)]
            vals = ev.eval_many(pts)
            terms = [brs[2 * k] * brs[2 * k + 1] * vals[2 * k] * vals[2 * k + 1] for k in range(3)]
            assert np.isfinite(r) and r < 1e-9
            if np.all(np.isfinite(terms)):
                assert float(r).hex() == (abs(sum(terms)) / max(abs(t) for t in terms)).hex()
            else:
                rescued += bool(np.isfinite(r))
    assert rescued > 0


def test_period_shifts_compose_up_to_exp_quadratic():
    # Shifting by v then by w differs from the single (v+w)-shift by
    # e(quadratic); its multiplicative second difference along any h is
    # then constant, while the ratio itself is not.
    rng = sampling.make_rng(35)
    can = T.canonical_tau(0.25, PARAMS)
    va, vb = vec(2, 2, -2, -2, 0, 0, 0, 0), vec(0, 0, 0, 0, 2, -2, 2, -2)
    omega = (0, 1)
    t_ab = T.transform(T.transform(can, T.PeriodShift(va, omega)), T.PeriodShift(vb, omega))
    t_sum = T.transform(can, T.PeriodShift(va + vb, omega))
    x = _x_general(rng, scale=0.15)
    h = 0.1 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))

    def ratio(y):
        return t_ab.eval(y) / t_sum.eval(y)

    second = [
        ratio(x + (k + 2) * h) * ratio(x + k * h) / ratio(x + (k + 1) * h) ** 2
        for k in range(3)
    ]
    assert _rel(second[0], second[1]) < 1e-9
    assert _rel(second[1], second[2]) < 1e-9
    assert abs(ratio(x + h) / ratio(x) - 1.0) > 1e-3


# ------------------------------------------------- closed forms, levels 0/1


def test_level0_product_weyl_invariant():
    rng = sampling.make_rng(41)
    for _ in range(2):
        x = _x_on(rng, 0)
        base = T.hg_tau0(x, PARAMS)
        for word in ((0,), (3, 1, 4), (6, 2, 0, 5)):
            assert _rel(T.hg_tau0(apply_word_c(word, x), PARAMS), base) < 1e-10


def test_level0_shift_ratio_forms():
    # tau0(x +- a1 d) / tau0(x +- a2 d) = [<a0 +- a1, x>] / [<a0 +- a2, x>],
    # equivalently a four-theta cross ratio in the block coordinates.
    rng = sampling.make_rng(42)
    a0, a1, a2 = T.oriented_triple(Frame.from_vectors(T._A0_TRIPLE))
    for _ in range(3):
        x = _x_on(rng, 0)
        num = T.hg_tau0(_shifted(x, a1), PARAMS) * T.hg_tau0(_shifted(x, a1, -1), PARAMS)
        den = T.hg_tau0(_shifted(x, a2), PARAMS) * T.hg_tau0(_shifted(x, a2, -1), PARAMS)
        lhs = num / den
        rhs = bracket_pm(pairing_c(a0, x), pairing_c(a1, x), PARAMS) / bracket_pm(
            pairing_c(a0, x), pairing_c(a2, x), PARAMS
        )
        assert _rel(lhs, rhs) < 1e-9
        u = np.exp(2j * np.pi * x)
        p = PARAMS.p
        cross = (theta(u[0] * u[1], p) * theta(u[2] * u[3], p)) / (
            theta(u[0] * u[2], p) * theta(u[1] * u[3], p)
        )
        assert _rel(lhs, cross) < 1e-9


def test_pair_product_telescopes_under_shift():
    # Raising the pairwise argument by one q-step multiplies each triple
    # factor by the two-base gamma of the unshifted argument.
    rng = sampling.make_rng(43)
    x = _x_general(rng, scale=0.25)
    x += 1j * 0.15 * np.ones(8)  # push all moduli below 1
    u = np.exp(2j * np.pi * x)
    p, q = PARAMS.p, PARAMS.q
    lhs = integrals._pair_gammas([u], PARAMS, q)[0]
    rhs = integrals._pair_gammas([u], PARAMS)[0]
    for i in range(8):
        for j in range(i + 1, 8):
            rhs *= elliptic_gamma(u[i] * u[j], p, q)
    assert _rel(lhs, rhs) < 1e-10


def test_batched_pair_product_matches_scalar_loop():
    rng = sampling.make_rng(45)
    p, q = PARAMS.p, PARAMS.q
    for n in (1, 2):
        u = np.exp(2j * np.pi * _x_on(rng, n))
        for scale in (q ** (1 - n), T._block_scales(q, n)):
            scales = np.broadcast_to(scale, (28,))
            loop = 1.0 + 0j
            for s, i, j in zip(scales, *integrals._PAIRS):
                loop *= triple_gamma(s * u[i] * u[j], p, q)
            assert _rel(integrals._pair_gammas([u], PARAMS, scale)[0], loop) < 1e-13
    # the per-pair scales: q inside each coordinate block, q^(1-n) across
    i, j = integrals._PAIRS
    same = (i < 4) == (j < 4)
    assert same.sum() == 12
    assert np.all(T._block_scales(q, 2)[same] == q)
    assert np.all(T._block_scales(q, 2)[~same] == q**-1)


def test_level1_weyl_invariant():
    rng = sampling.make_rng(44)
    for _ in range(2):
        x = _x_on(rng, 1)
        base = T.hg_tau1(x, PARAMS)
        for word in ((2,), (5, 0)):
            y = apply_word_c(word, x)
            try:
                val = T.hg_tau1(y, PARAMS)
            except AdmissibilityError:
                continue  # reflection pushed a modulus out of range
            assert _rel(val, base) < 1e-6


def test_type_i_family_on_half_level():
    frame = Frame.from_vectors((V[0], V[1], V[2]))
    assert frame.frame_type is FrameType.C3_I
    rng = sampling.make_rng(45)
    for _ in range(2):
        r = _hirota_resampled(CHAIN2.evaluator, frame, 1.5, rng)
        assert r < 1e-7 and not r.degenerate


def test_level0_ratio_family_via_chain():
    frame = _frames_of(FrameType.C3_II1, count=1)[0]
    rng = sampling.make_rng(46)
    r = _hirota_resampled(CHAIN2.evaluator, frame, 0, rng)
    assert r < 1e-7 and not r.degenerate


# ------------------------------------------------------- two-term recursion


def test_toda_value_independent_of_index_choice():
    rng = sampling.make_rng(51)
    frame8 = frame_containing(T.A1_VECTORS[0])
    c0, c1 = CHAIN2.components[0], CHAIN2.components[1]
    pairs = [(2, 3), (2, 4), (3, 5), (4, 6), (6, 7), (7, 2)]
    done = False
    for _ in range(6):
        x = _x_on(rng, 2)
        try:
            vals = [T.toda_step(c0, c1, frame8, i, j, x, PARAMS) for i, j in pairs]
            vals.append(T.toda_step(c0, c1, frame8, 2, 3, x, PARAMS, a0_index=1))
            vals.append(CHAIN2.value(2, x))
        except RESAMPLE_ERRORS:
            continue
        spread = max(abs(v - vals[0]) for v in vals) / abs(vals[0])
        assert spread < 1e-8
        done = True
        break
    assert done, "no admissible level-2 draw for the recursion"


def test_toda_steps_match_the_step_of_each_pair():
    # all 15 pairs in one pass: each within 1e-13 of its own toda_step, with
    # the twelve level-1 points and the level-0 point each looked up once
    rng = sampling.make_rng(56)
    frame8 = frame_containing(T.A1_VECTORS[0])
    pairs = [(i, j) for i in range(2, 8) for j in range(i + 1, 8)]
    done = 0
    for _ in range(8):
        chain = T.build_chain(2, params=PARAMS)
        c0, c1 = chain.components[0], chain.components[1]
        x = _x_on(rng, 2)
        for a0_index in (0, 1):
            try:
                got = T.toda_steps(c0, c1, frame8, pairs, x, PARAMS, a0_index)
            except RESAMPLE_ERRORS:
                continue
            if a0_index == 0:
                info = chain.evaluator.batch.cache_info()
                assert (info.hits, info.misses) == (0, 13)
            for (i, j), v in zip(pairs, got):
                ref = T.toda_step(c0, c1, frame8, i, j, x, PARAMS, a0_index)
                assert abs(v - ref) <= 1e-13 * abs(ref), (i, j, a0_index)
            done += 1
    assert done >= 4


def test_toda_rejects_bad_indices():
    c0, c1 = CHAIN2.components[0], CHAIN2.components[1]
    frame8 = frame_containing(T.A1_VECTORS[0])
    rng = sampling.make_rng(52)
    x = _x_on(rng, 2)
    with pytest.raises(ValueError):
        T.toda_step(c0, c1, frame8, 3, 3, x, PARAMS)
    with pytest.raises(ValueError):
        T.toda_step(c0, c1, frame8, 1, 4, x, PARAMS)
    with pytest.raises(ValueError):
        T.toda_step(c0, c1, frame8, 2, 3, x, PARAMS, a0_index=2)
    with pytest.raises(ValueError):
        T.toda_steps(c0, c1, frame8, [(2, 3), (4, 4)], x, PARAMS)


def test_toda_flags_degenerate_denominator():
    c0, c1 = CHAIN2.components[0], CHAIN2.components[1]
    frame8 = frame_containing(T.A1_VECTORS[0])
    ordered = T.ordered_c8_ii(frame8)
    rng = sampling.make_rng(53)
    x = _x_on(rng, 2)
    # Project the difference pairing to zero; the direction is orthogonal
    # to the level vector, so x stays on the hyperplane.
    d = ordered[2] - ordered[3]
    x = x - pairing_c(d, x) * np.asarray(d.true_coords(), dtype=complex) / 2.0
    with pytest.raises(T.BracketZeroError):
        T.toda_step(c0, c1, frame8, 2, 3, x, PARAMS)


def test_toda_refuses_a_vanishing_previous_value():
    # tau_prev(x - 2 a0 delta) divides every step: at 0 the step is refused
    # with the point named, not divided by
    c1 = CHAIN2.components[1]
    frame8 = frame_containing(T.A1_VECTORS[0])
    x = _x_on(sampling.make_rng(52), 2)
    zero = T.TauEvaluator(lambda y: 0j, PARAMS)
    with pytest.raises(DomainError, match="tau_prev vanishes at x - 2 a0 delta") as err:
        T.toda_steps(zero, c1, frame8, [(2, 3), (4, 6)], x, PARAMS)
    assert repr(complex(x[0])) in str(err.value)


def test_ordered_c8_ii_is_memoised_per_frame(monkeypatch):
    frame8 = frame_containing(T.A1_VECTORS[0])
    first = T.ordered_c8_ii(frame8)
    classified = []
    monkeypatch.setattr(T, "classify_frame", lambda f: classified.append(f) or FrameType.C8_II)
    # an equal frame built afresh hits the memo: no classification, same tuple
    again = T.ordered_c8_ii(Frame(frame8.vectors, frame8.frame_type))
    assert again is first and classified == []
    assert first == tuple(T._oriented(frame8.vectors))
    monkeypatch.undo()
    # a frame of another type is not memoised as an ordering: it raises each time
    c8_i = next(f for f in enumerate_frames(8) if f.frame_type is FrameType.C8_I)
    for _ in range(2):
        with pytest.raises(ValueError):
            T.ordered_c8_ii(c8_i)


def test_bracket_zero_error_replays_at_its_point():
    c0, c1 = CHAIN2.components[0], CHAIN2.components[1]
    frame8 = frame_containing(T.A1_VECTORS[0])
    d = T.ordered_c8_ii(frame8)[2] - T.ordered_c8_ii(frame8)[3]
    x = _x_on(sampling.make_rng(55), 2)
    x = x - pairing_c(d, x) * np.asarray(d.true_coords(), dtype=complex) / 2.0
    with pytest.raises(T.BracketZeroError) as exc:
        T.toda_step(c0, c1, frame8, 2, 3, x, PARAMS)
    assert np.array_equal(exc.value.x, x)
    with pytest.raises(T.BracketZeroError) as again:
        T.toda_step(c0, c1, frame8, 2, 3, exc.value.x, PARAMS)
    assert again.value.magnitude == exc.value.magnitude


def test_chain_satisfies_all_frame_families():
    rng = sampling.make_rng(54)
    cases = [
        (FrameType.C3_II2, 1),
        (FrameType.C3_I, 1.5),
        (FrameType.C3_II0, 2),
        (FrameType.C3_II1, 1),
    ]
    for ftype, level in cases:
        for frame in _frames_of(ftype, count=2):
            r = _hirota_resampled(CHAIN2.evaluator, frame, level, rng)
            assert r < 1e-8, f"{ftype} at level {level}: residual {r:.3e}"
            assert not r.degenerate


def test_chain_covers_quarter_entry_frames():
    # Coordinate quarters in the frame vectors force the widest recursion
    # shifts; the envelope at the pinned bases must still admit them.
    bucket = [
        f
        for f in enumerate_frames(3)
        if f.frame_type is FrameType.C3_II0 and _has_quarter_entries(f)
    ]
    assert bucket
    rng = sampling.make_rng(55)
    r = _hirota_resampled(CHAIN2.evaluator, bucket[0], 2, rng)
    assert r < 1e-8 and not r.degenerate


def test_chain_rejects_bad_construction():
    with pytest.raises(ValueError):
        T.build_chain(4, params=PARAMS)
    with pytest.raises(TypeError):
        T.build_chain(2)  # params is required


def test_chain_weyl_invariant_per_level():
    rng = sampling.make_rng(56)
    words = ((0,), (4, 2))
    for n, tol in ((0, 1e-10), (1, 1e-6), (2, 1e-6)):
        done = False
        for _ in range(6):
            x = _x_on(rng, n)
            try:
                base = CHAIN2.value(n, x)
                vals = [CHAIN2.value(n, apply_word_c(w, x)) for w in words]
            except RESAMPLE_ERRORS:
                continue
            for v in vals:
                assert _rel(v, base) < tol
            done = True
            break
        assert done, f"no admissible draw at level {n}"


# ------------------------------------------------- determinant closed form


def test_casorati_base_cases_and_explicit_two_by_two():
    rng = sampling.make_rng(61)
    triple = Frame.from_vectors(T._A0_TRIPLE)
    a0, a1, a2 = T.oriented_triple(triple)
    rs = [rng.integers(-1, 2, size=8) for _ in range(3)]
    cs = rng.standard_normal(3) + 1j * rng.standard_normal(3)

    def psi(y):
        return sum(c * e(complex(r @ y)) for c, r in zip(cs, rs))

    def kernel(ys):
        return [psi(y) for y in ys]

    x = 0.1 * rng.standard_normal(8) + 0.05j * rng.standard_normal(8)
    assert T.casorati_K(0, x, kernel, triple, PARAMS) == 1.0
    assert _rel(T.casorati_K(1, x, kernel, triple, PARAMS), psi(x)) < 1e-12
    k2 = T.casorati_K(2, _shifted(x, a0), kernel, triple, PARAMS)
    expl = psi(_shifted(x, a1)) * psi(_shifted(x, a1, -1)) - psi(
        _shifted(x, a2)
    ) * psi(_shifted(x, a2, -1))
    assert _rel(k2, expl) < 1e-10
    with pytest.raises(ValueError):
        T.casorati_K(-1, x, kernel, triple, PARAMS)


def test_casorati_contiguous_minor_identity():
    # K(n-1)(x - a0 d) K(n+1)(x + a0 d) = K(n)(x +- a1 d) - K(n)(x +- a2 d)
    # holds for any kernel; exercised with a synthetic one at n = 1, 2.
    rng = sampling.make_rng(62)
    triple = Frame.from_vectors(T._A0_TRIPLE)
    a0, a1, a2 = T.oriented_triple(triple)
    rs = [rng.integers(-1, 2, size=8) for _ in range(4)]
    cs = rng.standard_normal(4) + 1j * rng.standard_normal(4)

    def psi(y):
        return sum(c * e(complex(r @ y)) for c, r in zip(cs, rs))

    def K(n, y):
        return T.casorati_K(n, y, lambda ys: [psi(v) for v in ys], triple, PARAMS)

    x = 0.1 * rng.standard_normal(8) + 0.05j * rng.standard_normal(8)
    for n in (1, 2):
        lhs = K(n - 1, _shifted(x, a0, -1)) * K(n + 1, _shifted(x, a0))
        rhs = K(n, _shifted(x, a1)) * K(n, _shifted(x, a1, -1)) - K(
            n, _shifted(x, a2)
        ) * K(n, _shifted(x, a2, -1))
        scale = max(abs(lhs), abs(rhs))
        assert scale > 0 and abs(lhs - rhs) / scale < 1e-8


def test_gauge_base_cases():
    rng = sampling.make_rng(63)
    for case in ("frame_a0", "frame_a7"):
        x0 = _x_on(rng, 0)
        assert _rel(T.gauge_g(0, x0, case, PARAMS), T.hg_tau0(x0, PARAMS)) < 1e-10
        x1 = _x_on(rng, 1)
        assert _rel(dfactor_d(1, x1, case, PARAMS), 1.0) < 1e-14
        assert _rel(dfactor_d(0, x0, case, PARAMS), 1.0) < 1e-14


def test_gauge_satisfies_transfer_relations():
    # The kernel determinant absorbs the recursion iff the scalar gauge
    # satisfies these two bracket-ratio relations.
    rng = sampling.make_rng(64)
    for case, triple in (("frame_a0", T._A0_TRIPLE), ("frame_a7", T._A7_TRIPLE)):
        a0, a1, a2 = T.oriented_triple(Frame.from_vectors(triple))

        def g(n, y):
            return T.gauge_g(n, y, case, PARAMS)

        def pm_pair(n, y, a):
            return g(n, _shifted(y, a)) * g(n, _shifted(y, a, -1))

        for n in (1, 2):
            x = _x_on(rng, n)
            lhs = g(n - 1, _shifted(x, a0, -1)) * g(n + 1, _shifted(x, a0)) / pm_pair(n, x, a1)
            rhs = bracket_pm(pairing_c(a0, x), pairing_c(a2, x), PARAMS) / bracket_pm(
                pairing_c(a1, x), pairing_c(a2, x), PARAMS
            )
            assert _rel(lhs, rhs) < 1e-9
            ratio = pm_pair(n, x, a1) / pm_pair(n, x, a2)
            rhs2 = bracket_pm(pairing_c(a0, x), pairing_c(a1, x), PARAMS) / bracket_pm(
                pairing_c(a0, x), pairing_c(a2, x), PARAMS
            )
            assert _rel(ratio, rhs2) < 1e-9


def test_closed_forms_agree_with_chain():
    # Level 2's reference is the Toda recursion over the chain's lower levels.
    rng = sampling.make_rng(65)
    frame8 = frame_containing(T.A1_VECTORS[0])
    c0, c1 = CHAIN2.components[0], CHAIN2.components[1]
    for n, tol in ((0, 1e-8), (1, 1e-8), (2, 1e-6)):
        done = False
        for _ in range(6):
            x = _x_on(rng, n)
            try:
                ref = T.toda_step(c0, c1, frame8, 2, 3, x, PARAMS) if n == 2 else CHAIN2.value(n, x)
                vals = [
                    T.tau_n_det(n, x, "frame_a0", PARAMS),
                    T.tau_n_det(n, x, "frame_a7", PARAMS),
                    T.tau_n_int(n, x, "direct", PARAMS),
                    T.tau_n_int(n, x, "tilde", PARAMS),
                ]
            except RESAMPLE_ERRORS:
                continue
            for v in vals:
                assert _rel(v, ref) < tol
            done = True
            break
        assert done, f"no admissible draw at level {n}"


def test_level3_integral_routes_match_determinant():
    # The three-fold integral, the chain's level 3, in both charts against the
    # Casorati closed form.
    rng = sampling.make_rng(67)

    def draw():
        x = _x_on(rng, 3)
        det = T.tau_n_det(3, x, "frame_a0", PARAMS)
        return [_rel(T.tau_n_int(3, x, route, PARAMS), det) for route in ("direct", "tilde")]

    for _ in range(3):
        assert max(resampled(draw)) < 1e-10


def test_level_zero_integral_value_skips_the_empty_integral_bit_for_bit():
    # At n = 0 the value is the pair product alone: the full product of the
    # gauge prefactor, the empty integral and the pair product has the same
    # bits.
    rng = sampling.make_rng(68)
    for route in ("direct", "tilde"):
        x = _x_on(rng, 0)
        t, w, scales = T._chart("pp", route, np.exp(2j * np.pi * x)[None], [0], PARAMS)
        full = (
            T._gauge_prefactors([0], [x], PARAMS)[0]
            * integrals.I_n(integrals.IntegrandContext(t[0], PARAMS, n=0))
            * integrals._pair_gammas(w, PARAMS, scales)[0]
        )
        assert T.tau_n_int(0, x, route, PARAMS) == full


def test_gauge_prefactor_refuses_to_leave_the_normal_float_range():
    # log|p^C(n,2) e(-n Q(x))| = C(n,2) log|p| + 2 pi n Im Q(x). At level 3
    # with |p| = 1e-217 and Im Q = 1500 / (6 pi) the two factors' logs,
    # -1499 and +1500, sum to about 1, but formed in floats the product is
    # 0 * inf; the gauge and each factor are tested before the product
    par = EllipticParams.from_bases(1e-217, 0.45)
    x = np.zeros(8, dtype=complex)
    x[0] = np.sqrt(2 * par.delta * 1j * 1500 / (6 * np.pi))
    with pytest.raises(DomainError, match=r"^chain gauge at level 3 leaves the normal float range"):
        T._gauge_prefactors([3], [x], par)
    # where both factors and the gauge stay normal it is the product, bit for bit
    q = T.qforms([x], par.delta)[0]
    assert T._gauge_prefactors([1], [x], par) == [par.p**0 * e(-q)]


def test_tau_n_int_validations():
    rng = sampling.make_rng(66)
    x = _x_on(rng, 1)
    with pytest.raises(ValueError):
        T.tau_n_int(4, _x_on(rng, 4), "direct", PARAMS)
    with pytest.raises(ValueError):
        T.tau_n_int(1, x, "sideways", PARAMS)
    with pytest.raises(ValueError):
        T.tau_n_det(1, x, "frame_a3", PARAMS)
    with pytest.raises(DomainError):
        T.tau_n_int(2, x, "direct", PARAMS)


# ------------------------------------------------- factorial determinant


def test_theta_factorial_determinant_evaluation():
    rng = sampling.make_rng(71)
    for n, tol in ((1, 1e-12), (2, 1e-10), (3, 1e-9)):
        for _ in range(3):
            a = 0.4 * e(rng.random())
            b = 0.55 * e(rng.random())
            zs = [np.exp(rng.uniform(np.log(0.5), np.log(0.9))) * e(rng.random()) for _ in range(n)]
            r = T.warnaar_det_residual(a, b, zs, n, PARAMS)
            assert r < tol and not r.degenerate
    with pytest.raises(ValueError):
        T.warnaar_det_residual(0.3, 0.4, [0.5], 2, PARAMS)


# --------------------------------------------------- sign-variant products


def _variant_x(rng, variant, n):
    ds, ls, _ = T._CHARTS[variant]
    level = ds * (ls * PARAMS.varpi + n * PARAMS.delta)
    m = (abs(PARAMS.p) ** (2 * ls) * abs(PARAMS.q) ** (2 * n)) ** (ds / 8.0)
    return sampling.sample_level_x(rng, level, (0.95 * m, 1.05 * m), (m / 1.2, 1.2 * m))


@pytest.mark.parametrize("route, variants", [("direct", "pp pm mp mm"), ("inverse", "pp pm mp mm"), ("tilde", "pp")])
def test_chart_rows_are_their_batch_of_one(route, variants):
    # every row of a mixed-level batch is, bit for bit, the batch of one of
    # that row: t, w and the row's pair scales
    rng = sampling.make_rng(72)
    ns = [0, 3, 1, 2, 2, 0, 1, 3, 1]
    for variant in variants.split():
        u = np.exp(2j * np.pi * np.array([_variant_x(rng, variant, n) for n in ns]))
        batch = T._chart(variant, route, u, ns, PARAMS)
        for k, n in enumerate(ns):
            one = T._chart(variant, route, u[k][None], [n], PARAMS)
            for got, want in zip(batch, one):
                assert got[k].tobytes() == want[0].tobytes(), (variant, k)


def test_variant_routes_agree():
    rng = sampling.make_rng(81)
    for variant in ("pp", "pm", "mp", "mm"):
        x = _variant_x(rng, variant, 1)
        d = T.psi_variant(1, x, variant, PARAMS, route="direct")
        i = T.psi_variant(1, x, variant, PARAMS, route="inverse")
        assert _rel(d, i) < 1e-6, variant


def test_variant_pp_equals_chain_component():
    # pp's direct route is the chain's route at every level, bit for bit.
    rng = sampling.make_rng(82)
    chain3 = T.build_chain(3, params=PARAMS)
    pp = T.variant_evaluator("pp", PARAMS)
    for n in (0, 1, 2, 3):
        x = _variant_x(rng, "pp", n)
        got = T.psi_variant(n, x, "pp", PARAMS)
        assert got == T.tau_n_int(n, x, "direct", PARAMS) == chain3.value(n, x)
        if n <= T.VARIANT_N_MAX:
            assert got == pp(x) == CHAIN2.value(n, x)


def test_variant_reflection_symmetry():
    rng = sampling.make_rng(83)
    x = _variant_x(rng, "mm", 1)
    lhs = T.psi_variant(1, x, "mm", PARAMS, route="direct")
    rhs = T.psi_variant(1, -x, "pm", PARAMS, route="inverse")
    assert _rel(lhs, rhs) < 1e-12


def test_variant_order_zero_is_plain_product():
    rng = sampling.make_rng(84)
    x = _variant_x(rng, "pm", 0)
    got = T.psi_variant(0, x, "pm", PARAMS)
    t = np.sqrt(complex(PARAMS.p) * complex(PARAMS.q)) * np.exp(2j * np.pi * x)
    expect = 1.0 + 0j
    for a in range(8):
        for b in range(a + 1, 8):
            expect *= triple_gamma(t[a] * t[b], PARAMS.p, PARAMS.q)
    assert _rel(got, expect) < 1e-12


def test_variant_evaluator_rejects_level_three_at_the_boundary():
    rng = sampling.make_rng(86)
    x = _variant_x(rng, "pm", 3)
    with pytest.raises(DomainError):
        T.variant_evaluator("pm", PARAMS)(x)


def test_variant_validations():
    rng = sampling.make_rng(85)
    x = _variant_x(rng, "pp", 1)
    with pytest.raises(ValueError):
        T.psi_variant(1, x, "qq", PARAMS)
    with pytest.raises(ValueError):
        T.psi_variant(1, x, "pp", PARAMS, route="around")
    with pytest.raises(ValueError):
        T.psi_variant(-1, x, "pp", PARAMS)
    with pytest.raises(DomainError):
        T.psi_variant(1, x, "mm", PARAMS)
