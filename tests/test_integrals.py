"""Contour quadrature and the integral identities."""
from __future__ import annotations

import itertools
import re
import warnings
from math import factorial

import numpy as np
import pytest

from e8tau import integrals, sampling, tau
from e8tau.cli import SUITES, _terminating_family, load_config
from e8tau.integrals import (
    QUAD_TOL,
    I,
    I_n,
    In_transform_residual,
    IntegrandContext,
    _jacobi_pair_coeffs,
    _node_rows,
    _plan_for,
    _rows,
    bailey_residual,
    contiguity_residual,
    terminating_eval,
)
from e8tau.specialfn import _SHIFT_RHO, EllipticParams, _series_powers, _shift_count, qpoch, theta, v12_11
from e8tau.util import AdmissibilityError, ConvergenceError, DomainError, e

from . import _oracles as O
from . import _quad_oracles as Q
from ._reference import quad
from .test_specialfn import _elliptic_gamma_product, _triple_gamma_full_simplex

PARAMS = EllipticParams.from_bases(0.15, 0.1)
CHAIN_PARAMS = EllipticParams.from_bases(0.03, 0.45)
U_FIXED = tuple(0.3 * e(k / 11) for k in range(8))


def _ctx(u=U_FIXED, params=PARAMS, **kw):
    return IntegrandContext(u=u, params=params, **kw)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _node_integrand(ctx, N):
    """The node integrand of one integral at N nodes: its row of the batch."""
    return _node_rows(_rows([ctx]), N)[0]


def _psi_value(ctx):
    """Reference weighting: the integral times the (p, q, r) triple-gamma
    product over the parameter pairs, invariant under both reflections."""
    u, par = np.asarray(ctx.u), ctx.params
    i, j = np.triu_indices(8, 1)
    return I(ctx) * complex(np.prod(_triple_gamma_full_simplex(u[i] * u[j], par.p, par.q, par.r)))


def integrand_H(z, ctx):
    """Reference integrand, node by node from the product formula: the
    Gamma(u_k z^{+-1}) over Gamma(z^{+-2}), the reciprocal of the
    denominator expanded into two theta factors."""
    p, q = ctx.params.p, ctx.params.q
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    out = -(zz**-2) * theta(zz**2, p) * theta(zz**2, q)
    for uk in ctx.u:
        out = out * _elliptic_gamma_product(uk * zz, p, q) * _elliptic_gamma_product(uk / zz, p, q)
    return complex(out[0]) if np.asarray(z).ndim == 0 else out


def test_integrand_spot_value():
    assert _rel(integrand_H(e(0.17), _ctx()), O.INTEGRAND_SPOT) < 1e-12


def test_integrand_inversion_symmetry():
    rng = sampling.make_rng(101)
    for _ in range(20):
        z = e(rng.random())
        h = integrand_H(z, _ctx())
        assert _rel(integrand_H(1 / z, _ctx()), h) < 1e-12


def test_integrand_vanishes_at_unit_argument():
    # the denominator has a pole of the gamma pair at z = +-1
    direct = integrand_H(1.0 + 0j, _ctx())
    composed = -theta(1.0 + 0j, PARAMS.p) * theta(1.0 + 0j, PARAMS.q)
    for uk in U_FIXED:
        composed *= _elliptic_gamma_product(uk, PARAMS.p, PARAMS.q) ** 2
    assert direct == composed == 0.0


def test_integrand_q_shift_ratio():
    rng = sampling.make_rng(103)
    p = PARAMS.p
    for _ in range(10):
        z = e(rng.random())
        base = integrand_H(z, _ctx())
        shifted_u = (PARAMS.q * U_FIXED[0], *U_FIXED[1:])
        shifted = integrand_H(z, _ctx(u=shifted_u))
        ratio = theta(U_FIXED[0] * z, p) * theta(U_FIXED[0] / z, p)
        assert _rel(shifted / base, ratio) < 1e-11


def test_fixed_point_values():
    assert _rel(I(_ctx()), Q.I1_FIXED) < 1e-11
    assert _rel(I_n(_ctx(n=2)), Q.I2_FIXED) < 1e-11


def test_permutation_invariance_and_sum_order():
    rng = sampling.make_rng(107)
    base = I(_ctx())
    for _ in range(4):
        perm = rng.permutation(8)
        assert _rel(I(_ctx(u=tuple(U_FIXED[int(i)] for i in perm))), base) < 1e-12
    # node summation is pairwise: reversing the accumulation order is inert
    h = _node_integrand(_ctx(), 256)
    assert abs(np.sum(h) - np.sum(h[::-1])) <= 1e-14 * abs(np.sum(h))


def _node_vs_reference(ctx, N):
    """Node integrand against integrand_H, off the nodes z = +-1 where both
    vanish."""
    h = _node_integrand(ctx, N)
    ref = integrand_H(_plan_for(ctx.params, N).zs, ctx)
    live = ref != 0
    assert np.all(h[~live] == 0)
    return float(np.max(np.abs(h[live] - ref[live]) / np.abs(ref[live])))


@pytest.mark.parametrize("params", [CHAIN_PARAMS, PARAMS], ids=["chain", "bailey"])
def test_spectral_integrand_matches_product_formula(params):
    for mod in (0.3, 0.6, 0.9, 0.97):
        ctx = _ctx(u=tuple(mod * e(k / 11 + 0.01) for k in range(8)), params=params)
        for N in (256, 512, 1024):
            assert _node_vs_reference(ctx, N) < 1e-12, (mod, N)


@pytest.mark.parametrize("params", [CHAIN_PARAMS, PARAMS], ids=["chain", "bailey"])
def test_spectral_integrand_falls_back_per_parameter(params):
    pq = params.p * params.q
    # |u_0| = |pq| and |u_1| < |pq| put rho_k >= 1, |u_2| = 0.995 puts it
    # near 1: the series cannot take these three as they are, so each is
    # moved into its reach by the gamma difference equation
    u = (pq * e(0.2), 0.5 * pq * e(0.7), 0.995 * e(0.35), *U_FIXED[3:])
    assert _node_vs_reference(_ctx(u=u, params=params), 512) < 1e-12


@pytest.mark.parametrize("params", [CHAIN_PARAMS, PARAMS], ids=["chain", "bailey"])
def test_shifted_parameters_match_product_formula(params):
    pq = abs(params.p * params.q)
    b = max(abs(params.p), abs(params.q))
    for mod in (0.96, 0.989, 0.997, 0.5 * pq, 0.2 * pq):
        s = _shift_count(mod, pq, b)
        x = mod * b**s
        assert s != 0 and max(x, pq / x) <= _SHIFT_RHO
        # the fewest steps: one step fewer is still above the threshold
        x = mod * b ** (s - np.sign(s))
        assert max(x, pq / x) > _SHIFT_RHO
        u = (mod * e(0.27), 0.6 * e(0.3), mod * e(0.61), *U_FIXED[3:])
        for N in (256, 1024, 4096):
            assert _node_vs_reference(_ctx(u=u, params=params), N) < 1e-12, (mod, N)


def test_parameter_outside_unit_disk_keeps_product_formula():
    # no integral admits it, but the node integrand still shifts it into the
    # series' reach and agrees with the product formula
    u = (1.02 * e(0.35), *U_FIXED[1:])
    assert _node_vs_reference(_ctx(u=u), 512) < 1e-12


def test_plan_is_shared_across_third_base_and_read_only():
    params_r = EllipticParams.from_bases(PARAMS.p, PARAMS.q, r=0.12)
    plan = _plan_for(PARAMS, 256)
    assert _plan_for(params_r, 256) is plan
    for name in ("zs", "rev", "weight", "cross_c", "cross_a", "cross_ab"):
        with pytest.raises(ValueError):
            getattr(plan, name)[0] = 0


def test_node_integrand_output_cannot_reach_later_integrals():
    ctx = _ctx()
    before = I(ctx)
    h = _node_integrand(ctx, 256)
    h[:] = 0.0
    assert I(ctx) == before


def _tensor_sum_n2(ctx, N):
    """The n = 2 node sum over the full N x N grid with the cross factor
    theta(z^{+-1} w^{+-1}; p) from theta values at index sums and differences."""
    p, q = ctx.params.p, ctx.params.q
    h = _node_integrand(ctx, N)
    m = np.arange(N)
    tp = theta(_plan_for(ctx.params, N).zs, p)
    pair = tp * tp[(-m) % N]
    s_idx = (m[:, None] + m[None, :]) % N
    d_idx = (m[:, None] - m[None, :]) % N
    total = np.sum(h[:, None] * h[None, :] * pair[s_idx] * pair[d_idx])
    pref = qpoch(p, p) * qpoch(q, q)
    return pref**2 / (8 * N**2) * complex(total)


@pytest.mark.parametrize("params", [CHAIN_PARAMS, PARAMS], ids=["chain", "bailey"])
def test_fourier_n2_sum_matches_tensor_sum(params):
    for mod in (0.3, 0.9):
        ctx = _ctx(u=tuple(mod * e(k / 11 + 0.01) for k in range(8)), params=params, n=2)
        for N in (64, 256, 1024):
            assert _rel(quad(ctx, N), _tensor_sum_n2(ctx, N)) < 1e-11, (mod, N)


def _tensor_sum_n3(ctx, N):
    """The n = 3 node sum over the full N x N x N grid, one N x N slab per
    first node, with the cross factors from theta values at node-index sums
    and differences."""
    p, q = ctx.params.p, ctx.params.q
    h = _node_integrand(ctx, N)
    m = np.arange(N)
    tp = theta(_plan_for(ctx.params, N).zs, p)
    pair = tp * tp[(-m) % N]
    grid23 = pair[(m[:, None] + m[None, :]) % N] * pair[(m[:, None] - m[None, :]) % N]
    total = 0.0 + 0j
    for m1 in range(N):
        f1 = pair[(m1 + m) % N] * pair[(m1 - m) % N]
        total += h[m1] * np.sum((h * f1)[:, None] * (h * f1)[None, :] * grid23)
    pref = qpoch(p, p) * qpoch(q, q)
    return pref**3 / (48 * N**3) * complex(total)


@pytest.mark.parametrize("params", [CHAIN_PARAMS, PARAMS], ids=["chain", "bailey"])
def test_fourier_n3_contraction_matches_tensor_sum(params):
    # at |u| = 0.9 the integrand is peaked and the FFT bins carry rounding
    # of its largest values, as for n = 2
    for mod, bound in ((0.3, 1e-12), (0.9, 1e-11)):
        ctx = _ctx(u=tuple(mod * e(k / 11 + 0.01) for k in range(8)), params=params, n=3)
        for N in (32, 64, 128):
            assert _rel(quad(ctx, N), _tensor_sum_n3(ctx, N)) < bound, (mod, N)


@pytest.mark.parametrize("params", [CHAIN_PARAMS, PARAMS], ids=["chain", "bailey"])
def test_multiplicity_three_converges_from_default_nodes(params):
    ctx = _ctx(params=params, n=3)
    assert _rel(I_n(ctx), quad(ctx, 1024)) < 1e-11


def _record_nodes(monkeypatch) -> list[int]:
    """The node counts of the passes I_n makes from here on, in order."""
    counts = []
    quad_rows = integrals._quad_rows

    def counted(rows, N):
        counts.append(N)
        return quad_rows(rows, N)

    monkeypatch.setattr(integrals, "_quad_rows", counted)
    return counts


@pytest.mark.parametrize("n", [1, 2, 3])
def test_smooth_integrand_stops_at_first_doubling(n, monkeypatch):
    # the error bound certifies the first pass
    want = quad(_ctx(n=n), 256)
    counts = _record_nodes(monkeypatch)
    assert I_n(_ctx(n=n)) == want
    assert counts == [256]


# ------------------------------------------ the per-point reference route
#
# The quadrature one integral at a time, each pass summing its log series
# afresh: the route I_n took before integrals were batched.


def _per_point_parts(ctx, N):
    """The node integrand at N nodes, and the _Rows entry of its error
    bound: log-series coefficients c_0 .. c_M, rho after the shifts, and
    the shifts made."""
    p, q = ctx.params.p, ctx.params.q
    pq = p * q
    plan = _plan_for(ctx.params, N)
    zs, rev = plan.zs, plan.rev
    vals = plan.weight
    u = np.array(ctx.u)
    rho = np.maximum(np.abs(u), abs(pq) / np.abs(u))
    b, c = (q, p) if abs(q) >= abs(p) else (p, q)
    shifts = []
    for i in np.flatnonzero(rho > _SHIFT_RHO):
        s = _shift_count(abs(u[i]), abs(pq), abs(b))
        for t in range(min(s, 0), max(s, 0)):
            th = theta(u[i] * b**t * zs, c)
            vals = vals / (th * th[rev]) if s > 0 else vals * (th * th[rev])
        shifts.append((u[i], s))
        u[i] = u[i] * b**s
    pw = _series_powers(u, pq)[0]
    M, k = pw.shape[1], u.size
    pp, qq = np.cumprod(np.broadcast_to(np.array([p, q])[:, None], (2, M)), axis=1)
    cm = np.zeros(-(-(M + 1) // N) * N, dtype=complex)
    cm[1 : M + 1] = (pw[:k].sum(axis=0) - pw[k : 2 * k].sum(axis=0)) / (
        np.arange(1, M + 1) * (1.0 - pp) * (1.0 - qq)
    )
    a = cm.reshape(-1, N).sum(axis=0)
    h = vals * np.exp(N * np.fft.ifft(a) + np.fft.fft(a))
    rho = np.max(np.maximum(np.abs(u), abs(pq) / np.abs(u)))
    return h, integrals._Rows(ctx.params, (ctx.n,), cm[None, : M + 1], (tuple(shifts),), np.array([rho]))


def _node_integrand_per_point(ctx, N):
    return _per_point_parts(ctx, N)[0]


def _quad_per_point(ctx, N):
    """(the trapezoid value at N nodes, its error bound)."""
    n = ctx.n
    plan = _plan_for(ctx.params, N)
    h, rows = _per_point_parts(ctx, N)
    scale = plan.pref**n / (2**n * factorial(n) * N**n)
    if n == 1:
        value, g = scale * complex(np.sum(h)), 1.0
    else:
        H = np.fft.fft(h)
        if n == 2:
            s = H[plan.cross_a]
            value = scale * complex(s @ plan.cross_c @ s)
            g = np.abs(s @ plan.cross_c).sum()
        else:
            M = plan.cross_c @ H[plan.cross_ab]
            value = scale * complex(np.sum(M * (M @ M).T))
            g = np.abs(M @ M @ plan.cross_c).sum()
    size = abs(scale) * np.sum(np.abs(h)) * float(g)
    return value, integrals._error_bounds(rows, N, [size])[0], size


def _I_n_per_point(ctx, quad_tol, certify=True):
    """(value or raised error, node counts of its passes). A pass whose
    error bound is within quad_tol of its value stops the doubling; with
    certify False only two agreeing passes do, the pure doubling route."""
    try:
        ctx.check_admissible()
    except AdmissibilityError as err:
        return err, []
    cap = integrals._NODE_CAP
    counts = [integrals._START_NODES]
    last, bound, _ = _quad_per_point(ctx, counts[-1])
    previous = None
    while True:
        tol = quad_tol * max(abs(last), 1e-300)
        if (certify and bound <= tol) or (previous is not None and abs(last - previous) <= tol):
            return last, counts
        if 2 * counts[-1] > cap:
            break
        counts.append(2 * counts[-1])
        previous, (last, bound, _) = last, _quad_per_point(ctx, counts[-1])
    err = ConvergenceError(
        f"node cap {cap} reached before stabilizing", last, previous,
        u=ctx.u, p=ctx.params.p, q=ctx.params.q, n=ctx.n, cap=cap,
    )
    return err, counts


def _mixed_batch(n, params):
    """Rows that stop at different node counts, one inadmissible row, and one
    that reaches the cap; the rows moved by a shift step sit among them."""
    pq = abs(params.p * params.q)
    rows = []
    for r, mod in enumerate([0.3, 0.95, 1.2, 0.97, 0.99]):
        u = [mod * e(k / 13 + 0.02 + 0.1 * r) for k in range(8)]
        if r == 0:
            u[3] = 0.5 * pq * e(0.4)  # below |pq|: shifted up
        if mod == 1.2:
            u = [0.4 * v / mod for v in u[:7]] + [u[7]]
        rows.append(_ctx(u=tuple(u), params=params, n=n))
    return rows


def _hex(v):
    return (v.real.hex(), v.imag.hex())


@pytest.mark.parametrize("params", [CHAIN_PARAMS, PARAMS], ids=["chain", "bailey"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_rows_are_bitwise_the_per_point_route(monkeypatch, n, params):
    ctxs = _mixed_batch(n, params)
    ref = [_I_n_per_point(ctx, QUAD_TOL) for ctx in ctxs]
    # the batch is mixed: rows stop at different node counts, and besides
    # values there are both kinds of error
    assert len({len(counts) for _, counts in ref}) >= 3
    kinds = {type(v) for v, _ in ref}
    assert {complex, AdmissibilityError, ConvergenceError} <= kinds
    values = [(c, v) for c, (v, _) in zip(ctxs, ref) if type(v) is complex]
    assert [_hex(v) for v in integrals.I_n_many([c for c, _ in values])] == [_hex(v) for _, v in values]
    # an inadmissible row fails the batch before any quadrature pass
    passes = []
    quad_rows = integrals._quad_rows
    monkeypatch.setattr(integrals, "_quad_rows", lambda rows, N: passes.append(N) or quad_rows(rows, N))
    inadmissible = next(v for v, _ in ref if isinstance(v, AdmissibilityError))
    with pytest.raises(AdmissibilityError, match=re.escape(str(inadmissible))):
        integrals.I_n_many(ctxs)
    assert passes == []
    # a batch that reaches the cap raises its first unconverged row's error
    # (at n = 3 on the bailey bases two rows reach it, so the order counts)
    live = [(c, v) for c, (v, _) in zip(ctxs, ref) if not isinstance(v, AdmissibilityError)]
    for batch in (live, live[::-1]):
        with pytest.raises(ConvergenceError) as got:
            integrals.I_n_many([c for c, _ in batch])
        want = next(v for _, v in batch if isinstance(v, ConvergenceError))
        assert str(got.value) == str(want) and got.value.__dict__.keys() == want.__dict__.keys()
        assert (got.value.last, got.value.previous, got.value.u) == (want.last, want.previous, want.u)
    # each row alone, and every pass's values and node tables
    for ctx, (want, _) in zip(ctxs, ref):
        if isinstance(want, Exception):
            with pytest.raises(type(want), match=re.escape(str(want))):
                integrals.I_n_many([ctx])
        else:
            assert _hex(integrals.I_n_many([ctx])[0]) == _hex(want)
    live = [c for c, _ in live]
    rows = integrals._rows(live)
    for N in (256, 512):
        h = integrals._node_rows(rows, N)
        values, sizes = integrals._quad_rows(rows, N)
        assert list(zip(values, sizes)) == [_quad_per_point(c, N)[::2] for c in live]
        for hr, c in zip(h, live):
            assert np.array_equal(hr, _node_integrand_per_point(c, N))


# ------------------------------------------------- the certified first pass


def _sampler_draws():
    """Integrals as the library draws them, seeded: chain points on levels
    1 and 2 in the direct chart, balanced bailey parameters at n = 1 and
    those of the n = 2 transform, the terminating series' left sides, and
    chain points on level 3."""
    cfg = load_config(seed=1)
    rng = sampling.make_rng(151)
    chain = cfg.elliptic("chain")
    ctxs = []
    for n in (1, 2):
        for _ in range(8):
            x = sampling.sample_on_level(rng, chain, n)
            t, _, _ = tau._chart("pp", "direct", np.exp(2j * np.pi * x)[None], [n], chain)
            ctxs.append(IntegrandContext(t[0], chain, n))
    bailey = cfg.elliptic("bailey")
    p, q = bailey.p, bailey.q
    for _ in range(6):
        ctxs.append(IntegrandContext(sampling.sample_balanced(rng, (p * q) ** 2, abs(p * q) ** 0.25), bailey))
        ctxs.append(IntegrandContext(sampling.sample_balanced(rng, p**2, abs(p) ** 0.25), bailey, 2))
    term = cfg.elliptic("terminating")
    for order in (0, 1, 2) * 2:
        u = _terminating_family(rng, order, term)
        ctxs.append(IntegrandContext((term.p * u[0], *u[1:7], term.p * u[7]), term))
    for _ in range(4):
        x = sampling.sample_on_level(rng, chain, 3)
        t, _, _ = tau._chart("pp", "direct", np.exp(2j * np.pi * x)[None], [3], chain)
        ctxs.append(IntegrandContext(t[0], chain, 3))
    return ctxs


def test_error_bound_is_never_below_the_error():
    # the 1024-node value stands in for the integral; below 256 nodes the
    # aliasing error shows above rounding, so the bound is met on both parts
    certified = 0
    for ctx in _sampler_draws():
        rows = _rows([ctx])
        (ref,), _ = integrals._quad_rows(rows, 1024)
        for N in (64, 128, 256):
            (value,), sizes = integrals._quad_rows(rows, N)
            bound = integrals._error_bounds(rows, N, sizes)[0]
            assert bound >= abs(value - ref), (N, ctx.u)
        certified += bound <= QUAD_TOL * abs(value)
    assert certified >= 34


def test_certified_values_match_the_doubling_route_and_reference(monkeypatch):
    counts = _record_nodes(monkeypatch)
    certified = 0
    for ctx in _sampler_draws():
        counts.clear()
        value = I_n(ctx)
        if counts != [256]:
            continue
        certified += 1
        doubling, _ = _I_n_per_point(ctx, QUAD_TOL, certify=False)
        ref = quad(ctx, 1024)
        assert abs(value - doubling) <= QUAD_TOL * abs(ref)
        assert abs(value - ref) <= QUAD_TOL * abs(ref)
    assert certified >= 34


def test_bound_does_not_certify_a_peaked_row_or_an_unreachable_tolerance(monkeypatch):
    counts = _record_nodes(monkeypatch)
    # |u_0| = 0.94 stays below the shift threshold, so the row has no poles
    # off the circle, but its bound at 256 nodes is far above QUAD_TOL
    u = (0.94 * e(0.13), *U_FIXED[1:])
    for n in (1, 2):
        counts.clear()
        I_n(_ctx(u=u, n=n))
        assert counts[0] == 256 and len(counts) > 1
    # no row's rounding estimate, 32 eps of a node-sum size at least |T|,
    # is below 1e-15 of its value
    for ctx in _sampler_draws():
        counts.clear()
        try:
            I_n(ctx, quad_tol=1e-15)
        except ConvergenceError:
            pass
        assert counts[0] == 256 and len(counts) > 1, ctx.u


def test_batch_shares_its_bases():
    with pytest.raises(ValueError):
        integrals.I_n_many([_ctx(), _ctx(params=CHAIN_PARAMS)])


@pytest.mark.parametrize("params", [CHAIN_PARAMS, PARAMS], ids=["chain", "bailey"])
def test_mixed_multiplicity_batch_is_each_row_alone(monkeypatch, params):
    # the mixed batches of every multiplicity, interleaved, with two n = 0
    # rows, one of them inadmissible (an n = 0 row is 1 and is not checked)
    by_n = [_mixed_batch(n, params) for n in (1, 2, 3)]
    ctxs = [_ctx(params=params, n=0)]
    for k, group in enumerate(itertools.zip_longest(*by_n)):
        ctxs += [c for c in group if c is not None]
        if k == 1:
            ctxs.append(_ctx(u=(1.2, *U_FIXED[1:]), params=params, n=0))
    ref = [(1.0 + 0j, []) if c.n == 0 else _I_n_per_point(c, QUAD_TOL) for c in ctxs]
    assert len({c.n for c in ctxs}) == 4
    # the rows that converge, every multiplicity in one batch: each value
    # bit for bit the row's lone value
    values = [(c, v) for c, (v, _) in zip(ctxs, ref) if type(v) is complex]
    assert len({c.n for c, _ in values}) == 4
    assert [_hex(v) for v in integrals.I_n_many([c for c, _ in values])] == [_hex(v) for _, v in values]
    # the first inadmissible row raises before any quadrature pass
    passes = []
    quad_rows = integrals._quad_rows
    monkeypatch.setattr(integrals, "_quad_rows", lambda rows, N: passes.append(N) or quad_rows(rows, N))
    inadmissible = next(v for v in (r for r, _ in ref) if isinstance(v, AdmissibilityError))
    with pytest.raises(AdmissibilityError, match=re.escape(str(inadmissible))):
        integrals.I_n_many(ctxs)
    assert passes == []
    # every multiplicity has the one cap; after the pass at it, the first
    # row still running in batch order raises its lone ConvergenceError
    live = [(c, v) for c, (v, _) in zip(ctxs, ref) if not isinstance(v, AdmissibilityError)]
    capped = [v for _, v in live if isinstance(v, ConvergenceError)]
    assert {v.cap for v in capped} == {integrals._NODE_CAP} and capped[0].__dict__ != capped[-1].__dict__
    for batch, want in ((live, capped[0]), (live[::-1], capped[-1])):
        with pytest.raises(ConvergenceError) as got:
            integrals.I_n_many([c for c, _ in batch])
        assert str(got.value) == str(want) and got.value.__dict__ == want.__dict__


def test_one_context_is_a_batch_of_one():
    ctx = _ctx(u=tuple(0.95 * e(k / 13) for k in range(8)))
    assert I_n(ctx) == integrals.I_n_many([ctx])[0] == _I_n_per_point(ctx, QUAD_TOL)[0]
    with pytest.raises(AdmissibilityError):
        I_n(_ctx(u=(1.2, *U_FIXED[1:])))


@pytest.mark.parametrize("params", [CHAIN_PARAMS, PARAMS], ids=["chain", "bailey"])
def test_jacobi_coefficients_match_node_fft(params):
    p = params.p
    c = _jacobi_pair_coeffs(p, qpoch(p, p))
    K = c.size // 2
    N = 64
    zs = np.exp(2j * np.pi * np.arange(N) / N)
    fourier = np.fft.fft(theta(zs, p) * theta(1 / zs, p)) / N
    assert np.max(np.abs(np.roll(fourier, K)[: 2 * K + 1] - c)) < 1e-14 * np.abs(c).max()
    # the coefficients past K are below the cut
    assert np.max(np.abs(fourier[K + 1 : N - K])) < 1e-14 * np.abs(c).max()


def test_out_of_range_plan_and_pair_products_raise_without_a_warning():
    # at p = 0.997 the pair coefficients overflow, and at 0.999 (p;p) has
    # underflowed to 0; at p = 0.99 the row product of 28 triple gammas at
    # w_k = i (each argument -1) overflows. Each raises DomainError naming
    # its kernel and bases, with no numpy warning, where a plan or pair
    # product at p = 0.99 inside the range is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (0.997, 0.999):
            with pytest.raises(DomainError, match=rf"^theta pair coefficients leave the float range at \|p\| = {p}$"):
                _plan_for(EllipticParams.from_bases(p, 0.1), 64)
        assert np.isfinite(_plan_for(EllipticParams.from_bases(0.99, 0.1), 64).cross_c).all()
        params = EllipticParams.from_bases(0.99, 0.45)
        message = r"^triple gamma pair product overflows the float range at \|p\| = 0.99, \|q\| = 0.45$"
        with pytest.raises(DomainError, match=message):
            integrals._pair_gammas([[0.5] * 8, [1j] * 8], params)
        assert all(map(np.isfinite, integrals._pair_gammas([[0.5] * 8], params)))


def test_overflowing_contractions_raise_without_a_warning():
    # two seeded n = 3 rows at p = 0.98, q = 0.2, |u| in 0.2-0.6: their node
    # values are finite, but the n = 3 contraction of the node FFT bins
    # leaves the float range. DomainError naming the bases, with no numpy
    # warning, where the contraction used to warn (overflow, invalid value)
    # and the doubling end in a ConvergenceError with a nan gap at the cap
    params = EllipticParams.from_bases(0.98, 0.2)
    rng = sampling.make_rng(3)
    ctxs = [
        IntegrandContext(tuple((0.2 + 0.4 * rng.random()) * e(rng.random()) for _ in range(8)), params, 3)
        for _ in range(2)
    ]
    assert all(np.isfinite(_node_rows(_rows(ctxs), 256)).all(axis=1))
    message = r"^integrand node values or node sums leave the float range at \|p\| = 0.98, \|q\| = 0.2$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            integrals._quad_rows(_rows(ctxs), 256)
        with pytest.raises(DomainError, match=message):
            integrals.I_n_many(ctxs)


def test_real_parameters_give_real_value():
    u = (0.3, 0.25, -0.2, 0.15, 0.35, -0.4, 0.1, 0.05)
    val = I(_ctx(u=u))
    assert abs(val.imag) / abs(val) < 1e-10


def test_multiplicity_zero_and_one():
    assert I_n(_ctx(n=0)) == 1.0 + 0j
    assert _rel(I_n(_ctx(n=1)), I(_ctx())) < 1e-12


def test_spectral_convergence():
    u = tuple(0.82 * e(k / 13) for k in range(8))
    ref = quad(_ctx(u=u), 512)
    errs = [abs(quad(_ctx(u=u), N) - ref) / abs(ref) for N in (32, 64, 128)]
    assert errs[1] < 0.05 * errs[0]
    assert errs[2] < 0.05 * errs[1]
    assert errs[2] > 0.0


def test_admissibility_guards():
    bad = (1.2, *U_FIXED[1:])
    with pytest.raises(AdmissibilityError):
        I(_ctx(u=bad))
    # a pair product within 1e-12 of 1 pinches the contour; both factors can
    # still sit strictly inside the disk
    c = (1.0 - 1e-13) ** 0.5
    pinched = (c, c, *U_FIXED[2:])
    with pytest.raises(AdmissibilityError):
        I(_ctx(u=pinched))
    # u_k = 0 has no log series and no gamma pair
    for n in (1, 2):
        with pytest.raises(AdmissibilityError):
            I_n(_ctx(u=(0.0, *U_FIXED[1:]), n=n))


def test_convergence_error_carries_estimates():
    u = tuple(0.997 * e(k / 13) for k in range(8))
    with pytest.raises(ConvergenceError) as exc:
        I(_ctx(u=u), quad_tol=1e-14)
    assert exc.value.last != 0 or exc.value.previous != 0


@pytest.mark.parametrize("n, cap", [(1, 4096), (2, 4096)])
def test_convergence_error_replays(n, cap, monkeypatch):
    ctx = _ctx(u=tuple(0.997 * e(k / 13) for k in range(8)), n=n)
    counts = _record_nodes(monkeypatch)
    with pytest.raises(ConvergenceError) as exc:
        I_n(ctx, quad_tol=1e-14)
    # the peaked integrand doubles from 256 nodes all the way to the cap
    assert counts[0] == 256 and counts[-1] == cap
    assert all(b == 2 * a for a, b in zip(counts, counts[1:]))
    err = exc.value
    assert (err.u, err.p, err.q, err.n, err.cap) == (ctx.u, PARAMS.p, PARAMS.q, n, cap)
    replay = IntegrandContext(u=err.u, params=EllipticParams.from_bases(err.p, err.q), n=err.n)
    with pytest.raises(ConvergenceError) as again:
        I_n(replay, quad_tol=1e-14)
    assert (again.value.last, again.value.previous) == (err.last, err.previous)


def test_contiguity_residual_vanishes():
    rng = sampling.make_rng(109)
    for trial in range(3):
        u = tuple(0.4 * e(t) for t in rng.random(8))
        res = contiguity_residual(_ctx(u=u), 0, 3, 6)
        assert res < 1e-8, (trial, float(res))


def test_contiguity_with_coincident_parameters():
    rng = sampling.make_rng(113)
    u = list(0.4 * e(t) for t in rng.random(8))
    u[1] = u[2]
    res = contiguity_residual(_ctx(u=tuple(u)), 1, 2, 5)
    assert res < 1e-8


def test_bailey_both_variants_and_weighted_invariance():
    p, q = PARAMS.p, PARAMS.q
    rho = abs(p * q) ** 0.25
    rng = sampling.make_rng(127)
    params_r = EllipticParams.from_bases(p, q, r=0.12)
    for _ in range(2):
        u = sampling.sample_balanced(rng, (p * q) ** 2, rho)
        ctx = IntegrandContext(u=u, params=params_r)
        assert bailey_residual(ctx, "tilde") < 1e-8
        assert bailey_residual(ctx, "hat") < 1e-8
        from e8tau.integrals import _tilde

        psi_u = _psi_value(ctx)
        psi_t = _psi_value(ctx.with_u(_tilde(u, p * q)))
        assert _rel(psi_t, psi_u) < 1e-8


def test_bailey_requires_balancing():
    with pytest.raises(ValueError):
        bailey_residual(_ctx(), "tilde")


def test_transform_multiplicity_one_matches_bailey():
    p, q = PARAMS.p, PARAMS.q
    rng = sampling.make_rng(131)
    u = sampling.sample_balanced(rng, p**2 * q**2, abs(p * q) ** 0.25)
    ctx = _ctx(u=u, n=1)
    for which in ("tilde", "hat"):
        res = In_transform_residual(ctx, which + "_n")
        assert res < 1e-8
        assert bailey_residual(ctx, which) == res


def test_transform_multiplicity_two():
    p, q = PARAMS.p, PARAMS.q
    rng = sampling.make_rng(137)
    t = sampling.sample_balanced(rng, p**2, abs(p) ** 0.25)
    ctx = _ctx(u=t, n=2)
    assert In_transform_residual(ctx, "tilde_n") < 1e-6
    assert In_transform_residual(ctx, "hat_n") < 1e-6


@pytest.mark.parametrize("p", [0.03, 0.05])
def test_transform_multiplicity_three(p):
    # the balancing p^2 q^-2 of n = 3 lies in the unit disk only for |p| < |q|
    params = EllipticParams.from_bases(p, 0.45)
    target = params.p**2 * params.q**-2
    rng = sampling.make_rng(149)
    for _ in range(3):
        ctx = _ctx(u=sampling.sample_balanced(rng, target, abs(target) ** 0.125), params=params, n=3)
        assert In_transform_residual(ctx, "tilde_n") < 1e-9
        assert In_transform_residual(ctx, "hat_n") < 1e-9


def test_multiplicity_above_the_top_is_refused():
    with pytest.raises(ValueError, match="multiplicity above 3 is out of scope"):
        IntegrandContext(U_FIXED, PARAMS, n=integrals.N_MAX + 1)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_terminating_series_matches_quadrature(order):
    params = EllipticParams.from_bases(0.05, 0.15)
    rng = sampling.make_rng(139 + order)
    u = _terminating_family(rng, order, params)
    p = params.p
    lhs_args = (p * u[0], *u[1:7], p * u[7])
    assert all(abs(v) < 1 for v in lhs_args)
    lhs = I(IntegrandContext(u=lhs_args, params=params))
    rhs = terminating_eval(u, params, order)
    assert _rel(lhs, rhs) < 1e-9


def test_terminating_eval_guards():
    params = EllipticParams.from_bases(0.05, 0.15)
    rng = sampling.make_rng(149)
    u = _terminating_family(rng, 1, params)
    with pytest.raises(ValueError):
        terminating_eval(u, params, 3)  # wrong order
    with pytest.raises(ValueError):
        terminating_eval((0.3,) * 8, params, 1)  # unbalanced


def _terminating_by_factor(u, params, N):
    """terminating_eval with each of its 29 gamma factors taken on its own
    from the product formula."""
    p, q = params.p, params.q
    g = lambda z: _elliptic_gamma_product(z, p, q)
    pref = 1.0 + 0j
    for a, b in itertools.combinations(range(1, 7), 2):
        pref *= g(u[a] * u[b])
    pref *= g(q**2 / u[0] ** 2) * g(u[0] / u[7])
    for k in range(1, 7):
        pref /= g(q * u[k] / u[0]) * g(q / (u[k] * u[7]))
    return pref * v12_11(q / u[0] ** 2, [q / (u[0] * u[i]) for i in range(1, 8)], q, p, N)


@pytest.mark.parametrize("seed", [1, 2, 3, 1729])
def test_terminating_eval_matches_factor_by_factor_form(seed):
    # the draws of `e8tau verify terminating --seed S`: orders 1 and 2, in turn
    cfg = load_config(seed=seed)
    rng = sampling.make_rng(cfg.seed + SUITES.index("bailey"))
    params = cfg.elliptic("terminating")
    for order in (1, 2):
        u = _terminating_family(rng, order, params)
        assert _rel(terminating_eval(u, params, order), _terminating_by_factor(u, params, order)) <= 1e-13
