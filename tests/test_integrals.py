"""Contour quadrature and the integral identities."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from e8tau import integrals, sampling
from e8tau.cli import _terminating_family
from e8tau.integrals import (
    I,
    I_n,
    In_transform_residual,
    IntegrandContext,
    _jacobi_pair_coeffs,
    _node_integrand,
    _plan_for,
    _quad,
    bailey_residual,
    contiguity_residual,
    integrand_H,
    terminating_eval,
)
from e8tau.specialfn import EllipticParams, elliptic_gamma, qpoch, theta
from e8tau.util import AdmissibilityError, ConvergenceError, e

from . import _oracles as O
from . import _quad_oracles as Q
from .test_specialfn import _triple_gamma_full_simplex

PARAMS = EllipticParams.from_bases(0.15, 0.1)
CHAIN_PARAMS = EllipticParams.from_bases(0.03, 0.45)
U_FIXED = tuple(0.3 * e(k / 11) for k in range(8))


def _ctx(u=U_FIXED, params=PARAMS, **kw):
    return IntegrandContext(u=u, params=params, **kw)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _psi_value(ctx):
    """Reference weighting: the integral times the (p, q, r) triple-gamma
    product over the parameter pairs, invariant under both reflections."""
    u, par = np.asarray(ctx.u), ctx.params
    i, j = np.triu_indices(8, 1)
    return I(ctx) * complex(np.prod(_triple_gamma_full_simplex(u[i] * u[j], par.p, par.q, par.r)))


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
        composed *= elliptic_gamma(uk, PARAMS.p, PARAMS.q) ** 2
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
        s = integrals._shift_count(mod, pq, b)
        x = mod * b**s
        assert s != 0 and max(x, pq / x) <= integrals._SHIFT_RHO
        # the fewest steps: one step fewer is still above the threshold
        x = mod * b ** (s - np.sign(s))
        assert max(x, pq / x) > integrals._SHIFT_RHO
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
            assert _rel(_quad(ctx, N), _tensor_sum_n2(ctx, N)) < 1e-11, (mod, N)


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
            assert _rel(_quad(ctx, N), _tensor_sum_n3(ctx, N)) < bound, (mod, N)


@pytest.mark.parametrize("params", [CHAIN_PARAMS, PARAMS], ids=["chain", "bailey"])
def test_multiplicity_three_converges_from_default_nodes(params):
    ctx = _ctx(params=params, n=3)
    assert _rel(I_n(ctx), _quad(ctx, 1024)) < 1e-11


def _record_nodes(monkeypatch) -> list[int]:
    """The node counts of the _quad calls I_n makes from here on, in order."""
    counts = []

    def counted(ctx, N):
        counts.append(N)
        return _quad(ctx, N)

    monkeypatch.setattr(integrals, "_quad", counted)
    return counts


@pytest.mark.parametrize("n", [1, 2, 3])
def test_smooth_integrand_stops_at_first_doubling(n, monkeypatch):
    counts = _record_nodes(monkeypatch)
    assert I_n(_ctx(n=n)) == _quad(_ctx(n=n), 512)
    assert counts == [256, 512]


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


def test_real_parameters_give_real_value():
    u = (0.3, 0.25, -0.2, 0.15, 0.35, -0.4, 0.1, 0.05)
    val = I(_ctx(u=u))
    assert abs(val.imag) / abs(val) < 1e-10


def test_multiplicity_zero_and_one():
    assert I_n(_ctx(n=0)) == 1.0 + 0j
    assert _rel(I_n(_ctx(n=1)), I(_ctx())) < 1e-12


def test_spectral_convergence():
    u = tuple(0.82 * e(k / 13) for k in range(8))
    ref = _quad(_ctx(u=u), 512)
    errs = [abs(_quad(_ctx(u=u), N) - ref) / abs(ref) for N in (32, 64, 128)]
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


@pytest.mark.parametrize("n, cap", [(1, 4096), (2, 1024)])
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
