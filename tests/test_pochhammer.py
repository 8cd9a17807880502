"""The theta-Pochhammer table and its callers against the scalar loops they
replaced, kept here as reference routes, and a guard on their theta calls."""
from __future__ import annotations

import itertools
from math import comb

import numpy as np
import pytest

from e8tau import integrals, sampling, specialfn
from e8tau import tau as T
from e8tau.cli import _terminating_family
from e8tau.specialfn import EllipticParams, elliptic_gamma, theta, theta_pochhammer, v12_11
from e8tau.util import e

from . import _oracles as O
from ._reference import dfactor_d

TERMINATING = EllipticParams.from_bases(0.05, 0.15)
BAILEY = EllipticParams.from_bases(0.15, 0.10)
CHAIN = EllipticParams.from_bases(0.03, 0.45)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ------------------------------------------------------- reference routes


def poch_ref(z: complex, k: int, p: complex, q: complex) -> complex:
    """theta(z; p) theta(qz; p) ... theta(q^{k-1} z; p) as a loop of scalar
    thetas."""
    out = 1.0 + 0j
    zz = complex(z)
    for _ in range(k):
        out *= theta(zz, p)
        zz *= q
    return out


def v12_11_ref(a0: complex, a, q: complex, p: complex, N: int) -> complex:
    """The terminating series term by term, every factor a scalar loop."""
    all_a = [complex(a0), *map(complex, a)]
    total = 0.0 + 0j
    for k in range(N + 1):
        term = theta(q ** (2 * k) * a0, p) / theta(a0, p) * q**k
        for ai in all_a:
            term *= poch_ref(ai, k, p, q) / poch_ref(q * a0 / ai, k, p, q)
        total += term
    return total


def warnaar_sides_ref(a: complex, b: complex, zs, n: int, params: EllipticParams) -> tuple[complex, complex]:
    """Warnaar's determinant and its product side, every matrix entry and
    every factor on its own."""
    p, q = params.p, params.q

    def pair(c, z, m):
        return poch_ref(c * z, m, p, q) * poch_ref(c / z, m, p, q)

    mat = np.array([[pair(a, zs[i], j) * pair(b, zs[i], n - 1 - j) for j in range(n)] for i in range(n)])
    rhs = q ** comb(n, 3) * a ** comb(n, 2)
    for k in range(1, n + 1):
        rhs *= pair(b, q ** (k - 1) * a, n - k)
    for i, j in itertools.combinations(range(n), 2):
        rhs *= theta(zs[i] * zs[j], p) * theta(zs[i] / zs[j], p) / zs[i]
    return complex(np.linalg.det(mat)), rhs


def dfactor_ref(n: int, x, case: str, params: EllipticParams) -> complex:
    """_reference.dfactor_d with each of its 4n products a scalar loop."""
    p, q = params.p, params.q
    t = T._chart("pp", T._case(case)[0], np.asarray(x, dtype=complex)[None], [n], params)[0][0]
    out = q ** (2 * comb(n, 3)) * (t[2] * t[3]) ** comb(n, 2)
    for k in range(1, n + 1):
        out *= poch_ref(q ** (k - 1) * t[0] * t[3], n - k, p, q)
        out *= poch_ref(q ** (1 - k) * t[0] / t[3], n - k, p, q)
        out *= poch_ref(q ** (k - 1) * t[1] * t[2], n - k, p, q)
        out *= poch_ref(q ** (1 - k) * t[1] / t[2], n - k, p, q)
    return out


def _warnaar_draw(rng, n):
    """a, b and z_1..z_n as the theta-factorial-det row draws them."""
    a = 0.40 * e(rng.random())
    b = 0.55 * e(rng.random())
    return a, b, tuple((0.5 + 0.4 * rng.random()) * e(t) for t in rng.random(n))


def _warnaar_sides(monkeypatch, a, b, zs, n, params):
    """The library's (determinant, product side), read from the terms it
    hands to normalized_residual."""
    seen = []
    monkeypatch.setattr(T, "normalized_residual", lambda terms: seen.append(terms) or 0.0)
    T.warnaar_det_residual(a, b, zs, n, params)
    (lhs,), (neg_rhs,) = seen[0]
    return lhs, -neg_rhs


# ----------------------------------------------------------- comparisons


def test_table_entries_match_the_scalar_loop():
    rng = np.random.default_rng(np.random.Philox(211))
    for params in (TERMINATING, BAILEY, CHAIN, EllipticParams.from_bases(0.3 * e(0.1), 0.4 * e(0.7))):
        p, q = params.p, params.q
        for K in range(5):
            z = (0.1 + 1.4 * rng.random(7)) * np.exp(2j * np.pi * rng.random(7))
            table = theta_pochhammer(z, K, p, q)
            assert table.shape == (7, K + 1)
            for zi, row in zip(z, table):
                for k in range(K + 1):
                    assert _rel(row[k], poch_ref(zi, k, p, q)) <= 1e-14


def test_table_shapes_and_order_checks():
    q = 0.1
    assert theta_pochhammer(0.2, 0, 0.1, q).tolist() == [1.0]
    assert theta_pochhammer([], 3, 0.1, q).shape == (0, 4)
    assert theta_pochhammer(np.full((2, 3), 0.2), 2, 0.1, q).shape == (2, 3, 3)
    with pytest.raises(ValueError):
        theta_pochhammer(0.2, -1, 0.1, q)


@pytest.mark.parametrize("order, tol", [(0, 1e-14), (1, 1e-10), (2, 1e-10)])
def test_series_matches_the_term_by_term_loop(order, tol):
    # the terminating row's own draws; at order 2 the sum cancels by up to
    # about 1e4, which bounds how far a rounding move in one term can carry
    rng = sampling.make_rng(301 + order)
    p, q = TERMINATING.p, TERMINATING.q
    for _ in range(100):
        u = _terminating_family(rng, max(order, 1), TERMINATING)
        args = (q / u[0] ** 2, [q / (u[0] * u[i]) for i in range(1, 8)], q, p, order)
        assert _rel(v12_11(*args), v12_11_ref(*args)) <= tol


def test_series_order_one_term_matches_the_frozen_oracle():
    p, q = 0.15, 0.1
    a0 = 0.3 + 0j
    rest = [0.2 * e(i / 9) for i in range(1, 8)]
    # term 1 of the series is its order-1 sum minus the unit term 0
    assert _rel(v12_11(a0, rest, q, p, 1) - 1.0, O.V12_K1_TERM) < 1e-13


def test_series_guard_on_a_vanishing_lower_factor():
    p, q = 0.15, 0.1
    a0 = 0.3 + 0j
    # a_1 = q a_0 makes the lower row q a_0 / a_1 = 1, whose theta is 0
    rest = [q * a0] + [0.2 * e(i / 9) for i in range(2, 8)]
    with pytest.raises(ZeroDivisionError):
        v12_11(a0, rest, q, p, 1)


def _prefactor_two_calls(u, params):
    """terminating_eval's gamma prefactor from two elliptic_gamma calls."""
    p, q = params.p, params.q
    num = [u[a] * u[b] for a, b in itertools.combinations(range(1, 7), 2)]
    num += [q**2 / u[0] ** 2, u[0] / u[7]]
    den = [q * u[k] / u[0] for k in range(1, 7)] + [q / (u[k] * u[7]) for k in range(1, 7)]
    return complex(np.prod(elliptic_gamma(num, p, q)) / np.prod(elliptic_gamma(den, p, q)))


@pytest.mark.parametrize("order", [1, 2])
def test_terminating_prefactor_matches_two_gamma_calls(monkeypatch, order):
    rng = sampling.make_rng(311 + order)
    p, q = TERMINATING.p, TERMINATING.q
    # the same series on both sides, so only the prefactor is compared
    monkeypatch.setattr(integrals, "v12_11", lambda *a: 1.0)
    for _ in range(50):
        u = _terminating_family(rng, order, TERMINATING)
        assert _rel(integrals.terminating_eval(u, TERMINATING, order), _prefactor_two_calls(u, TERMINATING)) <= 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_dfactor_matches_the_scalar_loops(n):
    rng = sampling.make_rng(321 + n)
    for case in ("frame_a0", "frame_a7"):
        for _ in range(10):
            x = sampling.sample_on_level(rng, CHAIN, n)
            assert _rel(dfactor_d(n, x, case, CHAIN), dfactor_ref(n, x, case, CHAIN)) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_warnaar_sides_match_the_entrywise_matrix(monkeypatch, n):
    rng = sampling.make_rng(331 + n)
    for _ in range(30):
        a, b, zs = _warnaar_draw(rng, n)
        lhs, rhs = _warnaar_sides(monkeypatch, a, b, zs, n, BAILEY)
        ref_lhs, ref_rhs = warnaar_sides_ref(a, b, zs, n, BAILEY)
        assert _rel(rhs, ref_rhs) <= 1e-13
        # the determinant cancels: its entries' rounding is amplified by up
        # to max-entry^n / |det|
        assert _rel(lhs, ref_lhs) <= 1e-8


# ------------------------------------------------------------ call counts


def _count_thetas(monkeypatch):
    """Count specialfn.theta calls made outside elliptic_gamma, and tau's
    and integrals' own theta lookups."""
    calls = {"theta": 0}
    inside = [0]
    theta_fn, gamma_fn = specialfn.theta, specialfn.elliptic_gamma

    def counted(*a, **kw):
        calls["theta"] += inside[0] == 0
        return theta_fn(*a, **kw)

    def gamma(*a, **kw):
        inside[0] += 1
        try:
            return gamma_fn(*a, **kw)
        finally:
            inside[0] -= 1

    for module in (specialfn, T, integrals):
        monkeypatch.setattr(module, "theta", counted)
    for module in (specialfn, integrals):
        monkeypatch.setattr(module, "elliptic_gamma", gamma)
    return calls


def test_terminating_eval_takes_one_table(monkeypatch):
    u = _terminating_family(sampling.make_rng(341), 2, TERMINATING)
    calls = _count_thetas(monkeypatch)
    integrals.terminating_eval(u, TERMINATING, 2)
    assert 1 <= calls["theta"] <= 2


def test_warnaar_residual_takes_one_table(monkeypatch):
    a, b, zs = _warnaar_draw(sampling.make_rng(342), 3)
    calls = _count_thetas(monkeypatch)
    T.warnaar_det_residual(a, b, zs, 3, BAILEY)
    assert 1 <= calls["theta"] <= 2


def test_contiguity_residual_takes_one_theta_call(monkeypatch):
    ctx = integrals.IntegrandContext(tuple(0.4 * e(t) for t in sampling.make_rng(343).random(8)), BAILEY)
    integrals.contiguity_residual(ctx, 0, 3, 6)  # the quadrature's node plans, cached
    calls = _count_thetas(monkeypatch)
    integrals.contiguity_residual(ctx, 0, 3, 6)
    assert calls["theta"] == 1
