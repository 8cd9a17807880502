"""Special functions against frozen naive-product values and functional equations."""
from __future__ import annotations

import cmath

import numpy as np
import pytest

from e8tau import specialfn as S
from e8tau.util import DomainError, PoleError, e

from . import _oracles as O


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_theta_frozen_value():
    assert _rel(S.theta(0.3 + 0.1j, 0.2), O.THETA_Z) < 1e-14


def test_theta_functional_equations():
    rng = np.random.default_rng(np.random.Philox(23))
    for _ in range(100):
        mod = 0.05 + 0.8 * rng.random()
        z = mod * e(rng.random())
        p = (0.05 + 0.6 * rng.random()) * e(rng.random())
        t = S.theta(z, p)
        assert _rel(S.theta(p * z, p), -t / z) < 1e-12
        assert _rel(S.theta(p / z, p), t) < 1e-12
        # inversion picks up the same multiplier as the p-shift
        assert _rel(S.theta(1 / z, p), -t / z) < 1e-12


def test_theta_vectorized_matches_scalar():
    z = np.array([0.3 + 0.1j, 0.5, -0.2 + 0.4j, 2.0 + 1.0j])
    vals = S.theta(z, 0.2)
    for zi, vi in zip(z, vals):
        assert _rel(S.theta(complex(zi), 0.2), vi) < 1e-15


def test_scalar_theta_is_bitwise_the_one_point_array_route():
    # The scalar route forms its factors in one array and multiplies them with
    # np.cumprod; the array route is the reference and must agree exactly.
    rng = np.random.default_rng(np.random.Philox(29))
    n = 20_000
    zs = np.exp(rng.uniform(np.log(0.01), np.log(5.0), n)) * np.exp(2j * np.pi * rng.random(n))
    aps = np.exp(rng.uniform(np.log(0.005), np.log(0.95), n))
    phases = np.exp(2j * np.pi * rng.random(n))
    for k in range(n):
        z = complex(zs[k])
        # Odd draws take a complex base, even draws a real one of either sign.
        p = complex(aps[k] * phases[k]) if k % 2 else float(aps[k] if phases[k].real > 0 else -aps[k])
        assert S.theta(z, p) == S.theta(np.array([z]), p)[0], (z, p)


def test_gamma_frozen_values():
    assert _rel(S.elliptic_gamma(0.4 + 0.2j, 0.1, 0.15), O.GAMMA_Z) < 1e-14
    assert _rel(S.elliptic_gamma(0.1, 0.1, 0.1), O.GAMMA_SELFDUAL) < 1e-14


def test_gamma_functional_equations():
    rng = np.random.default_rng(np.random.Philox(29))
    for _ in range(60):
        z = (0.1 + 0.7 * rng.random()) * e(rng.random())
        p = 0.05 + 0.4 * rng.random()
        q = 0.05 + 0.4 * rng.random()
        g = S.elliptic_gamma(z, p, q)
        assert _rel(S.elliptic_gamma(q * z, p, q), S.theta(z, p) * g) < 1e-11
        assert _rel(S.elliptic_gamma(p * z, p, q), S.theta(z, q) * g) < 1e-11
        assert _rel(S.elliptic_gamma(p * q / z, p, q), 1 / g) < 1e-11
        # reflection product against the two-theta form
        lhs = 1.0 / (S.elliptic_gamma(z, p, q) * S.elliptic_gamma(1 / z, p, q))
        rhs = -S.theta(z, p) * S.theta(z, q) / z
        assert _rel(lhs, rhs) < 1e-11


def test_gamma_pole_guard():
    with pytest.raises(PoleError) as exc:
        S.elliptic_gamma(1.0 + 1e-14, 0.2, 0.3)
    assert exc.value.indices == (0, 0)
    with pytest.raises(PoleError) as exc:
        S.elliptic_gamma(1.0 / (0.2 * 0.3**2) + 1e-13, 0.2, 0.3)
    assert exc.value.indices == (1, 2)


def test_triple_gamma_equal_bases_frozen_value():
    assert _rel(S.triple_gamma(0.35 + 0.25j, 0.03, 0.45), O.TRIPLE_GAMMA_QQ) < 1e-13


def _triple_gamma_full_simplex(z, p, q, r, trunc_tol=S.TRUNC_TOL):
    """Every (i, j, k) factor of the triple gamma Gamma(z; p, q, r), multiplied
    out in extended precision: in double the product of some 10^4 factors is
    itself off by about 1e-13 at q = 0.45. The library has r = q only; this
    is the reference for both that and the tests' (p, q, r) weighting."""
    cld = np.clongdouble
    z = np.atleast_1d(np.asarray(z, dtype=cld))
    p, q, r = cld(p), cld(q), cld(r)
    big = max(float(np.max(np.abs(z))), float(np.max(abs(p * q * r) / np.abs(z))), 1.0)

    def powers(b):
        n = 1
        while abs(b) ** n * big >= trunc_tol:
            n += 1
        return b ** np.arange(n)

    w = np.multiply.outer(np.multiply.outer(powers(p), powers(q)), powers(r)).ravel()
    w = w[np.abs(w) * big >= trunc_tol]
    out = np.ones_like(z)
    for s in range(0, w.size, 512):
        ws = w[s : s + 512, None]
        out *= np.prod((1 - ws * z) * (1 - ws * p * q * r / z), axis=0)
    return out.astype(complex)


def test_triple_gamma_full_simplex_frozen_value():
    # the general third base, pinned to the mpmath oracle
    assert _rel(complex(_triple_gamma_full_simplex(0.4, 0.1, 0.15, 0.12)[0]), O.TRIPLE_GAMMA_Z) < 1e-14


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
@pytest.mark.parametrize("p, q", [(0.03, 0.45), (0.15, 0.10)], ids=["chain", "bailey"])
def test_triple_gamma_equal_bases_matches_full_simplex(p, q):
    rng = np.random.default_rng(np.random.Philox(41))
    for _ in range(4):
        z = (0.05 + 1.5 * rng.random(28)) * np.exp(2j * np.pi * rng.random(28))
        got = S.triple_gamma(z, p, q)
        ref = _triple_gamma_full_simplex(z, p, q, q)
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13


def test_triple_gamma_equal_bases_functional_equations():
    rng = np.random.default_rng(np.random.Philox(43))
    for _ in range(30):
        z = (0.1 + 0.7 * rng.random()) * e(rng.random())
        p, q = 0.05 + 0.4 * rng.random(2)
        t3 = S.triple_gamma(z, p, q)
        assert _rel(S.triple_gamma(q * z, p, q), S.elliptic_gamma(z, p, q) * t3) < 1e-12
        assert _rel(S.triple_gamma(p * q * q / z, p, q), t3) < 1e-12


def test_theta_pochhammer_frozen_and_gamma_ratio():
    assert _rel(S.theta_pochhammer(0.2, 3, 0.1, 0.1), O.THETA_POCH_K3) < 1e-13
    # same object as a ratio of gamma functions
    z, p, q = 0.37 * e(0.21), 0.22, 0.13
    for k in range(4):
        ratio = S.elliptic_gamma(q**k * z, p, q) / S.elliptic_gamma(z, p, q)
        assert _rel(S.theta_pochhammer(z, k, p, q), ratio) < 1e-12


def test_qpoch_frozen_values():
    assert _rel(S.qpoch(0.15, 0.15), O.QPOCH_015) < 1e-14
    assert _rel(S.qpoch(0.1, 0.1), O.QPOCH_010) < 1e-14


def test_bracket_frozen_value_and_oddness():
    params = S.EllipticParams.from_bases(0.2, 0.35)
    assert _rel(S.bracket(0.3 + 0.2j, params), O.BRACKET_Z) < 1e-13
    rng = np.random.default_rng(np.random.Philox(37))
    for _ in range(50):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        assert abs(S.bracket(-z, params) + S.bracket(z, params)) < 1e-10 * abs(
            S.bracket(z, params)
        )
    # zeros on the period lattice
    assert abs(S.bracket(0.0, params)) < 1e-14
    assert abs(S.bracket(1.0 + 0j, params)) < 1e-12
    assert abs(S.bracket(params.varpi, params)) < 1e-12


def test_bracket_quasi_periodicity():
    params = S.EllipticParams.from_bases(0.17, 0.3)
    rng = np.random.default_rng(np.random.Philox(41))
    for _ in range(50):
        z = 2 * rng.standard_normal() + 2j * rng.standard_normal()
        b = S.bracket(z, params)
        assert _rel(S.bracket(z + 1, params), -b) < 1e-11
        shifted = S.bracket(z + params.varpi, params)
        assert _rel(shifted, -e(-z - params.varpi / 2) * b) < 1e-11
        # deep shifts reduce correctly
        deep = S.bracket(z + 5 * params.varpi, params)
        ref = b
        w = z
        for _ in range(5):
            ref = -e(-w - params.varpi / 2) * ref
            w = w + params.varpi
        assert _rel(deep, ref) < 1e-10


def test_bracket_far_argument_is_a_domain_error():
    params = S.EllipticParams.from_bases(0.2, 0.35)
    with pytest.raises(DomainError, match="did not converge"):
        S.bracket(70 * params.varpi + 0.1, params)


def test_three_term_relation_elliptic():
    params = S.EllipticParams.from_bases(0.2 * e(0.1), 0.3)
    rng = np.random.default_rng(np.random.Philox(43))
    worst = 0.0
    for _ in range(200):
        z, a, b, c = rng.standard_normal(4) + 1j * rng.standard_normal(4) * 0.3
        res = S.three_term_residual(z, a, b, c, params)
        if not res.degenerate:
            worst = max(worst, float(res))
    assert worst < 1e-10


def test_three_term_relation_trigonometric():
    fn = lambda z: cmath.sin(cmath.pi * z)
    rng = np.random.default_rng(np.random.Philox(47))
    for _ in range(200):
        z, a, b, c = rng.standard_normal(4) + 1j * rng.standard_normal(4) * 0.2
        assert S.three_term_residual(z, a, b, c, fn=fn) < 1e-11


def test_three_term_degenerate_flag():
    params = S.EllipticParams.from_bases(0.2, 0.3)
    res = S.three_term_residual(0.5, 0.0, 0.0, 0.0, params)
    assert res.degenerate and float(res) == 0.0


def test_series_order_one_term():
    p, q = 0.15, 0.1
    a0 = 0.3 + 0j
    rest = [0.2 * e(i / 9) for i in range(1, 8)]
    term = S.theta(q**2 * a0, p) / S.theta(a0, p) * q
    for ai in [a0, *rest]:
        term *= S.theta(ai, p) / S.theta(q * a0 / ai, p)
    assert _rel(term, O.V12_K1_TERM) < 1e-13


def test_series_unit_value_at_order_zero():
    # a_7 = q^0 = 1 terminates immediately; empty sum beyond k = 0 gives 1
    p, q = 0.15, 0.1
    rest = [0.2 * e(i / 9) for i in range(1, 7)] + [1.0 + 0j]
    val = S.v12_11(0.3, rest, q, p, 0)
    assert _rel(val, 1.0) < 1e-14
