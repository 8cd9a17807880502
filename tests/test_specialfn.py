"""Special functions against frozen naive-product values and functional equations."""
from __future__ import annotations

import cmath
import math
import time
import warnings

import numpy as np
import pytest

from e8tau import specialfn as S
from e8tau.integrals import _plan
from e8tau.util import DomainError, PoleError, Scaled, e, split

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


def _theta_loop(z, p):
    """The reference theta: one pass of numpy array operations per factor
    pair, cut at the batch's largest max(|z|, |p/z|, 1)."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    ap = abs(p)
    big = max(float(np.max(np.abs(zz))), float(np.max(ap / np.abs(zz))), 1.0)
    out = np.ones_like(zz)
    pi_pow = 1.0 + 0j
    i = 0
    while True:
        out *= (1.0 - pi_pow * zz) * (1.0 - pi_pow * p / zz)
        i += 1
        pi_pow *= p
        if ap**i * big < S.TRUNC_TOL:
            return out


def _qpoch_loop(z, p):
    """The reference (z; p)_infinity, cut as _theta_loop at max(|z|, 1)."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    big = max(float(np.max(np.abs(zz))), 1.0)
    out = np.ones_like(zz)
    pi_pow = 1.0 + 0j
    i = 0
    while True:
        out *= 1.0 - pi_pow * zz
        i += 1
        pi_pow *= p
        if abs(p) ** i * big < S.TRUNC_TOL:
            return out


def _bits(a):
    return np.atleast_1d(np.asarray(a, dtype=complex)).view(np.int64).tolist()


def test_scalar_theta_and_qpoch_are_bitwise_the_loop():
    rng = np.random.default_rng(np.random.Philox(29))
    n = 20_000
    zs = np.exp(rng.uniform(np.log(0.01), np.log(5.0), n)) * np.exp(2j * np.pi * rng.random(n))
    aps = np.exp(rng.uniform(np.log(0.005), np.log(0.95), n))
    phases = np.exp(2j * np.pi * rng.random(n))
    # every 10th draw: at |p| = 0.95 the loop makes about 800 passes
    for k in range(0, n, 10):
        z = complex(zs[k])
        # Odd draws take a complex base, even draws a real one of either sign.
        p = complex(aps[k] * phases[k]) if k % 2 else float(aps[k] if phases[k].real > 0 else -aps[k])
        got = S.theta(z, p)
        assert type(got) is complex and _bits(got) == _bits(_theta_loop(z, p)[0]), (z, p)
        got = S.qpoch(z, p)
        assert type(got) is complex and _bits(got) == _bits(_qpoch_loop(z, p)[0]), (z, p)


@pytest.mark.parametrize("p", [0.15, -0.45, 0.3 * e(0.37)], ids=["real", "negative", "complex"])
def test_array_theta_and_qpoch_are_bitwise_the_loop(p):
    rng = np.random.default_rng(np.random.Philox(31))
    for size in (1, 2, 6, 38, 256, 1024, 4096):
        z = np.exp(rng.uniform(np.log(0.02), np.log(3.0), size)) * np.exp(2j * np.pi * rng.random(size))
        assert _bits(S.theta(z, p)) == _bits(_theta_loop(z, p)), size
        assert _bits(S.qpoch(z, p)) == _bits(_qpoch_loop(z, p)), size
    z = z[:1000].reshape(40, 25)
    got = S.theta(z, p)
    assert got.shape == z.shape and _bits(got) == _bits(_theta_loop(z, p))


@pytest.mark.parametrize("p", [0.05, 0.15, 0.45])
def test_blocked_theta_is_bitwise_the_whole_table(monkeypatch, p):
    # 4096 points of moduli 0.02 .. 3: the default blocks (at p = 0.45),
    # blocks of a few hundred columns with a short last one, and the whole
    # table give the same bits
    rng = np.random.default_rng(np.random.Philox(37))
    z = (np.exp(rng.uniform(np.log(0.02), np.log(3.0), 4096)) * np.exp(2j * np.pi * rng.random(4096))).reshape(64, 64)
    default = S.theta(z, p)
    monkeypatch.setattr(S, "_THETA_BLOCK", 1 << 40)
    whole = S.theta(z, p)
    monkeypatch.setattr(S, "_THETA_BLOCK", 10_000)
    blocked = S.theta(z, p)
    assert default.shape == whole.shape == blocked.shape == z.shape
    assert _bits(default) == _bits(whole) == _bits(blocked)


def test_kernels_reject_non_finite_arguments():
    bad = np.array([0.3 + 0.1j, complex(0.2, np.inf), 0.5])
    for kernel in (S.theta, S.qpoch):
        for z in (bad, complex("nan"), complex(np.inf, 0.0)):
            with pytest.raises(DomainError, match="not finite"):
                kernel(z, 0.2)
    for kernel in (S.elliptic_gamma, S.triple_gamma):
        for z in (bad, complex("nan"), complex(np.inf, 0.0)):
            with pytest.raises(DomainError, match="not finite"):
                kernel(z, 0.03, 0.45)
    with pytest.raises(ValueError, match="nonzero"):
        S.theta(np.array([0.3, 0.0]), 0.2)
    with pytest.raises(ValueError):
        S.theta(np.array([], dtype=complex), 0.2)


def test_gamma_shift_products_that_overflow_raise():
    # |z| = 1e-225 takes some 640 q-shifts, and their theta product leaves
    # the float range long before the last
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="overflows"):
            S.elliptic_gamma(1e-225, 0.03, 0.45)
        with pytest.raises(DomainError, match="overflows"):
            S.triple_gamma(np.array([0.3, 1e-225j]), 0.03, 0.45)


def test_triple_gamma_series_factor_out_of_range_raises():
    # at q = 0.99 the series' (1 - q^m)^2 denominators take its exp out of
    # the float range: it overflows at z = -0.5 and underflows to 0 at
    # z = 0.5; each raises, with no numpy warning, and 0.5j stays inside
    message = r"series factor leaves the float range at \|p\| = 0.03, \|q\| = 0.99$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (-0.5, 0.5, np.array([0.5j, -0.5])):
            with pytest.raises(DomainError, match=message):
                S.triple_gamma(z, 0.03, 0.99)
        assert cmath.isfinite(S.triple_gamma(0.5j, 0.03, 0.99))


def test_elliptic_gamma_series_factor_out_of_range_raises():
    # at z = 0.9 with one base 0.999 the series' exp overflows, in either
    # argument order: DomainError naming both moduli, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, q in ((0.03, 0.999), (0.999, 0.03)):
            message = rf"^elliptic gamma series factor leaves the float range at \|p\| = {p}, \|q\| = {q}$"
            with pytest.raises(DomainError, match=message):
                S.elliptic_gamma(0.9, p, q)


def test_theta_product_out_of_range_raises_without_a_warning():
    # theta multiplies out under np.errstate only where its factor bound
    # passes _LOG_FLOAT_RANGE; there the range guard names the overflow, with
    # no numpy warning, and the in-range call at the same z is a plain product
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # at z = 1e-307, TRUNC_TOL / max|p/z| underflows to 0, which the factor count's log must not take
        for z, p in ((-0.5, 0.999), (1e-300, 0.05), (np.array([0.5, 1e-300]), 0.05), (1e-307, 0.45)):
            with pytest.raises(DomainError, match=rf"^theta product overflows the float range at nome modulus {p}$"):
                S.theta(z, p)
        assert cmath.isfinite(S.theta(-0.5, 0.05))
        # the node weight of a plan takes theta(z^2; q) at the roots of unity:
        # at q = 0.997 it underflows, and the error names q's modulus
        message = r"^theta product of nonzero factors underflows to 0 at nome modulus 0.997$"
        with pytest.raises(DomainError, match=message):
            _plan(complex(0.03), complex(0.997), 64)


def test_theta_and_qpoch_cap_their_factor_count():
    # p = 0.999999 would take some 4e7 factors: refused before the table is built
    for kernel in (S.theta, S.qpoch):
        for z in (0.5, np.array([0.5, 0.3j])):
            t0 = time.perf_counter()
            with pytest.raises(DomainError, match=f"0.999999 needs more than {S.FACTOR_CAP}"):
                kernel(z, 0.999999)
            assert time.perf_counter() - t0 < 1.0
    # p = 0.999 takes about 41 000 factors, inside the cap
    n = S._power_prefix(0.999, 1.0)[1]
    assert 40_000 < n < S.FACTOR_CAP
    ref = math.exp(math.fsum(math.log1p(-0.5 * 0.999**i) for i in range(n)))
    assert _rel(S.qpoch(0.5, 0.999), ref) < 1e-8
    with pytest.raises(DomainError, match="underflows to 0 at nome modulus 0.999"):
        S.theta(0.5, 0.999)


def _powers_loop(p, big):
    """The reference powers: the recurrence run until |p|^L big < TRUNC_TOL,
    p^0 .. p^(L-1), as qpoch's factor row once computed them by a while loop."""
    ap = abs(p)
    pows = [1.0 + 0j]
    while ap ** len(pows) * big >= S.TRUNC_TOL:
        pows.append(pows[-1] * p)
    return pows


def test_power_table_prefix_is_the_recurrence_loop():
    rng = np.random.default_rng(np.random.Philox(41))
    cases = []
    for k in range(400):
        ap = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.9993))))
        p = complex(ap * e(rng.random())) if k % 2 else ap
        big = float(np.exp(rng.uniform(0.0, np.log(1e6))))
        cases.append((p, big))
        # big a float step either side of a threshold ap^m big = TRUNC_TOL,
        # where the closed form's rounding matters most
        lo = math.ceil(math.log(S.TRUNC_TOL) / math.log(ap))
        hi = math.floor(math.log(S.TRUNC_TOL / 1e6) / math.log(ap))
        edge = S.TRUNC_TOL / ap ** int(rng.integers(lo, hi + 1)) if hi >= lo else 0.0
        if 1.0 <= edge <= 1e6:
            cases += [(p, edge), (p, math.nextafter(edge, 0)), (p, math.nextafter(edge, math.inf))]
    cases += [(0.99 * e(0.3), 1e6), (0.995, 2.0), (-0.999, 1.0), (0.9993 * e(0.71), 1.0), (0.9993, 1e6)]
    checked = 0
    for p, big in cases:
        if abs(p) ** S.FACTOR_CAP * big >= S.TRUNC_TOL:
            with pytest.raises(DomainError, match="needs more than"):
                S._power_prefix(p, big)
            continue
        ref = _powers_loop(p, big)
        table, n = S._power_prefix(p, big)
        assert n == len(ref) and _bits(table[:n]) == _bits(ref), (p, big)
        # theta's second factor row p^1 .. p^L: the loop's w * p
        assert _bits(table[1 : n + 1]) == _bits([w * p for w in ref]), (p, big)
        checked += 1
    assert checked > 400


def test_power_tables_are_per_base_and_read_only():
    # equal moduli, different phases (and a float base beside the equal
    # complex one): each base has its own table, each the loop's
    bases = (0.3, 0.3 + 0j, 0.3j, -0.3, 0.3 * e(0.1))
    tables = [table[:n] for table, n in (S._power_prefix(p, 2.0) for p in bases)]
    for p, t in zip(bases, tables):
        assert _bits(t) == _bits(_powers_loop(p, 2.0)), p
        with pytest.raises(ValueError, match="read-only"):
            t[0] = 2.0
    assert len({id(S._power_table(p, 64)) for p in bases}) == len(bases)
    assert S._power_table(0.3j, 64) is S._power_table(0.3j, 64)


def test_gamma_frozen_values():
    assert _rel(S.elliptic_gamma(0.4 + 0.2j, 0.1, 0.15), O.GAMMA_Z) < 1e-14
    assert _rel(S.elliptic_gamma(0.1, 0.1, 0.1), O.GAMMA_SELFDUAL) < 1e-14


def _elliptic_gamma_product(z, p, q, trunc_tol=S.TRUNC_TOL):
    """Gamma(z; p, q) = (pq/z; p,q)_inf / (z; p,q)_inf from its product
    formula: every factor of the exponent simplex |p^i q^j| big >= trunc_tol,
    in row-major (i, j) order and in chunks of at most 8 000 elements. The
    library sums the log series; this is its reference route."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    pq = p * q
    big = max(float(np.max(np.abs(zz))), float(np.max(abs(pq) / np.abs(zz))), 1.0)

    def powers(b):
        n = 1
        while abs(b) ** n * big >= trunc_tol:
            n += 1
        return np.cumprod(np.r_[1.0, np.full(n - 1, b)])

    pi, qj = powers(p), powers(q)
    ii, jj = np.nonzero(np.abs(pi)[:, None] * np.abs(qj)[None, :] * big >= trunc_tol)
    w = pi[ii] * qj[jj]
    inv = 1.0 / zz
    out = np.ones_like(zz)
    step = max(1, 8_000 // zz.size)
    for s in range(0, w.size, step):
        ws = w[s : s + step]
        den = np.multiply.outer(ws, zz)
        np.subtract(1.0, den, out=den)
        num = np.multiply.outer(ws * pq, inv)
        np.subtract(1.0, num, out=num)
        out *= np.prod(num, axis=0) / np.prod(den, axis=0)
    return complex(out[0]) if np.ndim(z) == 0 else out


def test_gamma_product_frozen_values():
    assert _rel(_elliptic_gamma_product(0.4 + 0.2j, 0.1, 0.15), O.GAMMA_Z) < 1e-14
    assert _rel(_elliptic_gamma_product(0.1, 0.1, 0.1), O.GAMMA_SELFDUAL) < 1e-14


@pytest.mark.parametrize(
    "p, q", [(0.15, 0.10), (0.03, 0.45), (0.2 * e(0.1), 0.3)], ids=["bailey", "chain", "complex"]
)
def test_gamma_series_matches_product(p, q):
    # log-uniform over |pq|^1.5 < |z| < 30: the draws below |pq| are shifted
    # up, those above 0.95 down, and the rest summed as they are
    rng = np.random.default_rng(np.random.Philox(59))
    z = np.exp(rng.uniform(1.5 * np.log(abs(p * q)), np.log(30.0), 600)) * np.exp(2j * np.pi * rng.random(600))
    assert np.any(np.abs(z) < abs(p * q)) and np.any(np.abs(z) > 1)
    ref = _elliptic_gamma_product(z, p, q)
    assert np.max(np.abs(S.elliptic_gamma(z, p, q) - ref) / np.abs(ref)) <= 1e-13


def _shift_count_loop(mod: float, pq_mod: float, b_mod: float) -> int:
    """Reference step count: the steps tested one at a time, in order."""
    best = round(np.log(mod / np.sqrt(pq_mod)) / -np.log(b_mod))
    step = 1 if best > 0 else -1
    for s in range(0, best, step):
        x = mod * b_mod**s
        if max(x, pq_mod / x) <= S._SHIFT_RHO:
            return s
    return best


@pytest.mark.parametrize("p, q", [(0.15, 0.10), (0.03, 0.45), (0.05, 0.15), (0.9, 0.93)], ids=["bailey", "chain", "terminating", "near-one"])
def test_shift_count_is_the_loop_on_every_argument(p, q):
    pq, b = p * q, max(p, q)
    rng = np.random.default_rng(np.random.Philox(61))
    mods = list(np.exp(rng.uniform(np.log(pq) - 3.0, 2.0, 400)))
    # rho exactly at _SHIFT_RHO after s steps, from above and from below,
    # and the floats either side
    for s in range(-4, 5):
        for edge in (S._SHIFT_RHO, pq / S._SHIFT_RHO):
            m = edge / b**s
            mods += [m, np.nextafter(m, 0.0), np.nextafter(m, 2.0)]
    want = [_shift_count_loop(float(m), pq, b) for m in mods]
    assert S._shift_count(np.array(mods), pq, b).tolist() == want
    assert [S._shift_count(float(m), pq, b) for m in mods] == want
    assert any(w != 0 for w in want) and any(w == 0 for w in want)


def test_shift_count_takes_an_argument_as_abs_does():
    # moduli at rho = _SHIFT_RHO after s steps and the floats either side,
    # at many phases: np.abs rounds some of these to the other side
    pq, b = 0.03 * 0.45, 0.45
    rng = np.random.default_rng(np.random.Philox(62))
    edges = [edge / b**s for s in range(-4, 5) for edge in (S._SHIFT_RHO, pq / S._SHIFT_RHO)]
    mods = [x for m in edges for x in (m, np.nextafter(m, 0.0), np.nextafter(m, 2.0))]
    z = np.multiply.outer(mods, np.exp(2j * np.pi * rng.random(64))).reshape(-1)
    want = [_shift_count_loop(abs(v), pq, b) for v in z.tolist()]
    assert S._shift_count(z, pq, b).tolist() == want


@pytest.mark.parametrize("p, q", [(0.15, 0.10), (0.03, 0.45), (0.3 * e(0.07), 0.6)], ids=["bailey", "chain", "complex"])
def test_series_denominators_are_one_cached_read_only_table(p, q):
    # elliptic_gamma, triple_gamma and the node integrand all read this table
    for M in (1, 16, 37, 64, 373, 1000):
        pw = np.cumprod(np.broadcast_to(np.array([p, q], dtype=complex)[:, None], (2, M)), axis=1)
        m = np.arange(1, M + 1)
        assert S._series_den(p, q, 1, M).tobytes() == (m * (1.0 - pw[0]) * (1.0 - pw[1])).tobytes()
        assert S._series_den(p, q, 2, M).tobytes() == (m * (1.0 - pw[0]) * (1.0 - pw[1]) ** 2).tobytes()
    for k in (1, 2):
        # 40 and 1000 entries are prefixes of tables of 64 and 1024
        assert S._series_den(p, q, k, 40).tobytes() == S._series_den(p, q, k, 1000)[:40].tobytes()
        den = S._series_den(p, q, k, 40)
        with pytest.raises(ValueError):
            den[0] = 1.0


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
    # the draws above with |z| > 0.95 take the q-shift; these, with
    # |pq^2 / z| > 0.95, take the reflection and then the shift
    z = p * q * q * (0.4 + 0.65 * rng.random(28)) * np.exp(2j * np.pi * rng.random(28))
    ref = _triple_gamma_full_simplex(z, p, q, q)
    assert np.max(np.abs(S.triple_gamma(z, p, q) - ref) / np.abs(ref)) < 1e-13


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
def test_triple_gamma_series_matches_full_simplex_on_chain_annulus():
    # 28 pair arguments at the chain's bases, log-uniform over rho <= 0.75
    p, q = 0.03, 0.45
    rng = np.random.default_rng(np.random.Philox(53))
    for _ in range(4):
        mod = np.exp(rng.uniform(np.log(p * q * q / 0.75), np.log(0.75), 28))
        z = mod * np.exp(2j * np.pi * rng.random(28))
        ref = _triple_gamma_full_simplex(z, p, q, q)
        assert np.max(np.abs(S.triple_gamma(z, p, q) - ref) / np.abs(ref)) <= 1e-14


@pytest.mark.parametrize("p, q", [(0.03, 0.45), (0.15, 0.10)], ids=["chain", "bailey"])
def test_triple_gamma_zero_at_one_is_exact(p, q):
    assert S.triple_gamma(1.0, p, q) == 0
    vals = S.triple_gamma(np.array([0.3, 1.0, 1.2j]), p, q)
    assert vals[1] == 0 and np.all(vals[[0, 2]] != 0)


def test_triple_gamma_equal_bases_functional_equations():
    rng = np.random.default_rng(np.random.Philox(43))
    for _ in range(30):
        z = (0.1 + 0.7 * rng.random()) * e(rng.random())
        p, q = 0.05 + 0.4 * rng.random(2)
        t3 = S.triple_gamma(z, p, q)
        assert _rel(S.triple_gamma(q * z, p, q), S.elliptic_gamma(z, p, q) * t3) < 1e-12
        assert _rel(S.triple_gamma(p * q * q / z, p, q), t3) < 1e-12


def test_theta_pochhammer_frozen_and_gamma_ratio():
    assert _rel(S.theta_pochhammer(0.2, 3, 0.1, 0.1)[3], O.THETA_POCH_K3) < 1e-13
    # same object as a ratio of gamma functions, every order from one row
    z, p, q = 0.37 * e(0.21), 0.22, 0.13
    row = S.theta_pochhammer(z, 3, p, q)
    for k in range(4):
        ratio = S.elliptic_gamma(q**k * z, p, q) / S.elliptic_gamma(z, p, q)
        assert _rel(row[k], ratio) < 1e-12


def test_qpoch_frozen_values():
    assert _rel(S.qpoch(0.15, 0.15), O.QPOCH_015) < 1e-14
    assert _rel(S.qpoch(0.1, 0.1), O.QPOCH_010) < 1e-14


def test_bracket_frozen_value_and_oddness():
    params = S.EllipticParams.from_bases(0.2, 0.35)
    assert _rel(S.bracket(0.3 + 0.2j, params), O.BRACKET_Z) < 1e-13
    (one,) = S.bracket_scaled_many([0.3 + 0.2j], params)
    assert _rel(complex(one), O.BRACKET_Z) < 1e-13
    assert S.bracket_scaled_many([], params) == []
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


def _loop_bracket(zeta, params):
    """The reference bracket: the reduction into the strip one period at a
    time, the multipliers a running complex product (non-finite once it
    overflows, DomainError past 64 periods)."""
    varpi = params.varpi
    mult = 1.0 + 0j
    z = complex(zeta)
    for _ in range(64):
        b = z.imag / varpi.imag
        if b > 0.5 + 1e-12:
            mult *= -e(-z + varpi / 2)
            z -= varpi
        elif b < -0.5 - 1e-12:
            mult *= -e(z + varpi / 2)
            z += varpi
        else:
            break
    else:
        raise DomainError(f"period reduction of {zeta!r} did not converge in 64 periods")
    return mult * e(-z / 2) * S.theta(e(z), params.p)


def test_bracket_reduces_up_to_two_to_the_52_periods():
    params = S.EllipticParams.from_bases(0.2, 0.35)
    edge = 2.0**52 * params.varpi.imag
    for im in (edge, -edge):
        assert cmath.isfinite(S.bracket_scaled_many([complex(0.3, im)], params)[0].m)
    for im in (np.nextafter(edge, np.inf), -np.nextafter(edge, np.inf), 1e154, 1e160):
        with pytest.raises(DomainError, match="past 2\\^52"):
            S.bracket_scaled_many([complex(0.3, im)], params)


def test_one_step_bracket_matches_the_period_loop():
    # canonical arguments Q(x) + c at 0.35-scale points, as the hirota suite
    # draws them: bit for bit in the strip, within 1e-12 wherever the loop's
    # product is finite, and a finite Scaled value where it is not
    params = S.EllipticParams.from_bases(0.2, 0.35)
    rng = np.random.default_rng(np.random.Philox(53))
    counts = {"strip": 0, "reduced": 0, "overflow": 0}
    for _ in range(3000):
        x = 0.35 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        zeta = complex(np.sum(x * x) / (2.0 * params.delta)) + 0.21 + 0.05j
        ref, got = _loop_bracket(zeta, params), S.bracket(zeta, params)
        if abs(zeta.imag / params.varpi.imag) <= 0.5 + 1e-12:
            counts["strip"] += 1
            assert got == ref, zeta
        elif cmath.isfinite(ref):
            counts["reduced"] += 1
            assert _rel(got, ref) < 1e-12, zeta
        else:
            counts["overflow"] += 1
            assert cmath.isfinite(S.bracket_scaled_many([zeta], params)[0].m), zeta
    assert min(counts.values()) > 0, counts


def test_bracket_far_argument_reduces_in_one_step():
    params = S.EllipticParams.from_bases(0.2, 0.35)
    varpi = params.varpi
    for bad in (complex("nan"), complex(0.1, float("inf")), complex("inf")):
        with pytest.raises(DomainError, match="not finite"):
            S.bracket(bad, params)
    # [z + varpi] = -e(-z - varpi/2) [z] at z = 69 varpi + 0.1, where |[z]|
    # is far above the float range
    z = 69 * varpi + 0.1
    got = S.bracket_scaled_many([z + varpi], params)[0]
    want = split(-e(-z - varpi / 2)) * S.bracket_scaled_many([z], params)[0]
    assert want.k > 4000
    assert _rel(complex(Scaled(got.m, got.k - want.k)), want.m) < 1e-11
    # the complex bracket there is an infinity, not a NaN
    far = S.bracket(z + varpi, params)
    assert cmath.isinf(far) and not cmath.isnan(far)


def test_bracket_batch_matches_the_period_loop():
    # batches of 1 to 40 arguments, in-strip entries mixed with entries up
    # to six periods out: every entry within 1e-13 of the loop, whatever
    # else its batch holds
    rng = np.random.default_rng(np.random.Philox(59))
    for p in (0.2, 0.03 * e(0.2), -0.4):
        params = S.EllipticParams.from_bases(p, 0.35)
        for size in (1, 2, 6, 12, 40):
            periods = rng.integers(-6, 7, size) * (rng.random(size) < 0.5)
            zetas = rng.standard_normal(size) + 1j * params.varpi.imag * (rng.random(size) - 0.5 + periods)
            got = S.bracket_scaled_many(zetas.tolist(), params)
            for zeta, g in zip(zetas, got):
                assert _rel(complex(g), _loop_bracket(zeta, params)) < 1e-13, (p, zeta)


@pytest.mark.parametrize("bad", [complex("nan"), complex(0.1, float("inf")), complex(0.3, 1e160)])
def test_bracket_batch_rejects_a_bad_entry_before_theta(monkeypatch, bad):
    params = S.EllipticParams.from_bases(0.2, 0.35)
    calls = []
    real = S.theta
    monkeypatch.setattr(S, "theta", lambda z, p: calls.append(z) or real(z, p))
    for at in (0, 3, 6):
        zetas = [0.1 * k + 0.2j for k in range(6)]
        zetas.insert(at, bad)
        with pytest.raises(DomainError, match="not finite|past 2\\^52"):
            S.bracket_scaled_many(zetas, params)
    assert calls == []
    S.bracket_scaled_many([0.3, 0.4], params)
    assert len(calls) == 1


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
