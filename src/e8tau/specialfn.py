"""Theta functions, elliptic gamma functions, the additive bracket, and the
very well-poised terminating series. All products are truncated once the
remaining factors differ from 1 by less than ``TRUNC_TOL``."""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .util import DomainError, PoleError, Residual, e, normalized_residual

TRUNC_TOL = 1e-18
POLE_EPS = 1e-12


@dataclass(frozen=True)
class EllipticParams:
    """Multiplicative bases with their additive periods.

    p = e(varpi) and q = e(delta). r is an optional third base that no
    library code reads: the pair products weight with Gamma(.; p, q, q). It
    stays for callers that carry a (p, q, r) weighting of their own, such as
    the tests' Bailey reference and a perfbench workload.
    """

    p: complex
    q: complex
    varpi: complex
    delta: complex
    r: complex | None = None

    @staticmethod
    def from_bases(p: complex, q: complex, r: complex | None = None) -> "EllipticParams":
        if not (0 < abs(p) < 1 and 0 < abs(q) < 1):
            raise ValueError("bases must satisfy 0 < |p|, |q| < 1")
        if r is not None and not 0 < abs(r) < 1:
            raise ValueError("third base must satisfy 0 < |r| < 1")
        two_pi_i = 2j * cmath.pi
        return EllipticParams(
            p=complex(p),
            q=complex(q),
            varpi=cmath.log(p) / two_pi_i,
            delta=cmath.log(q) / two_pi_i,
            r=None if r is None else complex(r),
        )


def _as_array(z) -> tuple[np.ndarray, bool]:
    arr = np.asarray(z, dtype=complex)
    return np.atleast_1d(arr), arr.ndim == 0


def theta(z, p: complex):
    """Jacobi theta: product of (1 - p^i z)(1 - p^{i+1}/z) over i >= 0."""
    zz, scalar = _as_array(z)
    if scalar:
        return _theta_scalar(complex(zz[0]), p)
    if np.any(zz == 0):
        raise ValueError("theta argument must be nonzero")
    ap = abs(p)
    big = max(float(np.max(np.abs(zz))), float(np.max(ap / np.abs(zz))), 1.0)
    out = np.ones_like(zz)
    pi_pow = 1.0 + 0j
    i = 0
    while True:
        out *= (1.0 - pi_pow * zz) * (1.0 - pi_pow * p / zz)
        i += 1
        pi_pow *= p
        if ap**i * big < TRUNC_TOL:
            break
    return out


def _theta_scalar(z: complex, p: complex) -> complex:
    # The array loop above at one point, in one pass: the same truncation
    # (Python's abs of a complex is the same hypot as np.abs), the same powers
    # p^i and p^i*p from the same recurrence, every factor from the same
    # array operations, and np.cumprod, which multiplies strictly left to
    # right from the first factor, for the running product; so the result is
    # bit-for-bit that of theta(np.array([z]), p)[0].
    if z == 0:
        raise ValueError("theta argument must be nonzero")
    ap = abs(p)
    big = max(abs(z), ap / abs(z), 1.0)
    pows = [1.0 + 0j]
    while ap ** len(pows) * big >= TRUNC_TOL:
        pows.append(pows[-1] * p)
    pows_p = [w * p for w in pows]
    factors = (1.0 - np.array(pows) * z) * (1.0 - np.array(pows_p) / z)
    return complex(np.cumprod(factors)[-1])


def qpoch(z, p: complex):
    """(z; p)_infinity."""
    zz, scalar = _as_array(z)
    big = max(float(np.max(np.abs(zz))), 1.0)
    out = np.ones_like(zz)
    pi_pow = 1.0 + 0j
    i = 0
    while True:
        out *= 1.0 - pi_pow * zz
        i += 1
        pi_pow *= p
        if abs(p) ** i * big < TRUNC_TOL:
            break
    return complex(out[0]) if scalar else out


# Chunks of the flat exponent simplex keep every factor temporary at most
# this many elements (125 KiB of complex), so the memory peak does not grow
# with the node count, and the temporaries are reused from the heap and stay
# in cache. The allocator (glibc malloc) maps blocks of 128 KiB and more fresh
# from the system on every allocation, and they are page-faulted in again,
# unless the process has earlier freed a larger mapped block, which raises
# that threshold; at 256 KiB the cost of a batched triple_gamma therefore
# depended on what the process had allocated before (about 100 page faults
# per call when nothing had raised the threshold). At 2.5e5 elements a
# batched triple_gamma took about 1 500 page faults and 3.7x the time.
_CHUNK_ELEMENTS = 8_000


def elliptic_gamma(z, p: complex, q: complex):
    """Ruijsenaars gamma: (pq/z; p,q)_inf / (z; p,q)_inf.

    The exponent simplex |p^i q^j| >= TRUNC_TOL/big is enumerated as one flat
    array in row-major (i, j) order and multiplied out in chunks. Raises
    PoleError when some 1 - p^i q^j z factor is within POLE_EPS of 0, naming
    the first such (i, j) in that order; the pole lattice has modulus >= 1,
    so arguments inside the unit disk are always safe.
    """
    zz, scalar = _as_array(z)
    if np.any(zz == 0):
        raise ValueError("gamma argument must be nonzero")
    pq = p * q
    big = max(float(np.max(np.abs(zz))), float(np.max(abs(pq) / np.abs(zz))), 1.0)
    pi = _power_column(p, big)
    qj = _power_column(q, big)
    ii, jj = np.nonzero(np.abs(pi)[:, None] * np.abs(qj)[None, :] * big >= TRUNC_TOL)
    w = pi[ii] * qj[jj]
    inv = 1.0 / zz
    out = np.ones_like(zz)
    step = max(1, _CHUNK_ELEMENTS // zz.size)
    for s in range(0, w.size, step):
        ws = w[s : s + step]
        den = np.multiply.outer(ws, zz)
        np.subtract(1.0, den, out=den)
        small = np.abs(den) < POLE_EPS
        if small.any():
            row = int(np.argmax(small.any(axis=1)))
            raise PoleError(complex(zz[small[row]][0]), int(ii[s + row]), int(jj[s + row]))
        num = np.multiply.outer(ws * pq, inv)
        np.subtract(1.0, num, out=num)
        out *= np.prod(num, axis=0) / np.prod(den, axis=0)
    return complex(out[0]) if scalar else out


def _power_column(base: complex, big: float) -> np.ndarray:
    """Powers base^0..base^m while |base|^m * big stays above TRUNC_TOL."""
    count, mag = 1, abs(base)
    while mag ** count * big >= TRUNC_TOL:
        count += 1
    out = np.empty(count, dtype=complex)
    out[0] = 1.0
    for i in range(1, count):
        out[i] = out[i - 1] * base
    return out


def triple_gamma(z, p: complex, q: complex):
    """Entire triple gamma at equal second and third bases:
    Gamma(z; p, q, q) = (z; p,q,q)_inf (pq^2/z; p,q,q)_inf, the weighting of
    the pair products.

    The factor pair at p^i q^j q^k depends on j + k = s only, so it stands
    for s + 1 pairs and the (i, s) box suffices: each column product g_s
    enters as g_s^(s + 1), over the simplex |p^i q^s| >= TRUNC_TOL/big.

    A rounded factor 1 - x is off by about one unit roundoff, which the power
    s + 1 would multiply (to about 1e-13 at q = 0.45). So each factor pair is
    kept as its deviation d from 1, the rows of a column are combined by
    (1 + a)(1 + b) = 1 + (a + b + ab) over a pairwise tree, and
    g_s^(s + 1) = exp((s + 1) log(1 + d_s)). Column s = 0 has power 1 and
    holds the only zero in |pq^2| < |z| <= 1, at z = 1, so it stays a plain
    product that keeps that zero exact. Chunks run over z so a factor array
    stays near _CHUNK_ELEMENTS.
    """
    zz, scalar = _as_array(z)
    if np.any(zz == 0):
        raise ValueError("gamma argument must be nonzero")
    pqq = p * q * q
    big = max(float(np.max(np.abs(zz))), float(np.max(abs(pqq) / np.abs(zz))), 1.0)
    qs = _power_column(q, big)
    w = _power_column(p, big)[:, None] * qs[None, :]
    w[np.abs(w) * big < TRUNC_TOL] = 0.0  # outside the simplex: factor 1
    wd = w * pqq
    ww = (w * wd)[:, :, None]
    power = np.arange(2, qs.size + 1)[:, None]
    out = np.empty_like(zz)
    step = max(1, _CHUNK_ELEMENTS // w.size)
    for c in range(0, zz.size, step):
        zc = zz[c : c + step]
        izc = 1.0 / zc
        g0 = np.prod(
            (1.0 - np.multiply.outer(w[:, 0], zc)) * (1.0 - np.multiply.outer(wd[:, 0], izc)), axis=0
        )
        # (1 - wz)(1 - wd/z) = 1 + d with d = w wd - (wz + wd/z)
        d = np.multiply.outer(w, zc)
        d += np.multiply.outer(wd, izc)
        np.subtract(ww, d, out=d)
        while len(d) > 1:
            h = (len(d) + 1) // 2  # row k meets row k + h; an odd middle row waits
            d[: len(d) - h] += d[h:] * (1.0 + d[: len(d) - h])
            d = d[:h]
        mod, arg = _log1p(d[0, 1:])
        out[c : c + step] = g0 * np.exp(np.sum(power * mod, axis=0) + 1j * np.sum(power * arg, axis=0))
    return complex(out[0]) if scalar else out


def _log1p(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log|1 + d| and arg(1 + d), accurate for small d and near d = -1."""
    a, b = d.real, d.imag
    t = a * (2.0 + a) + b * b  # |1 + d|^2 - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        mod = np.where(t < -0.75, np.log(np.hypot(1.0 + a, b)), 0.5 * np.log1p(t))
    return mod, np.arctan2(b, 1.0 + a)


def theta_pochhammer(z, k: int, p: complex, q: complex):
    """theta(z; p) theta(qz; p) ... theta(q^{k-1} z; p)."""
    if k < 0:
        raise ValueError("nonnegative order required")
    out = 1.0 + 0j
    zz = complex(z)
    for _ in range(k):
        out *= theta(zz, p)
        zz *= q
    return out


_MAX_PERIOD_SHIFTS = 64


def bracket(zeta: complex, params: EllipticParams) -> complex:
    """Odd quasi-periodic bracket e(-zeta/2) theta(e(zeta); p).

    The argument is first reduced modulo the period varpi into the strip
    |Im(zeta)/Im(varpi)| <= 1/2 using the quasi-periodicity multipliers, so
    that e(zeta) stays within [sqrt|p|, 1/sqrt|p|] in modulus. Raises
    DomainError when that takes more than _MAX_PERIOD_SHIFTS periods.
    """
    varpi = params.varpi
    mult = 1.0 + 0j
    z = complex(zeta)
    for _ in range(_MAX_PERIOD_SHIFTS):
        # writing z = a + b*varpi with a, b real: b is fixed by imaginary parts
        b = z.imag / varpi.imag
        if b > 0.5 + 1e-12:
            # descend one period: [z] = -e(-z + varpi/2) [z - varpi]
            mult *= -e(-z + varpi / 2)
            z -= varpi
        elif b < -0.5 - 1e-12:
            # ascend one period: [z] = -e(z + varpi/2) [z + varpi]
            mult *= -e(z + varpi / 2)
            z += varpi
        else:
            break
    else:
        raise DomainError(f"period reduction of {zeta!r} did not converge in {_MAX_PERIOD_SHIFTS} periods")
    return mult * e(-z / 2) * theta(e(z), params.p)


def bracket_pm(x: complex, y: complex, params: EllipticParams) -> complex:
    """[x + y][x - y], the two-factor abbreviation."""
    return bracket(x + y, params) * bracket(x - y, params)


def three_term_residual(
    z: complex,
    alpha: complex,
    beta: complex,
    gamma: complex,
    params: EllipticParams | None = None,
    fn: Callable[[complex], complex] | None = None,
) -> Residual:
    """Normalized residual of the fundamental three-term relation.

    Evaluates [b±c][z±a] + [c±a][z±b] + [a±b][z±c] with the elliptic bracket
    (or any supplied odd function fn) and divides by the largest term.
    """
    if fn is None:
        if params is None:
            raise ValueError("need params for the elliptic bracket")
        fn = lambda w: bracket(w, params)
    pm = lambda x, y: fn(x + y) * fn(x - y)
    return normalized_residual([
        pm(beta, gamma) * pm(z, alpha),
        pm(gamma, alpha) * pm(z, beta),
        pm(alpha, beta) * pm(z, gamma),
    ])


def v12_11(a0: complex, a: Sequence[complex], q: complex, p: complex, N: int) -> complex:
    """Terminating very well-poised series in eight parameters, summed over
    k = 0..N.

    a supplies a_1..a_7. The caller states the order N at which some a_i
    (i = 0..7) lies in p^Z q^{-N}, so that every later term vanishes; it is
    not checked here.
    """
    if len(a) != 7:
        raise ValueError("need exactly seven upper parameters")
    all_a = [complex(a0), *map(complex, a)]
    total = 0.0 + 0j
    for k in range(N + 1):
        term = theta(q ** (2 * k) * a0, p) / theta(a0, p) * q**k
        for ai in all_a:
            num = theta_pochhammer(ai, k, p, q)
            den = theta_pochhammer(q * a0 / ai, k, p, q)
            if abs(den) < 1e-250:
                raise ZeroDivisionError("vanishing lower factor in series term")
            term *= num / den
        total += term
    return total
