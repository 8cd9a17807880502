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
# that threshold.
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


# The log series of the gamma functions diverge at rho = 1 and need
# thousands of terms just below it. An argument whose rho exceeds _SHIFT_RHO
# is first moved by a difference equation, and every series is cut where
# rho^M falls below _SERIES_TAIL.
_SHIFT_RHO = 0.95
_SERIES_TAIL = 1e-17


def _shift_count(mod: float, pq_mod: float, b_mod: float) -> int:
    """Fewest steps s, of either sign, with rho(|u| |b|^s) <= _SHIFT_RHO for a
    parameter of modulus mod, or the s of least rho when none reaches it; 0
    when rho is already there. rho falls monotonically from s = 0 towards
    the best s, where |u| |b|^s is nearest to pq_mod^(1/2)."""
    best = round(np.log(mod / np.sqrt(pq_mod)) / -np.log(b_mod))
    step = 1 if best > 0 else -1
    for s in range(0, best, step):
        x = mod * b_mod**s
        if max(x, pq_mod / x) <= _SHIFT_RHO:
            return s
    return best


def triple_gamma(z, p: complex, q: complex):
    """Entire triple gamma at equal second and third bases:
    Gamma(z; p, q, q) = (z; p,q,q)_inf (pq^2/z; p,q,q)_inf, the weighting of
    the pair products.

    On |pq^2| < |z| < 1 its log is the series
    -sum_{m>=1} (z^m + (pq^2/z)^m) / (m (1 - p^m)(1 - q^m)^2), summed for all
    arguments at once: the powers of every z_k and pq^2/z_k from one cumprod,
    cut where rho^M is below _SERIES_TAIL with rho = max_k max(|z_k|,
    |pq^2/z_k|), and contracted with the weights in one mat-vec. An argument
    with rho above _SHIFT_RHO is moved first: by the reflection
    Gamma(z) = Gamma(pq^2/z) when |z|^2 < |pq^2|, then by s steps of
    Gamma(z) = Gamma(q^s z) prod_{0<=t<s} 1/Gamma(q^t z; p, q), each
    1/Gamma(y; p, q) = Gamma(pq/y; p, q) taken as theta(y; q) Gamma(q/y; p, q).
    That theta holds the factor 1 - y literally, so the zero at z = 1 is
    exact, and |q/y| < |q| / _SHIFT_RHO keeps the elliptic gamma off its
    pole at 1 for |q| < _SHIFT_RHO.
    """
    zz, scalar = _as_array(z)
    if np.any(zz == 0):
        raise ValueError("gamma argument must be nonzero")
    pqq = p * q * q
    out = np.ones_like(zz)
    far = np.flatnonzero(np.maximum(np.abs(zz), abs(pqq) / np.abs(zz)) > _SHIFT_RHO)
    if far.size:
        zz = zz.copy()
        inner = far[np.abs(zz[far]) ** 2 < abs(pqq)]
        zz[inner] = pqq / zz[inner]
        steps = np.array([_shift_count(abs(v), abs(pqq), abs(q)) for v in zz[far]])
        for t in range(steps.max()):
            idx = far[steps > t]
            y = q**t * zz[idx]
            out[idx] *= theta(y, q) * elliptic_gamma(q / y, p, q)
        zz[far] *= q**steps
    rho = float(np.max(np.maximum(np.abs(zz), abs(pqq) / np.abs(zz))))
    M = int(np.ceil(np.log(_SERIES_TAIL) / np.log(rho)))
    bases = np.concatenate([zz, pqq / zz, [p, q]])
    pw = np.cumprod(np.broadcast_to(bases[:, None], (bases.size, M)), axis=1)
    w = -1.0 / (np.arange(1, M + 1) * (1.0 - pw[-2]) * (1.0 - pw[-1]) ** 2)
    log = pw[:-2] @ w
    out *= np.exp(log[: zz.size] + log[zz.size :])
    return complex(out[0]) if scalar else out


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
