"""Theta functions, elliptic gamma functions, the additive bracket, and the
very well-poised terminating series. All products are truncated once the
remaining factors differ from 1 by less than ``TRUNC_TOL``; the gamma
functions sum log series instead, cut at ``_SERIES_TAIL``."""
from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .util import TWO_PI_I, DomainError, PoleError, Residual, Scaled, e, normalized_residual

TRUNC_TOL = 1e-18
POLE_EPS = 1e-12
LN2 = math.log(2.0)


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


def _gamma_argument(z) -> tuple[np.ndarray, bool]:
    """z as an at least 1-d complex array, and whether z was 0-d."""
    arr = np.asarray(z, dtype=complex)
    if not np.isfinite(arr).all():
        raise DomainError("gamma argument is not finite")
    if np.any(arr == 0):
        raise ValueError("gamma argument must be nonzero")
    # below it, the reflection c / z of the series can leave the float range
    if not np.minimum.reduce(np.abs(arr), axis=None, initial=math.inf) >= sys.float_info.min:
        raise DomainError("gamma argument lies below the normal float range")
    return np.atleast_1d(arr), arr.ndim == 0


def _modulus_bounds(zz: np.ndarray, kind: str) -> tuple[float, float]:
    """Largest and smallest |z| over the batch; DomainError if the largest is not finite."""
    mod = np.abs(zz)
    hi = float(np.maximum.reduce(mod, axis=None))  # the ufunc, without ndarray.max's wrapper
    if not math.isfinite(hi):
        raise DomainError(f"{kind} argument is not finite")
    return hi, float(np.minimum.reduce(mod, axis=None))


# A product whose log-modulus bound stays below this cannot overflow (the
# largest float is e^709.78).
_LOG_FLOAT_RANGE = 700.0

# Most factors of a theta or qpoch product (the suites need 60, p = 0.999 41 000).
FACTOR_CAP = 2**16


def _factor_count(ap: float, big: float) -> int:
    """L, the first i >= 1 with ap^i big < TRUNC_TOL, for ap the modulus of
    the nome (p or q) whose powers the product takes: the closed form
    ceil(log(TRUNC_TOL / big) / log(ap)), moved by one where the test
    ap^i big < TRUNC_TOL itself disagrees with it (the rounding of the two
    logs moves the quotient by far less than one). DomainError, naming the
    nome's modulus, first if L > FACTOR_CAP, or if that test cannot hold (a
    NaN modulus, or an infinite big at an ap^FACTOR_CAP that underflows)."""
    if not ap**FACTOR_CAP * big < TRUNC_TOL:
        raise DomainError(f"nome modulus {ap:.9g} needs more than {FACTOR_CAP} product factors")
    if ap * big < TRUNC_TOL:
        return 1
    n = math.ceil((math.log(TRUNC_TOL) - math.log(big)) / math.log(ap))  # TRUNC_TOL / big can underflow to 0
    if ap**n * big >= TRUNC_TOL:
        return n + 1
    return n - 1 if ap ** (n - 1) * big < TRUNC_TOL else n


# Power tables kept, one per base and size. A table holds at most 2^17
# entries (L <= FACTOR_CAP = 2^16 needs L + 1), 2 MiB, so the cache holds at
# most 64 MiB; at |p| <= 0.5 a table is 64 entries, 1 KiB.
_POWER_TABLES = 32


@functools.lru_cache(maxsize=_POWER_TABLES, typed=True)
def _power_table(p: complex, size: int) -> np.ndarray:
    """p^0 .. p^(size - 1) by the recurrence p^(i+1) = p^i p, each step one
    multiplication of the operands' own types (numpy's array * p differs in
    the last bit), read-only. typed: a float p and the equal complex p
    multiply differently in the sign of a zero."""
    pw = [1.0 + 0j]
    for _ in range(size - 1):
        pw.append(pw[-1] * p)
    table = np.array(pw, dtype=complex)
    table.flags.writeable = False
    return table


def _power_prefix(p: complex, big: float) -> tuple[np.ndarray, int]:
    """L (_factor_count) and the cached table of p's powers that holds
    p^0 .. p^L: the table of the next power of two above L."""
    n = _factor_count(abs(p), big)
    return _power_table(p, 1 << n.bit_length()), n


# Entries of one factor table of theta. A batch whose table would hold more
# is multiplied out in blocks of columns of at most this many entries: two
# such tables of 1 MiB each stay in a 2 MiB core cache, and a sweep over
# 256-4096 points at p = 0.05, 0.15 and 0.45 showed a larger table up to 2.4x
# slower (at 4096 points and p = 0.45) and smaller blocks no faster.
_THETA_BLOCK = 65536


def _theta_factors(pows: np.ndarray, ppows: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """prod_i (1 - pows[i] z)(1 - ppows[i] / z) for every z, the table
    multiplied out row by row, as t.prod(axis=0)."""
    t = np.multiply.outer(pows, z)
    np.subtract(1.0, t, out=t)
    u = np.divide.outer(ppows, z)
    np.subtract(1.0, u, out=u)
    t *= u
    return np.multiply.reduce(t, axis=0, out=out)


def _theta_product(pows: np.ndarray, ppows: np.ndarray, zz: np.ndarray) -> np.ndarray:
    """_theta_factors at every z of zz, in blocks of columns of at most
    _THETA_BLOCK table entries."""
    width = max(_THETA_BLOCK // pows.size, 1)
    if zz.size <= width:
        return _theta_factors(pows, ppows, zz)
    flat = zz.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    for start in range(0, flat.size, width):
        _theta_factors(pows, ppows, flat[start : start + width], out[start : start + width])
    return out.reshape(zz.shape)


def _theta_range_guard(pows: np.ndarray, ppows: np.ndarray, z: np.ndarray, out: np.ndarray, p: complex) -> None:
    """DomainError where the theta product out (at the arguments z) is not
    finite, or is 0 with no factor 1 - pows[i] z or 1 - ppows[i] / z
    exactly 0: a product of nonzero factors that left the float range."""
    out, z = np.reshape(out, -1), np.reshape(z, -1)
    if not np.isfinite(out).all():
        raise DomainError(f"theta product overflows the float range at nome modulus {abs(p):.9g}")
    zero = z[out == 0]
    exact = (np.multiply.outer(pows, zero) == 1) | (np.divide.outer(ppows, zero) == 1)
    if not exact.any(axis=0).all():
        raise DomainError(f"theta product of nonzero factors underflows to 0 at nome modulus {abs(p):.9g}")


def theta(z, p: complex):
    """Jacobi theta: product of (1 - p^i z)(1 - p^{i+1}/z) over i >= 0, for
    any shape of z (a complex for a 0-d z): one table of factors multiplied
    out row by row, cut once for the batch at its largest max(|z|, |p/z|, 1),
    the powers of p a prefix of their cached table. A table above
    _THETA_BLOCK entries is multiplied out in blocks of columns, each entry
    as in the whole table, so bit for bit.

    A product of nonzero factors that overflows, or underflows to 0, raises
    DomainError naming the nome's modulus; an exact zero factor (theta(1, p))
    gives 0."""
    zz = np.asarray(z, dtype=complex)
    hi, lo = _modulus_bounds(zz, "theta")
    if lo == 0:
        raise ValueError("theta argument must be nonzero")
    # |p| / lo is the largest |p/z|: division by a positive float is monotone
    table, n = _power_prefix(p, max(hi, abs(p) / lo, 1.0))
    pows, ppows = table[:n], table[1 : n + 1]
    # each of the n factor pairs has modulus at most (1 + hi)(1 + |p| / lo)
    if n * (math.log1p(hi) + math.log1p(abs(p) / lo)) <= _LOG_FLOAT_RANGE:
        out = _theta_product(pows, ppows, zz)
    else:  # the product may leave the float range: the guard below names it
        with np.errstate(over="ignore", invalid="ignore"):
            out = _theta_product(pows, ppows, zz)
    if not (np.isfinite(out).all() and out.all()):
        _theta_range_guard(pows, ppows, zz, out, p)
    return complex(out) if zz.ndim == 0 else out


def qpoch(z, p: complex):
    """(z; p)_infinity, for any shape of z as theta: the factors 1 - p^i z,
    i < L (_factor_count at the batch's largest max(|z|, 1)), the powers a
    prefix of their cached table."""
    zz = np.asarray(z, dtype=complex)
    table, n = _power_prefix(p, max(_modulus_bounds(zz, "qpoch")[0], 1.0))
    t = np.multiply.outer(table[:n], zz)
    np.subtract(1.0, t, out=t)
    out = np.multiply.reduce(t, axis=0)
    return complex(out) if zz.ndim == 0 else out


# The gamma log series diverge at rho = 1: an argument whose rho exceeds
# _SHIFT_RHO is moved first, and every series is cut at rho^M < _SERIES_TAIL.
_SHIFT_RHO = 0.95
_SERIES_TAIL = 1e-17


def _shift_count(z, pq_mod: float, b_mod: float):
    """Fewest steps s, of either sign, with rho(|u| |b|^s) <= _SHIFT_RHO for
    each argument (or modulus) u in z, or the s of least rho when none
    reaches it; 0 when rho is already there. rho falls monotonically from
    s = 0 towards the best s, where |u| |b|^s is nearest to pq_mod^(1/2).

    |u| is libm's hypot, as abs() takes it (np.abs rounds differently in
    the last place). Every step 0 <= |s| < |best| is tested at once on the
    floats |u| * b_mod**s, the powers taken one by one as Python floats, so
    the counts are those of testing the steps in turn. Returns an int array
    shaped like z, or an int for a scalar z."""
    m = np.hypot(np.real(z), np.imag(z))
    best = np.rint(np.log(m / np.sqrt(pq_mod)) / -np.log(b_mod)).astype(int)
    flat, bflat = m.reshape(-1), best.reshape(-1)
    span = int(np.max(np.abs(bflat), initial=0))
    steps = np.sign(bflat)[:, None] * np.arange(span)
    powers = np.array([b_mod**s for s in range(-span, span + 1)])
    x = flat[:, None] * powers[steps + span]
    hit = (np.maximum(x, pq_mod / x) <= _SHIFT_RHO) & (np.arange(span) < np.abs(bflat)[:, None])
    first = steps[np.arange(flat.size), np.argmax(hit, axis=1)] if span else bflat
    counts = np.where(hit.any(axis=1), first, bflat).reshape(best.shape)
    return int(counts) if counts.ndim == 0 else counts


def _rho(z: np.ndarray, c: complex) -> np.ndarray:
    """max(|z|, |c/z|) elementwise, which a gamma log series needs below 1."""
    mod = np.abs(z)
    return np.maximum(mod, abs(c) / mod)


def _shift_bases(p: complex, q: complex) -> tuple[complex, complex]:
    """{b, c} = {p, q} with |b| >= |c|, of the step Gamma(b x) = theta(x; c) Gamma(x)."""
    return (q, p) if abs(q) >= abs(p) else (p, q)


def _shift_steps(z: np.ndarray, p: complex, q: complex) -> tuple:
    """The elliptic gamma's shift of z: the np.nonzero index of _rho(z, pq)
    > _SHIFT_RHO, and the _shift_count in steps of b there (None if empty)."""
    far = np.nonzero(_rho(z, p * q) > _SHIFT_RHO)
    return far, (_shift_count(z[far], abs(p * q), abs(_shift_bases(p, q)[0])) if far[0].size else None)


def _series_powers(z: np.ndarray, c: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The power table of the gamma log series on |c| < |z_k| < 1 for the
    arguments z_k on the last axis of z: x^1 .. x^M for x = every z_k, then
    every c/z_k, from one cumprod along a new last axis. With it, per row
    of z, rho = max_k _rho(z_k, c) and the row's own length, the first
    order with rho^m below _SERIES_TAIL; M is the largest length."""
    rho = np.maximum.reduce(_rho(z, c), axis=-1)
    lengths = np.ceil(np.log(_SERIES_TAIL) / np.log(rho)).astype(int)
    bases = np.concatenate([z, c / z], axis=-1)
    table = np.cumprod(np.broadcast_to(bases[..., None], (*bases.shape, int(lengths.max()))), axis=-1)
    return table, rho, lengths


def _series_den(p: complex, q: complex, k: int, M: int) -> np.ndarray:
    """m (1 - p^m)(1 - q^m)^k, m = 1 .. M, the gamma log series' denominators
    (k = 1 for Gamma(z; p, q), 2 for Gamma(z; p, q, q)): a read-only prefix,
    bit for bit, of the table cached at the next power of two."""
    return _den_table(p, q, k, 1 << (M - 1).bit_length())[:M]


@functools.lru_cache(maxsize=32)
def _den_table(p: complex, q: complex, k: int, M: int) -> np.ndarray:
    pw = np.cumprod(np.broadcast_to(np.array([p, q], dtype=complex)[:, None], (2, M)), axis=1)
    den = np.arange(1, M + 1) * (1.0 - pw[0]) * (1.0 - pw[1]) ** k
    den.flags.writeable = False
    return den


def _pole_guard(zz: np.ndarray, p: complex, q: complex) -> None:
    """PoleError when some factor 1 - p^i q^j z of the gamma denominator is
    within POLE_EPS of 0, naming the first such (i, j) in row-major order and
    the first such z. Only |p^i q^j z| near 1 can vanish, so the (i, j) with
    |p^i q^j| max|z| above 1/2 are all that is checked."""
    near = zz[np.abs(zz) > 0.5]
    if not near.size:
        return
    top = float(np.max(np.abs(near)))

    def powers(b):  # b^0 .. b^n, the last with |b^n| top > 1/2
        return np.cumprod(np.r_[1.0, np.full(int(np.log(2 * top) / -np.log(abs(b))), b)])

    pi, qj = powers(p), powers(q)
    ii, jj = np.nonzero(np.abs(pi)[:, None] * np.abs(qj)[None, :] * top > 0.5)
    small = np.abs(1.0 - np.multiply.outer(pi[ii] * qj[jj], near)) < POLE_EPS
    if small.any():
        row = int(np.argmax(small.any(axis=1)))
        raise PoleError(complex(near[small[row]][0]), int(ii[row]), int(jj[row]))


def _series_exp(name: str, log: np.ndarray, p: complex, q: complex) -> np.ndarray:
    """exp of a gamma's log series; DomainError naming |p| and |q| where it
    leaves the float range (overflows, or underflows to 0)."""
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.exp(log)
    if not (np.isfinite(factor).all() and factor.all()):
        raise DomainError(f"{name} series factor leaves the float range at |p| = {abs(p):.9g}, |q| = {abs(q):.9g}")
    return factor


def elliptic_gamma(z, p: complex, q: complex):
    """Ruijsenaars gamma: (pq/z; p,q)_inf / (z; p,q)_inf.

    Raises PoleError when some 1 - p^i q^j z factor is within POLE_EPS of 0,
    naming the first such (i, j) in row-major order; the pole lattice has
    modulus >= 1, so arguments inside the unit disk are always safe.

    On |pq| < |z| < 1 its log is the series
    sum_{m>=1} (z^m - (pq/z)^m) / (m (1 - p^m)(1 - q^m)), summed for all
    arguments at once as one mat-vec of the _series_powers table and the
    _series_den denominators. An argument with rho above _SHIFT_RHO is
    first moved by s steps (_shift_steps) of Gamma(b x) = theta(x; c) Gamma(x):
    Gamma(z) = Gamma(b^s z) / prod_{0<=t<s} theta(b^t z; c) for s > 0, or
    Gamma(b^s z) prod_{s<=t<0} theta(b^t z; c) for s < 0. A shifted
    product that overflows, or an exp of the series that leaves the float
    range (_series_exp), raises DomainError.
    """
    zz, scalar = _gamma_argument(z)
    _pole_guard(zz, p, q)
    out = np.ones_like(zz)
    (far,), steps = _shift_steps(zz, p, q)
    if far.size:
        zz = zz.copy()
        b, c = _shift_bases(p, q)
        for t in range(min(steps.min(), 0), max(steps.max(), 0)):
            idx = far[steps > t] if t >= 0 else far[steps <= t]
            th = theta(b**t * zz[idx], c)
            with np.errstate(over="ignore", invalid="ignore"):
                out[idx] = moved = out[idx] / th if t >= 0 else out[idx] * th
            if not np.isfinite(moved).all():  # no later factor brings it back
                raise DomainError("elliptic gamma value overflows the float range")
        zz[far] *= b**steps
    pw = _series_powers(zz, p * q)[0]
    log = pw @ (1.0 / _series_den(p, q, 1, pw.shape[1]))
    out *= _series_exp("elliptic gamma", log[: zz.size] - log[zz.size :], p, q)
    return complex(out[0]) if scalar else out


def triple_gamma(z, p: complex, q: complex):
    """Entire triple gamma at equal second and third bases:
    Gamma(z; p, q, q) = (z; p,q,q)_inf (pq^2/z; p,q,q)_inf, the weighting of
    the pair products.

    On |pq^2| < |z| < 1 its log is the series
    -sum_{m>=1} (z^m + (pq^2/z)^m) / (m (1 - p^m)(1 - q^m)^2), summed as in
    elliptic_gamma. An argument with rho = max(|z|, |pq^2/z|) above
    _SHIFT_RHO is moved first: by the reflection Gamma(z) = Gamma(pq^2/z)
    when |z|^2 < |pq^2|, then by
    s steps of Gamma(z) = Gamma(q^s z) prod_{0<=t<s} 1/Gamma(q^t z; p, q),
    each 1/Gamma(y; p, q) = Gamma(pq/y; p, q) taken as
    theta(y; q) Gamma(q/y; p, q). That theta holds the factor 1 - y
    literally, so the zero at z = 1 is exact, and |q/y| < |q| / _SHIFT_RHO
    keeps the elliptic gamma off its pole at 1 for |q| < _SHIFT_RHO.

    A shifted product that overflows, or an exp of the series that leaves
    the float range (_series_exp), raises DomainError.
    """
    zz, scalar = _gamma_argument(z)
    pqq = p * q * q
    out = np.ones_like(zz)
    (far,) = np.nonzero(_rho(zz, pqq) > _SHIFT_RHO)
    if far.size:
        zz = zz.copy()
        with np.errstate(over="ignore"):  # an infinite square is not below |pq^2|
            inner = far[np.abs(zz[far]) ** 2 < abs(pqq)]
        zz[inner] = pqq / zz[inner]
        steps = _shift_count(zz[far], abs(pqq), abs(q))
        for t in range(steps.max()):
            idx = far[steps > t]
            y = q**t * zz[idx]
            th, g = theta(y, q), elliptic_gamma(q / y, p, q)
            with np.errstate(over="ignore", invalid="ignore"):
                out[idx] = moved = out[idx] * (th * g)
            if not np.isfinite(moved).all():
                raise DomainError("triple gamma value overflows the float range")
        zz[far] *= q**steps
    pw = _series_powers(zz, pqq)[0]
    log = pw @ (-1.0 / _series_den(p, q, 2, pw.shape[1]))
    out *= _series_exp("triple gamma", log[: zz.size] + log[zz.size :], p, q)
    return complex(out[0]) if scalar else out


def theta_pochhammer(z, K: int, p: complex, q: complex) -> np.ndarray:
    """Table of theta-Pochhammer products: out[..., k] is
    theta(z; p) theta(qz; p) ... theta(q^{k-1} z; p) for every z and every
    order k = 0..K, shaped z.shape + (K + 1,).

    One array theta call over all z q^j (j < K), each formed by repeated
    multiplication by q, then a running product along j. The array theta
    truncates at the batch's largest modulus, so an entry can differ from a
    product of scalar thetas in the last bits."""
    if K < 0:
        raise ValueError("nonnegative order required")
    zz = np.asarray(z, dtype=complex)
    out = np.ones(zz.shape + (K + 1,), dtype=complex)
    if K and zz.size:
        steps = np.full(zz.shape + (K,), complex(q))
        steps[..., 0] = zz
        args = np.cumprod(steps, axis=-1)
        out[..., 1:] = np.cumprod(theta(args.reshape(-1), p).reshape(args.shape), axis=-1)
    return out


def bracket_scaled_many(zetas: Sequence[complex], params: EllipticParams) -> list[Scaled]:
    """Odd quasi-periodic bracket e(-zeta/2) theta(e(zeta); p) at every zeta
    of zetas, each a Scaled, from one array theta call.

    One step takes each zeta into the strip |Im(z)/Im(varpi)| <= 1/2, where
    |e(z)| lies in [sqrt|p|, 1/sqrt|p|]: z = zeta - n varpi,
    n = round(Im(zeta)/Im(varpi)) (0 in the strip), and
    [z + n varpi] = (-1)^n e(w) [z], w = -n z - n^2 varpi/2, with |e(w)|
    taken as 2^k times a remainder. Every entry is reduced before theta is
    called, so the first non-finite zeta, or the first past 2^52 periods
    (where the float n varpi is spaced wider than varpi and z keeps no
    correct digit), raises DomainError first. The array theta truncates at
    the batch's largest modulus, so an entry can differ from the bracket of
    that zeta alone in the last bits; a batch of one is that bracket. One
    pass reduces every zeta, one array theta call follows, one pass makes
    the values.
    """
    varpi = params.varpi
    vi = varpi.imag
    zs, ns, us = [], [], []
    for zeta in zetas:
        z = complex(zeta)
        if not cmath.isfinite(z):
            raise DomainError(f"bracket argument {zeta!r} is not finite")
        b = z.imag / vi
        if abs(b) > 2.0**52:
            raise DomainError(f"bracket argument {zeta!r} lies {b:.3g} periods out, past 2^52")
        n = round(b) if abs(b) > 0.5 + 1e-12 else 0
        z = z - n * varpi
        zs.append(z)
        ns.append(n)
        us.append(cmath.exp(TWO_PI_I * z))  # e(z), inline on this hot path
    if not zs:
        return []
    out = []
    for z, n, th in zip(zs, ns, theta(us, params.p).tolist()):
        body = cmath.exp(TWO_PI_I * (-z / 2)) * th  # e(-z/2), inline
        if not n:
            out.append(Scaled(body, 0))
            continue
        w = -n * z - n * n * varpi / 2
        k = round(-2.0 * math.pi * w.imag / LN2)
        out.append(Scaled((-1) ** n * cmath.exp(TWO_PI_I * w - k * LN2) * body, k))
    return out


def bracket(zeta: complex, params: EllipticParams) -> complex:
    """The bracket at zeta, bracket_scaled_many of one recombined: a complex
    number, infinite where that overflows."""
    return complex(bracket_scaled_many([zeta], params)[0])


def bracket_pm(x: complex, y: complex, params: EllipticParams) -> complex:
    """[x + y][x - y], the two-factor abbreviation, from one batch of two."""
    plus, minus = bracket_scaled_many([x + y, x - y], params)
    return complex(plus) * complex(minus)


def three_term_residual(
    z: complex,
    alpha: complex,
    beta: complex,
    gamma: complex,
    params: EllipticParams | None = None,
    fn: Callable[[complex], complex] | None = None,
) -> Residual:
    """Normalized residual of the fundamental three-term relation.

    Evaluates [b±c][z±a] + [c±a][z±b] + [a±b][z±c] with the elliptic bracket,
    its twelve values from one bracket_scaled_many batch (or with any
    supplied odd function fn), and divides by the largest term.
    """
    args = [w for x, y in ((beta, gamma), (z, alpha), (gamma, alpha), (z, beta), (alpha, beta), (z, gamma))
            for w in (x + y, x - y)]
    if fn is None:
        if params is None:
            raise ValueError("need params for the elliptic bracket")
        vals = [complex(v) for v in bracket_scaled_many(args, params)]
    else:
        vals = [fn(w) for w in args]
    pm = [vals[2 * k] * vals[2 * k + 1] for k in range(6)]
    return normalized_residual([(pm[0], pm[1]), (pm[2], pm[3]), (pm[4], pm[5])])


def v12_11(a0: complex, a: Sequence[complex], q: complex, p: complex, N: int) -> complex:
    """Terminating very well-poised series in eight parameters, summed over
    k = 0..N.

    a supplies a_1..a_7. The caller states the order N at which some a_i
    (i = 0..7) lies in p^Z q^{-N}, so that every later term vanishes; it is
    not checked here.

    Every factor comes from one theta_pochhammer table: the eight upper rows
    a_i, the eight lower rows q a_0 / a_i, and the rows q^{2k} a_0, whose
    first column is the lead theta of term k.
    """
    if len(a) != 7:
        raise ValueError("need exactly seven upper parameters")
    all_a = [complex(a0), *map(complex, a)]
    lower = [q * a0 / ai for ai in all_a]
    leads = [q ** (2 * k) * a0 for k in range(N + 1)]
    table = theta_pochhammer(all_a + lower + leads, max(N, 1), p, q)
    num, den, lead = table[:8, : N + 1], table[8:16, : N + 1], table[16:, 1].tolist()
    if np.any(np.abs(den) < 1e-250):
        raise ZeroDivisionError("vanishing lower factor in series term")
    term = np.array([lead[k] / lead[0] * q**k for k in range(N + 1)])
    for i in range(8):
        term *= num[i] / den[i]
    return complex(np.cumsum(term)[-1])
