"""Contour quadrature for the one- and multi-dimensional elliptic beta
integrals, with their transformation, contiguity, and terminating-series
identities as residual checks.

All integrals run over the positively oriented unit circle with uniform
trapezoidal nodes; parameters must keep the pole sets strictly inside/outside,
which is guaranteed by 0 < |u_k| < 1.
"""
from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
from dataclasses import dataclass
from math import factorial, prod

import numpy as np

from .specialfn import TRUNC_TOL, EllipticParams, elliptic_gamma, qpoch, theta, triple_gamma, v12_11
from .util import AdmissibilityError, ConvergenceError, Residual, normalized_residual

QUAD_TOL = 1e-11
_START_NODES = 256
_CAPS = {1: 4096, 2: 1024, 3: 1024}


@dataclass(frozen=True)
class IntegrandContext:
    """Eight integral parameters, bases and multiplicity."""

    u: tuple[complex, ...]
    params: EllipticParams
    n: int = 1

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(complex(v) for v in self.u))
        if len(self.u) != 8:
            raise ValueError("need exactly eight parameters")
        if self.n < 0:
            raise ValueError("multiplicity must be nonnegative")

    def with_u(self, u) -> "IntegrandContext":
        return dataclasses.replace(self, u=tuple(complex(v) for v in u))

    def check_admissible(self) -> None:
        for k, uk in enumerate(self.u):
            if not 0.0 < abs(uk) < 1.0:
                raise AdmissibilityError(f"|u_{k}| = {abs(uk):.6f} is not in (0, 1)")
        # Genericity u_k u_l not in p^-N q^-N: with every |u_k| < 1 the only
        # reachable lattice point is 1, so a pair product near 1 pinches C.
        for k, l in itertools.combinations(range(8), 2):
            if abs(self.u[k] * self.u[l] - 1.0) < 1e-12:
                raise AdmissibilityError(f"u_{k} u_{l} within 1e-12 of 1")


def integrand_H(z, ctx: IntegrandContext):
    """Integrand: product of Gamma(u_k z^{+-1}) over Gamma(z^{+-2}).

    The reciprocal of the denominator is expanded into two theta factors, so
    only the eight numerator gamma evaluations remain.
    """
    p, q = ctx.params.p, ctx.params.q
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    out = -(zz**-2) * theta(zz**2, p) * theta(zz**2, q)
    for uk in ctx.u:
        out = out * elliptic_gamma(uk * zz, p, q) * elliptic_gamma(uk / zz, p, q)
    return complex(out[0]) if np.asarray(z).ndim == 0 else out


@dataclass(frozen=True, eq=False)
class _Plan:
    """Node tables that depend only on (p, q, N), shared read-only
    by every integral on those bases."""

    zs: np.ndarray  # the N-th roots of unity z_m
    rev: np.ndarray  # index of 1/z_m
    weight: np.ndarray  # -z^-2 theta(z^2; p) theta(z^2; q) at the nodes
    pref: complex  # (p;p)(q;q)
    # the cross factor theta(z^{+-1} w^{+-1}; p) as sum_{a,b} C[a,b] z^a w^b
    # over |a|, |b| <= 2K, the FFT bin of z^a at [a], and of z^(a+b) at [b, a]
    cross_c: np.ndarray
    cross_a: np.ndarray
    cross_ab: np.ndarray


def _jacobi_pair_coeffs(p: complex, pp: complex) -> np.ndarray:
    """Laurent coefficients c_{-K..K} of theta(z; p) theta(1/z; p).

    By the Jacobi triple product theta(z; p) = sum_n a_n z^n with
    a_n = (-1)^n p^{n(n-1)/2} / (p;p) (pp is (p;p)), so c_k = sum_n a_{n+k} a_n.
    a_n is kept on 1 - L <= n <= L, where |p|^{L(L-1)/2} < TRUNC_TOL, and c_k
    is cut where |c_k| < TRUNC_TOL * max |c|.
    """
    L = 1
    while abs(p) ** (L * (L - 1) / 2) >= TRUNC_TOL:
        L += 1
    n = np.arange(1 - L, L + 1)
    a = (-1.0) ** n * p ** (n * (n - 1) // 2) / pp
    c = np.convolve(a, a[::-1])  # symmetric, c_0 at index 2L - 1
    K = 2 * L - 1 - int(np.argmax(np.abs(c) >= TRUNC_TOL * np.abs(c).max()))
    return c[2 * L - 1 - K : 2 * L + K]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=32)
def _plan(p: complex, q: complex, N: int) -> _Plan:
    m = np.arange(N)
    zs = np.exp(2j * np.pi * m / N)
    pp, qq = qpoch(p, p), qpoch(q, q)
    c = _jacobi_pair_coeffs(p, pp)
    K = c.size // 2
    k, l = np.meshgrid(np.arange(-K, K + 1), np.arange(-K, K + 1), indexing="ij")
    # (k, l) -> (k + l, k - l) is one to one, so no entry is written twice
    C = np.zeros((4 * K + 1, 4 * K + 1), dtype=complex)
    C[k + l + 2 * K, k - l + 2 * K] = np.outer(c, c)
    a = np.arange(-2 * K, 2 * K + 1)
    return _Plan(
        zs=_frozen(zs),
        rev=_frozen((-m) % N),
        weight=_frozen(-(zs**-2) * theta(zs**2, p) * theta(zs**2, q)),
        pref=pp * qq,
        cross_c=_frozen(C),
        # sum_m h_m z_m^j is bin -j of the FFT
        cross_a=_frozen(-a % N),
        cross_ab=_frozen(-(a[:, None] + a[None, :]) % N),
    )


def _plan_for(params: EllipticParams, N: int) -> _Plan:
    """The plan of params' bases at N nodes; the third base r plays no part."""
    return _plan(params.p, params.q, N)


# The folded log-series diverges at rho_k = max(|u_k|, |pq/u_k|) >= 1 and
# needs thousands of terms just below 1. A parameter with rho_k above
# _SHIFT_RHO is first moved towards |pq|^(1/2) by the difference equation of
# the gamma function, at the cost of one theta evaluation over the nodes per
# step; after it rho_k <= max(_SHIFT_RHO, |c|^(1/2)) < 1, with c the smaller
# base.
_SHIFT_RHO = 0.95
_SERIES_TAIL = 1e-17


def _shift_count(mod: float, pq_mod: float, b_mod: float) -> int:
    """Fewest steps s, of either sign, with rho(|u| |b|^s) <= _SHIFT_RHO for a
    parameter of modulus mod, or the s of least rho when none reaches it; 0
    when rho is already there. rho falls monotonically from s = 0 towards
    the best s, where |u| |b|^s is nearest to |pq|^(1/2)."""
    best = round(np.log(mod / np.sqrt(pq_mod)) / -np.log(b_mod))
    step = 1 if best > 0 else -1
    for s in range(0, best, step):
        x = mod * b_mod**s
        if max(x, pq_mod / x) <= _SHIFT_RHO:
            return s
    return best


def _node_integrand(ctx: IntegrandContext, N: int) -> np.ndarray:
    """Integrand values at the N-th roots of unity plan.zs.

    On |pq| < |u_k z^{+-1}| < 1 the gamma pair of parameter u_k has the log
    series sum_{m>=1} c_m (z^m + z^-m) with
    c_m = (u_k^m - (pq/u_k)^m) / (m (1 - p^m)(1 - q^m)). A parameter whose
    rho_k exceeds _SHIFT_RHO is first replaced by u_k b^s with
    Gamma(b x) = theta(x; c) Gamma(x), {b, c} = {p, q} and |b| >= |c|: the
    pair gains 1 / prod_{0<=t<s} theta(b^t u_k z^{+-1}; c) for s > 0, or
    prod_{s<=t<0} theta(b^t u_k z^{+-1}; c) for s < 0. The series of all
    eight parameters are then summed, cut where rho^M is below _SERIES_TAIL,
    and folded mod N, so one FFT pair gives every node. The values are a
    fresh array, since every parameter multiplies into the plan's read-only
    weight.
    """
    p, q = ctx.params.p, ctx.params.q
    pq = p * q
    plan = _plan_for(ctx.params, N)
    zs, rev = plan.zs, plan.rev
    vals = plan.weight
    u = np.array(ctx.u)
    rho = np.maximum(np.abs(u), abs(pq) / np.abs(u))
    b, c = (q, p) if abs(q) >= abs(p) else (p, q)
    for i in np.flatnonzero(rho > _SHIFT_RHO):
        s = _shift_count(abs(u[i]), abs(pq), abs(b))
        for t in range(min(s, 0), max(s, 0)):
            th = theta(u[i] * b**t * zs, c)
            vals = vals / (th * th[rev]) if s > 0 else vals * (th * th[rev])
        u[i] = u[i] * b**s
    rho = np.maximum(np.abs(u), abs(pq) / np.abs(u))
    M = int(np.ceil(np.log(_SERIES_TAIL) / np.log(rho.max())))
    k = u.size
    # row-wise powers b^1 .. b^M of the bases u_k, pq/u_k, p and q
    bases = np.concatenate([u, pq / u, [p, q]])
    pw = np.cumprod(np.repeat(bases[:, None], M, axis=1), axis=1)
    cm = np.zeros(-(-(M + 1) // N) * N, dtype=complex)
    cm[1 : M + 1] = (pw[:k].sum(axis=0) - pw[k : 2 * k].sum(axis=0)) / (
        np.arange(1, M + 1) * (1.0 - pw[-2]) * (1.0 - pw[-1])
    )
    a = cm.reshape(-1, N).sum(axis=0)
    return vals * np.exp(N * np.fft.ifft(a) + np.fft.fft(a))


def _quad(ctx: IntegrandContext, N: int) -> complex:
    """The tensor trapezoid rule of multiplicity ctx.n (1, 2 or 3) at N
    nodes per circle, with no convergence test."""
    n = ctx.n
    plan = _plan_for(ctx.params, N)
    h = _node_integrand(ctx, N)
    scale = plan.pref**n / (2**n * factorial(n) * N**n)
    if n == 1:
        return scale * complex(np.sum(h))
    # with each cross factor F(z, w) = sum C[a,b] z^a w^b and S(j) the FFT
    # bin sum_m h_m z_m^j, the N^2 node sum is sum C[a,b] S(a) S(b) = s C s
    # with s[a] = S(a), and the N^3 node sum is
    # sum C[a1,b1] S(b1+a2) C[a2,b2] S(b2+a3) C[a3,b3] S(b3+a1) = tr((C A)^3)
    # with A[b,a] = S(a+b)
    H = np.fft.fft(h)
    if n == 2:
        s = H[plan.cross_a]
        return scale * complex(s @ plan.cross_c @ s)
    M = plan.cross_c @ H[plan.cross_ab]
    return scale * complex(np.sum(M * (M @ M).T))


def I(ctx: IntegrandContext, quad_tol: float = QUAD_TOL) -> complex:
    """One-dimensional integral: I_n at multiplicity 1."""
    return I_n(dataclasses.replace(ctx, n=1), quad_tol=quad_tol)


def I_n(ctx: IntegrandContext, quad_tol: float = QUAD_TOL) -> complex:
    """n-dimensional tensor quadrature with the 2^n n! normalization: the
    trapezoid rule from _START_NODES nodes per circle, doubled up to the cap
    of multiplicity n until two successive values agree to quad_tol, and
    ConvergenceError when they never do."""
    if ctx.n == 0:
        return 1.0 + 0j
    if ctx.n not in _CAPS:
        raise ValueError("multiplicity above 3 is out of scope")
    ctx.check_admissible()
    cap = _CAPS[ctx.n]
    N = _START_NODES
    last = previous = _quad(ctx, N)
    while 2 * N <= cap:
        N *= 2
        previous, last = last, _quad(ctx, N)
        if abs(last - previous) <= quad_tol * max(abs(last), 1e-300):
            return last
    raise ConvergenceError(
        f"node cap {cap} reached before stabilizing", last, previous,
        u=ctx.u, p=ctx.params.p, q=ctx.params.q, n=ctx.n, cap=cap,
    )


def _theta_pm(a: complex, b: complex, p: complex) -> complex:
    return theta(a * b, p) * theta(a / b, p)


def contiguity_residual(
    ctx: IntegrandContext,
    i: int,
    j: int,
    k: int,
    quad_tol: float = QUAD_TOL,
) -> Residual:
    """Residual of the three-term contiguity relation in the q-shifts."""
    if len({i, j, k}) != 3:
        raise ValueError("need three distinct indices")
    u = list(ctx.u)
    p, q = ctx.params.p, ctx.params.q

    def shifted(idx: int) -> complex:
        v = list(u)
        v[idx] = q * v[idx]
        return I(ctx.with_u(v), quad_tol=quad_tol)

    Ii, Ij, Ik = shifted(i), shifted(j), shifted(k)
    return normalized_residual([
        u[k] * _theta_pm(u[j], u[k], p) * Ii,
        u[i] * _theta_pm(u[k], u[i], p) * Ij,
        u[j] * _theta_pm(u[i], u[j], p) * Ik,
    ])


def _check_balancing(u, target: complex, what: str) -> None:
    if abs(prod(u) - target) > 1e-12 * abs(target):
        raise ValueError(f"balancing violated: product of parameters != {what}")


def _tilde(u, s: complex):
    b1 = u[0] * u[1] * u[2] * u[3]
    b2 = u[4] * u[5] * u[6] * u[7]
    s1, s2 = cmath.sqrt(s / b1), cmath.sqrt(s / b2)
    return tuple(u[i] * (s1 if i < 4 else s2) for i in range(8))


def bailey_residual(
    ctx: IntegrandContext, which: str = "tilde", quad_tol: float = QUAD_TOL
) -> Residual:
    """Relative error of the two transformation formulas for the 1D integral
    (the tilde and hat reflections): In_transform_residual at n = 1, where
    the pair ratio Gamma(q z; p, q, q) / Gamma(z; p, q, q) is Gamma(z; p, q)."""
    if which not in ("tilde", "hat"):
        raise ValueError("which must be 'tilde' or 'hat'")
    return In_transform_residual(dataclasses.replace(ctx, n=1), which + "_n", quad_tol=quad_tol)


_PAIRS = np.triu_indices(8, 1)
# Pairs whose two indices share a coordinate block, 0..3 or 4..7.
_SAME_BLOCK = (_PAIRS[0] < 4) == (_PAIRS[1] < 4)


def _pair_gamma(u, params: EllipticParams, scale=1.0) -> complex:
    """Product over pairs i<j of triple_gamma(scale_ij u_i u_j; p, q) from
    one vectorized call; scale is one number or one per pair in
    np.triu_indices(8, 1) order."""
    u = np.asarray(u, dtype=complex)
    i, j = _PAIRS
    vals = triple_gamma(np.asarray(scale) * u[i] * u[j], params.p, params.q)
    return complex(np.prod(vals))


def In_transform_residual(
    ctx: IntegrandContext, which: str = "tilde_n", quad_tol: float = QUAD_TOL
) -> Residual:
    """Relative error of the multiplicity-n transformation formulas."""
    n, t = ctx.n, ctx.u
    if n > 2:
        raise ValueError("transforms are checked for multiplicity at most 2")
    p, q = ctx.params.p, ctx.params.q
    _check_balancing(t, p**2 * q ** (4 - 2 * n), "p^2 q^{4-2n}")
    s = p * q ** (2 - n)
    if which == "tilde_n":
        image = _tilde(t, s)
        pairs = _SAME_BLOCK
    elif which == "hat_n":
        root = cmath.sqrt(s)
        image = tuple(root / v for v in t)
        pairs = slice(None)
    else:
        raise ValueError("which must be 'tilde_n' or 'hat_n'")
    i, j = _PAIRS
    tt = (np.asarray(t)[i] * np.asarray(t)[j])[pairs]
    shifted = triple_gamma(q**n * tt, p, q)
    ratio = complex(np.prod(shifted / triple_gamma(tt, p, q)))
    lhs = I_n(ctx, quad_tol=quad_tol)
    rhs = I_n(ctx.with_u(image), quad_tol=quad_tol) * ratio
    return Residual(abs(lhs - rhs) / abs(lhs))


def terminating_eval(u, params: EllipticParams, N: int) -> complex:
    """Closed form of I(p u_0, u_1, ..., u_6, p u_7) as a terminating series.

    The parameters must multiply to q^2 and satisfy one of the termination
    conditions q/u_0 u_i = q^{-N} (i in 1..6) or q/u_0 u_7 = p q^{-N}.
    """
    u = tuple(complex(v) for v in u)
    if len(u) != 8:
        raise ValueError("need exactly eight parameters")
    p, q = params.p, params.q
    _check_balancing(u, q**2, "q^2")
    ok = any(abs(q / (u[0] * u[i]) - q**-N) < 1e-9 * abs(q**-N) for i in range(1, 7))
    ok = ok or abs(q / (u[0] * u[7]) - p * q**-N) < 1e-9 * abs(p * q**-N)
    if not ok:
        raise ValueError("no parameter satisfies the termination condition")
    pref = 1.0 + 0j
    for a, b in itertools.combinations(range(1, 7), 2):
        pref *= elliptic_gamma(u[a] * u[b], p, q)
    pref *= elliptic_gamma(q**2 / u[0] ** 2, p, q) * elliptic_gamma(u[0] / u[7], p, q)
    for k in range(1, 7):
        pref /= elliptic_gamma(q * u[k] / u[0], p, q) * elliptic_gamma(q / (u[k] * u[7]), p, q)
    series = v12_11(q / u[0] ** 2, [q / (u[0] * u[i]) for i in range(1, 8)], q, p, N)
    return pref * series
