"""Contour quadrature for the one- and multi-dimensional elliptic beta
integrals, with their transformation, contiguity, and terminating-series
identities as residual checks.

All integrals run over the positively oriented unit circle with uniform
trapezoidal nodes; parameters must keep the pole sets strictly inside/outside,
which is guaranteed by 0 < |u_k| < 1.

Every pass estimates its own trapezoid error. The sampled integrand is the
node weight times exp of a finite Laurent series, analytic on C* unless a
shift factor puts poles in it, so Cauchy's estimate on an annulus bounds each
aliased Fourier coefficient (Trefethen & Weideman, "The exponentially
convergent trapezoidal rule", SIAM Rev. 56 (2014)); a rounding estimate from
the size of the node sum is added. A value whose estimate is within quad_tol
is certified after that pass; the others double their nodes until two
successive values agree.
"""
from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from math import factorial, prod
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .specialfn import (
    TRUNC_TOL,
    EllipticParams,
    _series_den,
    _series_powers,
    _shift_bases,
    _shift_steps,
    elliptic_gamma,
    qpoch,
    theta,
    triple_gamma,
    v12_11,
)
from .util import AdmissibilityError, ConvergenceError, DomainError, Residual, normalized_residual

QUAD_TOL = 1e-11
_START_NODES = 256
_NODE_CAP = 4096
# The top multiplicity: _quad_rows contracts an n = 3 node sum as the
# three-cycle trace tr((C A)^3), and has no contraction above it.
N_MAX = 3


@dataclass(frozen=True)
class IntegrandContext:
    """Eight integral parameters, bases and multiplicity."""

    u: tuple[complex, ...]
    params: EllipticParams
    n: int = 1

    def __post_init__(self):
        # a tuple of Python complex, such as another context's u, is kept
        if type(self.u) is not tuple or not all(type(v) is complex for v in self.u):
            object.__setattr__(self, "u", tuple(map(complex, self.u)))
        if len(self.u) != 8:
            raise ValueError("need exactly eight parameters")
        if self.n < 0:
            raise ValueError("multiplicity must be nonnegative")
        if self.n > N_MAX:
            raise ValueError(f"multiplicity above {N_MAX} is out of scope")

    def with_u(self, u) -> "IntegrandContext":
        return IntegrandContext(u, self.params, self.n)

    def check_admissible(self) -> None:
        mods = [abs(uk) for uk in self.u]
        for k, m in enumerate(mods):
            if not 0.0 < m < 1.0:
                raise AdmissibilityError(f"|u_{k}| = {m:.6f} is not in (0, 1)")
        # Genericity u_k u_l not in p^-N q^-N: with every |u_k| < 1 the only
        # reachable lattice point is 1, so a pair product near 1 pinches C;
        # that needs |u_k| |u_l| above 1 - 1e-12, so below 1 - 1e-9 none can.
        top, second = sorted(mods)[-2:][::-1]
        if top * second < 1.0 - 1e-9:
            return
        for k, l in itertools.combinations(range(8), 2):
            if abs(self.u[k] * self.u[l] - 1.0) < 1e-12:
                raise AdmissibilityError(f"u_{k} u_{l} within 1e-12 of 1")


@dataclass(frozen=True, eq=False)
class _Plan:
    """Node tables that depend only on (p, q, N), shared read-only
    by every integral on those bases."""

    zs: np.ndarray  # the N-th roots of unity z_m
    rev: np.ndarray  # index of 1/z_m
    weight: np.ndarray  # -z^-2 theta(z^2; p) theta(z^2; q) at the nodes
    pref: complex  # (p;p)(q;q)
    # per multiplicity n = 0..N_MAX, the scale pref^n / (2^n n! N^n) of an
    # N^n-node sum, and |pref|^n / (2^n n!) of the error bound
    scales: tuple
    bound_scales: tuple
    # the cross factor theta(z^{+-1} w^{+-1}; p) as sum_{a,b} C[a,b] z^a w^b
    # over |a|, |b| <= 2K (_cross_table, shared by the plans of one p), the
    # FFT bin of z^a at [a], and of z^(a+b) at [b, a]
    cross_c: np.ndarray
    cross_a: np.ndarray
    cross_ab: np.ndarray


def _jacobi_pair_coeffs(p: complex, pp: complex) -> np.ndarray:
    """Laurent coefficients c_{-K..K} of theta(z; p) theta(1/z; p).

    By the Jacobi triple product theta(z; p) = sum_n a_n z^n with
    a_n = (-1)^n p^{n(n-1)/2} / (p;p) (pp is (p;p)), so c_k = sum_n a_{n+k} a_n.
    a_n is kept on 1 - L <= n <= L, where |p|^{L(L-1)/2} < TRUNC_TOL, and c_k
    is cut where |c_k| < TRUNC_TOL * max |c|. DomainError where (p;p) has
    underflowed, or a c_k squared leaves the float range (from |p| near 0.991).
    """
    L = 1
    while abs(p) ** (L * (L - 1) / 2) >= TRUNC_TOL:
        L += 1
    n = np.arange(1 - L, L + 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = (-1.0) ** n * p ** (n * (n - 1) // 2) / pp
        c = np.convolve(a, a[::-1])  # symmetric, c_0 at index 2L - 1
    # _plan multiplies them in pairs, so their squares must be finite too
    top = float(np.abs(c).max())
    if not top * top < math.inf:
        raise DomainError(f"theta pair coefficients leave the float range at |p| = {abs(p):.9g}")
    K = 2 * L - 1 - int(np.argmax(np.abs(c) >= TRUNC_TOL * top))
    return c[2 * L - 1 - K : 2 * L + K]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=8)
def _cross_table(p: complex) -> np.ndarray:
    """The cross factor theta(z^{+-1} w^{+-1}; p) as sum_{a,b} C[a,b] z^a w^b
    over |a|, |b| <= 2K: one read-only table per nome, shared by every plan
    on it, whatever its q and N."""
    c = _jacobi_pair_coeffs(p, qpoch(p, p))
    K = c.size // 2
    k, l = np.meshgrid(np.arange(-K, K + 1), np.arange(-K, K + 1), indexing="ij")
    # (k, l) -> (k + l, k - l) is one to one, so no entry is written twice
    C = np.zeros((4 * K + 1, 4 * K + 1), dtype=complex)
    C[k + l + 2 * K, k - l + 2 * K] = np.outer(c, c)
    return _frozen(C)


@functools.lru_cache(maxsize=32)
def _plan(p: complex, q: complex, N: int) -> _Plan:
    m = np.arange(N)
    zs = np.exp(2j * np.pi * m / N)
    pp, qq = qpoch(p, p), qpoch(q, q)
    C = _cross_table(p)
    K = C.shape[0] // 4
    a = np.arange(-2 * K, 2 * K + 1)
    pref = pp * qq
    return _Plan(
        zs=_frozen(zs),
        rev=_frozen((-m) % N),
        weight=_frozen(-(zs**-2) * theta(zs**2, p) * theta(zs**2, q)),
        pref=pref,
        scales=tuple(pref**n / (2**n * factorial(n) * N**n) for n in range(N_MAX + 1)),
        bound_scales=tuple(abs(pref) ** n / (2**n * factorial(n)) for n in range(N_MAX + 1)),
        cross_c=C,
        # sum_m h_m z_m^j is bin -j of the FFT; bin -(a + b) at [a, b] is a
        # read-only Hankel view of the 8K + 1 bins of -4K..4K
        cross_a=_frozen(-a % N),
        cross_ab=sliding_window_view(-np.arange(-4 * K, 4 * K + 1) % N, 4 * K + 1),
    )


def _plan_for(params: EllipticParams, N: int) -> _Plan:
    """The plan of params' bases at N nodes; the third base r plays no part."""
    return _plan(params.p, params.q, N)


@dataclass(frozen=True, eq=False)
class _Rows:
    """Integrals on one pair of bases, one row each, each of its own
    multiplicity 1, 2 or 3: the parts of their node integrands that do not
    depend on the node count."""

    params: EllipticParams
    n: tuple  # per row, its multiplicity
    coef: np.ndarray  # (B, M + 1) log-series coefficients c_0 = 0, c_1 .. c_M
    shifts: tuple  # per row, the (u_k, s) of each shifted parameter
    rho: np.ndarray  # (B,) per row, the largest rho_k after the shifts

    def take(self, keep: list[int]) -> "_Rows":
        return _Rows(
            self.params,
            tuple(self.n[j] for j in keep),
            self.coef[keep],
            tuple(self.shifts[j] for j in keep),
            self.rho[keep],
        )


def _rows(ctxs: Sequence[IntegrandContext]) -> _Rows:
    """The node-count-free parts of the node integrands of ctxs: per row,
    the elliptic_gamma series of the pairs Gamma(u_k z^{+-1}) after its
    shift, as coefficients of z^m + z^-m to the row's own length (zero past
    it), and the shifts, whose factors _node_rows takes at the nodes."""
    params = ctxs[0].params
    p, q = params.p, params.q
    u = np.array([c.u for c in ctxs])
    shifts = [[] for _ in ctxs]
    (rows, cols), counts = _shift_steps(u, p, q)
    if rows.size:
        b = _shift_bases(p, q)[0]
        for r, k, s in zip(rows.tolist(), cols.tolist(), counts.tolist()):
            shifts[r].append((u[r, k], s))
            u[r, k] = u[r, k] * b**s
    pw, rho, lengths = _series_powers(u, p * q)
    M = pw.shape[2]
    coef = np.zeros((len(ctxs), M + 1), dtype=complex)
    coef[:, 1:] = (pw[:, :8].sum(axis=1) - pw[:, 8:].sum(axis=1)) / _series_den(p, q, 1, M)
    for r, m in enumerate(lengths.tolist()):
        coef[r, m + 1 :] = 0.0
    return _Rows(params, tuple(c.n for c in ctxs), coef, tuple(shifts), rho)


def _node_rows(rows: _Rows, N: int) -> np.ndarray:
    """Integrand values of every row at the N-th roots of unity plan.zs,
    one row each: the coefficients folded mod N, so one batched FFT pair
    gives every node, times the plan's weight and each row's shift factors.
    The values are a fresh array, with no numpy warning: a node value that
    leaves the float range is inf or nan there, which _quad_rows refuses,
    and a shift factor's theta pair that does raises _range_error."""
    plan = _plan_for(rows.params, N)
    zs, rev = plan.zs, plan.rev
    b, c = _shift_bases(rows.params.p, rows.params.q)
    # per row, each shift factor's theta and whether it divides; theta runs
    # outside np.errstate, under which every ufunc call pays for the
    # non-default state
    thetas = [
        [(theta(uk * b**t * zs, c), s > 0) for uk, s in shifts for t in range(min(s, 0), max(s, 0))]
        for shifts in rows.shifts
    ]
    B, width = rows.coef.shape
    a = np.zeros((B, -(-width // N) * N), dtype=complex)
    a[:, :width] = rows.coef
    a = a.reshape(B, -1, N).sum(axis=1)
    a = N * np.fft.ifft(a) + np.fft.fft(a)
    vals, finite = [], True
    with np.errstate(over="ignore", invalid="ignore"):
        for row in thetas:
            v = plan.weight
            for th, divides in row:
                pair = th * th[rev]
                if divides:  # a pair out of range would leave 0, not inf or nan
                    finite = finite and bool(np.isfinite(pair).all())
                    v = v / pair
                else:
                    v = v * pair
            vals.append(v)
        out = np.array(vals) * np.exp(a)
    if not finite:
        raise _range_error(rows.params)
    return out


def _range_error(params: EllipticParams) -> DomainError:
    """The error of node values, or of an n >= 2 node sum, out of the float
    range: the nodes of N are among those of 2N, so doubling cannot mend it."""
    p, q = abs(params.p), abs(params.q)
    return DomainError(f"integrand node values or node sums leave the float range at |p| = {p:.9g}, |q| = {q:.9g}")


def _quad_rows(rows: _Rows, N: int) -> tuple[list[complex], list[float]]:
    """The tensor trapezoid rule of every row at its multiplicity n (1, 2
    or 3) at N nodes per circle, with no convergence test, and each row's
    node-sum size: |scale| sum|h| G, where G is the l1 norm of the node
    sum's derivative in one FFT bin (1 at n = 1, sC at n = 2, and (CA)^2 C
    at n = 3, below). No value exceeds its size in modulus.

    One node table serves every row: the n = 1 rows sum their nodes, and
    the n >= 2 rows contract the FFT bins of theirs, under np.errstate. Node
    values or contractions out of the float range raise _range_error."""
    plan = _plan_for(rows.params, N)
    h = _node_rows(rows, N)
    abs_sums = np.abs(h).sum(axis=1).tolist()
    if not all(map(math.isfinite, abs_sums)):
        raise _range_error(rows.params)
    # the FFT bins of the n >= 2 rows, in row order
    multi = [j for j, n in enumerate(rows.n) if n > 1]
    bins = iter(np.fft.fft(h if len(multi) == len(h) else h[multi]) if multi else ())
    # with each cross factor F(z, w) = sum C[a,b] z^a w^b and S(j) the FFT
    # bin sum_m h_m z_m^j, the N^2 node sum is sum C[a,b] S(a) S(b) = s C s
    # with s[a] = S(a), and the N^3 node sum is
    # sum C[a1,b1] S(b1+a2) C[a2,b2] S(b2+a3) C[a3,b3] S(b3+a1) = tr((C A)^3)
    # with A[b,a] = S(a+b); each row contracts on its own, from its own
    # freshly gathered bins
    out, sizes = [], []
    for row, n, a in zip(h, rows.n, abs_sums):
        scale = plan.scales[n]
        if n == 1:
            out.append(scale * complex(np.sum(row)))
            sizes.append(abs(scale) * a)
            continue
        H = next(bins)
        with np.errstate(over="ignore", invalid="ignore"):
            if n == 2:
                s = H[plan.cross_a]
                sC = s @ plan.cross_c
                out.append(scale * complex(sC @ s))
                g = np.abs(sC).sum()
            else:
                M = plan.cross_c @ H[plan.cross_ab]
                MM = M @ M
                out.append(scale * complex(np.sum(M * MM.T)))
                g = np.abs(MM @ plan.cross_c).sum()
            sizes.append(abs(scale) * a * float(g))
        if not (cmath.isfinite(out[-1]) and math.isfinite(sizes[-1])):
            raise _range_error(rows.params)
    return out, sizes


def _log_theta_bound(a: float, x: float) -> float:
    """An upper bound on log A_a(x), x >= 1, where
    A_a(x) = prod_{i>=0} (1 + a^i x)(1 + a^(i+1) / x) bounds |theta(w; b)|
    on |w| = x for |b| = a: the factors i = 0 and 1 exactly, and the rest
    by log(1 + y) <= y."""
    return math.log((1.0 + x) * (1.0 + a * x) * (1.0 + a / x) * (1.0 + a * a / x)) + a * a * (x + a / x) / (1.0 - a)


# The rounding estimate, in units of a row's node-sum size (_quad_rows): a
# value is computed from FFT bins whose errors are a few eps of sum|h|.
_ROUNDING = 32 * float(np.finfo(float).eps)


def _error_bounds(rows: _Rows, N: int, sizes: list[float]) -> list[float]:
    """Per row, an estimate of |T_N - I| for the N-node tensor trapezoid
    value T_N of its sampled integrand at the row's own multiplicity n,
    with sizes its node-sum sizes at those nodes: an aliasing bound plus a
    rounding estimate.

    The aliasing bound is rigorous. The sampled integrand is the node
    weight times exp of a finite Laurent series, analytic on C*. With
    r = rho^(-3/4), inside the annulus where the untruncated series
    converges, h is bounded on |z| = r^(+-1) by
    M = r^2 A_p(r^2) A_q(r^2) exp(sum_m |c_m| (r^m + r^-m)), and each of
    the 4 C(n, 2) cross thetas by A_p(r^2); Cauchy's estimate then bounds
    every Fourier coefficient at a nonzero multiple of N, and their sum is
    |pref|^n / (2^n n!) M^n A_p(r^2)^(4 C(n, 2)) (((1 + x) / (1 - x))^n - 1)
    with x = r^-N.

    The rounding estimate is 32 eps of the node-sum size. It is not a
    proved bound: over seeded draws of every sampler the error of a value
    whose aliasing is negligible stays below 2 eps of its size. As the
    size is at least |T_N|, no row certifies below 32 eps.

    A row with shift factors gets no bound (inf). The factors of a
    parameter shifted by s > 0 are 1/theta(b^t u_k z^(+-1); c), with poles
    off the circle. Those of s < 0 are a product of theta(b^t u_k z^(+-1); c),
    analytic on C*: such a row has no extra poles, only factors the bound
    above does not include (every terminating-2 row has s = -1).
    """
    if all(rows.shifts):
        return [math.inf] * len(sizes)
    params = rows.params
    ap, aq = abs(params.p), abs(params.q)
    log_r = np.log(rows.rho) * -0.75
    # m log r stays near 30 up to a row's own length; past it c_m = 0, and
    # the clip keeps the longer rows' m from overflowing cosh there
    m = np.arange(rows.coef.shape[1])
    series = (np.abs(rows.coef) * np.cosh(np.minimum(np.multiply.outer(log_r, m), 700.0))).sum(axis=1)
    scales = _plan_for(params, N).bound_scales
    out = []
    for n, lr, s, size, shifted in zip(rows.n, log_r.tolist(), series.tolist(), sizes, rows.shifts):
        if shifted:
            out.append(math.inf)
            continue
        x = math.exp(max(-N * lr, -700.0))
        r2 = math.exp(2.0 * lr)
        a_p, a_q = _log_theta_bound(ap, r2), _log_theta_bound(aq, r2)
        log_alias = (
            n * (2.0 * (lr + s) + a_p + a_q)
            + 2 * n * (n - 1) * a_p
            + math.log(math.expm1(2 * n * math.atanh(x)))
        )
        out.append(scales[n] * math.exp(min(log_alias, 700.0)) + _ROUNDING * size)
    return out


def I(ctx: IntegrandContext, quad_tol: float = QUAD_TOL) -> complex:
    """One-dimensional integral: I_n at multiplicity 1."""
    return I_n(dataclasses.replace(ctx, n=1), quad_tol=quad_tol)


def I_n(ctx: IntegrandContext, quad_tol: float = QUAD_TOL) -> complex:
    """n-dimensional tensor quadrature with the 2^n n! normalization: I_n_many
    of the one context."""
    return I_n_many([ctx], quad_tol=quad_tol)[0]


def I_n_many(ctxs: Sequence[IntegrandContext], quad_tol: float = QUAD_TOL) -> list[complex]:
    """I_n of contexts that share their bases, each at its own multiplicity
    n (0 to N_MAX), as one batch: every value, or one error.

    An n = 0 row is 1. Every other context is checked for admissibility
    first, and the first that fails raises its AdmissibilityError. Then
    those rows run the trapezoid rule from _START_NODES nodes per circle,
    doubled up to _NODE_CAP. A row stops once two successive values agree
    to quad_tol, or after a pass whose _error_bounds entry is within
    quad_tol of its value (asked only while a row is left that the values
    do not stop); each pass evaluates the rows still running in one array
    pass, and a row leaves once it has stopped. After the pass at the cap,
    the first row still running, in batch order, raises its
    ConvergenceError. A row's values are bit for bit those of the batch of
    that row alone at the same node count, so its value or error is that of
    the row alone.
    """
    if not ctxs:
        return []
    p, q = ctxs[0].params.p, ctxs[0].params.q
    if any((c.params.p, c.params.q) != (p, q) for c in ctxs):
        raise ValueError("a batch of integrals shares its bases")
    out: list = [None if c.n else 1.0 + 0j for c in ctxs]
    live = [r for r, c in enumerate(ctxs) if c.n]
    for r in live:
        ctxs[r].check_admissible()
    if not live:
        return out
    N = _START_NODES
    rows = _rows([ctxs[r] for r in live])
    previous = None
    while True:
        last, sizes = _quad_rows(rows, N)
        tols = [quad_tol * max(abs(a), 1e-300) for a in last]
        done = [False] * len(live)
        if previous is not None:
            done = [abs(a - b) <= t for a, b, t in zip(last, previous, tols)]
        if not all(done):
            done = [d or e <= t for d, e, t in zip(done, _error_bounds(rows, N, sizes), tols)]
        keep = []
        for j, r in enumerate(live):
            if done[j]:
                out[r] = last[j]
            else:
                keep.append(j)
        if not keep:
            return out
        if 2 * N > _NODE_CAP:
            break
        if len(keep) < len(live):
            live, rows = [live[j] for j in keep], rows.take(keep)
        previous = [last[j] for j in keep]
        N *= 2
    j = keep[0]
    ctx = ctxs[live[j]]
    raise ConvergenceError(
        f"node cap {_NODE_CAP} reached before stabilizing", last[j], previous[j],
        u=ctx.u, p=ctx.params.p, q=ctx.params.q, n=ctx.n, cap=_NODE_CAP,
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
    """Residual of the three-term contiguity relation in the q-shifts, its
    three integrals one batch."""
    if len({i, j, k}) != 3:
        raise ValueError("need three distinct indices")
    u = list(ctx.u)
    p, q = ctx.params.p, ctx.params.q

    def shifted(idx: int) -> IntegrandContext:
        v = list(u)
        v[idx] = q * v[idx]
        return IntegrandContext(v, ctx.params)

    Ii, Ij, Ik = I_n_many([shifted(i), shifted(j), shifted(k)], quad_tol=quad_tol)
    return normalized_residual([
        (u[k], _theta_pm(u[j], u[k], p), Ii),
        (u[i], _theta_pm(u[k], u[i], p), Ij),
        (u[j], _theta_pm(u[i], u[j], p), Ik),
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


def _pair_gammas(ws, params: EllipticParams, scale=1.0) -> list[complex]:
    """Per row w of ws, the product over pairs i<j of
    triple_gamma(scale_ij w_i w_j; p, q); scale is one number, one per
    pair in np.triu_indices(8, 1) order, or one per row and pair. All rows
    go through one triple_gamma call, whose series length follows the
    largest rho among them, and whose error is the batch's. Each row's
    product runs over its pairs in order; one row u is the batch [u]. A
    product that overflows raises DomainError naming |p| and |q|."""
    ws = np.asarray(ws, dtype=complex)
    i, j = _PAIRS
    vals = triple_gamma((np.asarray(scale) * ws[:, i] * ws[:, j]).reshape(-1), params.p, params.q)
    # the rows of the fresh (B, 28) array are contiguous, so each product is
    # taken pair by pair, as np.prod of the row alone
    with np.errstate(over="ignore", invalid="ignore"):
        out = vals.reshape(len(ws), -1).prod(axis=1).tolist()
    if not all(map(cmath.isfinite, out)):
        p, q = abs(params.p), abs(params.q)
        raise DomainError(f"triple gamma pair product overflows the float range at |p| = {p:.9g}, |q| = {q:.9g}")
    return out


def In_transform_residual(
    ctx: IntegrandContext, which: str = "tilde_n", quad_tol: float = QUAD_TOL
) -> Residual:
    """Two-term normalized residual of the multiplicity-n transformation
    formulas: the integral against its transformed image times the pair
    ratio."""
    n, t = ctx.n, ctx.u
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
    # one triple_gamma call for both argument sets, at the series length of
    # the larger rho of the two
    gam = triple_gamma(np.concatenate([q**n * tt, tt]), p, q)
    ratio = complex(np.prod(gam[: tt.size] / gam[tt.size :]))
    lhs, rhs = I_n_many([ctx, ctx.with_u(image)], quad_tol=quad_tol)
    return normalized_residual([(lhs,), (-(rhs * ratio),)])


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
    num = [u[a] * u[b] for a, b in itertools.combinations(range(1, 7), 2)]
    num += [q**2 / u[0] ** 2, u[0] / u[7]]
    den = [q * u[k] / u[0] for k in range(1, 7)] + [q / (u[k] * u[7]) for k in range(1, 7)]
    gam = elliptic_gamma(num + den, p, q)
    pref = complex(np.prod(gam[: len(num)]) / np.prod(gam[len(num) :]))
    series = v12_11(q / u[0] ** 2, [q / (u[0] * u[i]) for i in range(1, 8)], q, p, N)
    return pref * series
