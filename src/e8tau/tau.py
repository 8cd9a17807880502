"""Bilinear tau-function layer over the orthogonal-frame geometry.

Provides the normalized Hirota residual for 3-vector frames, the canonical
bracket solution, the three symmetry transforms (exponential gauge, Weyl map,
period shift), the hypergeometric chain on the levels varpi + n*delta (the
n-fold integral family) with the two-term Toda recursion as its reference
check, the Casorati determinant closed forms, the multiple integral closed
forms, the Krattenthaler-type theta determinant residual, and the four
direction/sign variants of the invariant product.

All group actions are performed on the additive coordinates x; multiplicative
parameters are re-derived as u = e(x), which keeps every half-integer shift
single-valued.
"""
from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field, replace
from functools import partial
from math import comb
from typing import Callable, Sequence

import numpy as np

from . import integrals
from .integrals import QUAD_TOL, IntegrandContext
from .lattice import (
    PHI,
    Frame,
    FrameType,
    LatticeVector,
    apply_word,
    apply_word_c,
    classify_frame,
    inverse_word,
    ip,
    pairing_c,
    sign_normalize,
    vec,
)
from .specialfn import (
    EllipticParams,
    bracket,
    bracket_pm,
    theta,
    theta_pochhammer,
)
from .util import (
    BRACKET_FLOOR,
    BracketZeroError,
    DomainError,
    Residual,
    e,
    normalized_residual,
    values_or_raise,
)

LEVEL_TOL = 1e-10

# Orthonormal norm-1 frame splitting into two coordinate blocks; the first and
# last vectors pair to 1 with the all-half vector and sum to it, the middle six
# pair to 0. Entries are 4x the true quarter-integer coordinates.
A1_VECTORS: tuple[LatticeVector, ...] = (
    vec(2, 2, 2, 2, 0, 0, 0, 0),
    vec(2, 2, -2, -2, 0, 0, 0, 0),
    vec(2, -2, 2, -2, 0, 0, 0, 0),
    vec(2, -2, -2, 2, 0, 0, 0, 0),
    vec(0, 0, 0, 0, 2, -2, -2, 2),
    vec(0, 0, 0, 0, -2, 2, -2, 2),
    vec(0, 0, 0, 0, -2, -2, 2, 2),
    vec(0, 0, 0, 0, 2, 2, 2, 2),
)
_A0_TRIPLE = (A1_VECTORS[0], A1_VECTORS[1], A1_VECTORS[2])
_A7_TRIPLE = (A1_VECTORS[7], A1_VECTORS[1], A1_VECTORS[2])


def qform(x: np.ndarray, delta: complex) -> complex:
    """Q(x) = <x,x>/(2*delta) with the complex-bilinear coordinate sum."""
    x = np.asarray(x, dtype=complex)
    return complex(np.sum(x * x) / (2.0 * delta))


@dataclass(frozen=True)
class LevelDomain:
    """Union of hyperplanes <direction, x> = base + n*step, integer n."""

    direction: LatticeVector
    base: complex
    step: complex
    n_min: int = -64
    n_max: int = 64

    def locate(self, x: np.ndarray) -> int:
        """Index n of the member hyperplane containing x, or DomainError."""
        val = pairing_c(self.direction, np.asarray(x, dtype=complex))
        n = int(round(((val - self.base) / self.step).real))
        self._check(val, n)
        return n

    def require(self, x: np.ndarray, n: int) -> None:
        """DomainError unless x lies on member hyperplane n."""
        self._check(pairing_c(self.direction, np.asarray(x, dtype=complex)), n)

    def _check(self, val: complex, n: int) -> None:
        if abs(val - self.base - n * self.step) > LEVEL_TOL:
            raise DomainError(f"point off hyperplane {n} of the family (pairing {val})")
        if not self.n_min <= n <= self.n_max:
            raise DomainError(f"hyperplane index {n} outside [{self.n_min}, {self.n_max}]")


# The chart table of the sign variants (Thm 8A), the chain being "pp":
# variant -> (direction sign, level sign, exponents (a, b) at level n of the
# direct route's coefficient p^a q^b). The variant's level family is
# <phi, x> = dir * (lev * varpi + n * delta), and its direct chart is
# t = p^a q^b u with u = e(x).
_CHARTS = {
    "pp": (1, 1, lambda n: (0.0, 0.5 * (1 - n))),
    "pm": (1, -1, lambda n: (0.5, 0.5 * (1 - n))),
    "mp": (-1, 1, lambda n: (0.5, 0.5)),
    "mm": (-1, -1, lambda n: (0.0, 0.5)),
}


def _levels(
    variant: str, params: EllipticParams, n_min: int = -64, n_max: int = 64
) -> LevelDomain:
    """A sign variant's level family, base dir*lev*varpi and step dir*delta."""
    if variant not in _CHARTS:
        raise ValueError("variant must be one of pp, pm, mp, mm")
    dir_sign, lev_sign, _ = _CHARTS[variant]
    return LevelDomain(PHI, dir_sign * lev_sign * params.varpi, dir_sign * params.delta, n_min, n_max)


@dataclass(frozen=True)
class TauEvaluator:
    """A tau function: the evaluation map, its parameters, and its domain.

    domain is None for functions defined on all of V; otherwise evaluation
    first locates x inside the hyperplane family and rejects stray points.
    """

    fn: Callable[[np.ndarray], complex]
    params: EllipticParams
    domain: LevelDomain | None = None

    def eval(self, x: np.ndarray) -> complex:
        x = np.asarray(x, dtype=complex)
        if self.domain is not None:
            self.domain.locate(x)
        return self.fn(x)

    __call__ = eval

    def eval_many(self, xs: Sequence[np.ndarray]) -> list[complex]:
        """eval at every point of xs, raising the error that evaluating
        them in turn would raise first.

        When fn carries a batch hook fn.many (the graded families do), the
        points are located first, up to the first that fails; fn.many takes
        the located (level, point) pairs, and the locate error is raised
        after them. Any other fn is evaluated point by point."""
        xs = [np.asarray(x, dtype=complex) for x in xs]
        many = getattr(self.fn, "many", None)
        if many is None:
            return [self.eval(x) for x in xs]
        located, failed = [], None
        for x in xs:
            try:
                located.append((self.domain.locate(x), x))
            except Exception as err:
                failed = err
                break
        out = many(located)
        if failed is not None:
            raise failed
        return out


def canonical_tau(c: complex, params: EllipticParams) -> TauEvaluator:
    """The everywhere-defined solution [Q(x) + c] of all frame identities."""

    def fn(x: np.ndarray) -> complex:
        return bracket(qform(x, params.delta) + c, params)

    return TauEvaluator(fn, params)


def oriented_triple(
    frame: Frame | Sequence[LatticeVector],
) -> tuple[LatticeVector, LatticeVector, LatticeVector]:
    """Order and sign the axes of a 3-vector frame by their phi-pairing.

    Axes with nonzero pairing are signed positive and come first; ties are
    broken by descending coordinates, so the standard triples keep their
    conventional (a_0, a_1, a_2) order. Zero-pairing axes keep the stored
    sign normalization (the identities are even in them).
    """
    vs = frame.vectors if isinstance(frame, Frame) else tuple(frame)
    if len(vs) != 3:
        raise ValueError("need exactly three frame vectors")
    fixed = []
    for a in vs:
        pa = ip(PHI, a)
        fixed.append(-a if pa < 0 else (a if pa > 0 else sign_normalize(a)))
    fixed.sort(key=lambda a: (-ip(PHI, a), tuple(-c for c in a.coords4)))
    return fixed[0], fixed[1], fixed[2]


def hirota_residual(
    tau: TauEvaluator,
    frame: Frame | Sequence[LatticeVector],
    x: np.ndarray,
    params: EllipticParams,
) -> Residual:
    """Normalized residual of the three-term bilinear identity at x.

    The sum of [<b+-c, x>] tau(x + a*delta) tau(x - a*delta) over cyclic
    rotations of the oriented triple, divided by the largest term magnitude.
    All six shifted points must lie in tau's domain. The three brackets are
    computed first, then the six tau values in one eval_many batch.
    """
    a, b, c = oriented_triple(frame)
    x = np.asarray(x, dtype=complex)
    d = params.delta
    brs, pts = [], []
    for s, t, w in ((a, b, c), (b, c, a), (c, a, b)):
        sh = np.asarray(s.true_coords(), dtype=complex) * d
        brs.append(bracket_pm(pairing_c(t, x), pairing_c(w, x), params))
        pts += [x + sh, x - sh]
    v = tau.eval_many(pts)
    return normalized_residual([br * v[2 * k] * v[2 * k + 1] for k, br in enumerate(brs)])


@dataclass(frozen=True)
class ExpGauge:
    """tau'(x) = e(k<x,x> + <v,x> + c) tau(eps*x), eps in {1, -1}."""

    k: complex = 0.0
    v: tuple[complex, ...] = (0.0,) * 8
    c: complex = 0.0
    eps: int = 1


@dataclass(frozen=True)
class WeylMap:
    """tau'(x) = tau(w^{-1}.x) for a word w in the simple reflections."""

    word: tuple[int, ...]


@dataclass(frozen=True)
class PeriodShift:
    """tau'(x) = e(S(x)) tau(x - v*omega) for lattice v, period omega.

    omega = omega[0] + omega[1]*varpi; the multiplier constant is
    S(x) = (eta/2 delta^2) <v,x> <x, x - v*omega> with eta = -omega[1].
    """

    v: LatticeVector
    omega: tuple[int, int]


def transform(
    tau: TauEvaluator, spec: ExpGauge | WeylMap | PeriodShift
) -> TauEvaluator:
    """New evaluator obtained from tau by one of the three symmetry maps."""
    params = tau.params

    if isinstance(spec, ExpGauge):
        if spec.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        vv = np.asarray(spec.v, dtype=complex)

        def fn_g(x: np.ndarray) -> complex:
            x = np.asarray(x, dtype=complex)
            pre = e(spec.k * complex(np.sum(x * x)) + complex(np.dot(vv, x)) + spec.c)
            return pre * tau.eval(spec.eps * x)

        dom = None
        if tau.domain is not None:
            dom = replace(
                tau.domain, base=spec.eps * tau.domain.base, step=spec.eps * tau.domain.step
            )
        return TauEvaluator(fn_g, params, dom)

    if isinstance(spec, WeylMap):
        inv = inverse_word(spec.word)

        def fn_w(x: np.ndarray) -> complex:
            return tau.eval(apply_word_c(inv, np.asarray(x, dtype=complex)))

        dom = None
        if tau.domain is not None:
            dom = replace(
                tau.domain, direction=apply_word(spec.word, tau.domain.direction)
            )
        return TauEvaluator(fn_w, params, dom)

    if isinstance(spec, PeriodShift):
        m, l = spec.omega
        omega = m + l * params.varpi
        eta = -l
        shift = np.asarray(spec.v.true_coords(), dtype=complex) * omega
        coef = eta / (2.0 * params.delta**2)

        def fn_p(x: np.ndarray) -> complex:
            x = np.asarray(x, dtype=complex)
            y = x - shift
            s = coef * pairing_c(spec.v, x) * complex(np.sum(x * y))
            return e(s) * tau.eval(y)

        dom = None
        if tau.domain is not None:
            pv = ip(tau.domain.direction, spec.v) / 16.0
            dom = replace(tau.domain, base=tau.domain.base + pv * omega)
        return TauEvaluator(fn_p, params, dom)

    raise TypeError(f"unknown transform spec {spec!r}")


def hg_tau0(x: np.ndarray, params: EllipticParams) -> complex:
    """Level-0 chain component: the pairwise triple-gamma product at unit
    q-shift, the n = 0 case of the integral route."""
    return tau_n_int(0, x, "direct", params)


def hg_tau1(x: np.ndarray, params: EllipticParams, quad_tol: float = QUAD_TOL) -> complex:
    """Level-1 chain component: the gauged contour integral times the pair
    product, the n = 1 case of the integral route."""
    return tau_n_int(1, x, "direct", params, quad_tol=quad_tol)


def ordered_c8_ii(frame: Frame) -> tuple[LatticeVector, ...]:
    """Index an 8-vector paired-type frame as (pair, pair', z_2 .. z_7).

    The distinguished pair is signed to pairing +1 (the two sum to the
    all-half vector); the six zero-pairing axes keep the stored sign
    normalization. Both groups are sorted by descending coordinates.
    """
    if classify_frame(frame) is not FrameType.C8_II:
        raise ValueError("need an 8-vector frame of the paired type")
    pair, zero = [], []
    for a in frame.vectors:
        pa = ip(PHI, a)
        if pa == 0:
            zero.append(sign_normalize(a))
        else:
            pair.append(-a if pa < 0 else a)
    pair.sort(key=lambda v: v.coords4, reverse=True)
    zero.sort(key=lambda v: v.coords4, reverse=True)
    return (*pair, *zero)


def toda_step(
    tau_prev: TauEvaluator,
    tau_cur: TauEvaluator,
    frame: Frame | Sequence[LatticeVector],
    i: int,
    j: int,
    x: np.ndarray,
    params: EllipticParams,
    a0_index: int = 0,
) -> complex:
    """Next chain value at x from the two previous components.

    frame is an 8-vector paired-type frame (or its pre-ordered axis tuple);
    i, j pick two distinct zero-pairing axes in positions 2..7, and the
    result is independent of that choice. a0_index selects which member of
    the distinguished pair serves as the level direction. The brackets are
    computed first, then the four values of tau_cur in one eval_many batch.
    """
    if not (2 <= i <= 7 and 2 <= j <= 7 and i != j):
        raise ValueError("need two distinct zero-pairing indices in 2..7")
    if a0_index not in (0, 1):
        raise ValueError("a0_index must be 0 or 1")
    ordered = ordered_c8_ii(frame) if isinstance(frame, Frame) else tuple(frame)
    a0, ai, aj = ordered[a0_index], ordered[i], ordered[j]
    x = np.asarray(x, dtype=complex)
    d = params.delta

    den_plus = bracket(pairing_c(ai + aj, x), params)
    den_minus = bracket(pairing_c(ai - aj, x), params)
    for sign, val in (("+", den_plus), ("-", den_minus)):
        if abs(val) < BRACKET_FLOOR:
            raise BracketZeroError(f"[<a{i} {sign} a{j}, x>]", abs(val), x)

    def shifted_pm(b: LatticeVector) -> complex:
        return bracket(pairing_c(a0 + b, x) - d, params) * bracket(
            pairing_c(a0 - b, x) - d, params
        )

    def cur_pair(b: LatticeVector) -> list:
        sp = np.asarray((a0 + b).true_coords(), dtype=complex) * d
        sm = np.asarray((a0 - b).true_coords(), dtype=complex) * d
        return [x - sp, x - sm]

    br_j, br_i = shifted_pm(aj), shifted_pm(ai)
    v = tau_cur.eval_many(cur_pair(ai) + cur_pair(aj))
    num = br_j * (v[0] * v[1]) - br_i * (v[2] * v[3])
    back = x - 2.0 * np.asarray(a0.true_coords(), dtype=complex) * d
    return num / (den_plus * den_minus * tau_prev(back))


@dataclass(eq=False)
class TauChain:
    """A graded tau family on the levels n >= 0 of one level family.

    components[n] evaluates level n only; evaluator dispatches across all
    levels (identically 0 below level 0). build_chain gives the
    hypergeometric chain on varpi + n*delta; variant_evaluator keeps the
    evaluator of a sign variant's family.
    """

    components: list[TauEvaluator]
    evaluator: TauEvaluator
    _tau_at: Callable[[int, np.ndarray], complex] = field(repr=False)

    def value(self, n: int, x: np.ndarray) -> complex:
        """Component value without the per-level domain re-check."""
        return self._tau_at(n, np.asarray(x, dtype=complex))


# Entries kept by the memo of each graded family. One check reads a few
# dozen points, so this holds every point a check revisits; full, it takes
# about 0.33 MB (330 bytes an entry).
TAU_MEMO_SIZE = 1024

MemoInfo = namedtuple("MemoInfo", "hits misses maxsize currsize")


def _graded(
    levels: LevelDomain,
    values: Callable[[int, list], list],
    params: EllipticParams,
) -> TauChain:
    """The graded family that is values(n, [x])[0] on level n >= 0 of levels
    (n up to levels.n_max) and 0 below level 0; values(n, xs) gives each
    point's value or the error it raises alone.

    Values go through one LRU memo of TAU_MEMO_SIZE entries keyed on
    (n, the exact bytes of x): a hit returns what was computed at the same
    point. The evaluator's fn and the components' carry the memo's
    cache_info() (hits, misses, maxsize, currsize) and a batch hook for
    TauEvaluator.eval_many. The hook computes the points not in the memo at
    the start of the batch, per level in one values call, then looks the
    points up in turn as eval would, so hits, misses and errors are counted
    in one place. A point whose entry is evicted before its lookup is
    computed again alone.
    """
    memo: OrderedDict = OrderedDict()
    size = TAU_MEMO_SIZE
    stats = [0, 0]  # hits, misses

    def lookup(n: int, x: np.ndarray, fresh: dict) -> complex:
        key = (n, x.tobytes())
        if key in memo:
            stats[0] += 1
            memo.move_to_end(key)
            return memo[key]
        stats[1] += 1
        v = fresh[key] if key in fresh else values(n, [x])[0]
        if isinstance(v, Exception):
            raise v
        memo[key] = v
        if len(memo) > size:
            memo.popitem(last=False)
        return v

    def tau_at(n: int, x: np.ndarray) -> complex:
        if n < 0:
            return complex(0.0)
        return lookup(n, np.asarray(x, dtype=complex), {})

    def many(located: list) -> list[complex]:
        groups: dict[int, dict] = {}
        for n, x in located:
            key = (n, x.tobytes())
            if n >= 0 and key not in memo:
                groups.setdefault(n, {})[key] = x
        fresh = {}
        for n, group in groups.items():
            fresh.update(zip(group, values(n, list(group.values()))))
        return [complex(0.0) if n < 0 else lookup(n, x, fresh) for n, x in located]

    def at_level(x: np.ndarray) -> complex:
        x = np.asarray(x, dtype=complex)
        return tau_at(levels.locate(x), x)

    def cache_info() -> MemoInfo:
        return MemoInfo(stats[0], stats[1], size, len(memo))

    components = []
    for n in range(levels.n_max + 1):
        fn = partial(tau_at, n)
        fn.cache_info, fn.many = cache_info, many
        components.append(TauEvaluator(fn, params, replace(levels, n_min=n, n_max=n)))
    at_level.cache_info, at_level.many = cache_info, many
    return TauChain(components, TauEvaluator(at_level, params, levels), tau_at)


def build_chain(
    n_max: int,
    params: EllipticParams | None = None,
    quad_tol: float = QUAD_TOL,
) -> TauChain:
    """Hypergeometric chain (Thm 3C/6C) on the levels varpi + n*delta up to
    n_max: the n-fold integral family, level n the value of tau_n_int in
    the direct chart (hg_tau0 and hg_tau1 at n = 0 and 1), every level
    computed in batches through the family's one memo. The two-term Toda
    recursion (toda_step) is its reference check, not its route.

    Level n is defined where the integral's parameters
    t = q^((1-n)/2) e(x) all lie in the unit disk; elsewhere a level-n
    value raises AdmissibilityError. At q = 0.45, for one, a level-2 point
    needs every |e(x_k)| below q^(1/2) ~ 0.67.
    """
    if params is None:
        raise ValueError("params is required")
    if not 0 <= n_max <= 3:
        raise ValueError("chain depth capped at 3")

    def values(n: int, xs: list) -> list:
        return _integral_values(n, xs, "pp", "direct", params, quad_tol)

    return _graded(_levels("pp", params, -8, n_max), values, params)


def casorati_K(
    n: int,
    x: np.ndarray,
    kernel: Callable[[np.ndarray], complex],
    frame: Frame | Sequence[LatticeVector],
    params: EllipticParams,
) -> complex:
    """Determinant of the kernel over the 2-directional shift grid.

    Row i, column j evaluates the kernel at
    x + delta*((1-n) a_0 + (n+1-i-j) a_1 + (j-i) a_2); n = 0 gives 1. A
    kernel with a batch hook kernel.many takes all n^2 points at once.
    """
    if n < 0:
        raise ValueError("negative determinant order")
    if n == 0:
        return complex(1.0)
    a0, a1, a2 = oriented_triple(frame)
    x = np.asarray(x, dtype=complex)
    d = params.delta
    e0 = np.asarray(a0.true_coords(), dtype=complex)
    e1 = np.asarray(a1.true_coords(), dtype=complex)
    e2 = np.asarray(a2.true_coords(), dtype=complex)
    ys = [
        x + d * ((1 - n) * e0 + (n + 1 - i - j) * e1 + (j - i) * e2)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]
    many = getattr(kernel, "many", None)
    vals = many(ys) if many is not None else [kernel(y) for y in ys]
    return complex(np.linalg.det(np.array(vals, dtype=complex).reshape(n, n)))


# The determinant cases and the integral routes share two level-n charts:
# case frame_a0 expands along the standard triple in route tilde's chart,
# case frame_a7 along the triple through a_7 in route direct's.
_CASES = {"frame_a0": ("tilde", _A0_TRIPLE), "frame_a7": ("direct", _A7_TRIPLE)}


def _case(case: str) -> tuple[str, tuple[LatticeVector, ...]]:
    """The chart route and the recursion triple of a determinant case."""
    if case not in _CASES:
        raise ValueError("case must be 'frame_a0' or 'frame_a7'")
    return _CASES[case]


def _block_scales(q: complex, n: int) -> np.ndarray:
    """Per-pair scales: q within a coordinate block, q^(1-n) across blocks."""
    return np.where(integrals._SAME_BLOCK, q, q ** (1 - n))


def _chart(
    variant: str, route: str, u: np.ndarray, n: int, params: EllipticParams
) -> tuple[tuple[complex, ...], np.ndarray, complex | np.ndarray]:
    """A sign variant's level-n chart of u = e(x): the eight integral
    parameters t, and the arguments w and per-pair scales s of the pair
    product over s_ij w_i w_j, which runs over t_i t_j.

    Route 'direct' is t = c u with the variant's coefficient c = p^a q^b
    from _CHARTS, so w = u and s = c^2 for every pair. Route 'inverse' is
    t = c' / u with c' the coefficient of the mirror variant (direction sign
    flipped), so w = 1/u and s = c'^2. Route 'tilde' is the chain's only: it
    balances each coordinate block of u to pq, with w = u and the pairs
    scaled by _block_scales.
    """
    p, q = params.p, params.q
    if route == "tilde":
        return integrals._tilde(tuple(u), p * q), u, _block_scales(q, n)
    if route == "inverse":
        variant, u = {"p": "m", "m": "p"}[variant[0]] + variant[1], 1 / u
    elif route != "direct":
        raise ValueError("route must be 'direct', 'inverse' or 'tilde'")
    a, b = _CHARTS[variant][2](n)
    c = p**a * q**b
    return tuple(c * v for v in u), u, p ** (2 * a) * q ** (2 * b)


def _gauge_prefactor(n: int, x: np.ndarray, params: EllipticParams) -> complex:
    """p^C(n,2) e(-n Q(x)), the gauge of a level-n chain component."""
    return params.p ** comb(n, 2) * e(-n * qform(x, params.delta))


def casorati_kernel_fn(
    case: str, params: EllipticParams, quad_tol: float = QUAD_TOL
) -> Callable[[np.ndarray], complex]:
    """Determinant kernel psi(y): the contour integral in the case's level-1
    chart at u = e(y); psi.many(ys) takes a list of points in one batch."""
    route, _ = _case(case)

    def ctx(y: np.ndarray) -> IntegrandContext:
        t, _, _ = _chart("pp", route, np.exp(2j * np.pi * np.asarray(y, dtype=complex)), 1, params)
        return IntegrandContext(t, params)

    def psi(y: np.ndarray) -> complex:
        return integrals.I(ctx(y), quad_tol=quad_tol)

    psi.many = lambda ys: values_or_raise(integrals.I_n_many([ctx(y) for y in ys], quad_tol=quad_tol))
    return psi


def dfactor_d(n: int, x: np.ndarray, case: str, params: EllipticParams) -> complex:
    """Scalar divisor extracted from the kernel determinant; 1 at n <= 1.

    Written in the chart's parameters t the two cases share one formula: a
    monomial prefactor times four theta-factorial products over the first
    block's pairings with the second block's complements.
    """
    x = np.asarray(x, dtype=complex)
    _levels("pp", params).require(x, n)
    p, q = params.p, params.q
    t, _, _ = _chart("pp", _case(case)[0], np.exp(2j * np.pi * x), n, params)
    out = q ** (2 * comb(n, 3)) * (t[2] * t[3]) ** comb(n, 2)
    for k in range(1, n + 1):
        out *= theta_pochhammer(q ** (k - 1) * t[0] * t[3], n - k, p, q)
        out *= theta_pochhammer(q ** (1 - k) * t[0] / t[3], n - k, p, q)
        out *= theta_pochhammer(q ** (k - 1) * t[1] * t[2], n - k, p, q)
        out *= theta_pochhammer(q ** (1 - k) * t[1] / t[2], n - k, p, q)
    return out


def gauge_g(n: int, x: np.ndarray, case: str, params: EllipticParams) -> complex:
    """Scalar gauge relating the chain component to the kernel determinant."""
    x = np.asarray(x, dtype=complex)
    _levels("pp", params).require(x, n)
    _, w, scales = _chart("pp", _case(case)[0], np.exp(2j * np.pi * x), n, params)
    gam = integrals._pair_gamma(w, params, scales)
    return _gauge_prefactor(n, x, params) * gam / dfactor_d(n, x, case, params)


def tau_n_det(
    n: int,
    x: np.ndarray,
    case: str,
    params: EllipticParams,
    quad_tol: float = QUAD_TOL,
) -> complex:
    """Chain component via gauge times kernel determinant."""
    _, triple = _case(case)
    kernel = casorati_kernel_fn(case, params, quad_tol=quad_tol)
    x = np.asarray(x, dtype=complex)
    return gauge_g(n, x, case, params) * casorati_K(n, x, kernel, triple, params)


def _integral_values(
    n: int, xs: Sequence[np.ndarray], variant: str, route: str, params: EllipticParams, quad_tol: float
) -> list:
    """A sign variant's level-n value in route's chart at every point of xs:
    the gauge prefactor (level sign +1 only) times the n-fold integral at t
    times the pair product. Capped at n = 3, the highest multiplicity of the
    quadrature. At n = 0 the integral and the prefactor p^0 e(0) are 1, so
    the value is the pair product itself.

    Each point gives its value or the error it raises alone: its level
    check, then its pair product, then its integral. The pair products of
    all points come from one triple_gamma call and the integrals from one
    I_n_many batch."""
    if not 0 <= n <= 3:
        raise ValueError("the integral route covers multiplicities 0 to 3")
    dom = _levels(variant, params)
    out: list = [None] * len(xs)
    charts = {}
    for r, x in enumerate(xs):
        x = np.asarray(x, dtype=complex)
        try:
            dom.require(x, n)
        except DomainError as err:
            out[r] = err
            continue
        charts[r] = (x, *_chart(variant, route, np.exp(2j * np.pi * x), n, params))
    if not charts:
        return out
    scale = next(iter(charts.values()))[3]
    gams = dict(zip(charts, integrals._pair_gammas([c[2] for c in charts.values()], params, scale)))
    live = [r for r in charts if not isinstance(gams[r], Exception)]
    for r in charts:
        out[r] = gams[r]
    if n == 0 or not live:
        return out
    ctxs = [IntegrandContext(charts[r][1], params, n=n) for r in live]
    for r, val in zip(live, integrals.I_n_many(ctxs, quad_tol=quad_tol)):
        if isinstance(val, Exception):
            out[r] = val
            continue
        pre = _gauge_prefactor(n, charts[r][0], params) if _CHARTS[variant][1] > 0 else complex(1.0)
        out[r] = pre * val * gams[r]
    return out


def _integral_value(
    n: int, x: np.ndarray, variant: str, route: str, params: EllipticParams, quad_tol: float
) -> complex:
    """_integral_values at the one point x."""
    return values_or_raise(_integral_values(n, [x], variant, route, params, quad_tol))[0]


def tau_n_int(
    n: int,
    x: np.ndarray,
    route: str,
    params: EllipticParams,
    quad_tol: float = QUAD_TOL,
) -> complex:
    """Chain component via the n-fold contour integral in route's chart
    ('direct' or 'tilde'): the gauge prefactor times the integral at t times
    the scaled pair product. Capped at n = 3, the top level of the chain.
    """
    if route not in ("direct", "tilde"):
        raise ValueError("route must be 'direct' or 'tilde'")
    return _integral_value(n, x, "pp", route, params, quad_tol)


def warnaar_det_residual(
    a: complex,
    b: complex,
    zs: Sequence[complex],
    n: int,
    params: EllipticParams,
) -> Residual:
    """Relative residual of the theta-factorial determinant evaluation."""
    if n < 1 or len(zs) != n:
        raise ValueError("need n >= 1 points z_1..z_n")
    p, q = params.p, params.q

    def poch_pair(c: complex, z: complex, m: int) -> complex:
        return theta_pochhammer(c * z, m, p, q) * theta_pochhammer(c / z, m, p, q)

    mat = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            mat[i, j] = poch_pair(a, zs[i], j) * poch_pair(b, zs[i], n - 1 - j)
    lhs = complex(np.linalg.det(mat))

    rhs = q ** comb(n, 3) * a ** comb(n, 2)
    for k in range(1, n + 1):
        rhs *= poch_pair(b, q ** (k - 1) * a, n - k)
    for i in range(n):
        for j in range(i + 1, n):
            rhs *= theta(zs[i] * zs[j], p) * theta(zs[i] / zs[j], p) / zs[i]

    return normalized_residual([lhs, -rhs])


def psi_variant(
    n: int,
    x: np.ndarray,
    variant: str,
    params: EllipticParams,
    route: str = "direct",
    quad_tol: float = QUAD_TOL,
) -> complex:
    """Invariant-product value for the four direction/level sign choices.

    Each variant admits two displayed argument routes ('direct' in u,
    'inverse' in 1/u) that must agree; both are exposed for cross-checks.
    Variant pp's direct route is the chain's (tau_n_int).
    """
    if route not in ("direct", "inverse"):
        raise ValueError("route must be 'direct' or 'inverse'")
    return _integral_value(n, x, variant, route, params, quad_tol)


# Highest level of a variant family's domain: the checks draw points on
# levels up to 2.
VARIANT_N_MAX = 2


def variant_evaluator(
    variant: str,
    params: EllipticParams,
    quad_tol: float = QUAD_TOL,
) -> TauEvaluator:
    """Whole-family evaluator for one sign variant (Thm 8A): psi_variant of
    order n on level n of the family dir * (lev * varpi + n * delta), and 0
    below level 0, through the family's one memo.

    The domain stops at level VARIANT_N_MAX; points above it fail in
    domain.locate with DomainError.
    """
    return _graded(
        _levels(variant, params, -8, VARIANT_N_MAX),
        lambda n, xs: _integral_values(n, xs, variant, "direct", params, quad_tol),
        params,
    ).evaluator
