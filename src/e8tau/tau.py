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

Each step of a tau value (the level check, the chart, Q(x), the pair product
and the bracket) has one route, over a batch of points; a single point is a
batch of one. A TauEvaluator makes its values as batch(ns, xs), xs one
(B, 8) block; its fn(x), when not given, is the batch of one at the located
point. The evaluators of a graded family share one batch, every tau value
of the family goes through it, and batch.cache_info() counts the memo.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial
from itertools import combinations
from math import comb, log, pi
from sys import float_info
from typing import Callable, Sequence

import numpy as np

from . import integrals
from .integrals import N_MAX, QUAD_TOL, IntegrandContext
from .lattice import (
    PHI,
    Frame,
    FrameType,
    LatticeVector,
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
    bracket_scaled_many,
    theta,
    theta_pochhammer,
)
from .util import (
    BRACKET_FLOOR,
    BracketZeroError,
    DomainError,
    Residual,
    Scaled,
    e,
    normalized_residual,
    product,
    split,
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


def qforms(xs: np.ndarray, delta: complex) -> list[complex]:
    """Q(x) = <x,x>/(2*delta) at every row x of xs (B, 8), with the
    complex-bilinear coordinate sum, from one array sum (np.add.reduce, the
    reduction ndarray.sum makes, without its wrapper)."""
    xs = np.asarray(xs, dtype=complex).reshape(-1, 8)
    return (np.add.reduce(xs * xs, axis=1) / (2.0 * delta)).tolist()


@dataclass(frozen=True)
class LevelDomain:
    """Union of hyperplanes <direction, x> = base + n*step, integer n."""

    direction: LatticeVector
    base: complex
    step: complex
    n_min: int = -64
    n_max: int = 64

    def levels(self, xs: np.ndarray, ns: Sequence[int] | None = None) -> list[int]:
        """The index n of the member hyperplane containing each row x of xs
        (B, 8), or, given ns, its level n of ns; DomainError for the first
        row in order whose pairing's rounding bound, 8 eps sum_k
        |x_k direction_k|, reaches LEVEL_TOL, or that lies off its hyperplane
        by more than LEVEL_TOL, or at an index outside [n_min, n_max]. The
        pairings and their bounds come from one array product each."""
        xs = np.asarray(xs, dtype=complex)
        vals = (xs @ self._direction_row).tolist()
        slack = (np.abs(xs) @ np.abs(self._direction_row) * (8 * np.finfo(float).eps)).tolist()
        out = []
        for k, (val, err) in enumerate(zip(vals, slack)):
            if not err < LEVEL_TOL:
                raise DomainError(f"pairing {val} cannot be resolved to the level tolerance (rounding bound {err:.3g})")
            n = round(((val - self.base) / self.step).real) if ns is None else ns[k]
            if abs(val - self.base - n * self.step) > LEVEL_TOL:
                raise DomainError(f"point off hyperplane {n} of the family (pairing {val})")
            if not self.n_min <= n <= self.n_max:
                raise DomainError(f"hyperplane index {n} outside [{self.n_min}, {self.n_max}]")
            out.append(n)
        return out

    def locate(self, x: np.ndarray) -> int:
        """Index n of the member hyperplane containing x: levels of one."""
        return self.levels(np.asarray(x, dtype=complex)[None])[0]

    @cached_property
    def _direction_row(self) -> np.ndarray:
        """The direction's true coordinates, which pair with a point."""
        return np.asarray(self.direction.coords4, dtype=float) / 4.0


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


@lru_cache(maxsize=64)
def _levels(
    variant: str, params: EllipticParams, n_min: int = -64, n_max: int = 64
) -> LevelDomain:
    """A sign variant's level family, base dir*lev*varpi and step dir*delta
    (LevelDomain is frozen, so one instance serves every caller)."""
    if variant not in _CHARTS:
        raise ValueError("variant must be one of pp, pm, mp, mm")
    dir_sign, lev_sign, _ = _CHARTS[variant]
    return LevelDomain(PHI, dir_sign * lev_sign * params.varpi, dir_sign * params.delta, n_min, n_max)


@dataclass(frozen=True)
class TauEvaluator:
    """A tau function: the evaluation map, its parameters, and its domain.

    domain is None for functions defined on all of V; otherwise evaluation
    first locates x inside the hyperplane family and rejects stray points.
    batch(ns, xs) makes every value: it takes the located points as one
    C-ordered complex block xs (B, 8) and their levels, a list ns (None
    without a domain), and returns their Scaled values, or raises one error.
    fn(x) is the value at one point; a fn of None is the batch of one at the
    located point (eval), and a missing batch is fn adapted once, row by
    row. One of them is required.

    A tau whose values are brackets times prefactors e(S) (canonical_tau and
    its transforms) gives brackets in place of both: brackets(xs) is the
    bracket argument of each row of xs and finish, which takes the brackets
    at those arguments to tau's values, each times its prefactors,
    innermost transform first. Its batch is _bracket_values, one
    bracket_scaled_many call over those arguments and then finish, and the
    bilinear kernel evaluates them in its coefficients' batch. Such a tau is
    defined on all of V."""

    fn: Callable[[np.ndarray], complex] | None
    params: EllipticParams
    domain: LevelDomain | None = None
    batch: Callable[[list | None, np.ndarray], list[Scaled]] | None = field(default=None, repr=False, compare=False)
    brackets: Callable[[np.ndarray], tuple[list[complex], Callable[[list[Scaled]], list[Scaled]]]] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.brackets is not None:
            if self.batch is not None or self.domain is not None:
                raise ValueError("a tau with bracket data takes its values from them, on all of V")
            object.__setattr__(self, "batch", lambda ns, xs: _bracket_values(self, xs))
        if self.batch is None:
            if self.fn is None:
                raise ValueError("a tau evaluator needs fn or batch")
            object.__setattr__(self, "batch", lambda ns, xs: [split(complex(self.fn(x))) for x in xs])
        elif self.fn is None:
            object.__setattr__(self, "fn", self.eval)

    def scaled_many(self, xs: np.ndarray | Sequence[np.ndarray]) -> list[Scaled]:
        """The Scaled value at every row of xs, a (B, 8) block or a list of
        points stacked once here, as one batch: all points are located first,
        in one domain.levels call, so the first point off the domain raises."""
        xs = _block(xs)
        return self.batch(None if self.domain is None else self.domain.levels(xs), xs)

    def eval_many(self, xs: Sequence[np.ndarray]) -> list[complex]:
        """scaled_many recombined: a complex infinity where a value overflows."""
        return [complex(v) for v in self.scaled_many(xs)]

    def eval(self, x: np.ndarray) -> complex:
        return self.eval_many([x])[0]

    __call__ = eval


def _block(xs: np.ndarray | Sequence[np.ndarray]) -> np.ndarray:
    """xs, a (B, 8) block or a list of points, as one C-ordered complex block."""
    return np.ascontiguousarray(xs, dtype=complex).reshape(-1, 8)


def _bracket_values(tau: TauEvaluator, xs: np.ndarray) -> list[Scaled]:
    """The values of a tau with bracket data at the rows of the block xs: its
    arguments there, one bracket_scaled_many call over them, then its
    prefactors (finish), in the order of the nested transforms' batches."""
    args, finish = tau.brackets(xs)
    return finish(bracket_scaled_many(args, tau.params))


def canonical_tau(c: complex, params: EllipticParams) -> TauEvaluator:
    """The everywhere-defined solution [Q(x) + c] of all frame identities,
    as bracket data: the arguments Q(x) + c of the rows, from one qforms
    call, and no prefactor."""
    return TauEvaluator(None, params, brackets=lambda xs: ([q + c for q in qforms(xs, params.delta)], _unchanged))


def _unchanged(vals: list[Scaled]) -> list[Scaled]:
    """The finish of a tau with no prefactor: its brackets are its values."""
    return vals


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
    return tuple(_oriented(vs))


def _oriented(vs: Sequence[LatticeVector]) -> list[LatticeVector]:
    """oriented_triple's signs and order, for any number of frame axes."""
    keyed = []
    for a in vs:
        pa = ip(PHI, a)
        keyed.append((abs(pa), -a if pa < 0 else (a if pa > 0 else sign_normalize(a))))
    # descending (pairing, coordinates) of the signed axes: no two axes of a frame tie
    keyed.sort(key=lambda t: (t[0], t[1].coords4), reverse=True)
    return [a for _, a in keyed]


def _bilinear_residual(
    tau: TauEvaluator, args: list[complex], points: Callable[[], np.ndarray], brackets: Callable
) -> Residual:
    """Every bilinear residual's kernel: sum_k [args[2k]] [args[2k+1]] tau(y_2k) tau(y_2k+1), k < 3, over
    its largest term, y the six rows of the block points(), each bracket from the caller's brackets (its own
    module's bracket_scaled_many); one normalized_residual. The two-call route, for any tau: the six brackets
    in one call, then the points, then tau's one scaled_many. A tau with bracket data takes one call first:
    the six arguments and tau's six after them in one brackets call, then tau's finish, all with numpy's
    floating-point errors raised. Where anything in it raises (a warning under a filter that raises one), the
    two-call route runs instead, so the residual's first error, and any warning, are that route's."""
    if tau.brackets is not None:
        try:
            with np.errstate(all="raise"):
                targs, finish = tau.brackets(_block(points()))
                vals = brackets([*args, *targs], tau.params)
                br, v = vals[:6], finish(vals[6:])
        except Exception:
            pass
        else:
            return _three_terms(br, v)
    return _three_terms(brackets(args, tau.params), tau.scaled_many(points()))


def _three_terms(br: Sequence[Scaled], v: Sequence[Scaled]) -> Residual:
    """normalized_residual of the terms br[2k] br[2k+1] v[2k] v[2k+1], k < 3."""
    return normalized_residual([(br[2 * k], br[2 * k + 1], v[2 * k], v[2 * k + 1]) for k in range(3)])


def _shift_rows(vectors: Sequence[LatticeVector], signed: bool = False) -> np.ndarray:
    """The coords4 row of each vector, or where signed its rows v and 0.0 - v (a zero stays +0.0) in turn, a
    float block: times delta / 4, the true coordinates times delta, bit for bit."""
    rows = np.array([v.coords4 for v in vectors], dtype=float)
    return np.concatenate((rows, 0.0 - rows), axis=1).reshape(-1, 8) if signed else rows


def hirota_residual(
    tau: TauEvaluator,
    frame: Frame | Sequence[LatticeVector],
    x: np.ndarray,
    params: EllipticParams,
) -> Residual:
    """Normalized residual of the three-term bilinear identity at x.

    The sum of [<b+-c, x>] tau(x + a*delta) tau(x - a*delta) over cyclic
    rotations of the oriented triple, over the largest term magnitude: the
    kernel _bilinear_residual at the six points x +- a delta, all in tau's domain.
    """
    axes = oriented_triple(frame)
    x = np.asarray(x, dtype=complex)
    pa, pb, pc = (pairing_c(v, x) for v in axes)
    args = [pb + pc, pb - pc, pc + pa, pc - pa, pa + pb, pa - pb]
    points = lambda: x + _shift_rows(axes, signed=True) * (params.delta / 4.0)
    return _bilinear_residual(tau, args, points, bracket_scaled_many)


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


def _block_maps(spec: ExpGauge | WeylMap | PeriodShift, params: EllipticParams) -> tuple[Callable, Callable | None]:
    """A symmetry map on a block X (B, 8): the rows tau is read at, and the prefactors'
    exponents S, e(S) a row (None for a Weyl map). Pairings and squares are row
    reductions and a Weyl word maps the block whole, so each row has its own bits."""
    if isinstance(spec, WeylMap):
        return partial(apply_word_c, inverse_word(spec.word)), None
    if isinstance(spec, ExpGauge):
        if spec.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        v = np.asarray(spec.v, dtype=complex)
        return lambda X: spec.eps * X, lambda X: spec.k * np.add.reduce(X * X, 1) + np.add.reduce(X * v, 1) + spec.c
    if isinstance(spec, PeriodShift):
        m, l = spec.omega
        v = spec.v.true_coords()
        shift = v * (m + l * params.varpi)
        coef = -l / (2.0 * params.delta**2)
        return lambda X: X - shift, lambda X: coef * np.add.reduce(X * v, 1) * np.add.reduce(X * (X - shift), 1)
    raise TypeError(f"unknown transform spec {spec!r}")


def transform(
    tau: TauEvaluator, spec: ExpGauge | WeylMap | PeriodShift
) -> TauEvaluator:
    """New evaluator obtained from tau by one of the three symmetry maps (_block_maps). A tau
    with bracket data gives one: its arguments at the mapped block, and a finish that applies
    tau's, then computes this map's exponents and multiplies each value by its prefactor
    (none for a Weyl map), so nested transforms keep one bracket call and each step comes
    in the nested batches' order. Any other tau: its batch at the mapped block, each value
    times its prefactor as a Scaled product. ValueError for a tau with a domain: no map
    moves one."""
    if tau.domain is not None:
        raise ValueError("transform takes an evaluator defined everywhere, not one on a level domain")
    point, exponent = _block_maps(spec, tau.params)

    def prefactors(xs: np.ndarray, vals: list[Scaled]) -> list[Scaled]:
        return vals if exponent is None else [product((e(s), v)) for s, v in zip(exponent(xs).tolist(), vals)]

    if tau.brackets is not None:

        def brackets(xs: np.ndarray) -> tuple[list[complex], Callable[[list[Scaled]], list[Scaled]]]:
            args, finish = tau.brackets(_block(point(xs)))
            return args, finish if exponent is None else (lambda vals: prefactors(xs, finish(vals)))

        return TauEvaluator(None, tau.params, brackets=brackets)
    return TauEvaluator(None, tau.params, batch=lambda ns, xs: prefactors(xs, tau.scaled_many(point(xs))))


def hg_tau0(x: np.ndarray, params: EllipticParams) -> complex:
    """Level-0 chain component: the pairwise triple-gamma product at unit
    q-shift, the n = 0 case of the integral route."""
    return tau_n_int(0, x, "direct", params)


def hg_tau1(x: np.ndarray, params: EllipticParams, quad_tol: float = QUAD_TOL) -> complex:
    """Level-1 chain component: the gauged contour integral times the pair
    product, the n = 1 case of the integral route."""
    return tau_n_int(1, x, "direct", params, quad_tol=quad_tol)


@lru_cache(maxsize=256)
def ordered_c8_ii(frame: Frame) -> tuple[LatticeVector, ...]:
    """Index an 8-vector paired-type frame as (pair, pair', z_2 .. z_7).

    The distinguished pair is signed to pairing +1 (the two sum to the
    all-half vector); the six zero-pairing axes keep the stored sign
    normalization. Both groups are sorted by descending coordinates.
    Memoised per frame (Frame is frozen and hashable); a frame of another
    type raises every time.
    """
    if classify_frame(frame) is not FrameType.C8_II:
        raise ValueError("need an 8-vector frame of the paired type")
    return tuple(_oriented(frame.vectors))


def toda_step(
    tau_prev: TauEvaluator,
    tau_cur: TauEvaluator,
    frame: Frame,
    i: int,
    j: int,
    x: np.ndarray,
    params: EllipticParams,
    a0_index: int = 0,
) -> complex:
    """Next chain value at x from the two previous components: toda_steps
    of the one pair (i, j).

    frame is an 8-vector paired-type frame, which ordered_c8_ii orders;
    i, j pick two distinct zero-pairing axes in positions 2..7, and the
    result is independent of that choice. a0_index selects which member of
    the distinguished pair serves as the level direction.
    """
    return toda_steps(tau_prev, tau_cur, frame, [(i, j)], x, params, a0_index)[0]


def toda_steps(
    tau_prev: TauEvaluator,
    tau_cur: TauEvaluator,
    frame: Frame,
    pairs: Sequence[tuple[int, int]],
    x: np.ndarray,
    params: EllipticParams,
    a0_index: int = 0,
) -> list[complex]:
    """The Toda step at x for every index pair (i, j) of pairs, as toda_step
    gives it for that pair, in one pass: the frame ordered once, the
    brackets in one bracket_scaled_many batch (two denominators a pair, two
    numerator brackets an axis, each axis once), then the denominator
    test pair by pair ([<a_i + a_j, x>] before [<a_i - a_j, x>]; the first
    under BRACKET_FLOOR raises BracketZeroError), then the values of tau_cur
    at x - (a_0 +- a_b) delta for every axis b the pairs name in one
    scaled_many batch, and tau_prev at x - 2 a_0 delta once. That value
    divides every step, so where it is 0 DomainError names x.
    """
    pairs = list(pairs)
    if not all(2 <= i <= 7 and 2 <= j <= 7 and i != j for i, j in pairs):
        raise ValueError("need two distinct zero-pairing indices in 2..7")
    if a0_index not in (0, 1):
        raise ValueError("a0_index must be 0 or 1")
    ordered = ordered_c8_ii(frame)
    a0 = ordered[a0_index]
    x = np.asarray(x, dtype=complex)
    d = params.delta
    axes = list(dict.fromkeys(b for pair in pairs for b in pair))
    at = {b: k for k, b in enumerate(axes)}
    shifts = [v for b in axes for v in (a0 + ordered[b], a0 - ordered[b])]

    # [<a_i + a_j, x>], [<a_i - a_j, x>] per pair, then [<a_0 +- a_b, x> - delta] per axis
    args = [pairing_c(v, x) for i, j in pairs for v in (ordered[i] + ordered[j], ordered[i] - ordered[j])]
    br = [complex(v) for v in bracket_scaled_many(args + [pairing_c(v, x) - d for v in shifts], params)]
    for k, (i, j) in enumerate(pairs):
        for sign, val in zip("+-", br[2 * k : 2 * k + 2]):
            if abs(val) < BRACKET_FLOOR:
                raise BracketZeroError(f"[<a{i} {sign} a{j}, x>]", abs(val), x)

    vals = tau_cur.eval_many(x - _shift_rows(shifts) * (d / 4.0))
    pm = [br[len(args) + 2 * k] * br[len(args) + 2 * k + 1] for k in range(len(axes))]
    cur = [vals[2 * k] * vals[2 * k + 1] for k in range(len(axes))]
    prev = tau_prev(x - a0.coords4_float * (d / 2.0))
    if prev == 0:
        raise DomainError(f"tau_prev vanishes at x - 2 a0 delta, x={[complex(v) for v in x]!r}")
    return [
        (pm[at[j]] * cur[at[i]] - pm[at[i]] * cur[at[j]]) / (br[2 * k] * br[2 * k + 1] * prev)
        for k, (i, j) in enumerate(pairs)
    ]


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
        """Component value at level n: _tau_at, the family's one-point
        entry, which checks x on level n of the family's domain as the
        evaluator does and reads the family's batch."""
        return self._tau_at(n, np.asarray(x, dtype=complex))


# Entries kept by the memo of each graded family. One check reads a few
# dozen points, so this holds every point a check revisits; full, it takes
# about 0.33 MB (330 bytes an entry).
TAU_MEMO_SIZE = 1024

MemoInfo = namedtuple("MemoInfo", "hits misses maxsize currsize")


def _graded(variant: str, n_max: int, params: EllipticParams, quad_tol: float) -> TauChain:
    """A sign variant's graded family: on level n >= 0 of its level family
    (n up to n_max) the value of _integral_values in the direct chart, and 0
    below level 0.

    Values go through one memo of TAU_MEMO_SIZE entries (read once, at
    build) keyed on (n, the exact bytes of x): a hit returns what was
    computed at the same point. The batch, which every evaluator of the
    family and TauChain.value share, reads and fills it in one pass, so hits
    and misses are counted in one place, batch.cache_info() (hits, misses,
    maxsize, currsize). It computes the points not in the memo at its start,
    whatever their levels, in one _integral_values call (each distinct point
    once, a miss), reads every other point from the memo as it found it (a
    hit), then stores the new values and drops the oldest entries past the
    bound; each finite value is split exactly. A computation that raises
    leaves the memo and its counts as they were. TauChain.value checks x on
    level n of the family (levels) before the batch, and every evaluator's
    fn is its batch of one at the located point.
    """
    levels = _levels(variant, params, -8, n_max)
    memo: dict = {}
    size = TAU_MEMO_SIZE
    stats = [0, 0]  # hits, misses

    def batch(ns: list, xs: np.ndarray) -> list[Scaled]:
        keys = [(n, x.tobytes()) for n, x in zip(ns, xs)]
        new = {key: (n, x) for key, n, x in zip(keys, ns, xs) if n >= 0 and key not in memo}
        if new:
            new_ns, new_xs = map(list, zip(*new.values()))
            new = dict(zip(new, _integral_values(new_ns, new_xs, variant, "direct", params, quad_tol)))
        values = [new[key] if key in new else memo[key] if n >= 0 else 0j for key, n in zip(keys, ns)]
        stats[0] += sum(n >= 0 for n in ns) - len(new)
        stats[1] += len(new)
        memo.update(new)
        while len(memo) > size:
            del memo[next(iter(memo))]
        return [split(v) for v in values]

    def tau_at(n: int, x: np.ndarray) -> complex:
        return complex(batch(levels.levels(x[None], [n]), x[None])[0])

    batch.cache_info = lambda: MemoInfo(stats[0], stats[1], size, len(memo))
    components = [TauEvaluator(None, params, replace(levels, n_min=n, n_max=n), batch) for n in range(n_max + 1)]
    return TauChain(components, TauEvaluator(None, params, levels, batch), tau_at)


def build_chain(
    n_max: int,
    params: EllipticParams,
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
    if not 0 <= n_max <= N_MAX:
        raise ValueError(f"chain depth capped at {N_MAX}")
    return _graded("pp", n_max, params, quad_tol)


def casorati_K(
    n: int,
    x: np.ndarray,
    kernel: Callable[[np.ndarray], list[complex]],
    frame: Frame | Sequence[LatticeVector],
    params: EllipticParams,
) -> complex:
    """Determinant of the kernel over the 2-directional shift grid.

    Row i, column j is the kernel's value at
    x + delta*((1-n) a_0 + (n+1-i-j) a_1 + (j-i) a_2), the kernel a batch
    function that takes all n^2 points at once, as one (n^2, 8) block: the
    table of those integer coefficients times the triple's _shift_rows, then
    times delta / 4. n = 0 gives 1.
    """
    if n < 0:
        raise ValueError("negative determinant order")
    if n == 0:
        return complex(1.0)
    coef = [(1 - n, n + 1 - i - j, j - i) for i in range(1, n + 1) for j in range(1, n + 1)]
    ys = x + (np.array(coef, dtype=float) @ _shift_rows(oriented_triple(frame))) * (params.delta / 4.0)
    return complex(np.linalg.det(np.array(kernel(ys), dtype=complex).reshape(n, n)))


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


@lru_cache(maxsize=64)
def _chart_coefficients(variant: str, n: int, params: EllipticParams) -> tuple[complex, complex]:
    """A sign variant's direct-chart coefficient c = p^a q^b at level n
    (_CHARTS), and its pair scale c^2 as p^(2a) q^(2b)."""
    a, b = _CHARTS[variant][2](n)
    p, q = params.p, params.q
    return p**a * q**b, p ** (2 * a) * q ** (2 * b)


# The logs of the smallest normal float and of the largest float.
_LOG_NORMAL_RANGE = (log(float_info.min), log(float_info.max))


def _chart(
    variant: str, route: str, xs: np.ndarray, ns: Sequence[int], params: EllipticParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A sign variant's chart of a batch xs of points (B, 8), each on its
    level n of ns, at u = e(x): the eight integral parameters t of every
    row, shaped as xs, and the arguments w and per-pair scales s of the pair
    product over s_ij w_i w_j, which runs over t_i t_j; s broadcasts against
    the 28 pairs of every row. A single point is the batch x[None] at [n].

    Route 'direct' is t = c u with the variant's coefficient c = p^a q^b
    from _CHARTS, so w = u and s = c^2 for every pair. Route 'inverse' is
    t = c' / u with c' the coefficient of the mirror variant (direction sign
    flipped), so w = 1/u and s = c'^2. Route 'tilde' is the chain's only: it
    balances each coordinate block of u to pq, with w = u and the pairs
    scaled by _block_scales.

    DomainError first where some |e(x_k)| = exp(-2 pi Im x_k) may leave the
    normal float range: 2 pi |Im x_k| is tested against the log of the
    smallest normal float before the exp is taken.
    """
    far = np.maximum.reduce(np.abs(xs.imag), axis=None)
    if not 2 * pi * far <= -_LOG_NORMAL_RANGE[0]:
        raise DomainError(f"e(x) leaves the normal float range at |Im x_k| = {far:.6g}")
    u = np.exp(2j * np.pi * xs)
    p, q = params.p, params.q
    if route == "tilde":
        s = np.array([_block_scales(q, n) for n in ns])
        return np.array([integrals._tilde(tuple(v), p * q) for v in u]), u, s
    if route == "inverse":
        variant, u = {"p": "m", "m": "p"}[variant[0]] + variant[1], 1 / u
    elif route != "direct":
        raise ValueError("route must be 'direct', 'inverse' or 'tilde'")
    c, s = np.array([_chart_coefficients(variant, n, params) for n in ns]).T[:, :, None]
    with np.errstate(over="ignore", invalid="ignore"):  # a t that overflows fails the integral's admissibility
        return c * u, u, s


def _gauge_prefactors(ns: Sequence[int], xs: np.ndarray, params: EllipticParams) -> list[complex]:
    """p^C(n,2) e(-n Q(x)), the gauge of a level-n chain component, at
    every row x of xs on its level n of ns, Q of all rows from one qforms
    call. DomainError where the gauge or one of its two factors leaves the
    normal float range: the log moduli C(n,2) log|p| and 2 pi n Im Q(x) and
    their sum are tested before the product is formed."""
    lo, hi = _LOG_NORMAL_RANGE
    log_p = log(abs(params.p))
    out = []
    for n, q in zip(ns, qforms(xs, params.delta)):
        c = comb(n, 2)
        logs = (c * log_p, 2 * pi * n * q.imag)
        log_mod = logs[0] + logs[1]
        if not all(lo <= v <= hi for v in (*logs, log_mod)):
            raise DomainError(f"chain gauge at level {n} leaves the normal float range (log modulus {log_mod:.4g})")
        out.append(params.p**c * e(-n * q))
    return out


def _case_chart(n: int, x: np.ndarray, case: str, params: EllipticParams) -> tuple[np.ndarray, tuple]:
    """x as an array, checked on level n of the chain (DomainError), and the
    case's level-n chart (t, w, s) at x, the batch of one."""
    x = np.asarray(x, dtype=complex)
    _levels("pp", params).levels(x[None], [n])
    return x, _chart("pp", _case(case)[0], x[None], [n], params)


def _dfactor(n: int, t: np.ndarray, params: EllipticParams) -> complex:
    """The scalar divisor extracted from the kernel determinant at the chart
    parameters t of a point already on level n; 1 at n <= 1. The two cases
    share one formula: a monomial prefactor times four theta-factorial
    products over the first block's pairings with the second block's
    complements."""
    p, q = params.p, params.q
    out = q ** (2 * comb(n, 3)) * (t[2] * t[3]) ** comb(n, 2)
    # the rows of order n - k, four per k = 1..n, from one table
    z = [
        w
        for k in range(1, n + 1)
        for w in (q ** (k - 1) * t[0] * t[3], q ** (1 - k) * t[0] / t[3],
                  q ** (k - 1) * t[1] * t[2], q ** (1 - k) * t[1] / t[2])
    ]
    table = theta_pochhammer(z, max(n - 1, 0), p, q)
    for row, entries in enumerate(table):
        out *= entries[n - 1 - row // 4]
    return out


def gauge_g(n: int, x: np.ndarray, case: str, params: EllipticParams) -> complex:
    """Scalar gauge relating the chain component to the kernel determinant."""
    x, (t, w, scales) = _case_chart(n, x, case, params)
    gam = integrals._pair_gammas(w, params, scales)[0]
    return _gauge_prefactors([n], [x], params)[0] * gam / _dfactor(n, t[0], params)


def tau_n_det(
    n: int,
    x: np.ndarray,
    case: str,
    params: EllipticParams,
    quad_tol: float = QUAD_TOL,
) -> complex:
    """Chain component via gauge times kernel determinant; the kernel takes
    the integrals at the case's level-1 chart of all n^2 points in one batch."""
    route, triple = _case(case)

    def kernel(ys: np.ndarray) -> list[complex]:
        t, _, _ = _chart("pp", route, ys, [1] * len(ys), params)
        return integrals.I_n_many([IntegrandContext(tuple(v), params) for v in t.tolist()], quad_tol=quad_tol)

    x = np.asarray(x, dtype=complex)
    return gauge_g(n, x, case, params) * casorati_K(n, x, kernel, triple, params)


def _require_levels(ns: Sequence[int], xs: Sequence[np.ndarray], variant: str, params: EllipticParams) -> np.ndarray:
    """xs as a (B, 8) array, checked as the entries that do not locate their
    points need: ValueError unless every n of ns is 0 to N_MAX, the highest
    multiplicity of the quadrature, then DomainError unless each x of xs
    lies on its level n of the variant's family."""
    if not all(0 <= n <= N_MAX for n in ns):
        raise ValueError(f"the integral route covers multiplicities 0 to {N_MAX}")
    xs = np.array(xs, dtype=complex).reshape(len(ns), 8)
    _levels(variant, params).levels(xs, ns)
    return xs


def _integral_values(
    ns: Sequence[int],
    xs: Sequence[np.ndarray],
    variant: str,
    route: str,
    params: EllipticParams,
    quad_tol: float,
) -> list[complex]:
    """A sign variant's value in route's chart at every point of xs, each on
    its own level n of ns: the gauge prefactor (level sign +1 only) times
    the n-fold integral at t times the pair product, each x located on its
    level n of 0 to N_MAX or checked by _require_levels. At n = 0 the integral
    and the prefactor p^0 e(0) are 1, so the value is the pair product.

    The batch is one pass whatever its levels, each step over all points
    at once: the charts, the pair products in one triple_gamma call, the
    integrals of the points above level 0 in one I_n_many batch of mixed
    multiplicities, and the gauge prefactors. Every value, or the first
    error of those steps in turn: the pair products, the admissibility of
    every integral, the quadrature passes."""
    ns = list(ns)
    xs = np.asarray(xs, dtype=complex).reshape(len(ns), 8)
    t, w, scales = _chart(variant, route, xs, ns, params)
    out = integrals._pair_gammas(w, params, scales)
    live = [k for k, n in enumerate(ns) if n]
    if live:
        t = t.tolist()
        vals = integrals.I_n_many([IntegrandContext(tuple(t[k]), params, ns[k]) for k in live], quad_tol=quad_tol)
        if _CHARTS[variant][1] > 0:
            pres = _gauge_prefactors([ns[k] for k in live], xs[live], params)
            vals = [pre * val for pre, val in zip(pres, vals)]
        for k, val in zip(live, vals):
            out[k] = val * out[k]
    return out


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
    return _integral_values([n], _require_levels([n], [x], "pp", params), "pp", route, params, quad_tol)[0]


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
    zs = np.asarray(zs, dtype=complex)

    # One table: rows a z_i, a/z_i, b z_i, b/z_i for the matrix, then
    # b q^{k-1} a and b/(q^{k-1} a) for the right side's k = 1..n.
    shifts = np.array([q ** (k - 1) * a for k in range(1, n + 1)])
    table = theta_pochhammer(np.concatenate([a * zs, a / zs, b * zs, b / zs, b * shifts, b / shifts]), n - 1, p, q)
    az, a_z, bz, b_z, bs, b_s = table.reshape(6, n, n)
    # entry (i, j) takes order j of the a rows and order n - 1 - j of the b rows
    lhs = complex(np.linalg.det(az * a_z * (bz[:, ::-1] * b_z[:, ::-1])))

    rhs = q ** comb(n, 3) * a ** comb(n, 2)
    for k in range(1, n + 1):
        rhs *= complex(bs[k - 1, n - k] * b_s[k - 1, n - k])
    if n > 1:
        i, j = map(list, zip(*combinations(range(n), 2)))  # np.triu_indices(n, 1), without its set-up
        pairs = theta(np.concatenate([zs[i] * zs[j], zs[i] / zs[j]]), p).reshape(2, -1)
        for plus, minus, zi in zip(*pairs.tolist(), zs[i].tolist()):
            rhs *= plus * minus / zi

    return normalized_residual([(lhs,), (-rhs,)])


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
    return _integral_values([n], _require_levels([n], [x], variant, params), variant, route, params, quad_tol)[0]


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

    The domain stops at level VARIANT_N_MAX; points above it fail the
    domain's level check with DomainError.
    """
    return _graded(variant, VARIANT_N_MAX, params, quad_tol).evaluator
