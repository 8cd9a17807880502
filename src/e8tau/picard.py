"""Rank-10 hyperbolic lattice and the lattice-indexed tau families on it.

Vectors carry integer coefficients over the basis (e0; e1, ..., e9) with
Gram matrix diag(-1, 1, ..., 1).  The isotropic vector
c = 3 e0 - e1 - ... - e9 spans the null direction: translations are taken
along its orthogonal complement, level charts are graded by the pairing
with c, and the orthogonal projection to the root sublattice recovers the
eight additive coordinates used everywhere else in this package.  Floating
point enters only through the coordinate charts and tau evaluation; all
lattice arithmetic is on integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, index, mul, sub
from typing import Sequence

import numpy as np

from . import lattice
from .specialfn import bracket_scaled_many
from .tau import _bilinear_residual, _shift_rows
from .util import DomainError, Residual

@dataclass(frozen=True)
class PicardVector:
    """Lattice element; coeffs are integer coefficients, not pairings."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 10:
            raise ValueError("expected 10 coefficients")

    def __add__(self, other: "PicardVector") -> "PicardVector":
        return PicardVector(tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "PicardVector") -> "PicardVector":
        return PicardVector(tuple(map(sub, self.coeffs, other.coeffs)))

    def __rmul__(self, k) -> "PicardVector":
        k = index(k)
        return PicardVector(tuple(k * a for a in self.coeffs))

    __mul__ = __rmul__


def pic(*coeffs) -> PicardVector:
    """The lattice vector with these integer coefficients; TypeError otherwise."""
    return PicardVector(tuple(map(index, coeffs)))


def picard_ip(a: PicardVector, b: PicardVector) -> int:
    """Bilinear pairing of signature (1, 9): the Euclidean sum less twice
    the e0 term."""
    return sum(map(mul, a.coeffs, b.coeffs)) - 2 * a.coeffs[0] * b.coeffs[0]


E = tuple(pic(*(1 if i == j else 0 for i in range(10))) for j in range(10))
C = pic(3, *([-1] * 9))
# D = -e9 - c/2, the one vector here outside the lattice: <c, D> = 1 and
# <D, D> = 0.  Criterion 12 reads it; no computation does.
D = PicardVector(tuple(-e - Fraction(c, 2) for e, c in zip(E[9].coeffs, C.coeffs)))

# Simple reflection directions: a triple node plus the chain e_j - e_{j+1}.
AFFINE_ROOTS = (E[0] - E[1] - E[2] - E[3],) + tuple(E[j] - E[j + 1] for j in range(1, 9))


def reflect(alpha: PicardVector, v: PicardVector) -> PicardVector:
    """Reflection of v in the hyperplane orthogonal to alpha, or ValueError
    when the image leaves the lattice, which no root (norm 2) allows."""
    nrm = picard_ip(alpha, alpha)
    if nrm == 0:
        raise ValueError("cannot reflect in an isotropic direction")
    t = 2 * picard_ip(alpha, v)
    if any(t * a % nrm for a in alpha.coeffs):
        raise ValueError("reflection left the lattice")
    return PicardVector(tuple(x - t * a // nrm for x, a in zip(v.coeffs, alpha.coeffs)))


def apply_word(word: Sequence[int], v: PicardVector) -> PicardVector:
    """Apply s_{w0} s_{w1} ... (rightmost generator acts first); indices 0..8."""
    for i in reversed(word):
        v = reflect(AFFINE_ROOTS[i], v)
    return v


def kac_translate(alpha: PicardVector, h: PicardVector) -> PicardVector:
    """Translation along alpha, defined only for directions orthogonal to c.

    Linear on the whole lattice, an exact isometry, and additive in alpha;
    on the level-zero slice it degenerates to h - <alpha, h> c.
    """
    if picard_ip(C, alpha) != 0:
        raise ValueError("translation direction must pair to zero with c")
    lev = picard_ip(C, h)
    # c is characteristic (<v, v> = <c, v> mod 2 on the lattice) and
    # <c, alpha> = 0, so <alpha, alpha> is even and the half is exact.
    coef = picard_ip(alpha, alpha) // 2 * lev + picard_ip(alpha, h)
    return h + lev * alpha - coef * C


def in_orbit_M(lam: PicardVector) -> PicardVector | None:
    """Classical part of a norm-one, level-minus-one lattice vector.

    Returns the unique alpha in the root sublattice with
    lam = e9 + alpha + (1/2)<alpha, alpha> c, or None when lam is not in
    that orbit.
    """
    if picard_ip(lam, lam) != 1 or picard_ip(C, lam) != -1:
        return None
    beta = lam - E[9]
    return beta + picard_ip(E[9], beta) * C


def project_classical(v: PicardVector) -> lattice.LatticeVector:
    """The orthogonal projection onto the root sublattice, as an E8 vector.

    Its coordinates are the pairings of v with the orthonormal vectors
    e_j - (e0 - e9)/2 + c/2 (j = 1..7) and minus that vector at j = 8: with
    s = v1 + ... + v8 they read x_j = v_j - v0 - s/2 and
    x_0 = -(v8 - v0 - s/2), the map coords_back applies to canonical
    coordinates.  So <w, v> = sum_j w_j x_j for any w in their span.
    """
    c = v.coeffs
    t = 4 * c[0] + 2 * sum(c[1:9])
    return lattice.LatticeVector((t - 4 * c[8],) + tuple(4 * a - t for a in c[1:8]))


def coords_forward(x: np.ndarray, mu: complex, kappa: complex) -> np.ndarray:
    """Canonical coordinates of the graph point over x on the level-kappa chart.

    The chart sends x to x - (Q(x)/kappa + mu) c + kappa d, with
    Q(x) = <x, x> / 2; the ten pairings with e0..e9 come out as below.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (8,):
        raise ValueError("expected 8 additive coordinates")
    if kappa == 0:
        raise ValueError("chart level kappa must be nonzero")
    s = 0.5 * np.sum(x)
    a = np.sum(x * x) / (2.0 * kappa) + mu + kappa / 2.0
    eps = np.empty(10, dtype=complex)
    eps[0] = 2.0 * x[0] - 2.0 * s + 3.0 * a
    eps[1:8] = x[1:8] + x[0] - s + a
    eps[8] = -s + a
    eps[9] = a - kappa
    return eps


def coords_back(eps: np.ndarray) -> tuple[np.ndarray, complex, complex]:
    """Invert coords_forward: recover (x, mu, kappa) from canonical coordinates.

    kappa is the pairing with c; points on the null level have no chart
    and are rejected.
    """
    eps = np.asarray(eps, dtype=complex)
    if eps.shape != (10,):
        raise ValueError("expected 10 canonical coordinates")
    kappa = 3.0 * eps[0] - np.sum(eps[1:])
    if abs(kappa) < 1e-13:
        raise DomainError("point lies on the null level; no chart there")
    shear = 0.5 * (eps[0] - eps[9]) - kappa / 2.0
    x_tail = eps[1:9] - shear
    x = np.concatenate([[-x_tail[7]], x_tail[:7]])
    mu = -(-eps[0] ** 2 + np.sum(eps[1:] ** 2)) / (2.0 * kappa)
    return x, complex(mu), complex(kappa)


def _classical_parts(lams: Sequence[PicardVector]) -> tuple[PicardVector, ...]:
    """The classical part alpha of each vector of lams (in_orbit_M), which
    must lie in the norm-one, level-minus-one orbit."""
    alphas = tuple(map(in_orbit_M, lams))
    if any(alpha is None for alpha in alphas):
        raise ValueError("index vector is not in the norm-one, level-minus-one orbit")
    return alphas


# How far the chart level kappa may lie from the tau level step.
_KAPPA_TOL = 1e-9
# The moduli of kappa's coefficients on the canonical coordinates.
_KAPPA_WEIGHTS = np.array([3.0] + [1.0] * 9)


def _lattice_points(shifts: np.ndarray, tau, w: Sequence[int], eps: np.ndarray) -> np.ndarray:
    """The block of points w^{-1} . (x + kappa * s), one per row s of shifts,
    the true coordinates of the projected classical parts of index vectors:
    where the tau functions indexed by them are evaluated on the
    w-translated chart of eps. (x, mu, kappa) are the chart coordinates of
    eps, whose level must match the step of tau's level grading: DomainError
    where the rounding bound of kappa reaches that tolerance, or where kappa
    is off the step."""
    x, _, kappa = coords_back(eps)
    # kappa = 3 eps_0 - (eps_1 + ... + eps_9) in floats, ten terms: within
    # 10 eps (3|eps_0| + sum_k |eps_k|) of the exact sum
    slack = 10 * np.finfo(float).eps * float(np.abs(eps) @ _KAPPA_WEIGHTS)
    if not slack < _KAPPA_TOL:
        raise DomainError(f"chart level {kappa} cannot be resolved to the level tolerance (rounding bound {slack:.3g})")
    if abs(kappa - tau.params.delta) > _KAPPA_TOL:
        raise DomainError("chart level does not match the tau level step")
    return lattice.apply_word_c(lattice.inverse_word(tuple(w)), x + kappa * shifts)


@lru_cache(maxsize=None)
def _quadruple_parts(quad: tuple[int, int, int, int]) -> np.ndarray:
    """The classical parts of a quadruple's six index vectors e_a,
    e0 - e_a - e_l (a = i, j, k), projected (project_classical), as a
    read-only (6, 8) block of true coordinates computed once per quadruple."""
    i, j, k, l = quad
    if len({i, j, k, l}) != 4 or not all(1 <= m <= 9 for m in quad):
        raise ValueError("need four distinct indices in 1..9")
    alphas = _classical_parts([lam for a in (i, j, k) for lam in (E[a], E[0] - E[a] - E[l])])
    out = np.array([project_classical(a).coords4 for a in alphas], dtype=float) / 4.0
    out.flags.writeable = False
    return out


def quadruple_hirota_residual(
    tau, w: Sequence[int], eps: np.ndarray, quad: tuple[int, int, int, int]
) -> Residual:
    """Bilinear residual for one index quadruple of lattice tau functions.

    For distinct i, j, k, l in 1..9 the three products
    tau_{e_a} tau_{e0 - e_a - e_l} (a cycling through i, j, k) combine with
    bracket coefficients in the canonical coordinates to a vanishing sum.
    Normalized by the largest term modulus. The kernel the frame residual
    runs (tau._bilinear_residual) on the TauEvaluator tau, with this
    module's bracket_scaled_many: the six bracket arguments, then the six
    points on one chart of eps from the quadruple's projected classical
    parts (_quadruple_parts, computed once).
    """
    shifts = _quadruple_parts(tuple(quad))
    i, j, k, l = quad
    eps = np.asarray(eps, dtype=complex)
    ev = eps.tolist()  # Python complex differences, the same bits as numpy's

    args = [z for b, c in ((j, k), (k, i), (i, j)) for z in (ev[b] - ev[c], ev[0] - ev[b] - ev[c] - ev[l])]
    return _bilinear_residual(tau, args, lambda: _lattice_points(shifts, tau, w, eps), bracket_scaled_many)


def translation_hirota_residual(
    tau, axes: Sequence[lattice.LatticeVector], x: np.ndarray
) -> Residual:
    """Bilinear residual written through the translation action on tau.

    Each term translates tau forward and backward along one frame axis
    (tau(x -+ kappa a)) and weights the pair with the brackets of the other
    two axes.  Algebraically identical to the frame residual in the tau
    module, and no independent route to it: both run one kernel
    (tau._bilinear_residual) on the same six points: a consistency check,
    parted only by brackets, which this side reads through this module's
    bracket_scaled_many (the coefficients, and on a tau with bracket data
    its values too) and the frame side through the tau module's.
    """
    params = tau.params
    x = np.asarray(x, dtype=complex)
    p0, p1, p2 = (lattice.pairing_c(a, x) for a in axes)
    args = [p1 + p2, p1 - p2, p2 + p0, p2 - p0, p0 + p1, p0 - p1]
    points = lambda: x - _shift_rows(axes, signed=True) * (params.delta / 4.0)
    return _bilinear_residual(tau, args, points, bracket_scaled_many)
