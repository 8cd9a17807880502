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
from operator import index
from typing import Sequence

import numpy as np

from . import lattice
from .specialfn import bracket, bracket_pm
from .util import DomainError, Residual, normalized_residual

_GRAM = (-1,) + (1,) * 9


@dataclass(frozen=True)
class PicardVector:
    """Lattice element; coeffs are integer coefficients, not pairings."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 10:
            raise ValueError("expected 10 coefficients")

    def __add__(self, other: "PicardVector") -> "PicardVector":
        return PicardVector(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "PicardVector") -> "PicardVector":
        return PicardVector(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "PicardVector":
        return PicardVector(tuple(-a for a in self.coeffs))

    def __rmul__(self, k) -> "PicardVector":
        k = index(k)
        return PicardVector(tuple(k * a for a in self.coeffs))

    __mul__ = __rmul__


def pic(*coeffs) -> PicardVector:
    """The lattice vector with these integer coefficients; TypeError otherwise."""
    return PicardVector(tuple(map(index, coeffs)))


def picard_ip(a: PicardVector, b: PicardVector) -> int:
    """Bilinear pairing of signature (1, 9)."""
    return sum(g * x * y for g, x, y in zip(_GRAM, a.coeffs, b.coeffs))


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


def _lattice_points(lams: Sequence[PicardVector], tau, w: Sequence[int], eps: np.ndarray) -> list[np.ndarray]:
    """lattice_tau_point at every vector of lams, on one chart of eps."""
    alphas = [in_orbit_M(lam) for lam in lams]
    if any(alpha is None for alpha in alphas):
        raise ValueError("index vector is not in the norm-one, level-minus-one orbit")
    x, _, kappa = coords_back(eps)
    if abs(kappa - tau.params.delta) > 1e-9:
        raise DomainError("chart level does not match the tau level step")
    inv = lattice.inverse_word(tuple(w))
    return [lattice.apply_word_c(inv, x + kappa * project_classical(a).true_coords()) for a in alphas]


def lattice_tau_point(lam: PicardVector, tau, w: Sequence[int], eps: np.ndarray) -> np.ndarray:
    """The point at which lattice_tau_eval evaluates tau: w^{-1} . (x + kappa * alpha).

    lam must lie in the norm-one, level-minus-one orbit, with classical
    part alpha, and (x, mu, kappa) are the chart coordinates of eps, whose
    level must match the step of tau's level grading.
    """
    return _lattice_points([lam], tau, w, eps)[0]


def lattice_tau_eval(lam: PicardVector, tau, w: Sequence[int], eps: np.ndarray) -> complex:
    """Evaluate the tau function indexed by lam on the w-translated chart:
    tau at lattice_tau_point, which must fall in tau's domain."""
    return tau.eval(lattice_tau_point(lam, tau, w, eps))


def quadruple_hirota_residual(
    tau, w: Sequence[int], eps: np.ndarray, quad: tuple[int, int, int, int]
) -> Residual:
    """Bilinear residual for one index quadruple of lattice tau functions.

    For distinct i, j, k, l in 1..9 the three products
    tau_{e_a} tau_{e0 - e_a - e_l} (a cycling through i, j, k) combine with
    bracket coefficients in the canonical coordinates to a vanishing sum.
    Normalized by the largest term modulus. The brackets come first, then
    the six points on one chart of eps, then their tau values in one
    eval_many batch of the TauEvaluator tau.
    """
    i, j, k, l = quad
    if len({i, j, k, l}) != 4 or not all(1 <= m <= 9 for m in quad):
        raise ValueError("need four distinct indices in 1..9")
    params = tau.params
    eps = np.asarray(eps, dtype=complex)

    def sig(b: int, c: int) -> complex:
        return bracket(eps[b] - eps[c], params) * bracket(eps[0] - eps[b] - eps[c] - eps[l], params)

    sigs = [sig(b, c) for b, c in ((j, k), (k, i), (i, j))]
    lams = [lam for a in (i, j, k) for lam in (E[a], E[0] - E[a] - E[l])]
    v = tau.eval_many(_lattice_points(lams, tau, w, eps))
    return normalized_residual([sg * v[2 * t] * v[2 * t + 1] for t, sg in enumerate(sigs)])


def translation_hirota_residual(
    tau, axes: Sequence[lattice.LatticeVector], x: np.ndarray
) -> Residual:
    """Bilinear residual written through the translation action on tau.

    Each term translates tau forward and backward along one frame axis
    (tau(x -+ kappa a)) and weights the pair with the brackets of the other
    two axes.  Algebraically identical to the frame residual in the tau
    module; kept as an independent code path.
    """
    params = tau.params
    kap = params.delta
    x = np.asarray(x, dtype=complex)
    a0, a1, a2 = axes
    terms = []
    for s, t, u in ((a0, a1, a2), (a1, a2, a0), (a2, a0, a1)):
        sig = bracket_pm(lattice.pairing_c(t, x), lattice.pairing_c(u, x), params)
        shift = kap * np.asarray(s.true_coords(), dtype=complex)
        terms.append(sig * tau.eval(x - shift) * tau.eval(x + shift))
    return normalized_residual(terms)
