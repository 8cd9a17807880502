"""Reference routes that only the tests and scripts read, kept beside the
library routes they cross-check."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from e8tau import integrals, tau
from e8tau.integrals import IntegrandContext
from e8tau.lattice import SIMPLE_ROOTS, LatticeVector, ip, pairing_c
from e8tau.specialfn import EllipticParams, bracket_scaled_many
from e8tau.util import Residual, normalized_residual


def quad(ctx: IntegrandContext, N: int) -> complex:
    """The trapezoid rule of one integral at N nodes per circle, with no
    convergence test: the batch of one of integrals._quad_rows."""
    return integrals._quad_rows(integrals._rows([ctx]), N)[0][0]


def dfactor_d(n: int, x: np.ndarray, case: str, params: EllipticParams) -> complex:
    """The kernel determinant's scalar divisor at x on level n of the chain
    (DomainError off it), in the case's chart: tau._case_chart followed by
    tau._dfactor, as gauge_g reads them."""
    _, (t, _, _) = tau._case_chart(n, x, case, params)
    return tau._dfactor(n, t[0], params)


def reflect(alpha: LatticeVector, v: LatticeVector) -> LatticeVector:
    """Reflection of v in the hyperplane orthogonal to alpha (exact): the
    scalar route that the orbit and shell-table tests check against."""
    nn = ip(alpha, alpha)
    if nn == 0:
        raise ValueError("cannot reflect in a null vector")
    t = 2 * ip(alpha, v)
    coords = []
    for cv, ca in zip(v.coords4, alpha.coords4):
        num = cv * nn - t * ca
        q, r = divmod(num, nn)
        if r:
            raise ValueError("reflection left (1/4)Z^8")
        coords.append(q)
    return LatticeVector(tuple(coords))


def apply_word(word: Sequence[int], v: LatticeVector) -> LatticeVector:
    """Apply the group word s_{w0} s_{w1} ... (rightmost generator acts first)."""
    for i in reversed(word):
        v = reflect(SIMPLE_ROOTS[i], v)
    return v


def reflect_c(alpha: LatticeVector, x: np.ndarray) -> np.ndarray:
    """Reflection of one complex 8-vector in the hyperplane orthogonal to
    alpha, its pairings BLAS dot products: the per-point route that the
    block reflection lattice.reflect_c is checked against."""
    a = alpha.coords4_float / 4.0
    return x - (2.0 * (a @ x) / (a @ a)) * a


def apply_word_c(word: Sequence[int], x: np.ndarray) -> np.ndarray:
    """The group word on one complex 8-vector, reflection by reflection
    (rightmost generator acts first), through reflect_c above."""
    for i in reversed(word):
        x = reflect_c(SIMPLE_ROOTS[i], x)
    return x


def prefactor_exponent(spec: tau.ExpGauge | tau.PeriodShift, x: np.ndarray, params: EllipticParams) -> complex:
    """The exponent S of a transform's prefactor e(S) at one point x, its
    pairing with the gauge or shift vector a BLAS dot product: the per-point
    route that the block exponents of tau._block_maps are checked against."""
    if isinstance(spec, tau.ExpGauge):
        v = np.asarray(spec.v, dtype=complex)
        return spec.k * complex(np.add.reduce(x * x, axis=None)) + complex(np.dot(v, x)) + spec.c
    m, l = spec.omega
    shift = np.asarray(spec.v.true_coords(), dtype=complex) * (m + l * params.varpi)
    coef = -l / (2.0 * params.delta**2)
    return coef * pairing_c(spec.v, x) * complex(np.add.reduce(x * (x - shift), axis=None))


def nested_canonical(c: complex, params: EllipticParams) -> tau.TauEvaluator:
    """The canonical solution [Q(x) + c] with no bracket data: a batch that
    brackets its rows' Q(x) + c in one bracket_scaled_many call, so
    tau.transform of it takes the nested route, each transform's batch
    reading its parent's values: the route that bracket data is checked
    against."""
    return tau.TauEvaluator(
        None, params, batch=lambda ns, xs: bracket_scaled_many([q + c for q in tau.qforms(xs, params.delta)], params)
    )


def bilinear_two_calls(ev: tau.TauEvaluator, args: list, points, brackets) -> Residual:
    """The bilinear kernel in two calls, with tau._bilinear_residual's
    arguments: the six brackets at args in one brackets call, then ev's
    values at the six rows of points() in one scaled_many."""
    br = brackets(args, ev.params)
    v = ev.scaled_many(points())
    return normalized_residual([(br[2 * k], br[2 * k + 1], v[2 * k], v[2 * k + 1]) for k in range(3)])
