"""Hyperbolic-lattice arithmetic and the lattice-indexed tau residuals."""
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8tau import cli
from e8tau import lattice as L
from e8tau import picard as P
from e8tau import sampling
from e8tau import tau as T
from e8tau.specialfn import EllipticParams
from e8tau.util import DomainError

PARAMS = EllipticParams.from_bases(0.03, 0.45)
# Shared whole-family evaluator; the per-point memo fills across tests.
EVAL = T.variant_evaluator("pm", PARAMS, quad_tol=1e-8)

ZERO = P.pic(*([0] * 10))
# The Gram matrix's diagonal, diag(-1, 1, ..., 1).
_GRAM = (-1,) + (1,) * 9
PHI_PIC = P.C - P.AFFINE_ROOTS[8]

# The P^1 x P^1 presentation of the same lattice, basis (h1, h2, f1, ..., f8)
# with h1 = e0 - e2, h2 = e0 - e1, f1 = e0 - e1 - e2 and fj = e_{j+1} for
# j >= 2: its basis in the blow-up basis e_j, and the e_j in it. Its pairing
# is hyperbolic on (h1, h2) and the identity on the f's.
_BLOWUP_IN_E = (
    P.E[0] - P.E[2],
    P.E[0] - P.E[1],
    P.E[0] - P.E[1] - P.E[2],
) + tuple(P.E[j] for j in range(3, 10))
_E_IN_BLOWUP = (
    P.pic(1, 1, -1, 0, 0, 0, 0, 0, 0, 0),
    P.pic(1, 0, -1, 0, 0, 0, 0, 0, 0, 0),
    P.pic(0, 1, -1, 0, 0, 0, 0, 0, 0, 0),
) + tuple(P.E[j] for j in range(3, 10))


# ------------------------------------------------ the rational reference route
# The lattice on exact rationals, computed as the library did before its
# vectors became integers: reflections and translations divide as Fractions,
# and the classical part is read off as the pairings with the orthonormal
# coordinate vectors V_BASIS, which lie in (1/2)Z^10.


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, numbers.Integral):
        return Fraction(int(v))
    raise TypeError("coefficients must be integers or Fractions")


@dataclass(frozen=True)
class RefVector:
    coeffs: tuple[Fraction, ...]

    def __add__(self, other):
        return RefVector(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return RefVector(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return RefVector(tuple(-a for a in self.coeffs))

    def __rmul__(self, s):
        f = _frac(s)
        return RefVector(tuple(f * a for a in self.coeffs))

    __mul__ = __rmul__

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.coeffs)


def _ref(v) -> RefVector:
    return RefVector(tuple(_frac(a) for a in v.coeffs))


def ref_ip(a: RefVector, b: RefVector) -> Fraction:
    gram = (-1,) + (1,) * 9
    return sum((g * x * y for g, x, y in zip(gram, a.coeffs, b.coeffs)), Fraction(0))


R_E = tuple(RefVector(tuple(Fraction(int(i == j)) for i in range(10))) for j in range(10))
R_C = 3 * R_E[0] - sum(R_E[2:], R_E[1])
R_ROOTS = (R_E[0] - R_E[1] - R_E[2] - R_E[3],) + tuple(R_E[j] - R_E[j + 1] for j in range(1, 9))
_V8 = R_E[8] - Fraction(1, 2) * (R_E[0] - R_E[9]) + Fraction(1, 2) * R_C
V_BASIS = (-_V8,) + tuple(
    R_E[j] - Fraction(1, 2) * (R_E[0] - R_E[9]) + Fraction(1, 2) * R_C for j in range(1, 8)
)


def ref_reflect(alpha: RefVector, v: RefVector) -> RefVector:
    return v - (2 * ref_ip(alpha, v) / ref_ip(alpha, alpha)) * alpha


def ref_apply_word(word, v: RefVector) -> RefVector:
    for i in reversed(word):
        v = ref_reflect(R_ROOTS[i], v)
    return v


def ref_kac_translate(alpha: RefVector, h: RefVector) -> RefVector:
    lev = ref_ip(R_C, h)
    coef = Fraction(1, 2) * ref_ip(alpha, alpha) * lev + ref_ip(alpha, h)
    return h + lev * alpha - coef * R_C


def ref_in_orbit_M(lam: RefVector) -> RefVector | None:
    if not lam.is_integral():
        return None
    if ref_ip(lam, lam) != 1 or ref_ip(R_C, lam) != -1:
        return None
    beta = lam - R_E[9]
    return beta + ref_ip(R_E[9], beta) * R_C


def ref_project_classical(v: RefVector) -> tuple[Fraction, ...]:
    return tuple(ref_ip(b, v) for b in V_BASIS)


PHI_REF = _ref(PHI_PIC)


def _change_basis(v, images):
    """The coefficients of v over the other basis, given the images of v's
    basis vectors in it."""
    return sum((a * img for a, img in zip(v.coeffs, images)), ZERO)


def _rand_pic(rng, lo=-4, hi=5):
    return P.pic(*[int(v) for v in rng.integers(lo, hi, size=10)])


def _rand_root(rng):
    out = ZERO
    for j in range(8):
        out = out + int(rng.integers(-2, 3)) * P.AFFINE_ROOTS[j]
    return out


def _eps_of(v):
    """Canonical coordinates (pairings with e0..e9) of an exact vector."""
    return np.array([float(g * a) for g, a in zip(_GRAM, v.coeffs)])


def _pair_eps(v, eps):
    """Pairing of an exact vector with a point given in canonical coordinates."""
    return complex(sum(float(a) * w for a, w in zip(v.coeffs, eps)))


def _translate_eps(alpha, eps):
    """kac_translate acting on a complex point in canonical coordinates."""
    assert P.picard_ip(P.C, alpha) == 0
    lev = _pair_eps(P.C, eps)
    coef = 0.5 * float(P.picard_ip(alpha, alpha)) * lev + _pair_eps(alpha, eps)
    return eps + lev * _eps_of(alpha) - coef * _eps_of(P.C)


def _reflect_eps(alpha, eps):
    """Reflection in a non-isotropic vector, on canonical coordinates."""
    nrm = float(P.picard_ip(alpha, alpha))
    return eps - (2.0 * _pair_eps(alpha, eps) / nrm) * _eps_of(alpha)


def _draw_eps(rng, n, mu=None):
    level = -PARAMS.varpi + n * PARAMS.delta
    m = (abs(PARAMS.q) ** (2 * n) / abs(PARAMS.p) ** 2) ** 0.125
    x = sampling.sample_level_x(rng, level, (0.95 * m, 1.05 * m), (m / 1.2, 1.2 * m))
    if mu is None:
        mu = complex(rng.standard_normal() * 0.3, rng.standard_normal() * 0.3)
    return P.coords_forward(x, mu, PARAMS.delta), x, mu


def test_pairing_table_and_constants():
    assert P.picard_ip(P.C, P.C) == 0
    assert P.picard_ip(P.C, P.D) == 1
    assert P.picard_ip(P.D, P.D) == 0
    assert P.picard_ip(P.AFFINE_ROOTS[0], P.AFFINE_ROOTS[3]) == -1
    for a in P.AFFINE_ROOTS:
        assert P.picard_ip(a, a) == 2
        assert P.picard_ip(P.C, a) == 0
    assert _ref(P.D) == -R_E[9] - Fraction(1, 2) * R_C
    for i, a in enumerate(V_BASIS):
        assert ref_ip(R_C, a) == 0
        for j, b in enumerate(V_BASIS):
            assert ref_ip(a, b) == (1 if i == j else 0)
    half_sum = Fraction(1, 2) * sum(V_BASIS[1:], V_BASIS[0])
    assert half_sum == PHI_REF
    assert P.project_classical(PHI_PIC) == L.PHI


def test_affine_roots_project_onto_module_simple_roots():
    for j in range(8):
        assert P.project_classical(P.AFFINE_ROOTS[j]) == L.SIMPLE_ROOTS[j]
    assert P.project_classical(P.AFFINE_ROOTS[8]) == -L.PHI


def test_kac_translation_group_laws_exact():
    rng = np.random.default_rng(101)
    a = P.AFFINE_ROOTS[2]
    b = P.AFFINE_ROOTS[5] + P.AFFINE_ROOTS[0]
    h = _rand_pic(rng)
    assert P.kac_translate(a, P.kac_translate(b, h)) == P.kac_translate(a + b, h)
    assert P.kac_translate(P.C, h) == h
    assert P.kac_translate(a, P.C) == P.C
    g1, g2 = _rand_pic(rng), _rand_pic(rng)
    assert P.picard_ip(P.kac_translate(a, g1), P.kac_translate(a, g2)) == P.picard_ip(g1, g2)
    word = (1, 4, 0)
    inv = tuple(reversed(word))
    conj = P.apply_word(word, P.kac_translate(a, P.apply_word(inv, h)))
    assert conj == P.kac_translate(P.apply_word(word, a), h)
    h0 = P.AFFINE_ROOTS[3] + 2 * P.AFFINE_ROOTS[6]
    assert P.kac_translate(a, h0) == h0 - P.picard_ip(a, h0) * P.C
    with pytest.raises(ValueError):
        P.kac_translate(P.E[1], h)


# Fixed example sequence, no example database: runs repeat exactly.
_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(st.lists(st.integers(-20, 20), min_size=10, max_size=10))
def test_kac_laws_hold_at_every_integral_vector(coeffs):
    assert all(cli._kac_laws(P.pic(*coeffs)))


_VECTORS = st.lists(st.integers(-20, 20), min_size=10, max_size=10).map(lambda c: P.pic(*c))
_WORDS = st.lists(st.integers(0, 8), max_size=12).map(tuple)
# Directions orthogonal to c: integer combinations of the nine affine roots.
_DIRECTIONS = st.lists(st.integers(-3, 3), min_size=9, max_size=9).map(
    lambda k: sum((a * r for a, r in zip(k, P.AFFINE_ROOTS)), ZERO)
)


@_PROPERTY
@given(_VECTORS, _VECTORS, _WORDS)
def test_integer_lattice_matches_rational_reference(v, w, word):
    rv = _ref(v)
    assert P.picard_ip(v, w) == ref_ip(rv, _ref(w))
    for root, ref_root in zip(P.AFFINE_ROOTS, R_ROOTS):
        assert _ref(P.reflect(root, v)) == ref_reflect(ref_root, rv)
    assert _ref(P.apply_word(word, v)) == ref_apply_word(word, rv)
    assert P.project_classical(v).coords4 == tuple(4 * x for x in ref_project_classical(rv))


@_PROPERTY
@given(_DIRECTIONS, _VECTORS, _WORDS)
def test_kac_translation_and_orbit_match_rational_reference(alpha, v, word):
    assert _ref(P.kac_translate(alpha, v)) == ref_kac_translate(_ref(alpha), _ref(v))
    # Weyl images of e9 and their Kac translates lie in the orbit
    lam = P.apply_word(word, P.E[9])
    orbit = (lam, P.kac_translate(alpha, lam))
    assert all(P.in_orbit_M(u) is not None for u in orbit)
    for u in (*orbit, v):
        got = P.in_orbit_M(u)
        assert (None if got is None else _ref(got)) == ref_in_orbit_M(_ref(u))


def test_lattice_stays_on_the_integers():
    with pytest.raises(TypeError):
        P.pic(0.5, *([0] * 9))
    with pytest.raises(TypeError):
        Fraction(1, 2) * P.E[1]
    # reflections divide exactly, or raise when the image leaves the lattice
    with pytest.raises(ValueError):
        P.reflect(P.E[1] + P.E[2] + P.E[3], P.E[1])
    wide = 2 * (P.E[1] + P.E[2])
    assert _ref(P.reflect(wide, P.E[1])) == ref_reflect(_ref(wide), R_E[1]) == -R_E[2]


def _complexes(bound):
    part = st.floats(-bound, bound)
    return st.builds(complex, part, part)


@_PROPERTY
@given(
    st.lists(_complexes(0.5), min_size=8, max_size=8),
    _complexes(1.0),
    st.floats(0.25, 1.0),
    st.floats(0.0, 1.0),
)
def test_chart_round_trip_property(x, mu, kappa_mod, kappa_phase):
    x = np.array(x)
    kappa = kappa_mod * np.exp(2j * np.pi * kappa_phase)
    xb, mub, kapb = P.coords_back(P.coords_forward(x, mu, kappa))
    assert np.max(np.abs(xb - x)) < 1e-12
    assert abs(mub - mu) < 1e-12 and abs(kapb - kappa) < 1e-12


def test_orbit_classification():
    alpha = P.in_orbit_M(P.E[1])
    assert _ref(alpha) == V_BASIS[0] + V_BASIS[1] - PHI_REF
    assert P.project_classical(alpha) == L.V[0] + L.V[1] - L.PHI
    assert P.in_orbit_M(P.E[0]) is None
    assert P.in_orbit_M(P.E[9]) == ZERO
    assert P.in_orbit_M(P.E[1] + P.E[2]) is None
    # e9 + c/2 has norm one and level minus one, but lies off the lattice
    assert ref_in_orbit_M(R_E[9] + Fraction(1, 2) * R_C) is None
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = _rand_root(rng)
        lam = P.E[9] + a + P.picard_ip(a, a) // 2 * P.C
        assert P.picard_ip(lam, lam) == 1
        assert P.picard_ip(P.C, lam) == -1
        assert P.in_orbit_M(lam) == a


def test_coordinate_chart_round_trip():
    rng = np.random.default_rng(19)
    x = 0.3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    mu, kappa = 0.2 + 0.11j, 0.37 - 0.05j
    eps = P.coords_forward(x, mu, kappa)
    xb, mub, kapb = P.coords_back(eps)
    assert np.max(np.abs(xb - x)) < 1e-12
    assert abs(mub - mu) < 1e-12 and abs(kapb - kappa) < 1e-12
    assert np.max(np.abs(P.coords_forward(xb, mub, kapb) - eps)) < 1e-12
    # the pairings with the orthonormal coordinate vectors recover x
    pv = np.array([_pair_eps(v, eps) for v in V_BASIS])
    assert np.max(np.abs(pv - x)) < 1e-12
    # mu is minus the canonical-coordinate norm over twice the level
    nrm = -eps[0] ** 2 + np.sum(eps[1:] ** 2)
    assert abs(mu + nrm / (2 * kappa)) < 1e-12
    with pytest.raises(ValueError):
        P.coords_forward(x, mu, 0.0)
    with pytest.raises(DomainError):
        P.coords_back(_eps_of(P.AFFINE_ROOTS[4]))  # null level


def test_projection_compatible_with_pairing_exactly():
    h = P.pic(2, -1, 3, 0, 1, -2, 4, 1, -1, 2)
    xc = P.project_classical(h).coords4
    w = V_BASIS[2] - 3 * V_BASIS[5]
    assert 4 * ref_ip(w, _ref(h)) == xc[2] - 3 * xc[5]
    # on the root sublattice the E8 pairing (16x) is the Picard pairing
    rng = np.random.default_rng(29)
    for _ in range(10):
        a = _rand_root(rng)
        assert L.ip(P.project_classical(a), P.project_classical(h)) == 16 * P.picard_ip(a, h)


def test_chart_equivariance_under_reflection_and_translation():
    rng = np.random.default_rng(23)
    x = 0.3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    mu, kappa = -0.15 + 0.3j, 0.41 + 0.02j
    eps = P.coords_forward(x, mu, kappa)
    alpha = P.AFFINE_ROOTS[1]
    wx = L.apply_word_c((1,), x)
    v_coords = P.project_classical(alpha).true_coords()
    lhs = P.coords_forward(wx + kappa * v_coords, mu, kappa)
    rhs = _translate_eps(alpha, _reflect_eps(alpha, eps))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_basis_change_blowup():
    ci = _change_basis(P.C, _E_IN_BLOWUP)
    assert ci == P.pic(2, 2, -1, -1, -1, -1, -1, -1, -1, -1)
    h1 = _change_basis(P.pic(1, 0, 0, 0, 0, 0, 0, 0, 0, 0), _BLOWUP_IN_E)
    h2 = _change_basis(P.pic(0, 1, 0, 0, 0, 0, 0, 0, 0, 0), _BLOWUP_IN_E)
    assert P.picard_ip(h1, h1) == 0
    assert P.picard_ip(h2, h2) == 0
    assert P.picard_ip(h1, h2) == -1

    def blowup_ip(a, b):
        s = -a.coeffs[0] * b.coeffs[1] - a.coeffs[1] * b.coeffs[0]
        return s + sum(a.coeffs[k] * b.coeffs[k] for k in range(2, 10))

    rng = np.random.default_rng(31)
    for _ in range(10):
        v, w = _rand_pic(rng), _rand_pic(rng)
        img_v = _change_basis(v, _E_IN_BLOWUP)
        assert _change_basis(img_v, _BLOWUP_IN_E) == v
        assert blowup_ip(img_v, _change_basis(w, _E_IN_BLOWUP)) == P.picard_ip(v, w)


def _lattice_tau_eval(lam, tau, w, eps):
    """Reference route: the tau function indexed by lam on the w-translated
    chart of eps, tau at the one point w^{-1} . (x + kappa * alpha)."""
    (alpha,) = P._classical_parts([lam])
    return tau.eval(P._lattice_points(P.project_classical(alpha).true_coords()[None], tau, w, eps)[0])


def test_lattice_tau_base_cases():
    rng = sampling.make_rng(41)
    eps, x, _ = _draw_eps(rng, 2)
    assert abs(_lattice_tau_eval(P.E[9], EVAL, (), eps) - EVAL.eval(x)) < 1e-12
    word = (3, 1)
    got = _lattice_tau_eval(P.E[8], EVAL, word, eps)
    phi = np.asarray(L.PHI.coords4, complex) / 4.0
    ref = EVAL.eval(L.apply_word_c(L.inverse_word(word), x - PARAMS.delta * phi))
    assert abs(got - ref) < 1e-12


def test_lattice_tau_validations():
    rng = sampling.make_rng(43)
    eps, x, mu = _draw_eps(rng, 1)
    with pytest.raises(ValueError):
        _lattice_tau_eval(P.E[0], EVAL, (), eps)
    with pytest.raises(DomainError):
        # chart level twice the tau step
        _lattice_tau_eval(P.E[9], EVAL, (), P.coords_forward(x, mu, 2 * PARAMS.delta))
    off = P.coords_forward(x + 0.03, mu, PARAMS.delta)  # off the level family
    with pytest.raises(DomainError):
        _lattice_tau_eval(P.E[9], EVAL, (), off)
    # on the level step, but canonical coordinates near 1e7 leave kappa's
    # rounding bound above the level tolerance
    far = P.coords_forward(x, mu + 1e7, PARAMS.delta)
    with pytest.raises(DomainError, match="cannot be resolved"):
        _lattice_tau_eval(P.E[9], EVAL, (), far)


def test_quadruple_residual_uniform_level():
    rng = sampling.make_rng(47)
    eps, x, mu = _draw_eps(rng, 2)
    for quad in ((1, 2, 3, 4), (2, 5, 7, 3)):
        r = P.quadruple_hirota_residual(EVAL, (), eps, quad)
        assert not r.degenerate
        assert float(r) < 1e-8
    # the residual only sees the chart through x: moving mu changes nothing
    r1 = P.quadruple_hirota_residual(EVAL, (), eps, (1, 2, 3, 4))
    eps_mu = P.coords_forward(x, mu + 0.77 - 0.3j, PARAMS.delta)
    r2 = P.quadruple_hirota_residual(EVAL, (), eps_mu, (1, 2, 3, 4))
    assert abs(float(r1) - float(r2)) < 1e-12


def test_quadruple_residual_mixed_levels_and_word():
    rng = sampling.make_rng(53)
    eps, _, _ = _draw_eps(rng, 2)
    # l = 8 pulls in the level above, l = 9 the level below
    assert float(P.quadruple_hirota_residual(EVAL, (), eps, (1, 2, 3, 8))) < 1e-8
    assert float(P.quadruple_hirota_residual(EVAL, (), eps, (4, 6, 2, 9))) < 1e-8
    # words in the stabilizer of the level direction keep the chart admissible
    assert float(P.quadruple_hirota_residual(EVAL, (2, 5), eps, (1, 3, 6, 7))) < 1e-8


def test_quadruple_residual_validations():
    rng = sampling.make_rng(59)
    eps, _, _ = _draw_eps(rng, 2)
    with pytest.raises(ValueError):
        P.quadruple_hirota_residual(EVAL, (), eps, (1, 1, 2, 3))
    with pytest.raises(ValueError):
        P.quadruple_hirota_residual(EVAL, (), eps, (0, 1, 2, 3))


def test_translation_residual_matches_frame_residual():
    rng = sampling.make_rng(61)
    frames = [f for f in L.enumerate_frames(3) if L.classify_frame(f) == L.FrameType.C3_II0]
    fr = frames[0]
    level = -PARAMS.varpi + PARAMS.delta
    m = (abs(PARAMS.q) ** 2 / abs(PARAMS.p) ** 2) ** 0.125
    x = sampling.sample_level_x(rng, level, (0.95 * m, 1.05 * m), (m / 1.2, 1.2 * m))
    r_trans = P.translation_hirota_residual(EVAL, T.oriented_triple(fr), x)
    r_frame = T.hirota_residual(EVAL, fr, x, PARAMS)
    assert float(r_trans) < 1e-8
    assert abs(float(r_trans) - float(r_frame)) < 1e-10

    can = T.canonical_tau(0.21 + 0.05j, PARAMS)
    xg = 0.3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    fr2 = frames[-1]
    r1 = P.translation_hirota_residual(can, T.oriented_triple(fr2), xg)
    r2 = T.hirota_residual(can, fr2, xg, PARAMS)
    assert abs(float(r1) - float(r2)) < 1e-10
