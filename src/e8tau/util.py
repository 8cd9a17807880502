"""Shared numeric helpers: the exponential character, residual type and its
one normalisation, errors, and the retry of a draw across rejected points."""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

import numpy as np


TWO_PI_I = 2j * cmath.pi


def e(z: complex) -> complex:
    """exp(2*pi*i*z), the exponential character used for all additive args."""
    return cmath.exp(TWO_PI_I * z)


class Residual(float):
    """A nonnegative residual that remembers whether every term vanished.

    Behaves as a plain float in comparisons; ``degenerate`` is True when the
    normalizing maximum was exactly zero, so 0.0 carries no information.
    """

    degenerate: bool

    def __new__(cls, value: float, degenerate: bool = False):
        obj = super().__new__(cls, value)
        obj.degenerate = degenerate
        return obj


def _ldexp(x: float, k: int) -> float:
    """x 2^k, or an infinity of x's sign where that overflows."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


class Scaled(NamedTuple):
    """The complex number m 2^k as a mantissa m and a binary exponent k, so a
    tau value may lie far outside the float range; complex() of it is the
    value, with an infinite component where that overflows."""

    m: complex
    k: int

    def __mul__(self, other: "Scaled") -> "Scaled":
        return split(self.m * other.m, self.k + other.k)

    def __complex__(self) -> complex:
        return complex(_ldexp(self.m.real, self.k), _ldexp(self.m.imag, self.k))


def split(z: complex, k: int = 0) -> Scaled:
    """z 2^k as a Scaled whose mantissa has its larger component in [1/2, 1)
    (0 and non-finite z keep theirs): z scaled by the frexp exponent of that
    component, which is exact."""
    j = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    return Scaled(complex(math.ldexp(z.real, -j), math.ldexp(z.imag, -j)), k + j)


def product(factors: Sequence[complex | Scaled]) -> Scaled:
    """The product of the factors in order, each a complex number or a
    Scaled: every factor split once, the mantissas multiplied in order and
    the product split once.

    That is the chain of Scaled products, which splits after every step,
    bit for bit: a split scales by a power of two, which commutes with the
    rounding of each later product while the mantissas' components stay in
    the normal float range (or are 0). A split mantissa's modulus lies in
    [1/2, 2), so a product of n of them lies in [2^-n, 2^n)."""
    m, k = None, 0
    for f in factors:
        z, fk = f if isinstance(f, Scaled) else (complex(f), 0)
        j = math.frexp(max(abs(z.real), abs(z.imag)))[1]  # split(z), inline on this hot path
        fm = complex(math.ldexp(z.real, -j), math.ldexp(z.imag, -j))
        m = fm if m is None else m * fm
        k += fk + j
    return split(m, k)


def normalized_residual(terms: Sequence[Sequence[complex | Scaled]]) -> Residual:
    """|sum of the terms| / max |term|, in the given term order, each term
    the product of its factors in order, a factor a complex number or a
    Scaled; degenerate 0 when every term vanishes.

    A product may overflow where the residual does not, so each term is a
    Scaled product; the terms are summed at the scale of the largest
    exponent. Scaling by a power of two is exact: a residual whose unscaled
    products are finite keeps its bits."""
    scaled = [product(factors) for factors in terms]
    top = max(t.k for t in scaled)
    terms = [complex(_ldexp(m.real, k - top), _ldexp(m.imag, k - top)) for m, k in scaled]
    m = max(abs(t) for t in terms)
    if m == 0.0:
        return Residual(0.0, degenerate=True)
    return Residual(abs(sum(terms)) / m)


class PoleError(ValueError):
    """An argument landed within tolerance of a gamma-function pole."""

    def __init__(self, z: complex, i: int, j: int):
        super().__init__(f"argument {z!r} is within tolerance of pole index (i={i}, j={j})")
        self.z = z
        self.indices = (i, j)


class AdmissibilityError(ValueError):
    """A contour/parameter configuration the quadrature cannot handle."""


class DomainError(ValueError):
    """An argument outside the domain a function is evaluated on: a point off
    the declared hyperplane family, or a non-finite bracket argument."""


class ConvergenceError(RuntimeError):
    """Adaptive quadrature hit its node cap before stabilizing.

    Carries the integral's parameters u, bases p and q, multiplicity n, node
    cap and last two values, so the failure can be replayed; the message
    gives the reason, then n, the cap and the gap between the two values.
    """

    def __init__(
        self,
        message: str,
        last: complex,
        previous: complex,
        *,
        u: tuple[complex, ...],
        p: complex,
        q: complex,
        n: int,
        cap: int,
    ):
        super().__init__(f"{message}: n={n}, cap={cap}, |last - previous|={abs(last - previous):.3e}")
        self.last = last
        self.previous = previous
        self.u, self.p, self.q, self.n, self.cap = u, p, q, n, cap


BRACKET_FLOOR = 1e-6


class BracketZeroError(ValueError):
    """A recursion denominator bracket fell under the genericity floor at the
    point x."""

    def __init__(self, label: str, magnitude: float, x: np.ndarray):
        super().__init__(
            f"bracket {label} has magnitude {magnitude:.3e} < {BRACKET_FLOOR}"
            f" at x={[complex(v) for v in x]!r}"
        )
        self.label = label
        self.magnitude = magnitude
        self.x = np.array(x, dtype=complex)


# A point that hits one of these is not generic enough for the check; a fresh
# draw is taken instead, up to _RESAMPLE_TRIES draws in all.
RESAMPLE_ERRORS = (BracketZeroError, AdmissibilityError, ConvergenceError)
_RESAMPLE_TRIES = 8


def resampled(draw):
    """Retry a draw-and-evaluate closure across RESAMPLE_ERRORS, and re-raise
    the last of them when no draw in _RESAMPLE_TRIES succeeds."""
    for _ in range(_RESAMPLE_TRIES - 1):
        try:
            return draw()
        except RESAMPLE_ERRORS:
            pass
    return draw()
