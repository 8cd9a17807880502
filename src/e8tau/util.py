"""Shared numeric helpers: the exponential character, residual type and its
normalisations, errors, and the retry of a draw across rejected points."""
from __future__ import annotations

import cmath
from typing import Sequence

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


def normalized_residual(terms: Sequence[complex]) -> Residual:
    """|sum of the terms| / max |term|, in the given term order; degenerate 0
    when every term vanishes."""
    m = max(abs(t) for t in terms)
    if m == 0.0:
        return Residual(0.0, degenerate=True)
    return Residual(abs(sum(terms)) / m)


def rel_diff(a: complex, b: complex) -> float:
    """Symmetric relative difference |a - b| / max(|a|, |b|)."""
    return abs(a - b) / max(abs(a), abs(b))


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
    the declared hyperplane family, or a bracket argument too many periods
    from the fundamental strip."""


class ConvergenceError(RuntimeError):
    """Adaptive quadrature hit its node cap before stabilizing.

    Carries the integral's parameters u, bases p and q, multiplicity n and
    node cap, so the failure can be replayed.
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
        super().__init__(
            f"{message} (last={last!r}, previous={previous!r}) at n={n}, cap={cap}, p={p!r}, q={q!r}, u={u!r}"
        )
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
# draw is taken instead.
RESAMPLE_ERRORS = (BracketZeroError, AdmissibilityError, ConvergenceError)


def resampled(draw, tries: int = 8):
    """Retry a draw-and-evaluate closure across RESAMPLE_ERRORS."""
    last = None
    for _ in range(tries):
        try:
            return draw()
        except RESAMPLE_ERRORS as err:
            last = err
    raise RuntimeError(f"no admissible draw in {tries} tries: {last!r}")
