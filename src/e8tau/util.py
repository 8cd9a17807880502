"""Shared numeric helpers: the exponential character, residual type, errors."""
from __future__ import annotations

import cmath


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


class PoleError(ValueError):
    """An argument landed within tolerance of a gamma-function pole."""

    def __init__(self, z: complex, i: int, j: int):
        super().__init__(f"argument {z!r} is within tolerance of pole index (i={i}, j={j})")
        self.z = z
        self.indices = (i, j)


class AdmissibilityError(ValueError):
    """A contour/parameter configuration the quadrature cannot handle."""


class DomainError(ValueError):
    """Evaluation point off the declared hyperplane family."""


class ConvergenceError(RuntimeError):
    """Adaptive quadrature hit its node cap before stabilizing.

    Carries the integral's parameters u, bases p and q, multiplicity n and
    node cap, when the raiser supplies them, so the failure can be replayed.
    """

    def __init__(
        self,
        message: str,
        last: complex,
        previous: complex,
        *,
        u: tuple[complex, ...] | None = None,
        p: complex | None = None,
        q: complex | None = None,
        n: int | None = None,
        cap: int | None = None,
    ):
        where = "" if n is None else f" at n={n}, cap={cap}, p={p!r}, q={q!r}, u={u!r}"
        super().__init__(f"{message} (last={last!r}, previous={previous!r}){where}")
        self.last = last
        self.previous = previous
        self.u, self.p, self.q, self.n, self.cap = u, p, q, n, cap


class TerminationError(ValueError):
    """Series parameters do not terminate the sum as required."""
