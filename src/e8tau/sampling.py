"""Deterministic parameter samplers for identity checks.

All randomness flows through a counter-based generator so that suite runs
are reproducible from a single integer seed.
"""
from __future__ import annotations

import cmath

import numpy as np

from .util import DomainError, e


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.Philox(seed))


def sample_balanced(rng: np.random.Generator, target: complex, modulus: float):
    """Eight parameters with u_1..u_7 on |u| = modulus and u_0 solving
    u_0 u_1 ... u_7 = target exactly. When |target| = modulus^8 the solved
    entry lands on the same circle. DomainError when the product of u_1..u_7
    underflows to 0 or u_0 is not finite."""
    phases = rng.random(7)
    rest = [modulus * e(t) for t in phases]
    prod = 1.0 + 0j
    for v in rest:
        prod *= v
    u0 = target / prod if prod else cmath.inf
    if not cmath.isfinite(u0):
        raise DomainError(f"balanced draw at modulus {modulus:.3g} has no finite solved entry")
    return (u0, *rest)


# Draws rejected before a sampler gives up with DomainError.
_MAX_TRIES = 2000


def sample_level_x(
    rng: np.random.Generator,
    level: complex,
    band: tuple[float, float],
    band_last: tuple[float, float],
) -> np.ndarray:
    """Random additive point with half the coordinate sum equal to level.

    Coordinates 0..6 get uniform phases and log-uniform |e(x_i)| inside band;
    the last coordinate is solved, and the draw is rejected until |e(x_7)|
    falls inside band_last. Real parts are centered at 0 and the solved real
    part is capped at 1.25 in modulus, keeping the quadratic gauge factors
    e(n Q(x)) within floating-point range. DomainError when a band bound is
    not a positive finite float (a modulus that underflows to 0, say), or
    when no draw lands in band_last.
    """
    lo, hi, lo_l, hi_l = bounds = [float(b) for b in (*band, *band_last)]
    if not all(0.0 < b < np.inf for b in bounds):
        raise DomainError(f"sampling band bounds {bounds} are not all positive and finite")
    for _ in range(_MAX_TRIES):
        mods = np.exp(rng.uniform(np.log(lo), np.log(hi), size=7))
        x = (rng.random(7) - 0.5) + 1j * (-np.log(mods) / (2 * np.pi))
        x7 = 2.0 * level - np.sum(x)
        m7 = abs(np.exp(2j * np.pi * x7))
        if lo_l <= m7 <= hi_l and abs(x7.real) <= 1.25:
            return np.append(x, x7)
    raise DomainError(f"rejection sampling failed to place the solved coordinate in {_MAX_TRIES} draws")


def sample_on_level(rng: np.random.Generator, params, n: float) -> np.ndarray:
    """Point with half the coordinate sum equal to varpi + n*step.

    Moduli |e(x_i)| are drawn within 5% of the geometric mean
    (|p|^2 |q|^(2n))^(1/8) forced by the level, and the solved one within a
    factor 1.2 of it, so products u_i*u_j stay well inside the unit disk.
    """
    level = params.varpi + n * params.delta
    m_star = (abs(params.p) ** 2 * abs(params.q) ** (2.0 * n)) ** 0.125
    return sample_level_x(rng, level, (m_star * 0.95, m_star * 1.05), (m_star / 1.2, m_star * 1.2))
