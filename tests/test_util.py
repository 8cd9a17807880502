"""Scaled products and the normalized residual against the chain of Scaled
products they replace."""
from __future__ import annotations

from functools import reduce
from operator import mul

import numpy as np

from e8tau.util import Residual, Scaled, normalized_residual, product, split


def _residual_by_chain(terms):
    """The reference residual: each term the chain of Scaled products,
    split after every step (reduce over Scaled.__mul__), as
    normalized_residual computed it before each factor was split once."""
    scaled = [
        reduce(mul, (split(f.m, f.k) if isinstance(f, Scaled) else split(complex(f)) for f in factors))
        for factors in terms
    ]
    top = max(t.k for t in scaled)
    vals = [complex(Scaled(t.m, t.k - top)) for t in scaled]
    m = max(abs(t) for t in vals)
    if m == 0.0:
        return Residual(0.0, degenerate=True)
    return Residual(abs(sum(vals)) / m)


def _bits(v: Scaled):
    return v.m.real.hex(), v.m.imag.hex(), v.k


def _factor(rng):
    # whole values near 1e-300, 1, 1e300, as complex numbers or Scaled
    # mantissas with exponents up to +-3000
    mag = 10.0 ** rng.choice([-300.0, -150.0, 0.0, 150.0, 300.0]) * rng.uniform(0.5, 2.0)
    z = complex(mag * rng.standard_normal(), mag * rng.standard_normal())
    return Scaled(z, int(rng.integers(-3000, 3001))) if rng.random() < 0.5 else z


def test_one_split_per_factor_is_the_chain_of_scaled_products():
    rng = np.random.default_rng(np.random.Philox(53))
    for _ in range(3000):
        terms = [[_factor(rng) for _ in range(int(rng.integers(1, 6)))] for _ in range(int(rng.integers(1, 5)))]
        got, want = normalized_residual(terms), _residual_by_chain(terms)
        assert float(got).hex() == float(want).hex() and got.degenerate == want.degenerate, terms
        for factors in terms:
            want = reduce(mul, (split(f.m, f.k) if isinstance(f, Scaled) else split(f) for f in factors))
            assert _bits(product(factors)) == _bits(want)


def test_all_zero_terms_are_degenerate_on_both_routes():
    terms = [(0j, Scaled(0.5, 3000)), (Scaled(0j, -3000), 1e300 + 1e300j), (0.0,)]
    got, want = normalized_residual(terms), _residual_by_chain(terms)
    assert got == want == 0.0 and got.degenerate and want.degenerate
