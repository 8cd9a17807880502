"""Pin the quadrature fixed-point values: I1_FIXED at 4x the default node
count (1024 nodes), I2_FIXED at 1x (256 nodes per circle), each from the
fixed-node rule with no convergence test that tests/_reference.py keeps
(quad, the batch of one of integrals._quad_rows).

These frozen values guard against regressions in the node layout, index
reflection, and normalization of the contour rule. Run from the repository
root after the library builds:

    PYTHONPATH=src python3 scripts/gen_quad_oracles.py
"""
from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # for the tests' reference routes

from e8tau.integrals import IntegrandContext  # noqa: E402
from e8tau.specialfn import EllipticParams  # noqa: E402
from e8tau.util import e  # noqa: E402
from tests._reference import quad  # noqa: E402


def values() -> tuple[complex, complex]:
    """I1 at 1024 nodes and I2 at 256 nodes per circle, at the fixed point."""
    params = EllipticParams.from_bases(0.15, 0.1)
    u = tuple(0.3 * e(k / 11) for k in range(8))
    return (
        quad(IntegrandContext(u=u, params=params, n=1), 1024),
        quad(IntegrandContext(u=u, params=params, n=2), 256),
    )


if __name__ == "__main__":
    v1, v2 = values()
    out = ROOT / "tests" / "_quad_oracles.py"
    out.write_text(
        '"""Quadrature fixed points at 4x resolution; see scripts/gen_quad_oracles.py."""\n'
        f"I1_FIXED = complex({v1.real:.12e}, {v1.imag:.12e})\n"
        f"I2_FIXED = complex({v2.real:.12e}, {v2.imag:.12e})\n"
    )
    print(f"wrote {out}")
    print("I1 =", v1)
    print("I2 =", v2)
