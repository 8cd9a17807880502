"""Reference routes that only the tests and scripts read, kept beside the
library routes they cross-check."""
from __future__ import annotations

import numpy as np

from e8tau import integrals, tau
from e8tau.integrals import IntegrandContext
from e8tau.specialfn import EllipticParams


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
