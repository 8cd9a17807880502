"""Fixed reference computations that measure how fast the host runs.

The benchmark shares a host whose speed drifts by tens of percent, over
seconds as well as minutes: five runs of one seed, one after another, moved by
25 % in wall time. A burst is a fixed piece of work that uses no library
code. The worker times one between checks and divides each check's time by
the slowdown the bursts around it show, so timings read as if the host ran at
its nominal speed. A change to the library cannot move a burst, so its effect
shows in full.

The slow spells slow interpreter-bound code more than code that spends its
time in long numpy vectors, so there are two references, each shaped like the
hot code of the workloads that use it:

* ``interpreter``: a dict of small tuples and short complex vectors, like the
  lattice, Picard and residual code (``exact``, and every workload's set-up);
* ``vector``: short and long complex vectors, like elliptic-gamma products
  over quadrature nodes (``chain``, ``quadrature``).

Timed side by side with library calls of each kind for 200 s, the matching
reference cut the spread of the calls' speed across the run from 0.17-0.24
to 0.03 (quartile distance over median, 20 segments).
"""
from __future__ import annotations

import gc
import time

import numpy as np

# Burst time on a quiet 2-vCPU host (Python 3.11, numpy 2.4).
NOMINAL_S = {"interpreter": 2.0e-3, "vector": 2.2e-3}

_SHORT = 0.7 * np.exp(1j * np.linspace(0.0, 6.0, 256))
_LONG = 0.7 * np.exp(1j * np.linspace(0.0, 6.0, 8192))


def _objects() -> None:
    seen: dict[tuple[int, int, int], int] = {}
    for i in range(6000):
        key = (i % 7, i % 11, i % 13)
        seen[key] = seen.get(key, 0) + i


def _vectors(w: np.ndarray, rounds: int) -> None:
    for _ in range(rounds):
        w = (1.0 - 0.3 * w) * (1.0 - 0.2 / w)
        w = w / np.abs(w)


_PARTS = {
    "interpreter": (_objects, lambda: _vectors(_SHORT, 100)),
    "vector": (lambda: _vectors(_SHORT, 100), lambda: _vectors(_LONG, 8)),
}


def burst(reference: str) -> float:
    """Run one burst of the reference with the cyclic collector off; returns
    its wall time in seconds."""
    parts = _PARTS[reference]
    gc.disable()
    try:
        t0 = time.perf_counter()
        for part in parts:
            part()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def slowdown(times: list[float], reference: str) -> float:
    """Median burst time over the nominal one: above 1 on a slow host."""
    return float(np.median(times)) / NOMINAL_S[reference]
