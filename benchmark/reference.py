"""The reference loop: a fixed piece of pure-Python work whose time measures
how fast the machine is running at that moment.

The shared host this benchmark runs on changes speed by up to 2-3x over a
few minutes, so two runs of the same code can differ by more than any useful
bound.  Every timed operation is therefore bracketed by this loop, and its
time is scaled to the speed at which the loop takes `NOMINAL_S`:

    normalised = measured * NOMINAL_S / (time of the loop around it)

The loop does the same kinds of work as the package (float arithmetic in
an AGM iteration, small object construction, float formatting) but is the
benchmark's own code: it imports nothing from the package, so a change to
the program cannot change the yardstick.  The cyclic garbage collector is
off while it runs, so a heap the program left behind cannot slow it.
"""

from __future__ import annotations

import gc
import math
import time

NOMINAL_S = 0.1
POINTS = 30_000


class _Point:
    __slots__ = ("x", "k", "e")

    def __init__(self, x: float, k: float, e: float) -> None:
        self.x = x
        self.k = k
        self.e = e


def _agm(x: float) -> tuple[float, float]:
    a, b = 1.0, math.sqrt(1.0 - x * x)
    w, s = 0.5, 0.5 * x * x
    while abs(a - b) > 1e-15 * a:
        a, b, c = (a + b) * 0.5, math.sqrt(a * b), (a - b) * 0.5
        w *= 2.0
        s += w * c * c
    k = math.pi / (2.0 * a)
    return k, k * (1.0 - s)


def loop_seconds(points: int = POINTS) -> float:
    """Wall time of one run of the reference loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        ring = [None] * 64
        acc = 0.0
        t0 = time.perf_counter()
        for i in range(points):
            x = ((i * 7919) % 9973 + 1) / 9974.0
            k, e = _agm(x)
            point = _Point(x, k, e)
            ring[i & 63] = point
            acc += len(f"{x!r},{k!r}") + point.e
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two reference loops into
    a time at the nominal speed."""
    return NOMINAL_S / (0.5 * (before + after))
