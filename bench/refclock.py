"""Reference loop that turns raw timings into reference-scaled timings.

The machine this benchmark runs on changes speed from second to second,
so a raw wall-clock time says as much about the machine as about the
program.  Every timed interval therefore has this fixed stdlib-Fraction
computation run right before and right after it, and the interval is
reported as raw * R_NOMINAL_S / R_measured, where R_measured is the mean
of those two reference timings.  The loop touches nothing in isoprod and
keeps no objects, so the program under test cannot change its cost.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Typical duration of one reference loop on the machine the README
# describes; scaled figures read as seconds on a machine of that speed.
R_NOMINAL_S = 0.011


def _reference_work() -> None:
    # The same mix as isoprod's kernels: tuple keys, dict lookups, exact
    # Fraction subtraction and comparison over a small lattice.
    values = {}
    for i in range(8):
        for j in range(8):
            values[(i, j)] = Fraction(i * j + 1, i + j + 1)
    keys = list(values)
    worst = Fraction(0)
    for x in keys[::8]:
        vx = values[x]
        for y in keys:
            excess = abs(vx - values[y]) - values[(abs(x[0] - y[0]), abs(x[1] - y[1]))]
            if excess > worst:
                worst = excess


def reference_seconds() -> float:
    """Run the reference loop once after a full collection; return its wall time.

    The loop is three equal parts and the timing is three times the
    median part, so one interruption of a few milliseconds does not
    move the reference.
    """
    gc.collect()
    parts = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        parts.append(time.perf_counter() - start)
    return 3 * sorted(parts)[1]


def scale_factor(before: float, after: float) -> float:
    """Multiplier from raw seconds to reference-scaled seconds."""
    return R_NOMINAL_S / ((before + after) / 2)


class ScaledTimer:
    """Times intervals, each bracketed by the reference loop.

    ``time(fn)`` returns (result, raw seconds, factor, (before, after));
    the "after" reference of one interval is not reused as the "before"
    of the next, because output checks run in between.
    """

    def __init__(self):
        self.references: list[float] = []

    def time(self, fn):
        before = reference_seconds()
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        after = reference_seconds()
        self.references.extend((before, after))
        return result, raw, scale_factor(before, after), (before, after)
