"""Named closed-form combiners for distance tuples.

All but SQRT_SUM_SQ are exact on rationals; SQRT_SUM_SQ evaluates in
floating point, refuses a nonzero tuple whose sum of squares over- or
underflows a float, and is flagged so callers keep it out of exact-equality
checks.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Sequence

from .errors import OutOfRangeError
from .points import Record, rat

COMBINER_NAMES = ("SUM", "MAX", "SQRT_SUM_SQ", "CAPPED_SUM", "SQUARE_SUM")


class Combiner(Record):
    name: str
    fn: Callable[[Sequence[Fraction]], object]
    exact: bool = True

    def __call__(self, values: Sequence[Fraction]):
        return self.fn(values)


def named_combiner(name: str, cap=Fraction(1)) -> Combiner:
    """Look up a closed form by name; CAPPED_SUM takes the cap value."""
    if name == "SUM":
        return Combiner("SUM", lambda v: sum(v, Fraction(0)))
    if name == "MAX":
        return Combiner("MAX", lambda v: max(v))
    if name == "SQUARE_SUM":
        return Combiner("SQUARE_SUM", lambda v: sum((x * x for x in v), Fraction(0)))
    if name == "SQRT_SUM_SQ":
        return Combiner("SQRT_SUM_SQ", _sqrt_sum_sq, exact=False)
    if name == "CAPPED_SUM":
        cap = rat(cap)
        if cap <= 0:
            raise ValueError(f"cap must be positive, got {cap}")
        return Combiner("CAPPED_SUM", lambda v: min(cap, sum(v, Fraction(0))))
    raise ValueError(f"unknown combiner {name!r}; expected one of {COMBINER_NAMES}")


def _sqrt_sum_sq(values: Sequence[Fraction]) -> float:
    total = sum(x * x for x in values)
    square = float(total) if total <= sys.float_info.max else math.inf
    if total and not 0 < square < math.inf:
        where = ", ".join(map(str, values))
        raise OutOfRangeError(f"SQRT_SUM_SQ at ({where}): the sum of squares is no positive finite float")
    return math.sqrt(square)
