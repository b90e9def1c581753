"""Exact rational vectors with the coordinatewise partial order.

Points live in the nonnegative orthant of rational n-space.  All
coordinates are :class:`fractions.Fraction`; equality is exact and
there is no tolerance anywhere in this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

from .errors import DimensionMismatchError

RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, a "p/q" string or a Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def scale_to_integers(values: Iterable[Union[Fraction, int]]) -> tuple[int, list[int]]:
    """The least common denominator of exact values, and each value times it."""
    values = list(values)
    den = lcm(1, *(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


class Comparison(enum.Enum):
    LESS_OR_EQUAL = "LESS_OR_EQUAL"
    GREATER_OR_EQUAL = "GREATER_OR_EQUAL"
    EQUAL = "EQUAL"
    INCOMPARABLE = "INCOMPARABLE"


class Cone(enum.Enum):
    LOWER = "LOWER"
    UPPER = "UPPER"


@dataclass(frozen=True)
class PointN:
    """An immutable point of the nonnegative rational orthant.

    Suitable as a dictionary key: equality and hashing are structural.
    """

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = tuple(rat(c) for c in self.coords)
        if not coords:
            raise ValueError("a point needs at least one coordinate")
        for c in coords:
            if c < 0:
                raise ValueError(f"negative coordinate {c} not allowed")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_origin(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "PointN") -> "PointN":
        _require_same_dim(self, other)
        return PointN(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, factor: RationalLike) -> "PointN":
        k = rat(factor)
        if k < 0:
            raise ValueError("scaling factor must be nonnegative")
        return PointN(tuple(k * c for c in self.coords))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def point(*coords: RationalLike) -> PointN:
    """Convenience constructor: ``point(1, "1/2")``."""
    return PointN(tuple(rat(c) for c in coords))


def origin(dim: int) -> PointN:
    return PointN((Fraction(0),) * dim)


def _require_same_dim(x: PointN, y: PointN) -> None:
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {y.dim}")


def compare(x: PointN, y: PointN) -> Comparison:
    """Coordinatewise comparison in the partial order.

    EQUAL when the points coincide, LESS_OR_EQUAL / GREATER_OR_EQUAL for
    strict one-sided dominance, INCOMPARABLE otherwise.
    """
    _require_same_dim(x, y)
    le = all(a <= b for a, b in zip(x.coords, y.coords))
    ge = all(a >= b for a, b in zip(x.coords, y.coords))
    if le and ge:
        return Comparison.EQUAL
    if le:
        return Comparison.LESS_OR_EQUAL
    if ge:
        return Comparison.GREATER_OR_EQUAL
    return Comparison.INCOMPARABLE


def leq(x: PointN, y: PointN) -> bool:
    """True when x is below y (or equal) in the coordinatewise order."""
    _require_same_dim(x, y)
    return all(a <= b for a, b in zip(x.coords, y.coords))


def abs_diff(x: PointN, y: PointN) -> PointN:
    """Coordinatewise absolute difference of two points."""
    _require_same_dim(x, y)
    return PointN(tuple(abs(a - b) for a, b in zip(x.coords, y.coords)))


def axis_vector(j: int, t: RationalLike, n: int) -> PointN:
    """The point with value t at 1-based coordinate j and zero elsewhere.

    Requires t > 0: the degenerate all-zero point is written as the
    origin, never as an axis vector.
    """
    if not 1 <= j <= n:
        raise IndexError(f"axis index {j} out of range 1..{n}")
    value = rat(t)
    if value <= 0:
        raise ValueError(f"axis value must be positive, got {value}")
    return PointN(tuple(value if i == j else Fraction(0) for i in range(1, n + 1)))


def cone_select(points: Iterable[PointN], a: PointN, direction: Cone) -> set[PointN]:
    """Select the members of a finite set lying in a's lower or upper cone."""
    out = set()
    for x in points:
        _require_same_dim(x, a)
        if direction is Cone.LOWER and leq(x, a):
            out.add(x)
        elif direction is Cone.UPPER and leq(a, x):
            out.add(x)
    return out


def projection(a: PointN, j: int) -> Fraction:
    """The 1-based j-th coordinate of a point."""
    if not 1 <= j <= a.dim:
        raise IndexError(f"projection index {j} out of range 1..{a.dim}")
    return a.coords[j - 1]


def sort_key(p: PointN) -> tuple[Fraction, ...]:
    """Total (lexicographic) order used wherever deterministic output matters."""
    return p.coords
