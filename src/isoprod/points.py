"""Exact rational vectors with the coordinatewise partial order.

Points live in the nonnegative orthant of rational n-space.  All
coordinates are :class:`fractions.Fraction`; equality is exact and
there is no tolerance anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import attrgetter, le
from typing import Iterable, Optional, Sequence, Union

from .errors import DimensionMismatchError, OutOfRangeError

RationalLike = Union[Fraction, int, str]
# Digits of scale_to_integers' common denominator: 1,600 samples over 33 coprime 300-digit denominators (536 KB)
# take 0.33 s, 27 MB in extend-sup and 6.5 s, 73 MB in check (Xeon, Python 3.11); unbounded, 9.9 s and 343 MB.
DENOMINATOR_DIGITS_CAP = 10_000


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
    """The least common denominator of exact values, and each value times it; OutOfRangeError once the
    lcm of the distinct denominators, taken in turn, has more digits than DENOMINATOR_DIGITS_CAP."""
    values, den = list(values), 1
    for d in {v.denominator for v in values}:  # below 2 ** (3 * cap) < 10 ** cap, den has at most cap digits
        if (den := lcm(den, d)).bit_length() > 3 * DENOMINATOR_DIGITS_CAP and den >= 10 ** DENOMINATOR_DIGITS_CAP:
            raise OutOfRangeError(f"the common denominator exceeds the cap of {DENOMINATOR_DIGITS_CAP} digits")
    return den, [v.numerator * (den // v.denominator) for v in values]


class Record:
    """A frozen value record with the contract of ``@dataclass(frozen=True)``: the fields are
    the class annotations in order, a class attribute of a field's name is its default, and
    ``__post_init__``, where a record defines it, runs once the fields are set."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names, owned = tuple(type(self).__annotations__), vars(type(self))
        given = dict(**dict(zip(names, args)), **kwargs)  # a field given twice raises TypeError
        values = {**{n: owned[n] for n in names if n in owned}, **given}
        if len(args) > len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes each of the fields {names} once")
        self.__dict__.update(values)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__annotations__)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__annotations__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_numerator = attrgetter("numerator")


class PointN(Record):
    """An immutable point of the nonnegative rational orthant.

    Suitable as a dictionary key: equality and hashing are structural.
    """

    __slots__ = ("coords",)
    coords: tuple[Fraction, ...]

    def __init__(self, coords):
        coords = tuple(map(rat, coords))
        if not coords:
            raise ValueError("a point needs at least one coordinate")
        if min(map(_numerator, coords)) < 0:  # a Fraction has the sign of its numerator
            raise ValueError(f"negative coordinate {next(c for c in coords if c < 0)} not allowed")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def _trusted(cls, coords: tuple[Fraction, ...]) -> "PointN":  # coords nonempty and nonnegative, unchecked
        p = object.__new__(cls)
        object.__setattr__(p, "coords", coords)
        return p

    def __eq__(self, other):  # the record's, unrolled: points are the key of every hot loop
        return self.coords == other.coords if other.__class__ is PointN else NotImplemented

    def __hash__(self):
        return hash((self.coords,))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_origin(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "PointN") -> "PointN":
        _require_same_dim(self, other)
        return PointN(tuple(a + b for a, b in zip(self.coords, other.coords)))

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


def leq(x: PointN, y: PointN) -> bool:
    """True when x is below y (or equal) in the coordinatewise order."""
    _require_same_dim(x, y)
    return all(a <= b for a, b in zip(x.coords, y.coords))


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


def isotone_by_unit_steps(ints: Sequence, sizes: Sequence[int]) -> bool:
    """Does no unit step along an axis decrease the flat grid values? Axis sizes run most significant first."""
    blocks = [prod(sizes[j:]) for j in range(len(sizes) + 1)]  # the block each axis leads, then 1
    return all(all(map(le, ints[o:o + b - s], ints[o + s:o + b])) for b, s in zip(blocks, blocks[1:])
               for o in range(0, len(ints), b))


def first_inversion(keys: Sequence[Sequence], values: Sequence) -> Optional[tuple[int, int]]:
    """The first index pair (i, k), i-major, with keys[i] <= keys[k] coordinatewise but
    values[i] > values[k], or None when the values are isotone in the keys."""
    for i, (key, value) in enumerate(zip(keys, values)):
        for k, (other, v) in enumerate(zip(keys, values)):
            if value > v and all(map(le, key, other)):
                return i, k
    return None
