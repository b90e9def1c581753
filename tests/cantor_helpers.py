"""Base-3 and symbolic helpers that only the Cantor tests need.

The other base-3 expansion of a value and the certified order of
q + r*tau values are facts about the representations that the library
never uses: membership reads digits until one settles it, and the
embedding compares coefficients, not values.
"""

from fractions import Fraction
from typing import Optional

from isoprod.cantor import Base3Expansion, SymbolicAffine, to_base3

TAU_LOWER = Fraction(314159, 100000)
TAU_UPPER = Fraction(31416, 10000)


class AmbiguousComparisonError(ArithmeticError):
    """A sign that would need sharper bounds on the adjoined symbol."""


def alternate(expansion: Base3Expansion) -> Optional[Base3Expansion]:
    """The other expansion of the same value, when one exists.

    A nonzero terminating expansion also has a two-tail form and vice
    versa; any other expansion is unique and None is returned.
    """
    if not expansion.period:
        digits = list(expansion.integer_digits + expansion.preperiod)
        nonzero = [i for i, d in enumerate(digits) if d]
        if not nonzero:
            return None
        last = nonzero[-1]
        digits[last] -= 1
        digits[last + 1:] = [2] * (len(digits) - last - 1)
        n_int = len(expansion.integer_digits)
        integer = tuple(digits[:n_int])
        while integer and integer[0] == 0:
            integer = integer[1:]
        return Base3Expansion(integer, tuple(digits[n_int:]), (2,))
    if expansion.period == (2,):
        return to_base3(expansion.to_fraction())
    return None


def sign(a: SymbolicAffine) -> int:
    """The certified sign of q + r*tau, from the rational bounds on tau."""
    if a.r == 0:
        return (a.q > 0) - (a.q < 0)
    low, high = (TAU_LOWER, TAU_UPPER) if a.r > 0 else (TAU_UPPER, TAU_LOWER)
    if a.q + a.r * low >= 0:
        return 1
    if a.q + a.r * high <= 0:
        return -1
    raise AmbiguousComparisonError(f"sign of {a} depends on sharper bounds for the symbol")
