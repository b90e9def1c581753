"""Exact base-3 machinery for the Cantor set and its dilation union.

Membership and expansion share one long-division digit walk: the
preperiod is as long as the exponent of 3 in the reduced denominator,
and the period ends when the remainder returns to its value after the
preperiod, so no digit or remainder is stored.  Membership stops at
the first digit that settles it.  The constructive distance
decompositions return verified witness pairs, and the three-point line
search plus the interval-pair refutation settle which line triangles
embed into the dilation-closed Cantor set.  The transcendental
embedding adjoins a single symbol; no comparison here ever needs its
numeric value.  Levels above ``LEVEL_CAP`` are an input error, raised
before any of their 2^level intervals is built.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .errors import NonTriadicDenominatorError, OutOfRangeError, RationalInputError
from .points import RationalLike, Record, rat

LEVEL_CAP = 18  # refutation at 18: 0.4 s; universal search --ce-level 18: 16 s, 180 MB, most in its line search


def _base3_value(digits: Iterable[int]) -> int:
    """The integer written by base-3 digits, most significant first."""
    value = 0
    for d in digits:
        value = value * 3 + d
    return value


class Base3Expansion(Record):
    """An eventually periodic base-3 representation of a rational >= 0.

    integer_digits are most significant first with no leading zeros;
    an empty period means the expansion terminates.
    """

    integer_digits: tuple[int, ...]
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        for d in (*self.integer_digits, *self.preperiod, *self.period):
            if d not in (0, 1, 2):
                raise ValueError(f"invalid base-3 digit {d}")
        if self.integer_digits and self.integer_digits[0] == 0:
            raise ValueError("integer digits must not have leading zeros")

    def to_fraction(self) -> Fraction:
        """(I*3^k + P)/3^k + R/((3^m - 1)*3^k), where I, P and R are the values of the integer,
        preperiod and period digits, k is the preperiod's length and m the period's."""
        scale = 3 ** len(self.preperiod)
        value = Fraction(_base3_value(self.integer_digits + self.preperiod), scale)
        if self.period:
            value += Fraction(_base3_value(self.period), (3 ** len(self.period) - 1) * scale)
        return value

    def all_digits(self) -> tuple[int, ...]:
        return self.integer_digits + self.preperiod + self.period


def _low_digits(n: int) -> Iterator[int]:
    """Base-3 digits of an integer n >= 0, least significant first."""
    while n:
        n, d = divmod(n, 3)
        yield d


def _split_threes(den: int) -> tuple[int, int]:
    """(k, m) with den = 3**k * m and m not divisible by 3."""
    k = 0
    while den % 3 == 0:
        den //= 3
        k += 1
    return k, den


def _digit_walk(rem: int, den: int, preperiod: int) -> Iterator[int]:
    """Base-3 digits of rem/den by long division: the preperiod, then one period.

    rem/den must be reduced with 0 <= rem < den, and preperiod must be
    the exponent of 3 in den.  The period ends when the remainder
    returns to its value after the preperiod; it is empty when that
    value is 0, which happens exactly when den is a power of 3.
    """
    for _ in range(preperiod):
        d, rem = divmod(3 * rem, den)
        yield d
    start = rem
    while rem:
        d, rem = divmod(3 * rem, den)
        yield d
        if rem == start:
            return


def to_base3(t: RationalLike) -> Base3Expansion:
    """Canonical base-3 expansion of a nonnegative rational, by long division.

    The preperiod is as long as the exponent of 3 in the reduced
    denominator and the period is minimal; the expansion terminates
    exactly when that denominator is a power of 3, and the canonical
    form never ends in an all-2 tail.
    """
    t = rat(t)
    if t < 0:
        raise ValueError(f"expected a nonnegative rational, got {t}")
    whole, rem = divmod(t.numerator, t.denominator)
    preperiod = _split_threes(t.denominator)[0]
    digits = tuple(_digit_walk(rem, t.denominator, preperiod))
    return Base3Expansion(
        tuple(_low_digits(whole))[::-1], digits[:preperiod], digits[preperiod:]
    )


def in_cantor(t: RationalLike) -> bool:
    """Membership of a rational in the middle-thirds Cantor set.

    True when t lies in [0, 1] and at least one of its base-3
    expansions avoids the digit 1.  The dilation union of
    :func:`in_scaled_cantor` meets [0, 1] in the Cantor set itself.
    """
    return rat(t) <= 1 and in_scaled_cantor(t)


def in_scaled_cantor(t: RationalLike) -> bool:
    """Membership in the union of the Cantor set with all its 3^n dilates.

    True when some base-3 expansion of t, integer and fractional digits
    together, avoids the digit 1.  Digits are read until one settles
    the answer, never stored.  When the reduced denominator has a prime
    factor other than 3 the expansion is unique: the integer digits and
    then the digit walk are read up to the first 1, and a period that
    closes without one means membership.  When the denominator is 3^k
    the digits are those of the numerator, k of them after the point,
    and a 1 is allowed only as the last nonzero digit, which the other
    expansion turns into 0222....
    """
    t = rat(t)
    if t < 0:
        return False
    num, den = t.numerator, t.denominator
    preperiod, rest = _split_threes(den)
    if rest == 1:
        while num and num % 3 == 0:
            num //= 3
        if num % 3 == 1:
            num //= 3
        return 1 not in _low_digits(num)
    whole, rem = divmod(num, den)
    return 1 not in _low_digits(whole) and 1 not in _digit_walk(rem, den, preperiod)


def _require_triadic(t: Fraction) -> None:
    """Raise unless the reduced denominator of t is a power of three."""
    if _split_threes(t.denominator)[1] != 1:
        raise NonTriadicDenominatorError(
            f"denominator of {t} is not a power of three"
        )


def cantor_decompose(t: RationalLike) -> tuple[Fraction, Fraction]:
    """Two Cantor-set rationals at exact distance t, for triadic t in [0, 1].

    For t = a/3^k in (0, 1) the pair is y = 1 - V/3^k and x = y + t, V being
    twice the sum of 3^i over the places i where floor((3^k + a)/2) has the
    base-3 digit 2.  Those k digits are the digits of (1 + t)/2, followed by
    a period of 1s when 3^k + a is odd; splitting each digit into two digits
    from {0, 2} that average to it (1 -> 2, 0; 2 -> 2, 2) gives Cantor values
    u + v = 1 + t with v = V/3^k, so (x, y) = (u, 1 - v).  Membership is
    re-verified before returning.
    """
    t = rat(t)
    if t < 0 or t > 1:
        raise OutOfRangeError(f"{t} lies outside [0, 1]")
    _require_triadic(t)
    if t == 0:
        return Fraction(0), Fraction(0)
    if t == 1:
        return Fraction(1), Fraction(0)

    den = t.denominator
    twos = sum(3**i for i, d in enumerate(_low_digits((den + t.numerator) // 2)) if d == 2)
    y = Fraction(den - 2 * twos, den)
    x = y + t
    if not (in_cantor(x) and in_cantor(y)):
        raise AssertionError(f"decomposition {x}, {y} of {t} is wrong")
    return x, y


def scaled_cantor_distance_witness(t: RationalLike) -> tuple[Fraction, Fraction]:
    """Two members of the dilated Cantor union at exact distance t >= 0.

    Scales t into [0, 1] by a power of three, decomposes there and
    scales the witness pair back; membership is re-verified by the
    digit test, not assumed.
    """
    t = rat(t)
    if t < 0:
        raise OutOfRangeError(f"{t} is negative")
    _require_triadic(t)
    power = 0
    scaled = t
    while scaled > 1:
        scaled /= 3
        power += 1
    x0, y0 = cantor_decompose(scaled)
    x, y = x0 * 3**power, y0 * 3**power
    if not (x - y == t and in_scaled_cantor(x) and in_scaled_cantor(y)):
        raise AssertionError(f"witness {x}, {y} of {t} is wrong")
    return x, y


def cantor_level_starts(level: int) -> list[int]:
    """Left endpoints of the level-k Cantor intervals, in units of 3^-k; k is at most LEVEL_CAP."""
    if level < 1:
        raise ValueError("level must be at least 1")
    if level > LEVEL_CAP:
        raise OutOfRangeError(f"level {level} exceeds the level cap {LEVEL_CAP}: it would build 2^{level} intervals")
    return [_base3_value(digits) for digits in itertools.product((0, 2), repeat=level)]


def scaled_cantor_level_set(level: int) -> list[Fraction]:
    """Endpoints of the level-k intervals of the dilated Cantor union in [0, 3].

    The dilation union meets [0, 3] in the Cantor set plus its triple,
    so the endpoint set is the union of both endpoint families.
    """
    scale = 3**level
    ends = {e for p in cantor_level_starts(level) for e in (p, p + 1, 3 * p, 3 * p + 3)}
    return [Fraction(e, scale) for e in sorted(ends)]


def three_point_search(
    values: Iterable[RationalLike], a: RationalLike, b: RationalLike
) -> Optional[tuple[Fraction, Fraction, Fraction]]:
    """Find a line triangle with gaps a, b inside a finite set, exactly.

    Searches for x1, x2, x3 with |x1-x2| = a, |x2-x3| = b and
    |x1-x3| = a + b.  Every satisfying triple has x2 = x1 +- a and
    x3 = x2 +- b, so scanning those candidates over the whole set is an
    exhaustive search; None is only returned when no triple exists.
    """
    a, b = rat(a), rat(b)
    if a <= 0 or b <= 0:
        raise ValueError("gaps must be positive")
    ordered = sorted({rat(v) for v in values})
    members = set(ordered)
    for x1 in ordered:
        for x2 in (x1 + a, x1 - a):
            if x2 not in members:
                continue
            for x3 in (x2 + b, x2 - b):
                if x3 in members and abs(x1 - x3) == a + b:
                    return x1, x2, x3
    return None


class ComboEvidence(Record):
    """Interval pairs clustering at one limit combination."""

    x_star: Fraction
    y_star: Fraction
    pair_count: int
    example: tuple[Fraction, Fraction]


class TripleRefutationReport(Record):
    level: int
    candidate_rejections: tuple[tuple[Fraction, str], ...]
    combos: tuple[ComboEvidence, ...]
    stray_pairs: tuple[tuple[Fraction, Fraction], ...]
    gap_holds: bool
    ok: bool

    def to_jsonable(self) -> dict:
        return {
            "level": self.level,
            "candidate_rejections": [
                {"value": str(v), "reason": r} for v, r in self.candidate_rejections
            ],
            "combos": [
                {
                    "x_star": str(c.x_star),
                    "y_star": str(c.y_star),
                    "pair_count": c.pair_count,
                    "example": [str(c.example[0]), str(c.example[1])],
                }
                for c in self.combos
            ],
            "stray_pairs": [[str(a), str(b)] for a, b in self.stray_pairs],
            "gap_holds": self.gap_holds,
            "ok": self.ok,
        }


def scaled_cantor_triple_refutation(level: int = 10) -> TripleRefutationReport:
    """Mechanical evidence that no dilated-Cantor triple has gaps 1/3 and 1/6.

    Three facts are verified: the five offset candidates at distance
    1/6 from a gap-1/3 pair are rejected (three by digit membership,
    two by range); every pair of level-k Cantor intervals able to
    realize a difference of 1/3 hugs one of the six limit endpoint
    combinations, all six occurring; and no level-k interval meets the
    open middle third.
    """
    if level < 2:
        raise ValueError("level must be at least 2 to resolve thirds")
    starts = cantor_level_starts(level)
    third = 3 ** (level - 1)
    scale = Fraction(3) ** -level

    rejections = []
    for z in (Fraction(-1, 6), Fraction(7, 6)):
        if 0 <= z <= 1:
            raise AssertionError(f"{z} lies in [0, 1]")
        rejections.append((z, "outside [0, 1]"))
    for z in (Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)):
        if in_cantor(z):
            raise AssertionError(f"{z} lies in the Cantor set")
        rejections.append((z, "no digit-{0,2} expansion"))
    rejections.sort(key=lambda item: item[0])

    member = set(starts)
    # the matched (p, q) of each limit combination (x*, y*), in units of 3^-level
    pairs = {(cx * third, cy * third): [] for cx, cy in ((0, 1), (1, 2), (2, 3), (1, 0), (2, 1), (3, 2))}
    strays = []
    deltas = (third - 1, third, third + 1, -(third - 1), -third, -(third + 1))
    for p in starts:
        for delta in deltas:
            q = p - delta
            if q not in member:
                continue
            for cx, cy in pairs:
                if abs(p - cx) <= 1 and abs(q - cy) <= 1:
                    pairs[cx, cy].append((p, q))
                    break
            else:
                strays.append((p * scale, q * scale))

    combos = tuple(
        ComboEvidence(x_star=cx * scale, y_star=cy * scale, pair_count=len(found),
                      example=(found[0][0] * scale, found[0][1] * scale) if found else (Fraction(-1), Fraction(-1)))
        for (cx, cy), found in pairs.items()
    )
    gap_holds = all(p + 1 <= third or p >= 2 * third for p in starts)
    ok = not strays and all(pairs.values()) and gap_holds and len(rejections) == 5
    return TripleRefutationReport(
        level=level,
        candidate_rejections=tuple(rejections),
        combos=combos,
        stray_pairs=tuple(strays),
        gap_holds=gap_holds,
        ok=ok,
    )


class SymbolicAffine(Record):
    """A value q + r*tau for one fixed transcendental symbol tau.

    Addition and subtraction act componentwise; the value is rational
    exactly when r = 0.  Values are never ordered: the embedding compares
    coefficients only.
    """

    q: Fraction
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        object.__setattr__(self, "r", Fraction(self.r))

    def is_rational(self) -> bool:
        return self.r == 0

    @staticmethod
    def _coerce(other) -> "SymbolicAffine":
        if isinstance(other, SymbolicAffine):
            return other
        return SymbolicAffine(rat(other), Fraction(0))

    def __add__(self, other):
        other = self._coerce(other)
        return SymbolicAffine(self.q + other.q, self.r + other.r)

    def __sub__(self, other):
        other = self._coerce(other)
        return SymbolicAffine(self.q - other.q, self.r - other.r)

    def __str__(self):
        return f"{self.q} + {self.r}*tau"


def transcendental_embed(values: Iterable[RationalLike]) -> dict[Fraction, SymbolicAffine]:
    """Shift a finite set of rationals by the transcendental symbol.

    Every image has symbol coefficient 1, hence lies outside the
    rationals, while all pairwise differences stay rational and equal
    the original differences exactly: an isometric embedding.
    """
    return {rat(v): SymbolicAffine(rat(v), Fraction(1)) for v in values}


class RationalSubspaceRefutation(Record):
    """Certificate that a distance with nonzero symbol part is never realized by rationals."""

    value: SymbolicAffine
    tau_coefficient: Fraction
    statement: str


def rational_subspace_refutation(a: SymbolicAffine) -> RationalSubspaceRefutation:
    """Certify that no two rationals lie at distance a, for a with symbol part.

    The difference of two rationals has symbol coefficient 0; a value
    with a nonzero coefficient can therefore never be such a difference.
    """
    if a.r == 0:
        raise RationalInputError(f"{a} is rational; the refutation needs r != 0")
    return RationalSubspaceRefutation(
        value=a,
        tau_coefficient=a.r,
        statement=(
            f"every difference of two rationals has tau-coefficient 0, but "
            f"{a} has tau-coefficient {a.r} != 0; no rational pair realizes it"
        ),
    )
