"""Finite partial functions from rational points to nonnegative rationals.

A :class:`SampledFunction` carries finitely many exact samples and the
decision procedures for the three structural properties every other
module cares about: isotone, amenable, subadditive.  Each function is
prepared once as integers: its points as integer rows over one common
denominator, its values as ints over another, and the per-axis row maxima.
The domain order is the rows' order, which is the points' lexicographic
order, as each row is its point times one positive denominator; the items,
rows and int values are in that order.  Order scans, cone lookups and cover
tables compare those ints; the isotone and amenable verdicts are kept after
their first call, and points are built only where they are read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional

from .errors import (
    DimensionMismatchError,
    EmptyDomainError,
    MissingOriginError,
    NotIsotoneError,
)
from .points import PointN, RationalLike, first_inversion, rat, scale_to_integers


class SampledFunction:
    """A finite map A -> Q+ on points of one common dimension.

    Keys are distinct points (it is a function, not a relation), values are exact nonnegative
    rationals, and the domain is never empty.  Each entry is checked in turn, its dimension, then
    its value, then whether its point repeats, and each point is hashed once.  The domain is sorted
    by the points' integer rows, in lexicographic order of the points.  A function coded from a
    file's texts (``_from_texts``) builds its points and items, and its point -> value dict, each
    on first use, so a verb that reports no sample point builds none.
    """

    __slots__ = ("_dim", "_entries", "_sorted_domain", "_items", "_den", "_rows", "_caps", "_value_den", "_int_values",
                 "_isotone", "_amenable")

    def __init__(self, entries: dict[PointN, Fraction] | Iterable[tuple[PointN, RationalLike]]):
        if isinstance(entries, dict):
            items = list(entries.items())
        else:
            items = list(entries)
        if not items:
            raise EmptyDomainError("a sampled function needs at least one entry")
        table: dict[PointN, Fraction] = {}
        dim = items[0][0].dim
        for p, v in items:
            if p.dim != dim:
                raise DimensionMismatchError(
                    f"point {p} has dimension {p.dim}, expected {dim}"
                )
            value = rat(v)
            if value.numerator < 0:
                raise ValueError(f"negative value {value} at {p}")
            size = len(table)
            table[p] = value
            if len(table) == size:  # p was a key already: the one hash of p both finds and stores it
                raise ValueError(f"duplicate point {p}")
        # row k is domain point k times the common denominator _den, and int value k its value times _value_den;
        # distinct points have distinct rows, in the points' order, so the sort never compares two items
        den, flat = scale_to_integers(c for p in table for c in p.coords)
        rows = (tuple(flat[k:k + dim]) for k in range(0, len(flat), dim))
        rows, items = zip(*sorted(zip(rows, table.items())))
        self._prepare(dim, den, rows, *scale_to_integers(v for _, v in items))
        self._entries, self._items, self._sorted_domain = table, items, tuple(p for p, _ in items)

    @classmethod
    def _from_texts(cls, dim: int, points: list, values: list, parsed: dict) -> Optional["SampledFunction"]:
        """The function of points, lists of dim texts, valued values, texts, each text's nonnegative value in parsed:
        coded to rows and int values over the least denominators by dict lookups; None when a point repeats."""
        coords, texts = dict.fromkeys(chain.from_iterable(points)), dict.fromkeys(values)
        (den, ints), (value_den, value_ints) = (scale_to_integers(map(parsed.__getitem__, t)) for t in (coords, texts))
        rows = list(zip(*[map(dict(zip(coords, ints)).__getitem__, chain.from_iterable(points))] * dim))
        if len(set(rows)) < len(rows):  # distinct rows are distinct points
            return None
        rows, int_values = zip(*sorted(zip(rows, map(dict(zip(texts, value_ints)).__getitem__, values))))
        return cls.__new__(cls)._prepare(dim, den, rows, value_den, list(int_values))

    def _prepare(self, dim: int, den: int, rows: tuple, value_den: int, int_values: list[int]) -> "SampledFunction":
        """self with sample k at rows[k] / den valued int_values[k] / value_den, the rows distinct and sorted."""
        self._dim, self._den, self._rows, self._value_den, self._int_values = dim, den, rows, value_den, int_values
        self._caps = tuple(map(max, zip(*rows)))
        # the points by _points, the verdicts by is_isotone and is_amenable, each on first use
        self._entries = self._items = self._sorted_domain = self._isotone = self._amenable = None
        return self

    def _points(self) -> "SampledFunction":
        """self, its points and items built from the rows on first use."""
        if self._items is None:
            coord = {x: Fraction(x, self._den) for x in {*chain.from_iterable(self._rows)}}
            value = {v: Fraction(v, self._value_den) for v in {*self._int_values}}
            self._sorted_domain = tuple(PointN._trusted(tuple(map(coord.__getitem__, row))) for row in self._rows)
            self._items = tuple(zip(self._sorted_domain, map(value.__getitem__, self._int_values)))
        return self

    def _table(self) -> dict[PointN, Fraction]:
        if self._entries is None:  # the point -> value dict, built on first use: it hashes every point
            self._entries = dict(self.items())
        return self._entries

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def domain(self) -> tuple[PointN, ...]:
        """The sample points in lexicographic order."""
        return self._points()._sorted_domain

    def items(self) -> tuple[tuple[PointN, Fraction], ...]:
        return self._points()._items

    def value(self, p: PointN) -> Fraction:
        return self._table()[p]

    __getitem__ = value

    def __contains__(self, p: PointN) -> bool:
        return p in self._table()

    def __len__(self) -> int:
        return len(self._rows)

    def _key(self) -> tuple:
        return self._dim, self._den, self._rows, self._value_den, tuple(self._int_values)

    def __eq__(self, other) -> bool:
        return isinstance(other, SampledFunction) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{p}: {v}" for p, v in self.items())
        return f"SampledFunction({{{body}}})"


def is_isotone(f: SampledFunction) -> tuple[bool, Optional[tuple[PointN, PointN]]]:
    """Check order preservation on every comparable pair of samples.

    Returns (True, None) or (False, (x, y)) with x <= y but f(x) > f(y);
    the reported pair is the lexicographically least violation.  A
    sampled function is immutable, so the pair scan runs on the first
    call only and its verdict is kept on f.
    """
    if f._isotone is None:
        f._isotone = _isotone_scan(f)
    return f._isotone


def _isotone_scan(f: SampledFunction) -> tuple[bool, Optional[tuple[PointN, PointN]]]:
    pair = first_inversion(f._rows, f._int_values)
    return (True, None) if pair is None else (False, (f.domain[pair[0]], f.domain[pair[1]]))


def require_isotone(f: SampledFunction) -> None:
    ok, pair = is_isotone(f)
    if not ok:
        raise NotIsotoneError(f"not isotone: f{pair[0]} > f{pair[1]}")


def is_amenable(f: SampledFunction) -> tuple[bool, Optional[PointN]]:
    """Check that f vanishes at the origin and is positive elsewhere.

    The origin must be a sample point; otherwise the property is not
    even well posed and MissingOriginError is raised.  The verdict is kept.
    """
    if f._amenable is None:  # a kept verdict means the origin was found
        if any(f._rows[0]):  # the origin's row, all zeros, is the least row when the origin is a sample
            raise MissingOriginError("the origin is not a sample point")
        k = next((k for k, v in enumerate(f._int_values) if (v == 0) != (k == 0)), None)  # zero at the origin alone
        f._amenable = (True, None) if k is None else (False, f.domain[k])
    return f._amenable


def is_subadditive(f: SampledFunction):
    """Decide subadditivity of an isotone sampled function.

    f is subadditive when no sample point can be covered by a multiset
    of sample points of strictly smaller total value; the empty
    multiset covers the origin, so a positive value there counts as a
    violation.  Decided exactly by one cheapest-cover table over the
    integer rows and values of all non-origin samples (``_min_cover``,
    within its ``COVER_BUDGET``) whose targets are every sample; each cost
    is the subadditive envelope at that sample, as no sample reaches an
    axis without a positive sample.  The table codes each residual demand
    as one int and keeps one int cost per residual; which residuals it
    visits, which cheapest cover it certifies and the steps it counts
    against the budget do not depend on that coding.  On failure returns
    the cheapest covering certificate for the lexicographically least
    violated point.

    Returns (bool, Optional[CoverCertificate]).
    """
    require_isotone(f)
    from .continuation import CoverCertificate, _min_cover, _sample_ground

    costs, cover = _min_cover(_sample_ground(f, f._value_den), f._rows)
    for i, (cost, value) in enumerate(zip(costs, f._int_values)):
        if cost < value:
            return False, CoverCertificate(f.domain[i], cover(i), Fraction(cost, f._value_den))
    return True, None


def projection_support(f: SampledFunction) -> set[int]:
    """The 1-based coordinates on which some sample point is positive."""
    return {j for j, cap in enumerate(f._caps, start=1) if cap}
