"""Grid-restricted modulus of continuity and its fixed points.

Functions live on the rectangular lattice {0, h, 2h, ..., T}^n.  For
isotone subadditive functions the lattice modulus agrees exactly with
the function itself, so the fixed-point test is an exact equality, not
an approximation; for arbitrary functions the lattice value is a
certified lower bound of the continuous modulus.

The pair scans walk flat integer codes.  Lattice index i has the code
sum(i_k * (cells + 1) ** (n - 1 - k)), which keeps the lexicographic
order; the difference |x - y| of two lattice points is a lattice point.
The values are scaled to ints over one denominator once, where a grid
function is built; only a reported value becomes a Fraction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial, reduce
from operator import add, attrgetter, gt
from typing import Callable, Iterable, Optional

from .errors import OffLatticeError
from .points import PointN, RationalLike, Record, rat, scale_to_integers


class GridFunction:
    """A total function on the lattice {0, h, ..., T}^n with rational values.

    The values are kept in one flat list in lattice-code order, the
    lexicographic order of the index tuples, as ints over one denominator.
    """

    __slots__ = ("_n", "_bound", "_step", "_cells", "_value_den", "_int_values")

    def __init__(self, n: int, bound: RationalLike, step: RationalLike,
                 values: dict[tuple[int, ...], Fraction]):
        bound = rat(bound)
        step = rat(step)
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if bound <= 0 or step <= 0:
            raise ValueError("bound and step must be positive")
        cells = bound / step
        if cells.denominator != 1:
            raise ValueError(f"step {step} does not divide bound {bound}")
        self._n = n
        self._bound = bound
        self._step = step
        self._cells = int(cells)
        if len(values).bit_length() <= n:  # 2 ** n > len(values): no index is built for a dimension this large
            raise ValueError(f"missing lattice values: {len(values)} are too few for dimension n, as 2**n are needed")
        flat = []
        for idx in self.indices():
            if idx not in values:
                raise ValueError(f"missing lattice value at index {idx}")
            v = rat(values[idx])
            if v < 0:
                raise ValueError(f"negative value {v} at index {idx}")
            flat.append(v)
        if len(values) != len(flat):
            raise ValueError("values contain off-lattice entries")
        self._value_den, self._int_values = scale_to_integers(flat)

    @classmethod
    def from_points(cls, n: int, bound, step, entries: Iterable[tuple[PointN, RationalLike]]) -> "GridFunction":
        bound = rat(bound)
        step = rat(step)
        if bound <= 0 or step <= 0:  # before _index_of divides by the step
            raise ValueError("bound and step must be positive")
        values = {}
        axis_index = {}  # each distinct coordinate is indexed once
        for p, v in entries:
            idx = tuple(map(axis_index.get, p.coords))
            if len(idx) != n or None in idx:
                idx = _index_of(p, n, bound, step)
                axis_index.update(zip(p.coords, idx))
            if idx in values:
                raise ValueError(f"duplicate lattice point {p}")
            values[idx] = rat(v)
        return cls(n, bound, step, values)

    @classmethod
    def from_callable(cls, n: int, bound, step, fn: Callable[[tuple[Fraction, ...]], RationalLike]) -> "GridFunction":
        bound, step = rat(bound), rat(step)
        indices = itertools.product(range(int(bound / step) + 1), repeat=n)
        return cls(n, bound, step, {idx: rat(fn(tuple(step * i for i in idx))) for idx in indices})

    @property
    def n(self) -> int:
        return self._n

    @property
    def bound(self) -> Fraction:
        return self._bound

    @property
    def step(self) -> Fraction:
        return self._step

    @property
    def cells(self) -> int:
        """Lattice cells per axis: bound / step."""
        return self._cells

    def indices(self):
        return itertools.product(range(self._cells + 1), repeat=self._n)

    def point(self, idx: tuple[int, ...]) -> PointN:
        return PointN(tuple(self._step * i for i in idx))

    def _point_at(self, code: int) -> PointN:
        """The lattice point with flat code `code`."""
        m = self._cells + 1
        return self.point(tuple(code // m ** k % m for k in reversed(range(self._n))))

    def _like(self, values: list[int]) -> "GridFunction":
        """The function with these flat values, ints over this function's denominator, on the same lattice."""
        g = object.__new__(GridFunction)
        g._n, g._bound, g._step, g._cells = self._n, self._bound, self._step, self._cells
        g._value_den, g._int_values = self._value_den, values
        return g

    def value_at(self, idx: tuple[int, ...]) -> Fraction:
        m = self._cells + 1
        if len(idx) != self._n or not all(0 <= i < m for i in idx):  # the list would serve these silently
            raise KeyError(idx)
        return Fraction(self._int_values[reduce(lambda code, i: code * m + i, idx, 0)], self._value_den)

    def value(self, p: PointN) -> Fraction:
        return self.value_at(_index_of(p, self._n, self._bound, self._step))

    def items(self):
        return zip(map(self.point, self.indices()), map(Fraction, self._int_values, itertools.repeat(self._value_den)))

    def __eq__(self, other):  # a modulus table keeps g's denominator, so values compare cross-multiplied
        lattice = attrgetter("_n", "_bound", "_step")
        return isinstance(other, GridFunction) and lattice(self) == lattice(other) and (
            [v * other._value_den for v in self._int_values] == [v * self._value_den for v in other._int_values])


def _index_of(p: PointN, n: int, bound: Fraction, step: Fraction) -> tuple[int, ...]:
    if p.dim != n:
        raise OffLatticeError(f"point dimension {p.dim} != lattice dimension {n}")
    cells = bound / step
    idx = []
    for c in p.coords:
        q = c / step
        if q.denominator != 1 or not 0 <= q <= cells:
            raise OffLatticeError(f"{p} is not a lattice point")
        idx.append(int(q))
    return tuple(idx)


def modulus(g: GridFunction, eps: PointN) -> Fraction:
    """Largest value gap over lattice pairs within the coordinatewise box eps.

    Zero when eps is the origin.  eps must be a lattice point; the
    value is read from :func:`modulus_table`.
    """
    eps_idx = _index_of(eps, g.n, g.bound, g.step)
    return modulus_table(g).value_at(eps_idx)


def _pair_rows(g: GridFunction, values: list[int]):
    """Per flat index x, the codes of |x - y| and the gaps |values[x] - values[y]| for every y >= x."""
    m, size = g.cells + 1, len(values)
    axes = []
    for w in (m ** k for k in range(g.n)):  # one weight per axis
        # |t| * w for t = 1 - m .. m - 1, each w times: the window from (m - 1 - a) * w holds the
        # axis part of the codes over m * w flat indices, seen from axis coordinate a
        axes.append((w, [abs(t) * w for t in range(1 - m, m) for _ in range(w)], size // (m * w)))
    for x, vx in enumerate(values):
        axis_rows = []
        for w, distances, periods in axes:
            start = (m - 1 - x // w % m) * w
            axis_rows.append((distances[start:start + m * w] * periods)[x:])
        yield list(reduce(partial(map, add), axis_rows)), list(map(abs, map(vx.__sub__, values[x:])))


def modulus_table(g: GridFunction) -> GridFunction:
    """The modulus at every lattice box, as one grid function.

    One pass over all pairs records the largest gap at each exact
    difference vector; a running max along each axis then turns exact
    differences into boxes.
    """
    exact = [0] * len(g._int_values)
    for codes, gaps in _pair_rows(g, g._int_values):
        for code, gap in zip(codes, gaps):
            if gap > exact[code]:
                exact[code] = gap
    m = g.cells + 1
    for stride in (m ** k for k in range(g.n)):
        for block in range(0, len(exact), stride * m):  # the more significant axes held fixed
            for lo in range(block + stride, block + stride * m, stride):
                exact[lo:lo + stride] = map(max, exact[lo - stride:lo], exact[lo:lo + stride])
    return g._like(exact)


def difference_bound_holds(
    f: GridFunction,
) -> tuple[bool, Optional[tuple[PointN, PointN]]]:
    """Check |f(x) - f(y)| <= f(|x - y|) over all lattice pairs.

    The hallmark inequality of isotone metric-preserving functions; the
    difference vector of two lattice points is again a lattice point,
    so the check is exact.  Returns the lexicographically first
    violating ordered pair on failure; it has x < y, as the inequality
    is symmetric and holds at x = y.
    """
    for x, (codes, gaps) in enumerate(_pair_rows(f, f._int_values)):
        # the first k, if any, with gaps[k] > f(|x - y|) for y = x + k
        k = next(itertools.compress(itertools.count(), map(gt, gaps, map(f._int_values.__getitem__, codes))), None)
        if k is not None:
            return False, (f._point_at(x), f._point_at(x + k))
    return True, None


class FixedPointReport(Record):
    max_deviation: Fraction
    at: Optional[PointN]


def is_fixed_point(f: GridFunction) -> tuple[bool, FixedPointReport]:
    """Is f its own lattice modulus of continuity, exactly?

    Reports the largest absolute deviation between f and its modulus
    table and where it occurs.
    """
    deviations = [abs(t - v) for t, v in zip(modulus_table(f)._int_values, f._int_values)]
    worst = max(deviations)
    where = f._point_at(deviations.index(worst)) if worst else None
    return worst == 0, FixedPointReport(max_deviation=Fraction(worst, f._value_den), at=where)


def nonconstant_wrt(g: GridFunction, i: int) -> bool:
    """Does some fixing of the other coordinates leave g nonconstant in coordinate i?

    One step along coordinate i is m ** (n - i) codes, m = cells + 1; g is
    nonconstant in it when some value differs from the one a step back.
    """
    if not 1 <= i <= g.n:
        raise IndexError(f"variable index {i} out of range 1..{g.n}")
    m, values = g.cells + 1, g._int_values
    step = m ** (g.n - i)
    return any(values[c] != values[c - step] for c in range(step, len(values)) if c // step % m)
