"""Grid-restricted modulus of continuity and its fixed points.

Functions live on the rectangular lattice {0, h, 2h, ..., T}^n.  For
isotone subadditive functions the lattice modulus agrees exactly with
the function itself, so the fixed-point test is an exact equality, not
an approximation; for arbitrary functions the lattice value is a
certified lower bound of the continuous modulus.

The pair scans walk flat integer codes.  Lattice index i has the code
sum(i_k * (cells + 1) ** (n - 1 - k)), which keeps the lexicographic
order; the difference |x - y| of two lattice points is a lattice point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial, reduce
from operator import add, gt
from typing import Callable, Iterable, Optional

from .errors import OffLatticeError
from .points import PointN, RationalLike, Record, rat, scale_to_integers


class GridFunction:
    """A total function on the lattice {0, h, ..., T}^n with rational values."""

    __slots__ = ("_n", "_bound", "_step", "_cells", "_values")

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
        table = {}
        for idx in self.indices():
            if idx not in values:
                raise ValueError(f"missing lattice value at index {idx}")
            v = rat(values[idx])
            if v < 0:
                raise ValueError(f"negative value {v} at index {idx}")
            table[idx] = v
        if len(values) != (self._cells + 1) ** n:
            raise ValueError("values contain off-lattice entries")
        self._values = table

    @classmethod
    def from_points(cls, n: int, bound, step, entries: Iterable[tuple[PointN, RationalLike]]) -> "GridFunction":
        bound = rat(bound)
        step = rat(step)
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
        bound = rat(bound)
        step = rat(step)
        values = {}
        cells = int(bound / step)
        for idx in itertools.product(range(cells + 1), repeat=n):
            values[idx] = rat(fn(tuple(step * i for i in idx)))
        return cls(n, bound, step, values)

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

    def value_at(self, idx: tuple[int, ...]) -> Fraction:
        return self._values[idx]

    def value(self, p: PointN) -> Fraction:
        return self._values[_index_of(p, self._n, self._bound, self._step)]

    def items(self):
        for idx in self.indices():
            yield self.point(idx), self._values[idx]

    def __eq__(self, other):
        return (
            isinstance(other, GridFunction)
            and self._n == other._n
            and self._bound == other._bound
            and self._step == other._step
            and self._values == other._values
        )


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
    indices = list(g.indices())
    den, values = scale_to_integers(map(g.value_at, indices))
    exact = [0] * len(values)
    for codes, gaps in _pair_rows(g, values):
        for code, gap in zip(codes, gaps):
            if gap > exact[code]:
                exact[code] = gap
    m = g.cells + 1
    for stride in (m ** k for k in range(g.n)):
        for block in range(0, len(exact), stride * m):  # the more significant axes held fixed
            for lo in range(block + stride, block + stride * m, stride):
                exact[lo:lo + stride] = map(max, exact[lo - stride:lo], exact[lo:lo + stride])
    return GridFunction(g.n, g.bound, g.step, {idx: Fraction(v, den) for idx, v in zip(indices, exact)})


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
    indices = list(f.indices())
    _, values = scale_to_integers(map(f.value_at, indices))
    for x, (codes, gaps) in enumerate(_pair_rows(f, values)):
        # the first k, if any, with gaps[k] > f(|x - y|) for y = x + k
        k = next(itertools.compress(itertools.count(), map(gt, gaps, map(values.__getitem__, codes))), None)
        if k is not None:
            return False, (f.point(indices[x]), f.point(indices[x + k]))
    return True, None


class FixedPointReport(Record):
    max_deviation: Fraction
    at: Optional[PointN]


def is_fixed_point(f: GridFunction) -> tuple[bool, FixedPointReport]:
    """Is f its own lattice modulus of continuity, exactly?

    Reports the largest absolute deviation between f and its modulus
    table and where it occurs.
    """
    table = modulus_table(f)
    worst = Fraction(0)
    where: Optional[PointN] = None
    for idx in f.indices():
        dev = abs(table.value_at(idx) - f.value_at(idx))
        if dev > worst:
            worst = dev
            where = f.point(idx)
    return worst == 0, FixedPointReport(max_deviation=worst, at=where)


def nonconstant_wrt(g: GridFunction, i: int) -> bool:
    """Does some fixing of the other coordinates leave g nonconstant in coordinate i?"""
    if not 1 <= i <= g.n:
        raise IndexError(f"variable index {i} out of range 1..{g.n}")
    axis = i - 1
    others = [range(g.cells + 1)] * (g.n - 1)
    for rest in itertools.product(*others):
        line = []
        for k in range(g.cells + 1):
            idx = rest[:axis] + (k,) + rest[axis:]
            line.append(g.value_at(idx))
        if any(v != line[0] for v in line):
            return True
    return False


def grid_from_combiner(combiner, n: int, bound=Fraction(2), step=Fraction(1, 4)) -> GridFunction:
    """Sample a closed-form combiner on the default lattice."""
    return GridFunction.from_callable(n, bound, step, lambda coords: combiner(coords))
