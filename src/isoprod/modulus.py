"""Grid-restricted modulus of continuity and its fixed points.

Functions live on the rectangular lattice {0, h, 2h, ..., T}^n.  For
isotone subadditive functions the lattice modulus agrees exactly with
the function itself, so the fixed-point test is an exact equality, not
an approximation; for arbitrary functions the lattice value is a
certified lower bound of the continuous modulus.

The kernels walk flat integer codes.  Lattice index i has the code
sum(i_k * (cells + 1) ** (n - 1 - k)), which keeps the lexicographic
order; the difference |x - y| of two lattice points is a lattice point.
The values are scaled to ints over one denominator once, where a grid
function is built (a grid file is loaded straight to codes and values,
``GridFunction.from_codes``); only a reported value becomes a Fraction.
The modulus at one box is a separable window max over the values; the
modulus at every box, ``modulus_table``, which the fixed-point test reads
and which is the reference for the window max, and the difference bound
scan all pairs by difference d, one C-level max per d (d >= 0 if isotone).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial, reduce
from operator import add, attrgetter, gt, sub
from typing import Callable, Optional

from .errors import OffLatticeError
from .points import PointN, RationalLike, Record, isotone_by_unit_steps, rat, scale_to_integers


class GridFunction(Record):
    """A total function on the lattice {0, h, ..., T}^n with rational values.

    The values are kept in one flat list in lattice-code order, the
    lexicographic order of the index tuples, as ints over one denominator.
    The fields are the lattice's; equality compares the values whatever
    their denominators, so a grid function is not hashable.
    """

    n: int
    bound: Fraction
    step: Fraction
    cells: int  # lattice cells per axis: bound / step

    def __init__(self, n: int, bound: RationalLike, step: RationalLike,
                 values: dict[tuple[int, ...], Fraction]):
        bound = rat(bound)
        step = rat(step)
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if bound <= 0 or step <= 0:
            raise ValueError("bound and step must be positive")
        m = int(bound / step) + 1  # a step that does not divide the bound is refused before a code is read
        on = {_code(idx, m): rat(v) for idx, v in values.items() if len(idx) == n and all(0 <= i < m for i in idx)}
        self._fill(n, bound, step, on, len(values))
        if len(on) != len(values):
            raise ValueError("values contain off-lattice entries")

    @classmethod
    def from_codes(cls, n: int, bound: Fraction, step: Fraction, values: dict[int, Fraction], given: int) -> "GridFunction":
        """The function with values[c] at the lattice point of flat code c, read from given entries,
        of which values holds those on the lattice; the caller has checked n >= 1 and that the
        bound and the step are positive."""
        g = object.__new__(cls)
        g._fill(n, bound, step, values, given)
        return g

    def _fill(self, n: int, bound: Fraction, step: Fraction, values: dict[int, Fraction], given: int) -> None:
        """Check that the step divides the bound, that the given entries are at least the 2 ** n
        points of the smallest lattice, and that every lattice point, in lattice order, has a
        value and no negative one; then keep the values as flat ints over one denominator."""
        cells = bound / step
        if cells.denominator != 1:
            raise ValueError(f"step {step} does not divide bound {bound}")
        if given.bit_length() <= n:  # 2 ** n > given: no index is built for a dimension this large
            raise ValueError(f"missing lattice values: {given} are too few for dimension n, as 2**n are needed")
        value_den, ints = scale_to_integers(values.values())
        self.__dict__.update(n=n, bound=bound, step=step, cells=int(cells), _value_den=value_den)
        ints = dict(zip(values, ints))
        size = (self.cells + 1) ** n
        if len(ints) < size or min(ints.values()) < 0:  # name the first point without a value or with a negative one
            code = next(c for c in itertools.count() if ints.get(c, -1) < 0)
            if code not in ints:
                raise ValueError(f"missing lattice value at index {self._index(code)}")
            raise ValueError(f"negative value {Fraction(ints[code], value_den)} at index {self._index(code)}")
        self.__dict__["_int_values"] = list(map(ints.__getitem__, range(size)))

    @classmethod
    def from_callable(cls, n: int, bound, step, fn: Callable[[tuple[Fraction, ...]], RationalLike]) -> "GridFunction":
        bound, step = rat(bound), rat(step)
        indices = itertools.product(range(int(bound / step) + 1), repeat=n)
        return cls(n, bound, step, {idx: rat(fn(tuple(step * i for i in idx))) for idx in indices})

    def indices(self):
        return itertools.product(range(self.cells + 1), repeat=self.n)

    def point(self, idx: tuple[int, ...]) -> PointN:
        return PointN(tuple(self.step * i for i in idx))

    def _index(self, code: int) -> tuple[int, ...]:
        """The index tuple of flat code `code`."""
        m = self.cells + 1
        return tuple(code // m ** k % m for k in reversed(range(self.n)))

    def _point_at(self, code: int) -> PointN:
        """The lattice point with flat code `code`."""
        return self.point(self._index(code))

    def _like(self, values: list[int]) -> "GridFunction":
        """The function with these flat values, ints over this function's denominator, on the same lattice."""
        g = object.__new__(GridFunction)
        g.__dict__.update(self.__dict__, _int_values=values)
        return g

    def value_at(self, idx: tuple[int, ...]) -> Fraction:
        m = self.cells + 1
        if len(idx) != self.n or not all(0 <= i < m for i in idx):  # the list would serve these silently
            raise KeyError(idx)
        return Fraction(self._int_values[_code(idx, m)], self._value_den)

    def value(self, p: PointN) -> Fraction:
        return self.value_at(_index_of(p, self.n, self.bound, self.step))

    def items(self):
        return zip(map(self.point, self.indices()), map(Fraction, self._int_values, itertools.repeat(self._value_den)))

    def __eq__(self, other):  # a modulus table keeps g's denominator, so values compare cross-multiplied
        lattice = attrgetter("n", "bound", "step")
        return isinstance(other, GridFunction) and lattice(self) == lattice(other) and (
            [v * other._value_den for v in self._int_values] == [v * self._value_den for v in other._int_values])


def _code(idx, m: int) -> int:
    """The flat code of index tuple idx on a lattice of m points per axis."""
    return reduce(lambda code, i: code * m + i, idx, 0)


def _axis_index(c: Fraction, bound: Fraction, step: Fraction) -> int:
    """The index of coordinate c on the axis {0, step, ..., bound}, step > 0; -1 when c is off
    the axis or no multiple of the step."""
    if not 0 <= c <= bound:
        return -1
    q = c / step
    return q.numerator if q.denominator == 1 else -1


def _index_of(p: PointN, n: int, bound: Fraction, step: Fraction) -> tuple[int, ...]:
    if p.dim != n:
        raise OffLatticeError(f"point dimension {p.dim} != lattice dimension {n}")
    idx = tuple(_axis_index(c, bound, step) for c in p.coords)
    if min(idx) < 0:
        raise OffLatticeError(f"{p} is not a lattice point")
    return idx


def modulus(g: GridFunction, eps: PointN) -> Fraction:
    """Largest value gap over lattice pairs within the coordinatewise box eps.

    Zero when eps is the origin; eps must be a lattice point.  The pair set
    is symmetric, so the modulus is the largest g(y) - g(x) with y in the box
    x +- eps, clipped at the lattice edge.  The box max is separable: each
    axis leads the flat codes in turn, and a pass for a positive radius r
    takes the max of the flat ints shifted by -r .. r steps along the
    leading axis, a shift the lattice edge clips.  Then the axes rotate, the
    leading one last, so after n rotations the codes are in lattice order
    again.  Only the result becomes a Fraction.
    """
    radii = _index_of(eps, g.n, g.bound, g.step)
    values = g._int_values
    rest = len(values) // (g.cells + 1)  # codes per index of the leading axis
    box = values
    for r in radii:
        if r:
            line, box = box, box[:]
            for shift in range(rest, r * rest + 1, rest):  # a comprehension compares faster than map(max, ...)
                box[:-shift] = [a if a > b else b for a, b in zip(box[:-shift], line[shift:])]
                box[shift:] = [a if a > b else b for a, b in zip(box[shift:], line[:-shift])]
        # rotate the axes: the rows of the leading axis, transposed, make it the last
        box = list(itertools.chain.from_iterable(zip(*(box[a:a + rest] for a in range(0, len(box), rest)))))
    return Fraction(max(map(sub, box, values)), g._value_den)


def _shifts(m: int, n: int, values: list[int]):
    """Per signed difference d = y - x with x before y in flat order: the flat code of |d| and the
    largest gap |values[y] - values[x]|.  Each trailing axis, the last first, keeps one slice of
    every block: the coordinates that d keeps on the lattice.  A shift by t along the leading axis
    is then an offset of t blocks.  Shifts run 0, 1, ..., m - 1, 1 - m, ..., -1 along each axis, so
    the unit steps along the leading axis come first.  On isotone values (by unit steps) only the
    d >= 0 are scanned, and their gaps take no abs.  The orthant lemma: for d = d+ - d- of mixed
    sign, x + d+ = max(x, y) and x - d- = min(x, y) are lattice points with d+, d- <= |d|, and
    values[y] - values[x] <= values[x + d+] - values[x] and values[x] - values[y] <= values[x] -
    values[x - d-], gaps at d+ and d-; as values[|d|] >= values[d+], values[d-], every box max and
    the difference bound's verdict are kept.
    """
    def cut(parts, k):  # each part, then the part with axis k cut to each nonzero shift e along it
        for xs, ys, code, sign in parts:
            inner = len(xs) // m ** (k + 1)  # codes per index of axis k
            rows = range(0, len(xs), m * inner)
            yield xs, ys, code, sign
            for e in itertools.chain(range(1, m), range(1 - m, 0) if signed else ()):
                lo, hi = max(0, -e) * inner, min(m, m - e) * inner
                yield (list(itertools.chain.from_iterable(xs[b + lo:b + hi] for b in rows)),
                       list(itertools.chain.from_iterable(ys[b + lo + e * inner:b + hi + e * inner] for b in rows)),
                       code + abs(e) * m ** (n - 1 - k), e)

    signed = not isotone_by_unit_steps(values, [m] * n)
    parts = [(values, values, 0, 0)]  # values at x and at x + d, the code of |d| and the sign of d so far
    for k in range(n - 1, 0, -1):  # a chain of n - 1 lazy stages, not a recursion
        parts = cut(parts, k)
    for xs, ys, code, sign in parts:
        width = len(xs) // m
        for t in range(sign <= 0, m):  # t = 0 only when the trailing shifts make d positive
            gaps = map(sub, itertools.islice(ys, t * width, None), xs)  # stops at the last x with x + d on the lattice
            yield code + t * m ** (n - 1), max(map(abs, gaps) if signed else gaps)


def modulus_table(g: GridFunction) -> GridFunction:
    """The modulus at every lattice box, as one grid function.

    The largest gap at each exact difference vector is one C-level max
    per difference (:func:`_shifts`; only d >= 0 on isotone values); a
    running max along each axis then turns exact differences into boxes.
    """
    m, exact = g.cells + 1, [0] * len(g._int_values)
    for code, gap in _shifts(m, g.n, g._int_values):
        if gap > exact[code]:
            exact[code] = gap
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
    so the check is exact.  The verdict stops at the first difference
    (:func:`_shifts`, d >= 0 on isotone f) whose largest gap breaks it.  On
    failure, the x-major row scan, which stops at the witness's row,
    returns the lexicographically first violating ordered pair, with
    x < y as the inequality is symmetric and holds at x = y.
    """
    m, values = f.cells + 1, f._int_values
    if all(gap <= values[code] for code, gap in _shifts(m, f.n, values)):
        return True, None
    # each flat code's part along each axis; the code of |x - y| sums |part(x) - part(y)| over the axes
    parts = [[c // w % m * w for c in range(len(values))] for w in (m ** k for k in range(f.n))]
    for x, vx in enumerate(values):
        codes = reduce(partial(map, add), (map(abs, map(sub, p[x:], itertools.repeat(p[x]))) for p in parts))
        gaps = map(abs, map(sub, values[x:], itertools.repeat(vx)))
        # the first k, if any, with gaps[k] > f(|x - y|) for y = x + k
        k = next(itertools.compress(itertools.count(), map(gt, gaps, map(values.__getitem__, codes))), None)
        if k is not None:
            return False, (f._point_at(x), f._point_at(x + k))


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
